"""Hiding bits in constant-tempo audio by per-slice tempo modulation.

The carrier is cut into fixed slices of phi_s seconds. The first slice is
left untouched and serves as the tempo reference; the last (possibly
partial) slice is an untouched tail. Every slice in between carries one
bit: its tempo is raised by delta (1% by default) for a 1 bit and
lowered by delta for a 0 bit. The change is far below the ~2.75%
absolute accuracy of tempo estimation, so a listener or a single
measurement cannot tell, but the *direction* of the difference between a
payload slice and the reference survives measurement noise.

Decoding measures tempo candidates in a trimmed window of each slice and
compares them against the reference's candidates: all cross pairs become
percentage differences ("attributes"), pairs whose magnitude exceeds
discard_pct are dropped (they compare unrelated harmonics), and the sign
of the surviving sum names the direction. A slice with no usable pairs
becomes an erasure, not a guess.

Because stretched slices change length, slice boundaries in the encoded
file drift away from the nominal i * phi_s grid. In the default Tracked
boundary mode the decoder advances each boundary by the length encode
wrote for the bit it just decoded (stretch.stretched_length), keeping
windows on the written boundaries; Static mode reads the nominal grid and
tolerates the drift.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .audio import PcmBuffer, mean_square, rms_dbfs
from .bits import ERASURE, BitString, plan_spanning
from .errors import (
    InvalidSymbol,
    LowEnergy,
    MessageTooLong,
    NonFiniteSamples,
    NoPeriodicity,
    ReferenceSilent,
    TooShort,
    Undecidable,
)
from .stretch import stretch_tempo, stretched_length
from .tempo import MAX_DELTA, MIN_MEASURE_S, SETTINGS, TempoCandidates, estimate_tempo

# Decisions with confidence below this are flagged in report warnings.
LOW_CONFIDENCE = 0.5

# Reference silence scan: any 2 s window under the RMS gate disqualifies
# the reference slice. 2 s is long enough that the gaps of a sparse 40 BPM
# pulse never trip it, short enough to catch a few seconds of lead-in
# silence hiding inside an otherwise loud slice.
_SILENCE_WIN_S = 2.0
_SILENCE_HOP_S = 1.0
# The scan's RMS gate is the tempo estimator's, so a reference that passes
# the scan is one the estimator will measure.
_SILENCE_GATE_DBFS = SETTINGS.min_rms_dbfs

# Decoding must not depend on playback level, so the stego buffer is
# normalized to this RMS before any measurement. Digital silence stays at
# -inf dBFS regardless, so the silence guards still work.
_NORM_TARGET_DBFS = -20.0


class Direction(enum.Enum):
    UP = "up"
    DOWN = "down"


class BoundaryMode(enum.Enum):
    STATIC = "static"
    TRACKED = "tracked"


@dataclass(frozen=True)
class StegoParams:
    """Channel geometry shared by encoder and decoder.

    phi_s: slice length in seconds (one hidden bit per payload slice).
    delta: tempo offset fraction; 0.01 means payload slices play 1%
        faster or slower than the reference.
    trim_frac: fraction trimmed from each end of a slice before measuring
        tempo, so boundary artifacts and drift stay out of the window.
    discard_pct: attribute gate; candidate-pair differences larger than
        this (in percent) compare different harmonics and are ignored.
    boundary_mode: how the decoder advances slice boundaries.
    """

    phi_s: float = 10.0
    delta: float = 0.01
    trim_frac: float = 0.05
    discard_pct: float = 4.0
    boundary_mode: BoundaryMode = BoundaryMode.TRACKED

    def __post_init__(self):
        # each range is written so that NaN and infinity fall outside it
        if not (10.0 <= self.phi_s < math.inf):
            raise ValueError("phi_s must be finite and at least 10 s")
        if not (0.0 < self.delta <= MAX_DELTA):
            raise ValueError(f"delta must be in (0, {MAX_DELTA:g}]")
        if not (0.0 <= self.trim_frac < 0.5):
            raise ValueError("trim_frac must be in [0, 0.5)")
        if not (0.0 < self.discard_pct < math.inf):
            raise ValueError("discard_pct must be positive and finite")
        if self.phi_s * (1.0 - 2.0 * self.trim_frac) < MIN_MEASURE_S:
            raise ValueError(f"trimmed window would be under {MIN_MEASURE_S:g} s")


@dataclass(frozen=True)
class SliceDecision:
    slice_index: int
    direction: Direction | None
    confidence: float
    candidate_count_used: int


@dataclass(frozen=True)
class DecodeReport:
    bits: BitString
    per_slice: tuple[SliceDecision, ...]
    warnings: tuple[str, ...]
    params_used: StegoParams

    def to_dict(self) -> dict:
        return {
            "bits": str(self.bits),
            "per_slice": [_json_fields(d) for d in self.per_slice],
            "warnings": list(self.warnings),
            "params": _json_fields(self.params_used),
        }


def _json_fields(obj) -> dict:
    # every dataclass field, with Enum members replaced by their values
    return {
        k: v.value if isinstance(v, enum.Enum) else v for k, v in asdict(obj).items()
    }


@dataclass(frozen=True)
class SlicePlan:
    """Sample intervals covering the whole carrier: reference, payload
    slices, untouched tail. Intervals are contiguous and non-overlapping."""

    reference: tuple[int, int]
    data: tuple[tuple[int, int], ...]
    tail: tuple[int, int]

    @property
    def capacity(self) -> int:
        return len(self.data)


def capacity(duration_s: float, params: StegoParams = StegoParams()) -> int:
    """Payload bits a carrier of this duration can hold.

    One whole slice anchors the reference and one is reserved for the
    tail, so floor(duration / phi_s) - 2, floored at zero. This works in
    seconds; for a buffer in hand, plan_slices(...).capacity is the
    figure encode enforces, which can be one lower when phi_s * rate is
    not a whole number of samples.
    """
    n_slices = int(math.floor(duration_s / params.phi_s + 1e-9))
    return max(0, n_slices - 2)


def _geometry(sample_rate: int, params: StegoParams) -> tuple[int, int, int]:
    """Slice length, per-edge trim and measurement window, in samples."""
    if not math.isfinite(params.phi_s * sample_rate):
        raise ValueError(f"phi_s {params.phi_s:g} s is too long at {sample_rate} Hz")
    phi_n = int(round(params.phi_s * sample_rate))
    trim_n = int(round(params.trim_frac * params.phi_s * sample_rate))
    return phi_n, trim_n, phi_n - 2 * trim_n


def plan_slices(n_samples: int, sample_rate: int, params: StegoParams) -> SlicePlan:
    phi_n, _, _ = _geometry(sample_rate, params)
    n_slices = n_samples // phi_n
    if n_slices == 0:
        return SlicePlan((0, n_samples), (), (n_samples, n_samples))
    data = tuple((i * phi_n, (i + 1) * phi_n) for i in range(1, n_slices - 1))
    tail_start = max(1, n_slices - 1) * phi_n
    return SlicePlan((0, phi_n), data, (tail_start, n_samples))


def _ratio_for(direction: Direction, delta: float) -> float:
    # Raising tempo by delta shortens the slice by the same factor.
    return 1.0 + delta if direction is Direction.UP else 1.0 - delta


def _reference_silent(ref: PcmBuffer) -> bool:
    sr = ref.sample_rate
    win = min(len(ref), int(round(_SILENCE_WIN_S * sr)))
    hop = max(1, int(round(_SILENCE_HOP_S * sr)))
    for start in range(0, len(ref) - win + 1, hop):
        piece = PcmBuffer(samples=ref.samples[start : start + win], sample_rate=sr)
        if rms_dbfs(piece) < _SILENCE_GATE_DBFS:
            return True
    return False


def _surviving_attributes(
    reference: TempoCandidates, sample: TempoCandidates, discard_pct: float
) -> list[float]:
    kept = []
    for ref_bpm, _ in reference.entries:
        for smp_bpm, _ in sample.entries:
            attr = 100.0 * (smp_bpm - ref_bpm) / ref_bpm
            if abs(attr) <= discard_pct:
                kept.append(attr)
    return kept


def _decide(kept: list[float]) -> tuple[Direction, float]:
    if not kept:
        raise Undecidable("all candidate pairs exceeded the discard gate")
    total = sum(kept)
    if total == 0.0:
        raise Undecidable("surviving attributes sum to exactly zero")
    return (Direction.UP if total > 0.0 else Direction.DOWN), abs(total)


def classify_slice(
    reference: TempoCandidates, sample: TempoCandidates, params: StegoParams = StegoParams()
) -> tuple[Direction, float]:
    """Decide whether `sample` plays faster (UP) or slower (DOWN) than
    `reference`.

    Every (reference candidate, sample candidate) pair yields a percentage
    difference; pairs beyond discard_pct are dropped and the sign of the
    surviving sum is the direction. The absolute sum is returned as a
    confidence figure. Raises Undecidable when nothing survives or the
    sum is exactly zero.
    """
    return _decide(_surviving_attributes(reference, sample, params.discard_pct))


def encode(
    carrier: PcmBuffer,
    message: BitString,
    params: StegoParams = StegoParams(),
) -> PcmBuffer:
    """Embed a message, returning the modulated carrier.

    The reference slice and tail pass through untouched, as do payload
    slices beyond the end of the message. Raises MessageTooLong when the
    message exceeds the carrier's capacity, ReferenceSilent when the first
    slice contains silence (decoding would be anchored to a bad tempo
    measurement), InvalidSymbol if the message carries erasures, and
    NonFiniteSamples if the carrier holds NaN or infinity.
    """
    if message.has_erasures:
        raise InvalidSymbol("cannot embed a message containing erasures")
    x = carrier.samples
    # one dot product screens the whole carrier; it is also inf for huge
    # finite samples, so a second pass confirms before rejecting
    if not np.isfinite(np.dot(x, x)) and not np.isfinite(x).all():
        raise NonFiniteSamples("the carrier holds NaN or infinite samples")
    plan = plan_slices(len(carrier), carrier.sample_rate, params)
    if len(message) > plan.capacity:
        raise MessageTooLong(message_bits=len(message), capacity=plan.capacity)

    sr = carrier.sample_rate
    _, ref_end = plan.reference
    if _reference_silent(PcmBuffer(samples=x[:ref_end], sample_rate=sr)):
        raise ReferenceSilent("the reference slice contains silence")

    # one output buffer sized by the length law; each payload slice is
    # stretched straight into its slot and everything else copied once
    ratios = [_ratio_for(Direction.UP if bit == 1 else Direction.DOWN, params.delta)
              for bit in message]
    slots = [stretched_length(s1 - s0, r) for (s0, s1), r in zip(plan.data, ratios)]
    out = np.empty(len(x) + sum(n - (s1 - s0) for (s0, s1), n in zip(plan.data, slots)))
    out[:ref_end] = x[:ref_end]
    o = src = ref_end
    for (s0, s1), ratio, n in zip(plan.data, ratios, slots):
        piece = PcmBuffer(samples=x[s0:s1], sample_rate=sr)
        # advancing by the returned length (not the slot's) makes a stretch
        # that breaks the length law give a wrong-length file
        o += len(stretch_tempo(piece, ratio, out=out[o : o + n]))
        src = s1
    rest = x[src:]
    out[o : o + len(rest)] = rest
    return PcmBuffer(samples=out[: o + len(rest)], sample_rate=sr)


def decode(
    stego: PcmBuffer,
    params: StegoParams = StegoParams(),
    *,
    max_bits: int | None = None,
    reference_override: TempoCandidates | None = None,
    force_decide: bool = False,
) -> DecodeReport:
    """Recover bits from a carrier encoded with the same params.

    The buffer is RMS-normalized first, so the result does not depend on
    playback level (only digital silence is still treated as silence).
    Reads every payload slice (or the first max_bits). Slices the
    classifier cannot decide come back as erasures unless force_decide is
    set, which breaks ties toward DOWN with zero confidence. Slices where
    tempo measurement itself fails (silence, no periodicity) are always
    erasures and noted in the warnings. Raises TooShort when the buffer
    is shorter than the shortest file encode writes from a three-slice
    carrier (reference, one raised slice, tail), NonFiniteSamples when
    the buffer holds NaN or infinity, and ValueError for a negative
    max_bits.

    reference_override substitutes externally supplied reference
    candidates in place of measuring the first slice; it exists for
    testing how a corrupted reference propagates, and skips the silence
    guard.
    """
    if max_bits is not None and max_bits < 0:
        raise ValueError("max_bits must be non-negative")
    sr = stego.sample_rate
    phi_n, trim_n, win_n = _geometry(sr, params)
    n = len(stego)
    if n < 2 * phi_n + stretched_length(phi_n, _ratio_for(Direction.UP, params.delta)):
        raise TooShort("decoding needs a reference, one payload slice and a tail")
    samples = stego.samples
    # squared a block at a time, so no full-length temporary is held
    with np.errstate(over="ignore"):
        mean_sq = mean_square(samples)
    # a non-finite mean square is NaN/inf input or an overflow of huge
    # finite samples; only the first is rejected
    if not math.isfinite(mean_sq):
        if not np.isfinite(samples).all():
            raise NonFiniteSamples("the stego buffer holds NaN or infinite samples")
        # |x| above ~1e154: measure the level of samples / peak instead
        peak = float(np.max(np.abs(samples)))
        scale = 10.0 ** (_NORM_TARGET_DBFS / 20.0) / (
            peak * np.sqrt(mean_square(samples / peak))
        )
    elif mean_sq > 0.0:
        scale = 10.0 ** (_NORM_TARGET_DBFS / 20.0) / np.sqrt(mean_sq)
    else:
        scale = 1.0

    def normalized(a: int, b: int) -> PcmBuffer:
        # only the samples decode reads are scaled; no full-length copy
        return PcmBuffer(samples=samples[a:b] * scale, sample_rate=sr)

    notes: list[str] = []
    plan = plan_slices(n, sr, params)
    if max_bits is None:
        n_read = plan.capacity
        if n_read == 0:
            notes.append("shorter than three slices, so no slice was read; pass max_bits")
    else:
        # A message with more raised than lowered slices shrinks the file,
        # which can drop the last payload slice out of the plan's
        # capacity; an explicit max_bits is allowed to reach one slice past
        # it (the net drift never exceeds one slice length).
        n_read = min(max_bits, plan.capacity + 1)

    if reference_override is None:
        reference = normalized(0, phi_n)
        if _reference_silent(reference):
            raise ReferenceSilent("the reference slice contains silence")
        ref_cands = estimate_tempo(
            PcmBuffer(samples=reference.samples[trim_n : phi_n - trim_n], sample_rate=sr)
        )
    else:
        ref_cands = reference_override

    symbols: list[int] = []
    decisions: list[SliceDecision] = []
    boundary = phi_n
    for i in range(1, n_read + 1):
        w0 = boundary + trim_n
        w1 = w0 + win_n
        if w1 > n:
            notes.append(f"slice {i}: window runs past the end; stopping")
            break
        window = normalized(w0, w1)

        direction: Direction | None = None
        conf = 0.0
        used = 0
        try:
            cands = estimate_tempo(window)
        except (LowEnergy, NoPeriodicity, TooShort) as exc:
            notes.append(f"slice {i}: {type(exc).__name__}")
        else:
            kept = _surviving_attributes(ref_cands, cands, params.discard_pct)
            used = len(kept)
            try:
                direction, conf = _decide(kept)
            except Undecidable:
                if force_decide:
                    direction, conf = Direction.DOWN, 0.0
                else:
                    notes.append(f"slice {i}: Undecidable")

        if direction is None:
            symbols.append(ERASURE)
        else:
            symbols.append(1 if direction is Direction.UP else 0)
            if conf < LOW_CONFIDENCE:
                notes.append(f"slice {i}: low confidence {conf:.3f}")
        decisions.append(SliceDecision(i, direction, conf, used))

        # tracked: the next slice starts where encode ended this one, by
        # the stretcher's length law; an erasure or static mode keeps the
        # nominal grid
        if direction is None or params.boundary_mode is BoundaryMode.STATIC:
            boundary += phi_n
        else:
            boundary += stretched_length(phi_n, _ratio_for(direction, params.delta))

    return DecodeReport(
        bits=BitString(tuple(symbols)),
        per_slice=tuple(decisions),
        warnings=tuple(notes),
        params_used=params,
    )


def encode_playlist(
    carriers: list[PcmBuffer],
    message: BitString,
    params: StegoParams = StegoParams(),
) -> list[PcmBuffer]:
    """Spread one message across several carriers, in order.

    Each carrier takes up to the capacity of its slice plan, greedily;
    trailing carriers may come back unmodified. Raises
    InsufficientCapacity when the message cannot fit in total.
    """
    caps = [plan_slices(len(c), c.sample_rate, params).capacity for c in carriers]
    segments = plan_spanning(message, caps)
    return [encode(c, seg, params) for c, seg in zip(carriers, segments)]
