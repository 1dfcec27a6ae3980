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

Encode and decode judge the untouched reference slice alike, scaled to
a fixed RMS, and decode scales each window it reads by the same factor:
its bits depend neither on playback level nor on audio after the song.

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
import os
import signal
from dataclasses import asdict, dataclass

import numpy as np

from .audio import PcmBuffer, _fill, _write_all, float_range, rms_dbfs, screen_finite, usable_cpus
from .bits import ERASURE, BitString, plan_spanning
from .errors import (
    InvalidSymbol,
    LowEnergy,
    MessageTooLong,
    NoPeriodicity,
    ReferenceSilent,
    TooShort,
    Undecidable,
)
from .stretch import stretch_tempo, stretched_length
from .tempo import (
    MAX_DELTA,
    MIN_MEASURE_S,
    SETTINGS,
    TempoCandidates,
    estimate_tempo,
)

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

# The reference slice is scaled to this RMS before it is judged: with the
# gate above, a 2 s window over 25 dB below the slice's RMS is silence.
_NORM_TARGET_DBFS = -20.0

# A payload slice's attribute is about 100 * delta percent, and a discard
# gate under it erases the slice. The estimate's error adds a part that
# does not scale with delta: over 310 random click carriers a slice needed
# at most 1.52 * 100 * delta, and at most 1.2 * 100 * delta + 0.17. At
# MAX_DELTA this gate is 3.9, so the default 4.0 admits every delta.
_DISCARD_MARGIN = 1.2
_DISCARD_SLACK_PCT = 0.3


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
        gate = _DISCARD_MARGIN * 100.0 * self.delta + _DISCARD_SLACK_PCT
        if not (gate <= self.discard_pct < math.inf):
            raise ValueError(f"discard_pct must be finite and at least {gate:g} at this delta")
        if self.phi_s * (1.0 - 2.0 * self.trim_frac) < MIN_MEASURE_S:
            raise ValueError(f"trimmed window would be under {MIN_MEASURE_S:g} s")


@dataclass(frozen=True)
class SliceDecision:
    slice_index: int
    direction: Direction | None
    confidence: float
    candidate_count_used: int
    # "decided"; "forced" when force_decide broke an Undecidable tie toward
    # DOWN; else the name of the error that erased the slice (direction None)
    outcome: str = "decided"


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
    not a whole number of samples. A NaN or infinite duration raises
    ValueError.
    """
    if not math.isfinite(duration_s):
        raise ValueError(f"capacity needs a finite duration, not {duration_s} s")
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


def _reference_factor(x: np.ndarray, sr: int) -> float:
    """The factor that scales the reference slice x to _NORM_TARGET_DBFS
    RMS, found from x / peak so no finite sample overflows. Raises
    ReferenceSilent if x is empty or all zeros, or if any 2 s of x scaled
    is under the scan gate."""
    peak = max(x.max(initial=0.0), -x.min(initial=0.0))
    with np.errstate(divide="ignore", invalid="ignore"):  # an all-zero or empty x
        q = x / peak
        mean_sq = np.square(q, out=q).sum() / len(x)
        factor = float(10.0 ** (_NORM_TARGET_DBFS / 20.0) / (peak * np.sqrt(mean_sq)))
    win = min(len(x), int(round(_SILENCE_WIN_S * sr)))
    hop = max(1, int(round(_SILENCE_HOP_S * sr)))
    if not math.isfinite(factor) or any(
        rms_dbfs(PcmBuffer(samples=x[i : i + win] * factor, sample_rate=sr)) < _SILENCE_GATE_DBFS
        for i in range(0, len(x) - win + 1, hop)
    ):
        raise ReferenceSilent("the reference slice contains silence")
    return factor


def _reference_tempo(buf: PcmBuffer, factor: float, params: StegoParams) -> TempoCandidates:
    """The tempo candidates of the reference slice's trimmed window in
    buf, scaled by factor, which decode compares every slice against.
    Raises what estimate_tempo raises."""
    phi_n, trim_n, _ = _geometry(buf.sample_rate, params)
    window = float_range(buf, trim_n, phi_n - trim_n, factor)
    return estimate_tempo(PcmBuffer(samples=window, sample_rate=buf.sample_rate))


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
    slices beyond the end of the message. The payload slices are
    stretched in one process per usable CPU (forked workers, where the
    platform has an affinity call); the output does not depend on how
    many. Each worker writes its run to an anonymous memory file, which
    this process reads once the worker has exited; a run no worker hands
    back is stretched here. Raises MessageTooLong when the message exceeds
    the carrier's capacity, ReferenceSilent when any 2 s of the first
    slice is silent relative to the slice's own level (decoding would be
    anchored to a bad tempo measurement), the error decode would raise
    (NoPeriodicity, LowEnergy) when a message is given and the first
    slice's tempo cannot be measured, InvalidSymbol if the message
    carries erasures, and NonFiniteSamples if the carrier holds NaN or
    infinity.
    """
    if message.has_erasures:
        raise InvalidSymbol("cannot embed a message containing erasures")
    screen_finite(carrier, "carrier")
    n = len(carrier)
    plan = plan_slices(n, carrier.sample_rate, params)
    if len(message) > plan.capacity:
        raise MessageTooLong(message_bits=len(message), capacity=plan.capacity)

    sr = carrier.sample_rate
    _, ref_end = plan.reference
    # one output buffer sized by the length law; the reference and the
    # tail are read straight into it and the payload slices stretched
    # into it
    ratios = [_ratio_for(Direction.UP if bit == 1 else Direction.DOWN, params.delta)
              for bit in message]
    jobs = [((s0, s1), r, stretched_length(s1 - s0, r)) for (s0, s1), r in zip(plan.data, ratios)]
    out = np.empty(n + sum(k - (s1 - s0) for (s0, s1), _, k in jobs))
    factor = _reference_factor(float_range(carrier, 0, ref_end, out=out[:ref_end]), sr)
    if message:  # decode reads a message against the measured reference
        _reference_tempo(carrier, factor, params)
    o = _stretch_into(carrier, jobs, out, ref_end)
    # the tail is what follows the last stretched slice's input
    rest = jobs[-1][0][1] if jobs else ref_end
    end = o + n - rest
    float_range(carrier, rest, n, out=out[o:end])
    return PcmBuffer(samples=out[:end], sample_rate=sr)


def _stretch_into(
    carrier: PcmBuffer, jobs: list[tuple[tuple[int, int], float, int]], out: np.ndarray, o: int
) -> int:
    """Stretch each job ((s0, s1), ratio, n) of the carrier into out in
    order, each where the previous one ended, from o on; return where the
    last ended.

    The jobs are cut into k = min(usable CPUs, jobs) runs of consecutive
    jobs, the first of them the longest. This process stretches the first
    run. Each other run gets an anonymous memory file, made before a
    forked child stretches the run into its copy-on-write view of out and
    writes the samples it stretched to that file. Once its own run is
    done, this process reaps the children in order and reads each run
    from its file into out at the running offset; the file's size gives
    the run's sample count. A run with no memory file (no descriptor or
    memory to spare, no memfd_create) or no fork, or whose child exits
    non-zero, dies by a signal or leaves a short file, is stretched here
    at the running offset, so an exception comes from this call. The
    result does not depend on k, and a stretch that returns fewer than n
    samples gives the file a serial loop writes.
    """
    sr = carrier.sample_rate
    k = max(1, min(usable_cpus(), len(jobs)))
    q, r = divmod(len(jobs), k)
    cuts = [i * q + min(i, r) for i in range(k + 1)]
    runs = [jobs[a:b] for a, b in zip(cuts, cuts[1:])]

    def stretch(run: list, o: int) -> int:
        for (s0, s1), ratio, n in run:
            # a 16-bit carrier's slice is converted here, in the process
            # that stretches it
            piece = PcmBuffer(samples=float_range(carrier, s0, s1), sample_rate=sr)
            o += len(stretch_tempo(piece, ratio, out=out[o : o + n]))
        return o

    forked = []  # (run, pid), pid None where no child took the run
    files = {}  # pid: the memory file its run comes back in, until reaped
    try:
        at = o + sum(n for *_, n in runs[0])
        for run in runs[1:]:
            fd = pid = None
            # Python 3.12+ warns about a fork once the shared pool has
            # started threads; the child runs only numpy kernels and a file
            # write, and audio's at-fork hook drops the pool it inherits,
            # so the warning is harmless (the 3.12 CI leg runs these forks)
            try:
                fd = os.memfd_create("tempostego-run", os.MFD_CLOEXEC)
                pid = os.fork()
            except (AttributeError, OSError):  # no memory file or no fork: stretched here
                if fd is not None:
                    os.close(fd)
            if pid == 0:
                # no atexit handlers, no stdio flush: the parent owns those
                try:
                    _write_all(fd, out[at : stretch(run, at)])
                    os._exit(0)
                finally:  # reached only when the stretch or the write raised
                    os._exit(1)
            if pid is not None:
                files[pid] = fd
            forked.append((run, pid))
            at += sum(n for *_, n in run)
        o = stretch(runs[0], o)
        for run, pid in forked:
            if pid is not None:
                ok = os.waitpid(pid, 0)[1] == 0
                fd = files.pop(pid)
                try:
                    count = os.fstat(fd).st_size // 8
                    dst = out[o : o + count]
                    if ok and _fill(lambda b, pos: os.preadv(fd, [b], pos), dst, 0) == 8 * count:
                        o += count
                        continue
                finally:
                    os.close(fd)
            o = stretch(run, o)
    finally:
        # only reached with children left when this process raised
        for pid, fd in files.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return o


def decode(
    stego: PcmBuffer,
    params: StegoParams = StegoParams(),
    *,
    max_bits: int | None = None,
    reference_override: TempoCandidates | None = None,
    force_decide: bool = False,
) -> DecodeReport:
    """Recover bits from a carrier encoded with the same params.

    Every window is scaled by the factor that brings the reference slice
    to a fixed RMS, so the result depends neither on playback level nor
    on audio after the song. Reads every payload slice (or the first
    max_bits). Slices the classifier cannot decide come back as erasures
    unless force_decide is set, which breaks ties toward DOWN with zero
    confidence. Slices where tempo measurement itself fails (silence, no
    periodicity) are always erasures. Each SliceDecision.outcome says why
    its slice was decided or erased; the warnings derive from it. Raises
    TooShort when the buffer is shorter than the shortest file encode
    writes from a three-slice carrier (reference, one raised slice,
    tail), NonFiniteSamples when the buffer holds NaN or infinity,
    ReferenceSilent under the guard encode applies to the first slice,
    and ValueError for a negative max_bits.

    reference_override substitutes externally supplied reference
    candidates in place of measuring the first slice; it exists for
    testing how a corrupted reference propagates. The level and the
    silence guard still come from the reference samples.
    """
    if max_bits is not None and max_bits < 0:
        raise ValueError("max_bits must be non-negative")
    sr = stego.sample_rate
    phi_n, trim_n, win_n = _geometry(sr, params)
    n = len(stego)
    if n < 2 * phi_n + stretched_length(phi_n, _ratio_for(Direction.UP, params.delta)):
        raise TooShort("decoding needs a reference, one payload slice and a tail")
    screen_finite(stego, "stego buffer")
    factor = _reference_factor(float_range(stego, 0, phi_n), sr)

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

    ref_cands = reference_override or _reference_tempo(stego, factor, params)

    decisions: list[SliceDecision] = []
    boundary = phi_n
    for i in range(1, n_read + 1):
        w0 = boundary + trim_n
        w1 = w0 + win_n
        if w1 > n:
            break
        # only the samples decode reads are scaled; no full-length copy
        window = PcmBuffer(samples=float_range(stego, w0, w1, factor), sample_rate=sr)

        direction, conf, kept, outcome = None, 0.0, [], "decided"
        try:
            kept = _surviving_attributes(ref_cands, estimate_tempo(window), params.discard_pct)
            direction, conf = _decide(kept)
        except (LowEnergy, NoPeriodicity, TooShort, Undecidable) as exc:
            outcome = type(exc).__name__
            if force_decide and outcome == "Undecidable":
                direction, outcome = Direction.DOWN, "forced"
        decisions.append(SliceDecision(i, direction, conf, len(kept), outcome))

        # tracked: the next slice starts where encode ended this one, by
        # the stretcher's length law; an erasure or static mode keeps the
        # nominal grid
        if direction is None or params.boundary_mode is BoundaryMode.STATIC:
            boundary += phi_n
        else:
            boundary += stretched_length(phi_n, _ratio_for(direction, params.delta))

    for d in decisions:
        if d.direction is None:
            notes.append(f"slice {d.slice_index}: {d.outcome}")
        elif d.confidence < LOW_CONFIDENCE:
            notes.append(f"slice {d.slice_index}: low confidence {d.confidence:.3f}")
    if len(decisions) < n_read:  # the loop stopped early
        notes.append(f"slice {len(decisions) + 1}: window runs past the end; stopping")
    return DecodeReport(
        bits=BitString(tuple(
            ERASURE if d.direction is None else int(d.direction is Direction.UP)
            for d in decisions
        )),
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
