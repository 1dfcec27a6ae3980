"""Hiding bits in constant-tempo audio by per-slice tempo modulation.

The carrier is cut into fixed slices of phi_s seconds. The first slice is
left untouched and serves as the tempo reference; the last (possibly
partial) slice is an untouched tail. Every slice in between carries one
bit: its tempo is raised by delta (1% by default) for a 1 bit and
lowered by delta for a 0 bit. The change is below the ~2.75% absolute
accuracy of tempo estimation, but the *direction* of the difference
between a payload slice and the reference survives measurement noise.

That direction is what gives the channel away. A warden who knows the
scheme decodes a file blind (max_bits=21) and takes the median
confidence of the decided slices. On 240 s click carriers at 100, 120
and 128 BPM, clean and under a 0 dB noise bed, each with 21 random
bits, that median was 0.000-0.028 for the six covers and 0.327-2.104
for their stego files (0.000-0.025 and 0.251-1.867 with other seeds):
one threshold told every pair apart. Whether a listener hears the
change is not measured here.

Decode reads the reference and every payload slice through one window
rule (_window: the slice trimmed by trim_frac at both edges, scaled by
the factor that brings the reference slice to a fixed RMS, so bits
depend neither on playback level nor on audio after the song) and one
reading (_read), which compares the window's tempo candidates with the
reference's: all cross pairs become percentage differences
("attributes"), pairs whose magnitude exceeds discard_pct are dropped
(they compare unrelated harmonics), and the sign of the surviving sum
names the direction. A slice with no usable pairs, or whose tempo
cannot be measured, becomes an erasure, not a guess.

Each window is read first at the quarter rate (estimate_tempo's
quarter_rate, whose FFTs cost about a fifth of the full-rate ones). A
decision that reaches LOW_CONFIDENCE is kept; a weaker or failed one is
read again at full rate, so every low-confidence decision and every
erasure is the full-rate one. Files whose reference reads different
tempi at the two rates are read at full rate throughout. Encode
measures its reference window as decode does.

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
import mmap
import numbers
import os
import select
import signal
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .audio import (
    PcmBuffer,
    float_range,
    rms_dbfs,
    screen_finite,
    stored_range,
    usable_cpus,
    view_range,
)
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
from .plan import (
    BoundaryMode,
    StegoParams,
    _geometry,
    plan_slices,
)
from .stretch import frame_count, frame_starts, starts_fit, stretch_tempo, stretched_length
from .tempo import MIN_RMS_DBFS, TempoCandidates, estimate_tempo

# Decisions with confidence below this are flagged in report warnings,
# and a quarter-rate one below it is measured again at full rate.
LOW_CONFIDENCE = 0.5

# Decode screens windows at the quarter rate only when the reference's
# candidates at the two rates agree: as many of them, and each tempo,
# after sorting, within this fraction of its full-rate twin.
_RATES_AGREE = 0.002

# Reference silence scan: any 2 s window under the tempo estimator's RMS
# gate (MIN_RMS_DBFS) disqualifies the reference slice, so a reference
# that passes the scan is one the estimator will measure. 2 s is long
# enough that the gaps of a sparse 40 BPM pulse never trip it, short
# enough to catch a few seconds of lead-in silence hiding inside an
# otherwise loud slice.
_SILENCE_WIN_S = 2.0
_SILENCE_HOP_S = 1.0

# The reference slice is scaled to this RMS before it is judged: with
# MIN_RMS_DBFS, a 2 s window over 25 dB below the slice's RMS is silence.
_NORM_TARGET_DBFS = -20.0

_UNMEASURED = (LowEnergy, NoPeriodicity, TooShort)  # a window's tempo cannot be measured

# Bytes of a slice index (uint32) in encode's queue pipe and in its done
# pipe, where a worker writes it once the slice's starts are in its slot.
_INDEX = 4


class Direction(enum.Enum):
    UP = "up"
    DOWN = "down"


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


def _ratio_for(direction: Direction, delta: float) -> float:
    # Raising tempo by delta shortens the slice by the same factor.
    return 1.0 + delta if direction is Direction.UP else 1.0 - delta


def _reference_factor(x: np.ndarray, sr: int) -> float:
    """The factor that scales the reference slice x to _NORM_TARGET_DBFS
    RMS, found from x / peak so no finite sample overflows. Raises
    ReferenceSilent if x is empty or all zeros, or if any 2 s of x scaled
    is under MIN_RMS_DBFS."""
    peak = max(x.max(initial=0.0), -x.min(initial=0.0))
    with np.errstate(divide="ignore", invalid="ignore"):  # an all-zero or empty x
        q = x / peak
        mean_sq = np.square(q, out=q).sum() / len(x)
        factor = float(10.0 ** (_NORM_TARGET_DBFS / 20.0) / (peak * np.sqrt(mean_sq)))
    win = min(len(x), int(round(_SILENCE_WIN_S * sr)))
    hop = max(1, int(round(_SILENCE_HOP_S * sr)))
    if not math.isfinite(factor) or any(
        rms_dbfs(PcmBuffer(samples=x[i : i + win] * factor, sample_rate=sr)) < MIN_RMS_DBFS
        for i in range(0, len(x) - win + 1, hop)
    ):
        raise ReferenceSilent("the reference slice contains silence")
    return factor


def _window(buf: PcmBuffer, start: int, factor: float, params: StegoParams) -> PcmBuffer | None:
    """The trimmed window of the slice of buf that starts at sample
    start, scaled by factor (only its samples are read), or None where it
    runs past the end of buf. The reference's window starts at 0."""
    _, trim_n, win_n = _geometry(buf.sample_rate, params)
    w0 = start + trim_n
    if w0 + win_n > len(buf):
        return None
    return PcmBuffer(samples=float_range(buf, w0, w0 + win_n, factor), sample_rate=buf.sample_rate)


def _same_tempi(a: TempoCandidates, b: TempoCandidates) -> bool:
    x = sorted(bpm for bpm, _ in a.entries)
    y = sorted(bpm for bpm, _ in b.entries)
    return len(x) == len(y) and all(abs(p - q) <= _RATES_AGREE * q for p, q in zip(x, y))


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


def _read(reference: TempoCandidates, window: PcmBuffer, discard_pct: float,
          quarter_rate: bool) -> tuple[Direction | None, float, int, str]:
    """(direction, confidence, pairs kept, outcome) of the window's tempo
    at one rate against the reference's candidates at that rate. An
    erasure has direction None, confidence 0 and its error's name."""
    kept: list[float] = []
    try:
        kept = _surviving_attributes(
            reference, estimate_tempo(window, quarter_rate=quarter_rate), discard_pct)
        return (*_decide(kept), len(kept), "decided")
    except (*_UNMEASURED, Undecidable) as exc:
        return None, 0.0, len(kept), type(exc).__name__


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
    slices beyond the end of the message. The result has the carrier's
    form: a 16-bit carrier gives a 16-bit buffer, whose stretched slices
    copy the carrier's int16 samples and round only their crossfades
    (stretch.stretch_core). Its samples are those write_wav writes for the
    encode of the carrier's float twin, so the two write the same file,
    byte for byte. The search half of each payload
    slice's stretch runs in one process per usable CPU (forked workers,
    where the platform has an affinity call), which claim slices from one
    queue; the workers write each slice's frame starts into a shared
    table and its index into one done pipe, and this process renders
    every slice in order. A slice no worker hands back is searched here,
    and the output does not depend on how many processes searched.
    Raises MessageTooLong when the message exceeds the carrier's
    capacity, ReferenceSilent when any 2 s of the first slice is silent
    relative to the slice's own level (decoding would be anchored to a
    bad tempo measurement), the error decode would raise (NoPeriodicity,
    LowEnergy) when a message is given and the first slice's tempo cannot
    be measured, InvalidSymbol if the message carries erasures, and
    NonFiniteSamples if the carrier holds NaN or infinity.
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
    # one output buffer in the carrier's form, sized by the length law;
    # the reference and the tail are copied into it as stored and the
    # payload slices stretched into it
    ratios = [_ratio_for(Direction.UP if bit == 1 else Direction.DOWN, params.delta)
              for bit in message]
    jobs = [((s0, s1), r, stretched_length(s1 - s0, r)) for (s0, s1), r in zip(plan.data, ratios)]
    stored = stored_range(carrier, 0, n)
    out = np.empty(n + sum(k - (s1 - s0) for (s0, s1), _, k in jobs), dtype=stored.dtype)
    factor = _reference_factor(float_range(carrier, 0, ref_end), sr)
    if message:  # decode reads a message against the measured reference
        estimate_tempo(_window(carrier, 0, factor, params))
    out[:ref_end] = stored[:ref_end]
    o = _stretch_into(carrier, jobs, out, ref_end)
    # the tail is what follows the last stretched slice's input
    rest = jobs[-1][0][1] if jobs else ref_end
    end = o + n - rest
    out[o:end] = stored[rest:]
    return PcmBuffer(samples=out[:end], sample_rate=sr)


def _stretch_into(
    carrier: PcmBuffer, jobs: list[tuple[tuple[int, int], float, int]], out: np.ndarray, o: int
) -> int:
    """Stretch each job ((s0, s1), ratio, n) of the carrier into out in
    order, each where the previous one ended, from o on; return where the
    last ended.

    A stretch is a search for its frame starts (frame_starts), which
    takes most of its time, and a render that places the frames there
    (stretch_tempo with starts). Up to min(usable CPUs, jobs) - 1 forked
    workers share the searches with this process. Before the fork, every
    slice's index goes into one queue pipe, a shared table gets a slot of
    stretch.frame_count starts per slice, and one done pipe is opened.
    Each process claims the next index when it is free; a worker writes
    the starts into the slice's slot, then the index into the done pipe
    in one atomic write. This process renders every slice, in order, at
    the running offset of the lengths stretch_tempo returns, so a short
    return shortens the file as a serial loop does and an exception comes
    from this call. Both halves read the slice as a view of the carrier
    (audio.view_range): the search converts it to floats, and a 16-bit
    slice is rendered from its int16 samples into a 16-bit out.

    For each index on the done pipe this process copies the slot and
    keeps the copy only when the index was queued and has no starts yet,
    and the starts fit the slice (stretch.starts_fit); a search with the
    wrong number of starts cannot be written, and its worker exits. This
    process searches every slice no worker hands back: one whose worker
    failed, one past the indices the queue pipe could hold, all left once
    every worker has ended, or all when no table, pipe or fork can be
    made. The result does not depend on how many processes searched.
    """
    sr = carrier.sample_rate

    def piece(i: int) -> PcmBuffer:
        (s0, s1), _, _ = jobs[i]
        return view_range(carrier, s0, s1)

    def search(i: int) -> np.ndarray:
        return frame_starts(piece(i), jobs[i][1])

    found: list[np.ndarray | None] = [None] * len(jobs)
    at = 0  # the next slice to render
    queue = None  # the queue pipe's read end, until it runs dry
    queued = 0  # slices 0 .. queued - 1 went into the queue
    table = None  # slice i's starts are int64s at bytes ends[i] .. ends[i + 1]
    done = d = None  # the done pipe's read end, until every worker has ended; its write end
    pids = []
    try:
        workers = min(usable_cpus(), len(jobs)) - 1
        if workers > 0:
            counts = [frame_count(s1 - s0, r, sr) for (s0, s1), r, _ in jobs]
            ends = (8 * np.cumsum([0] + counts)).tolist()
            try:
                table = mmap.mmap(-1, ends[-1])
                queue, w = os.pipe()
                queued = _enqueue(w, len(jobs))
                done, d = os.pipe()
            except OSError:  # no memory or descriptor to spare: every slice is searched here
                workers = 0
        for _ in range(workers):
            # Python 3.12+ warns about a fork once the shared pool has
            # started threads; the child runs only numpy kernels and pipe
            # I/O, and audio's at-fork hook drops the pool it inherits, so
            # the warning is harmless (the 3.12 CI leg runs these forks)
            try:
                pid = os.fork()
            except OSError:  # no memory or process to spare
                continue
            if pid == 0:
                # no atexit handlers, no stdio flush: the parent owns those
                try:
                    while len(token := os.read(queue, _INDEX)) == _INDEX:
                        i = int.from_bytes(token, sys.byteorder)
                        # a slice assignment of the wrong length raises
                        table[ends[i] : ends[i + 1]] = search(i).tobytes()
                        os.write(d, token)
                    os._exit(0)
                finally:  # reached only when a search or a write raised
                    os._exit(1)
            pids.append(pid)
        if d is not None:  # the pipe ends when the last worker does
            os.close(d)
            d = None
        poll = select.poll() if done is not None else None  # no select.poll on Windows
        if poll is not None:
            poll.register(done, select.POLLIN)

        def take(timeout: int | None) -> None:
            # keep each slot a worker reports done, if it fits its slice
            nonlocal done
            while done is not None and poll.poll(timeout):
                timeout = 0
                token = os.read(done, _INDEX)
                if len(token) < _INDEX:  # every worker has ended
                    os.close(done)
                    done = None
                    return
                i = int.from_bytes(token, sys.byteorder)
                if i < queued and found[i] is None:
                    (s0, s1), ratio, _ = jobs[i]
                    # a copy, so no worker can change starts once kept
                    starts = np.frombuffer(table[ends[i] : ends[i + 1]], dtype=np.int64)
                    if starts_fit(starts, s1 - s0, ratio, sr):
                        found[i] = starts

        while at < len(jobs):
            take(0)
            if found[at] is not None:
                _, ratio, n = jobs[at]
                o += len(stretch_tempo(piece(at), ratio, out=out[o : o + n], starts=found[at]))
                at += 1
                continue
            token = os.read(queue, _INDEX) if queue is not None else b""
            if len(token) == _INDEX:
                i = int.from_bytes(token, sys.byteorder)
                found[i] = search(i)
                continue
            if queue is not None:  # the queue ran dry
                os.close(queue)
                queue = None
            if done is not None and at < queued:
                take(None)  # a worker may still hand it back
            else:
                found[at] = search(at)
    finally:
        for fd in (queue, done, d):
            if fd is not None:
                os.close(fd)
        # a worker still running has nothing left that this process reads
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if table is not None:
            table.close()
    return o


def _enqueue(w: int, n: int) -> int:
    """Write the indices 0, 1, ... of n slices to the queue pipe's write
    end w, as many as it holds, and close w; the count written."""
    per = select.PIPE_BUF // _INDEX  # a write of PIPE_BUF bytes is all or nothing
    held = 0
    try:
        os.set_blocking(w, False)
        while held < n:
            batch = np.arange(held, min(n, held + per), dtype=np.uint32)
            os.write(w, batch.tobytes())
            held += len(batch)
    except BlockingIOError:  # the pipe is full: the caller searches the rest
        pass
    finally:
        os.close(w)
    return held


def decode(
    stego: PcmBuffer,
    params: StegoParams = StegoParams(),
    *,
    max_bits: int | None = None,
    reference_override: TempoCandidates | None = None,
    force_decide: bool = False,
) -> DecodeReport:
    """Recover bits from a carrier encoded with the same params.

    Reads every payload slice (or the first max_bits), each window at
    the reference's level (see the module docstring). Slices the
    classifier cannot decide come back as erasures unless force_decide
    is set, which breaks ties toward DOWN with zero confidence. Slices
    where tempo measurement itself fails (silence, no periodicity) are
    always erasures. Each SliceDecision.outcome says why its slice was
    decided or erased; the warnings derive from it. Raises TooShort when
    the buffer is shorter than the shortest file encode writes from a
    three-slice carrier (reference, one raised slice, tail),
    NonFiniteSamples when the buffer holds NaN or infinity,
    ReferenceSilent under the guard encode applies to the first slice,
    and ValueError, before reading a sample, for a max_bits that is not
    a non-negative integer.

    reference_override substitutes externally supplied reference
    candidates in place of measuring the first slice; it exists for
    testing how a corrupted reference propagates. The level and the
    silence guard still come from the reference samples, and every
    window is read at full rate.
    """
    whole = isinstance(max_bits, numbers.Integral) and not isinstance(max_bits, bool)
    if max_bits is not None and not (whole and max_bits >= 0):
        raise ValueError(f"max_bits must be a non-negative integer, not {max_bits!r}")
    sr = stego.sample_rate
    phi_n, _, _ = _geometry(sr, params)
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

    ref = _window(stego, 0, factor, params)
    ref_cands = reference_override or estimate_tempo(ref)
    screen = None  # the quarter-rate reference; None reads every window at full rate
    if reference_override is None:
        try:
            quarter = estimate_tempo(ref, quarter_rate=True)
            screen = quarter if _same_tempi(quarter, ref_cands) else None
        except _UNMEASURED:
            pass

    decisions: list[SliceDecision] = []
    boundary = phi_n
    for i in range(1, n_read + 1):
        window = _window(stego, boundary, factor, params)
        if window is None:
            break
        direction = None
        if screen is not None:
            direction, conf, kept, outcome = _read(screen, window, params.discard_pct, True)
        if direction is None or conf < LOW_CONFIDENCE:
            direction, conf, kept, outcome = _read(ref_cands, window, params.discard_pct, False)
            if force_decide and outcome == "Undecidable":
                direction, outcome = Direction.DOWN, "forced"
        decisions.append(SliceDecision(i, direction, conf, kept, outcome))

        # tracked: the next slice starts where encode ended this one (the
        # stretcher's length law); an erasure or static mode keeps the grid
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
