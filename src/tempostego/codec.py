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
import select
import signal
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .audio import PcmBuffer, _write_all, float_range, rms_dbfs, screen_finite, usable_cpus
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
from .plan import (  # noqa: F401  (capacity and SlicePlan: codec's public names)
    BoundaryMode,
    SlicePlan,
    StegoParams,
    _geometry,
    capacity,
    plan_slices,
)
from .stretch import KeptInput, frame_starts, starts_fit, stretch_tempo, stretched_length
from .tempo import SETTINGS, TempoCandidates, estimate_tempo

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

# Bytes of a slice index (uint32) in encode's queue pipe. A worker's
# record is the index and the frame count (uint32 each), then the frame
# starts (int64).
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
    slices beyond the end of the message. The search half of each payload
    slice's stretch runs in one process per usable CPU (forked workers,
    where the platform has an affinity call), which claim slices from one
    queue; the workers send back only each slice's frame starts, and this
    process renders every slice in order. A slice no worker hands back is
    searched here, and the output does not depend on how many processes
    searched. Raises MessageTooLong when the message exceeds
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

    A stretch is a search for its frame starts (frame_starts), which
    takes most of its time, and a render that places the frames there
    (stretch_tempo with starts). Up to min(usable CPUs, jobs) - 1 forked
    workers share the searches with this process. Every slice's index is
    put in one queue pipe before the fork, and each process claims the
    next index when it is free. A worker streams an (index, starts)
    record per slice back on its own result pipe. This process renders
    every slice, in order, at the running offset of the lengths
    stretch_tempo returns, so a short return shortens the file as a
    serial loop does and an exception comes from this call. When this
    process searches the slice it renders next, the render reuses the
    input the search read, checked and scaled (stretch.KeptInput); no
    other slice's input is held.

    A record is kept only when its index was queued and has no starts
    yet, and its starts fit the slice (stretch.starts_fit). A worker
    whose stream ends mid-record or carries a record that is not kept is
    read no further. This process searches every slice no worker hands
    back: one whose worker failed, one past the indices the queue pipe
    could hold, or all of them when no pipe or fork can be made. The
    result does not depend on how many processes searched.
    """
    sr = carrier.sample_rate

    def piece(i: int) -> KeptInput:
        (s0, s1), _, _ = jobs[i]
        return KeptInput(samples=float_range(carrier, s0, s1), sample_rate=sr)

    def search(i: int) -> np.ndarray:
        return frame_starts(piece(i), jobs[i][1])

    def search_here(i: int) -> None:
        # the slice rendered next keeps its prepared input for its render
        nonlocal ready
        buf = piece(i)
        found[i] = frame_starts(buf, jobs[i][1])
        ready = buf if i == at else None

    def fits(i: int, starts: np.ndarray) -> bool:
        (s0, s1), ratio, _ = jobs[i]
        return starts_fit(starts, s1 - s0, ratio, sr)

    found: list[np.ndarray | None] = [None] * len(jobs)
    at = 0  # the next slice to render
    ready = None  # slice at's buffer, when this process searched it
    queue = None  # the queue pipe's read end, until it runs dry
    queued = 0  # slices 0 .. queued - 1 went into the queue
    streams: dict[int, bytearray] = {}  # result read end: its unread bytes
    pids = []
    try:
        workers = min(usable_cpus(), len(jobs)) - 1
        if workers > 0:
            try:
                queue, w = os.pipe()
            except OSError:  # no descriptor to spare: every slice is searched here
                workers = 0
            else:
                queued = _enqueue(w, len(jobs))
        for _ in range(workers):
            r = w = None
            # Python 3.12+ warns about a fork once the shared pool has
            # started threads; the child runs only numpy kernels and pipe
            # I/O, and audio's at-fork hook drops the pool it inherits, so
            # the warning is harmless (the 3.12 CI leg runs these forks)
            try:
                r, w = os.pipe()
                pid = os.fork()
            except OSError:  # no descriptor, memory or process to spare
                for fd in (r, w):
                    if fd is not None:
                        os.close(fd)
                continue
            if pid == 0:
                # no atexit handlers, no stdio flush: the parent owns those
                try:
                    while len(token := os.read(queue, _INDEX)) == _INDEX:
                        i = int.from_bytes(token, sys.byteorder)
                        starts = search(i)
                        head = np.array([i, len(starts)], dtype=np.uint32)
                        _write_all(w, head.tobytes() + starts.tobytes())
                    os._exit(0)
                finally:  # reached only when a search or a write raised
                    os._exit(1)
            os.close(w)
            streams[r] = bytearray()
            pids.append(pid)

        poll = select.poll() if streams else None
        for fd in streams:
            poll.register(fd, select.POLLIN)

        def take(timeout: int | None) -> None:
            # read what has come in; keep every record that fits its slice
            for fd, _ in poll.poll(timeout):
                data = os.read(fd, 1 << 16)
                buf = streams[fd]
                buf += data
                ok = bool(data)
                while ok and len(buf) >= 2 * _INDEX:
                    i, count = np.frombuffer(bytes(buf[: 2 * _INDEX]), dtype=np.uint32).tolist()
                    end = 2 * _INDEX + 8 * count
                    if len(buf) < end:
                        break
                    starts = np.frombuffer(bytes(buf[2 * _INDEX : end]), dtype=np.int64)
                    del buf[:end]
                    ok = i < queued and found[i] is None and fits(i, starts)
                    if ok:
                        found[i] = starts
                if not ok:  # the stream ended, or its record is not kept
                    poll.unregister(fd)
                    os.close(fd)
                    del streams[fd]

        while at < len(jobs):
            if streams:
                take(0)
            if found[at] is not None:
                _, ratio, n = jobs[at]
                buf = ready if ready is not None else piece(at)
                ready = None
                o += len(stretch_tempo(buf, ratio, out=out[o : o + n], starts=found[at]))
                at += 1
                continue
            token = os.read(queue, _INDEX) if queue is not None else b""
            if len(token) == _INDEX:
                search_here(int.from_bytes(token, sys.byteorder))
                continue
            if queue is not None:  # the queue ran dry
                os.close(queue)
                queue = None
            if streams and at < queued:
                take(None)  # a worker may still hand it back
            else:
                search_here(at)
    finally:
        if queue is not None:
            os.close(queue)
        for fd in streams:
            os.close(fd)
        # a worker still running has nothing left that this process reads
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
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
