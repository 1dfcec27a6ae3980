"""Pitch-preserving tempo change by waveform-similarity overlap-add.

The output is built from fixed-size frames taken from the input at
positions spaced by the tempo ratio. Each frame start is refined within a
small seek window so that the new frame lines up with the tail of the
previous one (maximum normalized cross-correlation over the overlap
region), then the frames are crossfaded. Pitch is untouched because
samples are never resampled, only re-spaced.

A ratio above 1 raises the tempo, so the output is shorter: the output
length is exactly round(len(input) / ratio) samples.

The stretch has two halves. The search (frame_starts) finds every
frame's start and takes most of the time; the render (stretch_tempo with
starts) crossfades the frames at those starts, which fully determine the
output, so the two may run in different processes.
"""

from __future__ import annotations

import math

import numpy as np

from .audio import PcmBuffer, energy, float_range
from .errors import BufferTooShort, NonFiniteSamples, RatioOutOfRange

RATIO_MIN = 0.5
RATIO_MAX = 2.0

# Frame geometry in milliseconds; suits music at 44.1 kHz.
SEQUENCE_MS = 80.0
SEEK_MS = 16.0
OVERLAP_MS = 10.0


def _frame_count(n_out: int, seq: int, overlap: int) -> int:
    """Frames of seq samples, hop seq - overlap apart, that cover n_out."""
    hop = seq - overlap
    return 1 if n_out <= seq else (n_out - seq + hop - 1) // hop + 1


def _search(
    x: np.ndarray, ratio: float, seq: int, seek: int, overlap: int, n_out: int
) -> np.ndarray:
    """The start in x of each frame of an n_out-sample stretch: the first
    at 0, every later one the first maximum of its alignment score within
    +-seek samples of its nominal position.

    A candidate start scores corr / sqrt(te * en): its correlation with
    the template (the overlap samples that follow the previous frame's
    hop) over the template's energy te times its own window's energy en.
    A window without energy scores -2, below any real score, and a
    template without energy keeps the nominal position. The nominal grid,
    the running sums of squares and the scores are computed into buffers
    made once per call. Every search range's scores are divided in place
    in the correlation's own array, and the windows without energy,
    marked before the division, are then set to -2. A window with energy
    gets the arithmetic of the plain per-frame formula."""
    hop = seq - overlap
    n = x.shape[0]
    n_frames = _frame_count(n_out, seq, overlap)
    # nominal[k - 1] = floor(k * hop * ratio + 0.5), clamped to [0, n - seq]
    nominal = np.floor(np.arange(1, n_frames) * hop * ratio + 0.5)
    nominal = np.maximum(np.minimum(nominal, n - seq), 0).astype(np.int64)
    los = np.maximum(nominal - seek, 0).tolist()
    his = np.minimum(nominal + seek, n - seq).tolist()
    # sq[0] stays 0 and sq[1 : i + 1] holds the sum of the first i squares
    # of a search range, so en = sq[overlap:][:m] - sq[:m]
    sq = np.zeros(2 * seek + overlap + 1)
    en_buf = np.empty(2 * seek + 1)
    dead_buf = np.empty(2 * seek + 1, dtype=bool)
    starts = [0]
    prev = 0
    # a window without energy divides by zero; its score is then replaced
    with np.errstate(divide="ignore", invalid="ignore"):
        for nom, lo, hi in zip(nominal.tolist(), los, his):
            tb = prev + hop
            tmpl = x[tb : tb + overlap]
            te = float(np.dot(tmpl, tmpl))
            if te <= 0.0:
                prev = nom
            else:
                seg = x[lo : hi + overlap]
                corr = np.correlate(seg, tmpl, mode="valid")
                m = corr.shape[0]
                run = sq[1 : seg.shape[0] + 1]
                np.multiply(seg, seg, out=run)
                np.cumsum(run, out=run)
                en = np.subtract(sq[overlap : overlap + m], sq[:m], out=en_buf[:m])
                dead = np.less_equal(en, 0.0, out=dead_buf[:m])
                np.multiply(en, te, out=en)
                np.sqrt(en, out=en)
                scores = np.divide(corr, en, out=corr)
                np.copyto(scores, -2.0, where=dead)
                prev = lo + int(np.argmax(scores))
            starts.append(prev)
    return np.array(starts, dtype=np.int64)


def stretch_core(
    x: np.ndarray,
    ratio: float,
    seq: int,
    seek: int,
    overlap: int,
    n_out: int,
    *,
    out: np.ndarray | None = None,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Stretch x to exactly n_out samples with seq-sample frames, each
    aligned within +-seek samples of its nominal position and crossfaded
    over overlap samples. The frames start at `starts` when given (one
    per frame, each in [0, len(x) - seq]; not checked here), else where
    _search puts them. The result is written into `out` (n_out float64
    samples) when given, else into a new array."""
    if starts is None:
        starts = _search(x, ratio, seq, seek, overlap, n_out)
    hop = seq - overlap
    # every frame's crossfade lies inside n_out; only the last frame's
    # copy is cut short, so each output sample is written exactly once
    if out is None:
        out = np.empty(n_out)
    fade_in = np.arange(overlap) / overlap
    fade_out = 1.0 - fade_in
    mix = np.empty(overlap)

    at = starts.tolist()
    first = min(seq, n_out)
    out[:first] = x[at[0] : at[0] + first]
    for k in range(1, len(at)):
        start = at[k]
        o = k * hop
        head = out[o : o + overlap]
        np.multiply(head, fade_out, out=head)
        np.multiply(x[start : start + overlap], fade_in, out=mix)
        np.add(head, mix, out=head)
        end = min(seq, n_out - o)
        out[o + overlap : o + end] = x[start + overlap : start + end]
    return out


def stretched_length(n: int, ratio: float) -> int:
    """Output length of stretch_tempo for n input samples: round(n / ratio),
    halves rounded up."""
    return int(np.floor(n / ratio + 0.5))


def _geometry(sample_rate: int) -> tuple[int, int, int]:
    """Sequence, seek and overlap lengths in samples at this rate."""
    seq = int(round(SEQUENCE_MS * sample_rate / 1000.0))
    seek = int(round(SEEK_MS * sample_rate / 1000.0))
    overlap = int(round(OVERLAP_MS * sample_rate / 1000.0))
    if overlap < 2 or seq <= overlap or seek < 1:
        raise ValueError(f"stretch frame geometry degenerates at {sample_rate} Hz")
    return seq, seek, overlap


def starts_fit(starts: np.ndarray, n: int, ratio: float, sample_rate: int) -> bool:
    """Whether `starts` can place the frames of a stretch of n samples at
    `ratio`: a 1-D integer array with one start per frame, each in
    [0, n - seq]. frame_starts gives such an array."""
    seq, _, overlap = _geometry(sample_rate)
    return (
        isinstance(starts, np.ndarray)
        and starts.ndim == 1
        and starts.dtype.kind in "iu"
        and len(starts) == _frame_count(stretched_length(n, ratio), seq, overlap)
        and 0 <= int(starts.min()) and int(starts.max()) <= n - seq
    )


def _prepared(buf: PcmBuffer, ratio: float, out: np.ndarray | None):
    """stretch_tempo's checks; then the input as the kernel takes it, the
    power of two it was scaled down by, the frame geometry and n_out."""
    if not (RATIO_MIN <= ratio <= RATIO_MAX):
        raise RatioOutOfRange(f"ratio {ratio} outside [{RATIO_MIN}, {RATIO_MAX}]")
    seq, seek, overlap = _geometry(buf.sample_rate)
    if len(buf) < 2 * seq:
        raise BufferTooShort(
            f"need at least {2 * seq} samples ({2 * SEQUENCE_MS:.0f} ms), got {len(buf)}"
        )
    n_out = stretched_length(len(buf), ratio)
    src = float_range(buf, 0, len(buf))
    if out is not None and (
        not isinstance(out, np.ndarray)
        or out.shape != (n_out,)
        or out.dtype != np.float64
        or np.may_share_memory(out, src)
    ):
        raise ValueError(f"out must be {n_out} float64 samples apart from the input")
    x = np.ascontiguousarray(src)
    with np.errstate(over="ignore", invalid="ignore"):
        e = energy(x)
        # the sum is also inf for huge finite samples: a second pass
        # confirms before rejecting, as screen_finite does
        if not math.isfinite(e) and not np.isfinite(x).all():
            raise NonFiniteSamples("the stretch input holds NaN or infinite samples")
        # An alignment score divides by the square root of a product of two
        # window energies, each at most the input's. That product can
        # overflow when the input's energy passes 2**511 (samples from
        # about 1e76 on) and underflow when it is under 2**-511 (samples
        # of about 1e-100). Such input is stretched at a power-of-two scale
        # with its peak in [0.5, 1), then scaled back. Both scalings are
        # exact, so the result is what the unscaled arithmetic gives
        # without overflow or underflow. Silence keeps k = 0.
        in_range = 2.0**-511 < e < 2.0**511
        k = 0 if in_range else math.frexp(float(np.max(np.abs(x))))[1]
        return (np.ldexp(x, -k) if k else x), k, (seq, seek, overlap), n_out


def frame_starts(buf: PcmBuffer, ratio: float) -> np.ndarray:
    """Where stretch_tempo(buf, ratio) starts each of its frames in buf:
    the search half of the stretch, with its checks and its errors. The
    render half, stretch_tempo(buf, ratio, starts=...), then gives the
    same samples as stretch_tempo(buf, ratio)."""
    xs, _, (seq, seek, overlap), n_out = _prepared(buf, ratio, None)
    return _search(xs, float(ratio), seq, seek, overlap, n_out)


def stretch_tempo(
    buf: PcmBuffer,
    ratio: float,
    *,
    out: np.ndarray | None = None,
    starts: np.ndarray | None = None,
) -> PcmBuffer:
    """Change tempo by `ratio` without changing pitch.

    ratio = 1.01 plays 1% faster (output shorter by 1%). The output length
    is exactly round(len(buf) / ratio). When `out` is given, the samples
    are written into it and the returned buffer holds `out` itself; it
    must be a float64 array of exactly that length that does not overlap
    the input, else ValueError. When `starts` is given (as frame_starts
    returns it), the frames are placed there and not searched for; starts
    that do not fit the stretch (starts_fit) raise ValueError.
    Raises RatioOutOfRange outside [0.5, 2.0], BufferTooShort for
    inputs under two sequence frames and NonFiniteSamples for input
    holding NaN or infinity.
    """
    xs, k, (seq, seek, overlap), n_out = _prepared(buf, ratio, out)
    if starts is not None and not starts_fit(starts, len(buf), ratio, buf.sample_rate):
        raise ValueError(f"starts do not place the frames of {len(buf)} samples at ratio {ratio}")
    with np.errstate(over="ignore", invalid="ignore"):
        y = stretch_core(xs, float(ratio), seq, seek, overlap, n_out, out=out, starts=starts)
        if k:
            np.ldexp(y, k, out=y)
    return PcmBuffer(samples=y, sample_rate=buf.sample_rate)
