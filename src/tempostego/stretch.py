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
output, so the two may run in different processes. The search reads
the input as floats; the render of a 16-bit buffer into an int16 output
copies its frames as stored and computes only the crossfades, rounded to
the samples write_wav writes for the float render.

At a ratio near 1, nearly every frame's best start is its natural
continuation: the one whose window is the template itself, at a
normalized correlation of 1 (Verhelst & Roelands, ICASSP 1993). The
search proves that choice with a cheap certificate, a Cauchy-Schwarz
bound on each other start's score with every rounding error bounded,
and scores only the few starts the bound cannot rule out. Frames it
cannot certify are searched in full. Either way the starts, and so the
output, are those of scoring every start.
"""

from __future__ import annotations

import math

import numpy as np

from .audio import PcmBuffer, float_range, screen_finite, stored_range
from .errors import BufferTooShort, RatioOutOfRange

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


# Unit roundoff and the smallest subnormal of a double. _SLACK widens the
# certificate's threshold past the rounding of its own few operations; a
# frame with more than _MAX_SURVIVORS lags left to score is searched in
# full, which is then about as cheap.
_U = 2.0**-53
_TINY = 2.0**-1074
_SLACK = 1.0 + 2.0**-30
_MAX_SURVIVORS = 16


def _certified(
    seg: np.ndarray, tmpl: np.ndarray, te: float, sq: np.ndarray, en: np.ndarray,
    l0: int, sig_buf: np.ndarray,
) -> int | None:
    """The lag the full search of seg picks, proved without scoring
    every lag; None where the proof fails.

    l0 is the natural lag, whose window is tmpl itself: its correlation
    is te, and its score s0 = te / sqrt(en[l0] * te) is about 1. For
    unit vectors u and v,
    u.v = 1 - |u - v|**2 / 2 <= 1 - (u[0] - v[0])**2 / 2,
    so a window whose signature (its first sample over the root of its
    energy) lies d from the template's has a normalized correlation of at
    most 1 - d**2 / 2. A lag whose computed signature is more than
    sqrt(2 * (1 - s0 + err)) + eps from the template's therefore scores
    below s0, as the full search computes its score, and cannot win. The
    error terms are rigorous bounds:

    - gamma: a dot product of `overlap` terms, in any order, against the
      product of the two norms (the correlation, and te);
    - rho: every live en, a difference of running sums of squares, each
      within (n + 1) ulps of at most the range's total energy, relative
      to the smallest live en; rho_t: te;
    - kappa: both energies' errors and the score's product, square root
      and division; tiny: underflow in the dot product and the quotient;
    - eps: the rounding of both signatures.

    The lags left, l0 among them, are scored as the full search scores
    them: np.dot calls the dot product np.correlate calls, on the same
    samples. Every other lag scores below s0, so the first maximum among
    them in lag order is the full search's.

    None when en[l0] is not positive; when a live lag's en * te is not a
    normal double, since the full search's score could then be infinite
    or NaN; when rho + rho_t passes 2**-10, where the bound's linear terms
    stop holding; and when more than _MAX_SURVIVORS lags are left."""
    m = en.shape[0]
    n = seg.shape[0]
    overlap = tmpl.shape[0]
    e0 = float(en[l0])
    total = float(sq[n])  # no en exceeds it
    e_min = float(en.min())
    if e_min <= 0.0:  # the smallest live en
        e_min = float(np.min(en, where=en > 0.0, initial=np.inf))
    if not (e0 > 0.0 and e_min * te >= 2.0**-1022 and math.isfinite(total * te)):
        return None
    s0 = te / math.sqrt(e0 * te)
    if not 0.5 <= s0 <= 2.0:  # 1 - s0 is then exact
        return None
    gamma = overlap * _U / (1.0 - overlap * _U)
    rho = (4.0 * (n + 1) * _U * total + 4.0 * n * _TINY) / e_min
    rho_t = 2.0 * (gamma + overlap * _TINY / te)
    if rho + rho_t > 2.0**-10:
        return None
    kappa = 2.0 * (rho + rho_t) + 4.0 * _U
    tiny = overlap * _TINY * (1.0 + 3.0 * _U) / math.sqrt(e_min * te) + _TINY
    err = (gamma + s0 * kappa + tiny) * _SLACK
    eps = 1.25 * (rho + rho_t) + 8.0 * _U + 2.0 * _TINY
    thr = (math.sqrt(max(2.0 * ((1.0 - s0) + err), 0.0)) + eps) * _SLACK
    sig = np.sqrt(en, out=sig_buf[:m])
    np.divide(seg[:m], sig, out=sig)
    np.subtract(sig, float(tmpl[0]) / math.sqrt(te), out=sig)
    np.abs(sig, out=sig)
    # a dead lag's signature is infinite or NaN, so it is never kept
    kept = np.flatnonzero(sig <= thr)
    if kept.shape[0] == 1:
        return int(kept[0])
    if kept.shape[0] > _MAX_SURVIVORS:
        return None
    corr = np.array([np.dot(seg[l : l + overlap], tmpl) for l in kept.tolist()])
    scores = corr / np.sqrt(en[kept] * te)
    return int(kept[np.argmax(scores)])


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
    made once per call.

    Where the template's own position, the natural continuation, lies in
    the range, _certified proves which lag wins from the running sums of
    squares and a few exact scores; at a ratio near 1 it is nearly always
    that position. Otherwise, and wherever the proof fails, every lag is
    scored: the correlation over the whole range is divided in place, and
    the windows without energy, marked before the division, are then set
    to -2. Both give the starts of the plain per-frame formula."""
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
    sig_buf = np.empty(2 * seek + 1)
    dead_buf = np.empty(2 * seek + 1, dtype=bool)
    starts = [0]
    prev = 0
    # a window without energy divides by zero in its score and its
    # signature; the score is then replaced, and the signature never kept
    with np.errstate(divide="ignore", invalid="ignore"):
        for nom, lo, hi in zip(nominal.tolist(), los, his):
            tb = prev + hop
            tmpl = x[tb : tb + overlap]
            te = float(np.dot(tmpl, tmpl))
            if te <= 0.0:
                prev = nom
            else:
                seg = x[lo : hi + overlap]
                m = hi - lo + 1
                run = sq[1 : seg.shape[0] + 1]
                np.multiply(seg, seg, out=run)
                np.cumsum(run, out=run)
                en = np.subtract(sq[overlap : overlap + m], sq[:m], out=en_buf[:m])
                best = None
                if lo <= tb <= hi:
                    best = _certified(seg, tmpl, te, sq, en, tb - lo, sig_buf)
                if best is None:
                    corr = np.correlate(seg, tmpl, mode="valid")
                    dead = np.less_equal(en, 0.0, out=dead_buf[:m])
                    np.multiply(en, te, out=en)
                    np.sqrt(en, out=en)
                    scores = np.divide(corr, en, out=corr)
                    np.copyto(scores, -2.0, where=dead)
                    best = int(np.argmax(scores))
                prev = lo + best
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
    _search puts them. The result is written into `out` (n_out samples)
    when given, else into a new float64 array.

    x and out are both float64, or both int16, which needs `starts`. An
    int16 frame is copied as stored, and its crossfade with the previous
    frame's tail (read from x) is computed as the float64 one is, on the
    stored values, then rounded to the nearest integer. Those values are
    the floats' times 32768 exactly, so the result is what write_wav
    makes of the float render of x / 32768. A crossfade never leaves the
    int16 range: fade_in + fade_out <= 1 + 2**-53, so a head's magnitude
    is at most (1 + 2**-51) times its larger input's, which rounds to
    within [-32768, 32767]."""
    if starts is None:
        starts = _search(x, ratio, seq, seek, overlap, n_out)
    hop = seq - overlap
    # every frame's crossfade lies inside n_out; only the last frame's
    # copy is cut short, so each output sample is written exactly once
    if out is None:
        out = np.empty(n_out)
    rounded = out.dtype != np.float64
    fade_in = np.arange(overlap) / overlap
    fade_out = 1.0 - fade_in
    mix = np.empty(overlap)
    scratch = np.empty(overlap) if rounded else None

    at = starts.tolist()
    first = min(seq, n_out)
    out[:first] = x[at[0] : at[0] + first]
    for k in range(1, len(at)):
        start = at[k]
        tail = at[k - 1] + hop
        o = k * hop
        head = scratch if rounded else out[o : o + overlap]
        np.multiply(x[tail : tail + overlap], fade_out, out=head)
        np.multiply(x[start : start + overlap], fade_in, out=mix)
        np.add(head, mix, out=head)
        if rounded:
            np.rint(head, out=out[o : o + overlap], casting="unsafe")
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


def frame_count(n: int, ratio: float, sample_rate: int) -> int:
    """How many frames, and so how many starts, a stretch of n samples at
    `ratio` has at this rate."""
    seq, _, overlap = _geometry(sample_rate)
    return _frame_count(stretched_length(n, ratio), seq, overlap)


def starts_fit(starts: np.ndarray, n: int, ratio: float, sample_rate: int) -> bool:
    """Whether `starts` can place the frames of a stretch of n samples at
    `ratio`: a 1-D integer array with one start per frame, each in
    [0, n - seq]. frame_starts gives such an array."""
    seq, _, _ = _geometry(sample_rate)
    return (
        isinstance(starts, np.ndarray)
        and starts.ndim == 1
        and starts.dtype.kind in "iu"
        and len(starts) == frame_count(n, ratio, sample_rate)
        and 0 <= int(starts.min()) and int(starts.max()) <= n - seq
    )


def _checked(buf: PcmBuffer, ratio: float, out: np.ndarray | None):
    """stretch_tempo's checks of the ratio, the length and out; then the
    frame geometry and n_out."""
    if not (RATIO_MIN <= ratio <= RATIO_MAX):
        raise RatioOutOfRange(f"ratio {ratio} outside [{RATIO_MIN}, {RATIO_MAX}]")
    seq, seek, overlap = _geometry(buf.sample_rate)
    if len(buf) < 2 * seq:
        raise BufferTooShort(
            f"need at least {2 * seq} samples ({2 * SEQUENCE_MS:.0f} ms), got {len(buf)}"
        )
    n_out = stretched_length(len(buf), ratio)
    stored = stored_range(buf, 0, len(buf))
    if out is not None and (
        not isinstance(out, np.ndarray)
        or out.shape != (n_out,)
        or (out.dtype != np.float64 and out.dtype != stored.dtype)
        or np.may_share_memory(out, stored)
    ):
        raise ValueError(
            f"out must be {n_out} float64 samples, or int16 ones for a 16-bit buffer,"
            " apart from the input"
        )
    return (seq, seek, overlap), n_out


def _kernel_input(buf: PcmBuffer) -> tuple[np.ndarray, int]:
    """buf's samples as the kernel takes them, and the power of two they
    were scaled down by; screen_finite raises for NaN or infinity."""
    e = screen_finite(buf, "stretch input")
    x = np.ascontiguousarray(float_range(buf, 0, len(buf)))
    # An alignment score divides by the square root of a product of two
    # window energies, each at most the input's. That product can
    # overflow when the input's energy passes 2**511 (samples from about
    # 1e76 on) and underflow when it is under 2**-511 (samples of about
    # 1e-100). Such input is stretched at a power-of-two scale with its
    # peak in [0.5, 1), then scaled back. Both scalings are exact, so the
    # result is what the unscaled arithmetic gives without overflow or
    # underflow. Silence keeps k = 0, and so does 16-bit input (e None):
    # its floats are multiples of 2**-15 in [-1, 1), so e is 0 or in range.
    in_range = e is None or 2.0**-511 < e < 2.0**511
    k = 0 if in_range else math.frexp(float(np.max(np.abs(x))))[1]
    return (np.ldexp(x, -k) if k else x), k


def frame_starts(buf: PcmBuffer, ratio: float) -> np.ndarray:
    """Where stretch_tempo(buf, ratio) starts each of its frames in buf:
    the search half of the stretch, with its checks and its errors. The
    render half, stretch_tempo(buf, ratio, starts=...), then gives the
    same samples as stretch_tempo(buf, ratio)."""
    (seq, seek, overlap), n_out = _checked(buf, ratio, None)
    xs, _ = _kernel_input(buf)
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
    must be an array of exactly that length that does not overlap the
    input, else ValueError. It is float64, or int16 for a 16-bit buffer:
    the frames are then copied as stored and only the crossfades are
    computed, and the result holds the int16 samples write_wav writes for
    the float64 result (stretch_core). When `starts` is given (as
    frame_starts returns it), the frames are placed there and not
    searched for; starts that do not fit the stretch (starts_fit) raise
    ValueError.
    Raises RatioOutOfRange outside [0.5, 2.0], BufferTooShort for
    inputs under two sequence frames and NonFiniteSamples for input
    holding NaN or infinity.
    """
    (seq, seek, overlap), n_out = _checked(buf, ratio, out)
    if starts is not None and not starts_fit(starts, len(buf), ratio, buf.sample_rate):
        raise ValueError(f"starts do not place the frames of {len(buf)} samples at ratio {ratio}")
    if out is not None and out.dtype != np.float64:  # a 16-bit buffer's int16 out
        if starts is None:
            starts = frame_starts(buf, ratio)
        x = stored_range(buf, 0, len(buf))
        stretch_core(x, float(ratio), seq, seek, overlap, n_out, out=out, starts=starts)
        return PcmBuffer(samples=out, sample_rate=buf.sample_rate)
    xs, k = _kernel_input(buf)
    with np.errstate(over="ignore", invalid="ignore"):
        y = stretch_core(xs, float(ratio), seq, seek, overlap, n_out, out=out, starts=starts)
        if k:
            np.ldexp(y, k, out=y)
    return PcmBuffer(samples=y, sample_rate=buf.sample_rate)
