"""Pitch-preserving tempo change by waveform-similarity overlap-add.

The output is built from fixed-size frames taken from the input at
positions spaced by the tempo ratio. Each frame start is refined within a
small seek window so that the new frame lines up with the tail of the
previous one (maximum normalized cross-correlation over the overlap
region), then the frames are crossfaded. Pitch is untouched because
samples are never resampled, only re-spaced.

A ratio above 1 raises the tempo, so the output is shorter: the output
length is exactly round(len(input) / ratio) samples.
"""

from __future__ import annotations

import numpy as np

from .audio import PcmBuffer
from .errors import BufferTooShort, RatioOutOfRange

RATIO_MIN = 0.5
RATIO_MAX = 2.0

# Frame geometry in milliseconds; suits music at 44.1 kHz.
SEQUENCE_MS = 80.0
SEEK_MS = 16.0
OVERLAP_MS = 10.0


def stretch_core(
    x: np.ndarray, ratio: float, seq: int, seek: int, overlap: int, n_out: int
) -> np.ndarray:
    """Stretch x to exactly n_out samples with seq-sample frames, each
    aligned within +-seek samples of its nominal position and crossfaded
    over overlap samples. The first maximum of the correlation wins ties."""
    hop = seq - overlap
    n = x.shape[0]
    if n_out <= seq:
        n_frames = 1
    else:
        n_frames = (n_out - seq + hop - 1) // hop + 1
    # every frame's crossfade lies inside n_out; only the last frame's
    # copy is cut short, so each output sample is written exactly once
    out = np.empty(n_out)
    fade_in = np.arange(overlap) / overlap
    fade_out = 1.0 - fade_in

    first = min(seq, n_out)
    out[:first] = x[:first]
    prev = 0
    for k in range(1, n_frames):
        nominal = int(np.floor(k * hop * ratio + 0.5))
        if nominal > n - seq:
            nominal = n - seq
        if nominal < 0:
            nominal = 0
        lo = nominal - seek
        if lo < 0:
            lo = 0
        hi = nominal + seek
        if hi > n - seq:
            hi = n - seq

        tb = prev + hop
        tmpl = x[tb : tb + overlap]
        te = float(np.dot(tmpl, tmpl))
        if te <= 0.0:
            # nothing to align against: keep the nominal grid position
            start = nominal
        else:
            seg = x[lo : hi + overlap]
            corr = np.correlate(seg, tmpl, mode="valid")
            sq = np.concatenate(([0.0], np.cumsum(seg * seg)))
            en = sq[overlap : overlap + corr.shape[0]] - sq[: corr.shape[0]]
            scores = np.full(corr.shape[0], -2.0)
            ok = en > 0.0
            scores[ok] = corr[ok] / np.sqrt(te * en[ok])
            start = lo + int(np.argmax(scores))

        o = k * hop
        out[o : o + overlap] = out[o : o + overlap] * fade_out + x[start : start + overlap] * fade_in
        end = min(seq, n_out - o)
        out[o + overlap : o + end] = x[start + overlap : start + end]
        prev = start
    return out


def stretched_length(n: int, ratio: float) -> int:
    """Output length of stretch_tempo for n input samples: round(n / ratio),
    halves rounded up."""
    return int(np.floor(n / ratio + 0.5))


def stretch_tempo(buf: PcmBuffer, ratio: float) -> PcmBuffer:
    """Change tempo by `ratio` without changing pitch.

    ratio = 1.01 plays 1% faster (output shorter by 1%). The output length
    is exactly round(len(buf) / ratio). Raises RatioOutOfRange outside
    [0.5, 2.0] and BufferTooShort for inputs under two sequence frames.
    """
    if not (RATIO_MIN <= ratio <= RATIO_MAX):
        raise RatioOutOfRange(f"ratio {ratio} outside [{RATIO_MIN}, {RATIO_MAX}]")
    sr = buf.sample_rate
    seq = int(round(SEQUENCE_MS * sr / 1000.0))
    seek = int(round(SEEK_MS * sr / 1000.0))
    overlap = int(round(OVERLAP_MS * sr / 1000.0))
    if overlap < 2 or seq <= overlap or seek < 1:
        raise ValueError(f"stretch frame geometry degenerates at {sr} Hz")
    if len(buf) < 2 * seq:
        raise BufferTooShort(
            f"need at least {2 * seq} samples ({2 * SEQUENCE_MS:.0f} ms), got {len(buf)}"
        )
    n_out = stretched_length(len(buf), ratio)
    x = np.ascontiguousarray(buf.samples, dtype=np.float64)
    y = stretch_core(x, float(ratio), seq, seek, overlap, n_out)
    return PcmBuffer(samples=y, sample_rate=sr)
