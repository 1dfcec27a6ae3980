"""Tempo measurement from onset periodicity.

The estimator follows the classic energy-flux recipe. A short-time Fourier
transform turns the signal into frame spectra; the positive part of the
frame-to-frame magnitude difference (spectral flux) rises sharply at note
and percussion onsets. Autocorrelation of that onset envelope then exposes
the beat period: a carrier with a steady pulse shows a comb of peaks at
the beat lag and its multiples.

Rather than committing to a single tempo, estimate_tempo returns a ranked
list of (BPM, strength) candidates. Half- and double-tempo harmonics of
the true pulse routinely appear as secondary peaks, and downstream code
that compares two measurements of the same material is more robust when
it can match candidates pairwise instead of trusting one number.

Absolute accuracy is limited (a few BPM, worse on soft material), but the
estimate is deterministic and scale-invariant, which is what comparisons
of the same material at slightly different playback rates need.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .audio import PcmBuffer, rms_dbfs, shared_pool
from .errors import LowEnergy, NoPeriodicity, TooShort

# A candidate peak must stand this far above the median autocorrelation in
# the search band. White noise stays below ~0.09; real pulses reach 0.8+.
PEAK_MARGIN = 0.12

# Preference for faster interpretations when ranking, so the fundamental
# outranks its half-tempo alias. Autocorrelation scores the alias almost
# identically, and when the beat lag falls between frames the parabolic
# vertex can undershoot the fundamental by up to ~12%; 0.3 gives a ~23%
# score edge per octave, clearing that while staying well below the ~50%
# edge that would wrongly promote half-beat subdivision peaks.
OCTAVE_EXP = 0.3

MIN_MEASURE_S = 9.0

# The largest tempo offset fraction a payload slice may carry. The
# estimator's band covers every tempo encode can write from a 60-200 BPM
# carrier, so a slice lowered from 60 BPM still measures inside it.
MAX_DELTA = 0.03

# STFT frames per block of the onset envelope. A block's frames, spectra
# and flux stay in cache, and blocks run concurrently because the FFT
# releases the interpreter lock.
BLOCK_FRAMES = 64


@functools.lru_cache(maxsize=8)
def _hann(win: int) -> np.ndarray:
    w = np.hanning(win)
    w.flags.writeable = False
    return w


# The estimator's fixed values, read through SETTINGS. They stay a record
# because perfbench/spans.py imports TempoConfig and builds one to read the
# STFT geometry, and a property test swaps in one with another geometry.
@dataclass(frozen=True)
class TempoConfig:
    bpm_min: float = 60.0 * (1.0 - MAX_DELTA)
    bpm_max: float = 200.0 * (1.0 + MAX_DELTA)
    stft_window: int = 2048
    stft_hop: int = 512
    k_max: int = 5
    min_rms_dbfs: float = -45.0


SETTINGS = TempoConfig()


@dataclass(frozen=True)
class TempoCandidates:
    """Ranked tempo hypotheses, strongest first.

    entries holds (bpm, strength) pairs; strengths are non-negative and
    sum to 1. analysis_window_s records how much audio was measured.
    """

    entries: tuple[tuple[float, float], ...]
    analysis_window_s: float

    @property
    def best_bpm(self) -> float:
        return self.entries[0][0]


def onset_envelope(buf: PcmBuffer) -> tuple[np.ndarray, float]:
    """Spectral-flux onset strength, one value per STFT hop.

    Returns (envelope, frame_rate). The envelope is mean-subtracted and
    clamped at zero, so only spectral change above the running average
    registers. The STFT runs in blocks on the shared thread pool; the result
    does not depend on how many threads it has. Raises TooShort below 1 s
    and LowEnergy below the RMS gate.
    """
    if buf.duration_s < 1.0:
        raise TooShort(f"onset envelope needs at least 1 s, got {buf.duration_s:.2f} s")
    if rms_dbfs(buf) < SETTINGS.min_rms_dbfs:
        raise LowEnergy(f"signal below {SETTINGS.min_rms_dbfs} dBFS gate")
    x = buf.samples
    win = SETTINGS.stft_window
    hop = SETTINGS.stft_hop
    if len(x) < win + hop:
        raise TooShort("buffer shorter than two STFT frames")
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop]
    window = _hann(win)
    flux = np.empty(frames.shape[0] - 1)

    def block(start: int) -> None:
        # frames start..stop give flux[start:stop]; the next block starts
        # at this one's last frame
        stop = min(start + BLOCK_FRAMES, flux.shape[0])
        mag = np.abs(np.fft.rfft(frames[start : stop + 1] * window, axis=1))
        flux[start:stop] = np.maximum(mag[1:] - mag[:-1], 0.0).sum(axis=1)

    # list() waits for every block and re-raises the first failure
    list(shared_pool().map(block, range(0, flux.shape[0], BLOCK_FRAMES)))
    env = np.maximum(flux - flux.mean(), 0.0)
    return env, buf.sample_rate / hop


def estimate_tempo(buf: PcmBuffer) -> TempoCandidates:
    """Measure tempo candidates for a buffer of at least 9 s.

    Autocorrelation of the onset envelope (unbiased normalization) is
    scanned for local maxima in the BPM band of SETTINGS. Each peak is
    refined by parabolic interpolation; peaks that do not clear
    PEAK_MARGIN over the band's median are dropped. Survivors are ranked
    by interpolated peak height weighted by the octave preference, and the
    top k_max become candidates with strengths normalized to sum 1.

    Raises TooShort (< 9 s), LowEnergy (below the RMS gate), or
    NoPeriodicity (nothing clears the margin, as with unpitched noise).
    """
    if buf.duration_s < MIN_MEASURE_S:
        raise TooShort(
            f"tempo needs at least {MIN_MEASURE_S:.0f} s, got {buf.duration_s:.2f} s"
        )
    env, frame_rate = onset_envelope(buf)
    n = env.shape[0]

    m = 1
    while m < 2 * n:
        m <<= 1
    spec = np.fft.rfft(env, m)
    ac = np.fft.irfft(spec * np.conj(spec), m)[:n]
    acu = ac / (n - np.arange(n))
    if acu[0] <= 0.0:
        raise NoPeriodicity("onset envelope carries no energy")
    r = acu / acu[0]

    lag_min = max(1, int(np.floor(60.0 * frame_rate / SETTINGS.bpm_max)))
    lag_max = min(n - 2, int(np.ceil(60.0 * frame_rate / SETTINGS.bpm_min)))
    if lag_max <= lag_min:
        raise NoPeriodicity("buffer too short for the BPM band")
    base = float(np.median(r[lag_min : lag_max + 1]))

    scored = []
    for p in range(lag_min, lag_max + 1):
        if not (r[p] > r[p - 1] and r[p] >= r[p + 1]):
            continue
        a, b, c = r[p - 1], r[p], r[p + 1]
        denom = a - 2.0 * b + c
        d = 0.0 if denom == 0.0 else float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))
        vertex = b - 0.25 * (a - c) * d
        bpm = 60.0 * frame_rate / (p + d)
        if not (SETTINGS.bpm_min <= bpm <= SETTINGS.bpm_max):
            continue
        if vertex <= 0.0 or vertex - base <= PEAK_MARGIN:
            continue
        scored.append((bpm, vertex * (bpm / SETTINGS.bpm_max) ** OCTAVE_EXP))

    if not scored:
        raise NoPeriodicity("no autocorrelation peak clears the baseline margin")
    scored.sort(key=lambda t: -t[1])
    top = scored[: SETTINGS.k_max]
    total = sum(s for _, s in top)
    entries = tuple((bpm, s / total) for bpm, s in top)
    return TempoCandidates(entries=entries, analysis_window_s=buf.duration_s)
