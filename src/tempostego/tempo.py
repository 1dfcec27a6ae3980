"""Tempo measurement from onset periodicity.

The estimator follows the classic energy-flux recipe. A short-time Fourier
transform turns the signal into frame spectra; the positive part of the
frame-to-frame magnitude difference (spectral flux) rises sharply at note
and percussion onsets. Autocorrelation of that onset envelope then exposes
the beat period: a carrier with a steady pulse shows a comb of peaks at
the beat lag and its multiples.

The STFT can also read the signal at a quarter of its rate, as beat
trackers commonly do: a triangular low-pass (the 4-sample mean applied
twice), then every 4th sample. Each frame still starts and ends where a
full-rate frame would, so the envelope keeps its frame count and its
frame rate (86.13 Hz at 44.1 kHz), and the FFTs cost about a fifth of
the full-rate ones. The flux then sums the bins below sr/8 only, so it
is a screen, not a substitute: decode accepts a quarter-rate decision
only where it is confident and the two rates agree on the reference
(codec.decode).

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

from .audio import PcmBuffer, float_range, rms_dbfs, shared_pool
from .errors import LowEnergy, NoPeriodicity, TooShort
from .plan import MAX_DELTA, MIN_MEASURE_S

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

# STFT frames per block of the onset envelope. A block's frames, spectra
# and flux stay in cache, and blocks run concurrently because the FFT
# releases the interpreter lock.
BLOCK_FRAMES = 64

# The quarter-rate STFT keeps every DECIMATION-th sample of the signal
# low-passed by _LOWPASS, the 4-sample mean applied twice, whose zeros at
# sr/4 and sr/2 take out the tones that the decimation folds onto 0 Hz.
DECIMATION = 4
_LOWPASS = np.array([1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0]) / 16.0
_LOWPASS.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _hann(win: int) -> np.ndarray:
    w = np.hanning(win)
    w.flags.writeable = False
    return w


# The estimator's fixed values, read through SETTINGS. They stay a record
# because perfbench/spans.py imports TempoConfig and builds one to read the
# STFT geometry, and a property test swaps in one with another geometry.
# stft_window and stft_hop count input samples at either rate: a frame
# spans 2048 of them and starts 512 after the one before.
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


def stft_frames(
    x: np.ndarray, start: int = 0, stop: int | None = None, *, quarter_rate: bool = False
) -> np.ndarray:
    """The onset STFT's frames start..stop-1 of x (every frame by
    default), before the window: frame i spans stft_window samples from
    i * stft_hop. A read-only view of them in x; with quarter_rate, of
    every DECIMATION-th sample in a copy of their span of x low-passed by
    _LOWPASS (centred, so a tone keeps its phase). The span takes its
    filter's halo from x, so only x's own ends meet zeros, and any range
    of frames gets the samples it would get in one filtering of all x."""
    win = SETTINGS.stft_window
    hop = SETTINGS.stft_hop
    if stop is None:
        stop = (x.shape[0] - win) // hop + 1
    a = start * hop
    b = (stop - 1) * hop + win
    if quarter_rate:
        half = _LOWPASS.shape[0] // 2
        lo = max(a - half, 0)
        x = np.convolve(x[lo : min(b + half, x.shape[0])], _LOWPASS, mode="same")
        x = x[a - lo : b - lo]
    else:
        x = x[a:b]
    step = DECIMATION if quarter_rate else 1
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(stop - start, len(range(0, win, step))),
        strides=(hop * x.strides[0], step * x.strides[0]),
        writeable=False,
    )


def onset_envelope(buf: PcmBuffer, *, quarter_rate: bool = False) -> tuple[np.ndarray, float]:
    """Spectral-flux onset strength, one value per STFT hop.

    Returns (envelope, frame_rate): a 2048-point Hann STFT at hop 512 of
    the samples, or with quarter_rate a 512-point one at hop 128 of the
    samples low-passed and kept at a quarter rate (stft_frames), with
    the same frame count and frame rate. The envelope is mean-subtracted
    and clamped at zero, so only spectral change above the running
    average registers. The STFT runs in blocks on the shared thread
    pool, each low-passing its own span at the quarter rate; the result
    does not depend on how many threads it has. Raises
    TooShort below 1 s and LowEnergy below the RMS gate, both judged on
    the full-rate samples.
    """
    if buf.duration_s < 1.0:
        raise TooShort(f"onset envelope needs at least 1 s, got {buf.duration_s:.2f} s")
    x = float_range(buf, 0, len(buf))
    if rms_dbfs(PcmBuffer(samples=x, sample_rate=buf.sample_rate)) < SETTINGS.min_rms_dbfs:
        raise LowEnergy(f"signal below {SETTINGS.min_rms_dbfs} dBFS gate")
    win = SETTINGS.stft_window
    hop = SETTINGS.stft_hop
    if len(x) < win + hop:
        raise TooShort("buffer shorter than two STFT frames")
    flux = np.empty((len(x) - win) // hop)

    def block(start: int) -> None:
        # frames start..stop give flux[start:stop]; the next block starts
        # at this one's last frame
        stop = min(start + BLOCK_FRAMES, flux.shape[0])
        frames = stft_frames(x, start, stop + 1, quarter_rate=quarter_rate)
        mag = np.abs(np.fft.rfft(frames * _hann(frames.shape[1]), axis=1))
        flux[start:stop] = np.maximum(mag[1:] - mag[:-1], 0.0).sum(axis=1)

    # list() waits for every block and re-raises the first failure
    list(shared_pool().map(block, range(0, flux.shape[0], BLOCK_FRAMES)))
    env = np.maximum(flux - flux.mean(), 0.0)
    return env, buf.sample_rate / hop


def estimate_tempo(buf: PcmBuffer, *, quarter_rate: bool = False) -> TempoCandidates:
    """Measure tempo candidates for a buffer of at least 9 s.

    Autocorrelation of the onset envelope (unbiased normalization) is
    scanned for local maxima in the BPM band of SETTINGS. Each peak is
    refined by parabolic interpolation; peaks that do not clear
    PEAK_MARGIN over the band's median are dropped. Survivors are ranked
    by interpolated peak height weighted by the octave preference, and the
    top k_max become candidates with strengths normalized to sum 1.
    quarter_rate selects onset_envelope's quarter-rate STFT.

    Raises TooShort (< 9 s), LowEnergy (below the RMS gate), or
    NoPeriodicity (nothing clears the margin, as with unpitched noise).
    """
    if buf.duration_s < MIN_MEASURE_S:
        raise TooShort(
            f"tempo needs at least {MIN_MEASURE_S:.0f} s, got {buf.duration_s:.2f} s"
        )
    env, frame_rate = onset_envelope(buf, quarter_rate=quarter_rate)
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
