import importlib.util
import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from tempostego import (
    LowEnergy,
    NoPeriodicity,
    PcmBuffer,
    TooShort,
    estimate_tempo,
    onset_envelope,
    stretch_tempo,
)
from tempostego.tempo import (BPM_MAX, BPM_MIN, DECIMATION, K_MAX, STFT_HOP, STFT_WINDOW,
                              stft_frames)

SR = 44100


def _perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("sr", [8000, SR])
@pytest.mark.parametrize("quarter_rate", [False, True])
def test_perfbench_counts_the_frames_of_the_onset_envelope(sr, quarter_rate):
    # the benchmark's tempo.onset_envelope.frames comes from perfbench's
    # TempoConfig(), not from the constants onset_envelope reads; each
    # envelope value differences two frames
    onset_info = _perfbench_spans()._onset_info
    rng = np.random.default_rng(1)
    for n in (sr + STFT_WINDOW, sr + STFT_WINDOW + STFT_HOP - 1, 3 * sr + 1000, 10 * sr - 1):
        buf = PcmBuffer(samples=rng.uniform(-0.5, 0.5, n), sample_rate=sr)
        result = onset_envelope(buf, quarter_rate=quarter_rate)
        info = onset_info((buf,), {"quarter_rate": quarter_rate}, result)
        assert info["frames"] == len(result[0]) + 1


def test_silence_is_low_energy():
    silence = PcmBuffer(samples=np.zeros(10 * SR), sample_rate=SR)
    with pytest.raises(LowEnergy):
        onset_envelope(silence)
    with pytest.raises(LowEnergy):
        estimate_tempo(silence)


def test_short_buffers_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(TooShort):
        onset_envelope(PcmBuffer(samples=rng.uniform(-0.5, 0.5, SR // 2), sample_rate=SR))
    with pytest.raises(TooShort):
        estimate_tempo(PcmBuffer(samples=rng.uniform(-0.5, 0.5, 8 * SR), sample_rate=SR))
    # 1 s at 2 kHz is under one STFT window and hop
    with pytest.raises(TooShort, match="two STFT frames"):
        onset_envelope(PcmBuffer(samples=rng.uniform(-0.5, 0.5, 2000), sample_rate=2000))


def test_an_envelope_without_energy_or_room_for_the_band_has_no_periodicity():
    # every frame of a DC signal has the same spectrum: the flux is 0
    with pytest.raises(NoPeriodicity, match="no energy"):
        estimate_tempo(PcmBuffer(samples=np.full(10 * SR, 0.5), sample_rate=SR))
    # 9 s at 352 Hz gives two flux values, no lag inside the BPM band
    noise = np.random.default_rng(0).uniform(-0.5, 0.5, 9 * 352)
    with pytest.raises(NoPeriodicity, match="BPM band"):
        estimate_tempo(PcmBuffer(samples=noise, sample_rate=352))


def test_single_click_localized_in_envelope():
    rng = np.random.default_rng(3)
    burst_len = int(0.030 * SR)
    burst = rng.uniform(-1, 1, burst_len) * np.exp(-np.arange(burst_len) / (0.005 * SR))
    x = np.zeros(4 * SR)
    at = 2 * SR
    x[at : at + burst_len] = 0.8 * burst / np.max(np.abs(burst))
    env, frame_rate = onset_envelope(PcmBuffer(samples=x, sample_rate=SR))
    peak = int(np.argmax(env))
    # envelope index i differences frames i and i+1; convert to center time
    peak_time = ((peak + 1) * STFT_HOP + STFT_WINDOW / 2) / SR
    assert abs(peak_time - 2.0) <= 2 * STFT_HOP / SR + STFT_WINDOW / SR


@pytest.mark.parametrize("freq", [SR // 4, SR // 2, 441, 2205])
@pytest.mark.parametrize("phase", [0.0, 0.3, np.pi / 2])
def test_stft_frames_low_pass_a_tone_by_the_filter_gain(freq, phase):
    # the q-sample mean applied twice passes a tone at f scaled by
    # (sin(q pi f / sr) / (q sin(pi f / sr)))**2, in phase: zero at sr/4 and
    # sr/2, the filter's nulls; the frames' first and last rows reach the
    # zeros past the ends
    q = DECIMATION
    # whole cycles dropped in integers, so no sample's phase is off by the
    # rounding of a large argument
    x = np.cos(2 * np.pi * (np.arange(2 * SR) * freq % SR) / SR + phase)
    gain = (np.sin(q * np.pi * freq / SR) / (q * np.sin(np.pi * freq / SR))) ** 2
    frames = stft_frames(x, quarter_rate=True)
    win, hop = STFT_WINDOW, STFT_HOP
    assert frames.shape == ((len(x) - win) // hop + 1, win // q)
    want = np.stack([x[s : s + win : q] for s in range(0, len(x) - win + 1, hop)]) * gain
    assert np.max(np.abs(frames[1:-1] - want[1:-1])) <= 1e-12
    if freq in (SR // 4, SR // 2):
        assert np.max(np.abs(frames[1:-1])) <= 1e-12


def test_envelope_peak_spacing_matches_beat_period(click):
    env, frame_rate = onset_envelope(click(120, 10.0))
    threshold = 0.5 * np.max(env)
    peaks = [
        i
        for i in range(1, len(env) - 1)
        if env[i] >= threshold and env[i] > env[i - 1] and env[i] >= env[i + 1]
    ]
    gaps = np.diff(peaks) / frame_rate
    assert np.all(np.abs(gaps - 0.5) <= 1.0 / frame_rate)


@pytest.mark.parametrize("bpm", [72, 90, 120, 128, 150, 174])
@pytest.mark.parametrize("subdivision", [False, True])
def test_click_track_tempo_within_one_bpm(click, bpm, subdivision):
    buf = click(bpm, 10.0, 0, subdivision)
    assert estimate_tempo(buf).best_bpm == pytest.approx(bpm, abs=1.0)


def test_stretched_track_reads_shifted_tempo(click):
    out = stretch_tempo(click(120, 10.0), 1.01)
    assert estimate_tempo(out).best_bpm == pytest.approx(121.2, abs=1.0)


def test_candidate_set_invariants(click):
    for bpm in (90, 132):
        cands = estimate_tempo(click(bpm, 12.0))
        assert 1 <= len(cands.entries) <= K_MAX
        strengths = [s for _, s in cands.entries]
        assert all(s >= 0 for s in strengths)
        assert sum(strengths) == pytest.approx(1.0)
        assert strengths == sorted(strengths, reverse=True)
        assert all(BPM_MIN <= b <= BPM_MAX for b, _ in cands.entries)
        assert cands.analysis_window_s == pytest.approx(12.0)


@pytest.mark.parametrize("seed", range(20))
def test_white_noise_has_no_periodicity(seed):
    rng = np.random.default_rng(seed)
    noise = PcmBuffer(samples=rng.uniform(-0.5, 0.5, 10 * SR), sample_rate=SR)
    with pytest.raises(NoPeriodicity):
        estimate_tempo(noise)


def beat_noise(bpm=120.0, duration_s=10.0, seed=4, rms_target=0.178):
    """Music-like proxy: filtered noise with bursts at the beat rate,
    normalized loud enough that a 0.1 gain stays above the energy gate."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration_s * SR)) / SR
    x = np.convolve(rng.standard_normal(len(t)), np.exp(-np.arange(64) / 12.0), "same")
    x *= 0.3 + 0.7 * np.sin(np.pi * (bpm / 60.0) * t) ** 8
    x *= rms_target / np.sqrt(np.mean(x**2))
    return PcmBuffer(samples=x, sample_rate=SR)


def test_beat_noise_reads_its_modulation_rate():
    assert estimate_tempo(beat_noise(120.0)).best_bpm == pytest.approx(120.0, abs=1.0)


@pytest.mark.parametrize("gain", [0.1, 0.5, 1.0])
def test_scale_invariance(gain):
    buf = beat_noise(128.0)
    base = estimate_tempo(buf)
    scaled = estimate_tempo(
        PcmBuffer(samples=buf.samples * gain, sample_rate=buf.sample_rate)
    )
    assert len(scaled.entries) == len(base.entries)
    for (b0, _), (b1, _) in zip(base.entries, scaled.entries):
        assert abs(b0 - b1) <= 0.1


@pytest.mark.parametrize("ratio", [0.97, 1.03])
def test_stretch_covariance(click, ratio):
    buf = click(110, 12.0)
    base = estimate_tempo(buf).best_bpm
    shifted = estimate_tempo(stretch_tempo(buf, ratio)).best_bpm
    assert shifted == pytest.approx(ratio * base, rel=0.01)


def test_determinism(click):
    buf = click(120, 10.0)
    assert estimate_tempo(buf) == estimate_tempo(buf)


def _envelope_matches(buf, expected):
    env, _ = onset_envelope(buf)
    if not np.array_equal(env, expected):
        raise AssertionError("the forked child's envelope differs")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_measures_after_parent_used_the_pool(click):
    buf = click(120, 10.0)
    # the parent's STFT pool now has threads, which a forked child lacks
    expected, _ = onset_envelope(buf)
    child = multiprocessing.get_context("fork").Process(
        target=_envelope_matches, args=(buf, expected)
    )
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung waiting for the parent's pool threads")
    assert child.exitcode == 0
