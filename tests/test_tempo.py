import multiprocessing
import os
import warnings

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
from tempostego.tempo import SETTINGS

SR = 44100


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
    peak_time = ((peak + 1) * SETTINGS.stft_hop + SETTINGS.stft_window / 2) / SR
    assert abs(peak_time - 2.0) <= 2 * SETTINGS.stft_hop / SR + SETTINGS.stft_window / SR


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
        assert 1 <= len(cands.entries) <= SETTINGS.k_max
        strengths = [s for _, s in cands.entries]
        assert all(s >= 0 for s in strengths)
        assert sum(strengths) == pytest.approx(1.0)
        assert strengths == sorted(strengths, reverse=True)
        assert all(SETTINGS.bpm_min <= b <= SETTINGS.bpm_max for b, _ in cands.entries)
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
