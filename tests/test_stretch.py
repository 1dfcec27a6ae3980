import numpy as np
import pytest

from tempostego import (
    BufferTooShort,
    NonFiniteSamples,
    PcmBuffer,
    RatioOutOfRange,
    estimate_tempo,
    stretch_tempo,
)
from tempostego import stretch

SR = 44100


def sine(freq, duration_s, amp=0.5):
    t = np.arange(int(duration_s * SR)) / SR
    return PcmBuffer(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=SR)


def dominant_freq(buf):
    spec = np.abs(np.fft.rfft(buf.samples * np.hanning(len(buf))))
    return np.argmax(spec) * buf.sample_rate / len(buf)


@pytest.mark.parametrize("ratio", [0.9, 0.97, 0.99, 1.0, 1.01, 1.03, 1.1])
def test_length_law(click, ratio):
    buf = click(120, 10.0)
    out = stretch_tempo(buf, ratio)
    assert abs(len(out) * ratio - len(buf)) / len(buf) <= 0.005


def test_identity_ratio_reconstructs_content(click):
    buf = click(120, 10.0)
    out = stretch_tempo(buf, 1.0)
    assert len(out) == len(buf)
    corr = np.corrcoef(out.samples, buf.samples)[0, 1]
    assert corr >= 0.99


def test_sine_stretch_preserves_pitch():
    out = stretch_tempo(sine(440, 10.0), 1.01)
    assert out.duration_s == pytest.approx(9.901, abs=0.05)
    # a resampler would read 444.4 Hz here
    assert dominant_freq(out) == pytest.approx(440.0, abs=2.0)


@pytest.mark.parametrize("freq", [100, 440, 2000])
@pytest.mark.parametrize("ratio", [0.97, 1.03])
def test_pitch_drift_below_one_percent(freq, ratio):
    out = stretch_tempo(sine(freq, 6.0), ratio)
    assert abs(dominant_freq(out) - freq) / freq <= 0.01


def click_intervals(buf, min_gap_s=0.2):
    hits = np.flatnonzero(np.abs(buf.samples) > 0.4)
    starts = hits[np.concatenate(([True], np.diff(hits) > int(min_gap_s * buf.sample_rate)))]
    return np.diff(starts) / buf.sample_rate


def test_click_interval_law(click):
    buf = click(120, 20.0)
    for ratio in (0.99, 1.01):
        out = stretch_tempo(buf, ratio)
        mean_interval = float(np.mean(click_intervals(out)))
        assert mean_interval == pytest.approx(0.5 / ratio, rel=0.01)


def test_stretched_track_measures_scaled_tempo(click):
    out = stretch_tempo(click(120, 12.0), 0.99)
    assert estimate_tempo(out).best_bpm == pytest.approx(118.8, abs=1.0)


def test_round_trip_composition_length(click):
    buf = click(100, 10.0)
    back = stretch_tempo(stretch_tempo(buf, 1.03), 1 / 1.03)
    assert abs(back.duration_s - buf.duration_s) / buf.duration_s <= 0.01


@pytest.mark.parametrize("ratio", [0.4, 2.5, 0.0, -1.0])
def test_ratio_bounds(ratio, click):
    with pytest.raises(RatioOutOfRange):
        stretch_tempo(click(120, 10.0), ratio)


def test_short_buffer_rejected():
    with pytest.raises(BufferTooShort):
        stretch_tempo(sine(440, 0.1), 1.01)


def test_out_is_filled_and_returned(click):
    buf = click(120, 10.0)
    want = stretch_tempo(buf, 1.01).samples
    out = np.full(len(want), np.nan)
    got = stretch_tempo(buf, 1.01, out=out)
    assert got.samples is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("shift, dtype", [(-1, np.float64), (1, np.float64), (0, np.float32)])
def test_out_of_wrong_length_or_dtype_rejected(click, shift, dtype):
    buf = click(120, 10.0)
    n = len(stretch_tempo(buf, 1.01))
    with pytest.raises(ValueError, match="float64"):
        stretch_tempo(buf, 1.01, out=np.zeros(n + shift, dtype=dtype))


def test_out_overlapping_the_input_rejected(click):
    x = click(120, 10.0).samples.copy()
    n = len(stretch_tempo(PcmBuffer(samples=x, sample_rate=SR), 1.01))
    with pytest.raises(ValueError, match="apart from the input"):
        stretch_tempo(PcmBuffer(samples=x, sample_rate=SR), 1.01, out=x[:n])


def test_huge_and_tiny_samples_stretch_as_scaled_plain_samples(click):
    # the alignment scores multiply two window energies, which overflow
    # for samples past about 1e76 and underflow for samples of about
    # 1e-100; a power-of-two scale is exact
    buf = click(120, 12.0)
    plain = stretch_tempo(buf, 1.01).samples
    for scale in (2.0**532, 2.0**-532):
        scaled = stretch_tempo(PcmBuffer(samples=buf.samples * scale, sample_rate=SR), 1.01)
        assert np.array_equal(scaled.samples, plain * scale)
    for scale in (1e100, 1e160, 1e-100):
        scaled = stretch_tempo(PcmBuffer(samples=buf.samples * scale, sample_rate=SR), 1.01)
        np.testing.assert_allclose(scaled.samples / scale, plain, rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["start", "middle"])
def test_non_finite_samples_are_refused(click, bad, where):
    x = click(120, 10.0).samples.copy()
    x[0 if where == "start" else len(x) // 2] = bad
    with pytest.raises(NonFiniteSamples):
        stretch_tempo(PcmBuffer(samples=x, sample_rate=SR), 1.01)


@pytest.mark.parametrize("bad", ["short", "long", "below", "above", "float", "list"])
def test_starts_that_do_not_fit_the_stretch_raise(click, bad):
    buf = click(120, 10.0)
    good = stretch.frame_starts(buf, 1.01)
    seq = int(round(stretch.SEQUENCE_MS * SR / 1000.0))
    starts = {
        "short": good[:-1],
        "long": np.append(good, 0),
        "below": np.where(np.arange(len(good)) == 3, -1, good),
        "above": np.where(np.arange(len(good)) == 3, len(buf) - seq + 1, good),
        "float": good.astype(float),
        "list": good.tolist(),
    }[bad]
    assert not stretch.starts_fit(starts, len(buf), 1.01, SR)
    with pytest.raises(ValueError, match="starts"):
        stretch_tempo(buf, 1.01, starts=starts)


def test_the_last_start_may_reach_len_minus_seq(click):
    buf = click(120, 10.0)
    seq = int(round(stretch.SEQUENCE_MS * SR / 1000.0))
    starts = stretch.frame_starts(buf, 1.01)
    starts[-1] = len(buf) - seq
    assert stretch.starts_fit(starts, len(buf), 1.01, SR)
    assert len(stretch_tempo(buf, 1.01, starts=starts)) == stretch.stretched_length(len(buf), 1.01)


@pytest.mark.parametrize("form", ["float", "int16", "tiny"])
def test_a_kept_input_is_prepared_once_and_stretches_alike(click, monkeypatch, form):
    # a KeptInput's search and render read, check and scale its samples
    # once, and give what a plain buffer's do; "tiny" is stretched at a
    # power-of-two scale
    x = click(120, 10.0).samples
    if form == "int16":
        samples = np.rint(x * 32767.0).astype("<i2")
    else:
        samples = x * (1e-100 if form == "tiny" else 1.0)
    plain = PcmBuffer(samples=samples, sample_rate=SR)
    want = stretch_tempo(plain, 0.99).samples
    prepared = []
    real = stretch._kernel_input

    def counted(src):
        prepared.append(None)
        return real(src)

    monkeypatch.setattr(stretch, "_kernel_input", counted)
    kept = stretch.KeptInput(samples=samples, sample_rate=SR)
    starts = stretch.frame_starts(kept, 0.99)
    out = np.empty(len(want))
    got = stretch_tempo(kept, 0.99, out=out, starts=starts)
    assert len(prepared) == 1
    assert got.samples is out
    assert np.array_equal(out, want)
    if form != "int16":  # a float input's own samples are no place for its output
        with pytest.raises(ValueError, match="apart from the input"):
            stretch_tempo(kept, 1.0, out=kept.samples)
