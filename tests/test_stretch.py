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


def test_a_rate_too_low_for_the_frame_geometry_is_refused():
    # at 100 Hz the 10 ms overlap rounds to one sample
    noise = np.random.default_rng(0).uniform(-0.5, 0.5, 1000)
    with pytest.raises(ValueError, match="degenerates at 100 Hz"):
        stretch_tempo(PcmBuffer(samples=noise, sample_rate=100), 1.01)


def test_the_search_of_a_16bit_buffer_sums_no_squares(click, monkeypatch):
    # a 16-bit input's energy is 0 or in range, so it is never summed; its
    # float twin is screened by one sum, and both find the same starts
    q = np.round(click(120, 10.0).samples * 32767).astype("<i2")
    twin = PcmBuffer(samples=q / 32768, sample_rate=SR)
    einsum, calls = np.einsum, []
    monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or einsum(*a, **k))
    starts = stretch.frame_starts(PcmBuffer(samples=q, sample_rate=SR), 1.01)
    assert calls == []
    assert np.array_equal(stretch.frame_starts(twin, 1.01), starts)
    assert calls == ["i,i->"]


def test_the_certificate_declines_a_template_unlike_its_natural_window():
    # the natural window's score s0 is sqrt(te / en[l0]); outside [0.5, 2]
    # the bound's terms do not hold, so the frame is left to the full search
    overlap, m, l0 = 32, 9, 4
    seg = np.random.default_rng(0).uniform(-1.0, 1.0, m + overlap - 1)
    for scale, want in [(1.0, l0), (0.1, None), (10.0, None)]:
        assert certified(seg, scale * seg[l0 : l0 + overlap], l0) == want
    # Nor when the range's energy dwarfs its smallest window's (about
    # 3e11 times here): the rounding term rho passes 2**-10, where the
    # bound's linear terms stop holding, though s0 is 1
    seg[-overlap:] *= 1e-6
    assert certified(seg, seg[l0 : l0 + overlap].copy(), l0) is None


def certified(seg, tmpl, l0):
    """stretch._certified of one frame: the template tmpl over the lags
    of seg, its natural lag l0."""
    m = len(seg) - len(tmpl) + 1
    sq = np.zeros(len(seg) + 1)
    np.cumsum(seg * seg, out=sq[1:])
    en = sq[len(tmpl) : len(tmpl) + m] - sq[:m]
    return stretch._certified(seg, tmpl, float(np.dot(tmpl, tmpl)), sq, en, l0, np.empty(m))


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


@pytest.mark.parametrize("found", [False, True])
def test_an_int16_out_is_refused_unless_it_fits_a_16bit_buffer(click, found):
    # an int16 out for a float buffer, one of the wrong length or dtype,
    # and one overlapping the 16-bit buffer's own samples are refused, and
    # nothing is written into them
    buf = click(120, 10.0)
    q = PcmBuffer(samples=np.rint(buf.samples * 32767.0).astype("<i2"), sample_rate=SR)
    n = stretch.stretched_length(len(buf), 1.01)
    starts = stretch.frame_starts(q, 1.01) if found else None
    refused = [
        (buf, np.zeros(n, dtype="<i2")),
        (q, np.zeros(n - 1, dtype="<i2")),
        (q, np.zeros(n + 1, dtype="<i2")),
        (q, np.zeros(n, dtype="<i4")),
        (q, np.zeros(n, dtype=">i2")),
    ]
    for b, out in refused:
        with pytest.raises(ValueError, match="int16 ones for a 16-bit buffer"):
            stretch_tempo(b, 1.01, out=out, starts=starts)
        assert not out.any()
    own = q._data.copy()
    with pytest.raises(ValueError, match="apart from the input"):
        stretch_tempo(q, 1.01, out=q._data[len(q) - n :], starts=starts)
    assert q._data.tobytes() == own.tobytes()
    # what fits is filled: the written float render's samples
    out = np.zeros(n, dtype="<i2")
    assert stretch_tempo(q, 1.01, out=out, starts=starts)._data is out
    assert np.array_equal(out, np.rint(stretch_tempo(q, 1.01).samples * 32768.0))
