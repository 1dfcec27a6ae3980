import dataclasses
import math
import re

import numpy as np
import pytest

from tempostego import (
    BitString,
    EvalResult,
    FileResult,
    Gain,
    Noise,
    PcmBuffer,
    ResampleRoundTrip,
    compare_bits,
    concat,
    evaluate,
    generate_click_track,
    parse_bitstring,
    perturb,
    split_on_silence,
)
from tempostego import harness
from tempostego.bits import ERASURE

SR = 44100


def count_bursts(buf, threshold):
    """Clusters of super-threshold samples separated by >100 ms. Bursts
    last 30 ms and beats are at least 200 ms apart, so each cluster is
    one click."""
    idx = np.flatnonzero(np.abs(buf.samples) > threshold)
    if len(idx) == 0:
        return 0
    return int(1 + np.sum(np.diff(idx) > buf.sample_rate // 10))


def test_click_count_matches_bpm():
    track = generate_click_track(120, 60.0)
    assert count_bursts(track, 0.4) == 120


def test_subdivision_adds_quieter_clicks():
    track = generate_click_track(120, 60.0, subdivision=True)
    # half-beat clicks peak at 0.3 and stay under the main-click threshold
    assert count_bursts(track, 0.4) == 120
    assert count_bursts(track, 0.15) == 240


def test_click_peak_amplitude():
    track = generate_click_track(97, 10.0, seed=3)
    assert float(np.max(np.abs(track.samples))) == pytest.approx(0.8, abs=1e-12)


def test_click_track_deterministic():
    a = generate_click_track(133, 12.0, seed=42)
    b = generate_click_track(133, 12.0, seed=42)
    c = generate_click_track(133, 12.0, seed=43)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_click_track_validation():
    with pytest.raises(ValueError):
        generate_click_track(30, 10.0)
    with pytest.raises(ValueError):
        generate_click_track(301, 10.0)
    with pytest.raises(ValueError):
        generate_click_track(120, 0.5)
    with pytest.raises(ValueError):
        generate_click_track(120, 10.0, sample_rate=4000)


SNR_PAST_INF = "noise SNR must be a number of dB above -inf"
RATE_TOO_LOW = "intermediate rate must be finite and at least 4 kHz"


@pytest.mark.parametrize("kind, field, valid, bad, message", [
    *[(Gain, "factor", 1.0, v, "gain factor must be positive and finite")
      for v in (0.0, -1.0, math.nan, math.inf)],
    (Noise, "snr_db", 20.0, math.nan, SNR_PAST_INF),
    (Noise, "snr_db", 20.0, -math.inf, SNR_PAST_INF),
    (Noise, "snr_db", 20.0, -7000.0,
     "noise SNR -7000 dB puts the noise level past the float range"),
    *[(ResampleRoundTrip, "rate", 22050, v, RATE_TOO_LOW) for v in (3999, math.inf, math.nan)],
])
def test_a_perturbation_checks_its_parameters_when_made(kind, field, valid, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kind(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(kind(valid), **{field: bad})


def test_perturb_gain_scales_exactly():
    buf = generate_click_track(120, 5.0)
    out = perturb(buf, Gain(0.5))
    assert np.array_equal(out.samples, buf.samples * 0.5)
    for factor in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            perturb(buf, Gain(factor))


def test_perturb_noise_rejects_a_non_finite_snr_below_inf():
    buf = generate_click_track(120, 5.0)
    for snr_db in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            perturb(buf, Noise(snr_db=snr_db))
    assert np.array_equal(perturb(buf, Noise(snr_db=math.inf)).samples, buf.samples)


def test_perturb_noise_rejects_an_snr_whose_noise_level_overflows():
    # 10 ** (7000 / 20) is past the float range; the SNR is named, not an
    # OverflowError raised from the arithmetic
    buf = generate_click_track(120, 5.0)
    with pytest.raises(ValueError, match="noise SNR -7000 dB"):
        perturb(buf, Noise(snr_db=-7000.0))
    assert np.isfinite(perturb(buf, Noise(snr_db=-6000.0)).samples).all()


def test_resample_rejects_a_non_finite_rate():
    buf = generate_click_track(120, 5.0)
    for rate in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and at least 4 kHz"):
            perturb(buf, ResampleRoundTrip(rate))


def test_perturb_noise_hits_requested_snr():
    buf = generate_click_track(120, 30.0)
    out = perturb(buf, Noise(snr_db=20.0, seed=1))
    residual = out.samples - buf.samples
    snr = 20.0 * np.log10(
        np.sqrt(np.mean(buf.samples**2)) / np.sqrt(np.mean(residual**2))
    )
    assert snr == pytest.approx(20.0, abs=0.2)
    assert len(out) == len(buf)


def test_perturb_noise_deterministic_per_seed():
    buf = generate_click_track(120, 5.0)
    a = perturb(buf, Noise(snr_db=30.0, seed=5))
    b = perturb(buf, Noise(snr_db=30.0, seed=5))
    assert np.array_equal(a.samples, b.samples)


def test_resample_same_rate_is_identity():
    buf = generate_click_track(120, 5.0)
    out = perturb(buf, ResampleRoundTrip(SR))
    assert np.array_equal(out.samples, buf.samples)


def test_resample_round_trip_preserves_shape():
    t = np.arange(5 * SR) / SR
    buf = PcmBuffer(samples=0.5 * np.sin(2 * np.pi * 440 * t), sample_rate=SR)
    out = perturb(buf, ResampleRoundTrip(22050))
    assert len(out) == len(buf)
    assert out.sample_rate == SR
    # 440 Hz sits far below the 11 kHz fold, so the tone survives
    err = np.sqrt(np.mean((out.samples[SR : 4 * SR] - buf.samples[SR : 4 * SR]) ** 2))
    assert err < 0.02


def test_compare_bits_counts():
    decoded = BitString((1, 0, ERASURE, 1, 1))
    expected = BitString((1, 1, 0, 1, 0))
    assert compare_bits(decoded, expected) == (2, 1, 4)
    # overlap only: extra expected bits are not compared
    assert compare_bits(BitString((1,)), expected) == (0, 0, 1)


def test_evaluate_round_trip_totals():
    message = parse_bitstring("1 0 1")
    carriers = [generate_click_track(120, 40.0, seed=1),
                generate_click_track(135, 40.0, seed=2)]
    result = evaluate(carriers, message)
    assert result.total_errors == 0
    assert result.total_erasures == 0
    assert result.total_compared == 4  # capacity 2 per 40 s carrier
    assert result.ber == 0.0
    for f in result.files:
        assert f.capacity == 2
        assert f.failure is None
        assert len(f.bits) == 2


def test_evaluate_takes_carriers_one_at_a_time():
    carriers = (generate_click_track(b, 35.0) for b in (120, 135))
    result = evaluate(carriers, parse_bitstring("1"))
    assert [f.name for f in result.files] == ["carrier-1", "carrier-2"]
    assert result.total_errors == 0 and result.total_compared == 2


def test_evaluate_checks_the_perturbation_before_taking_a_carrier(monkeypatch):
    # a perturbation checks itself when made, so a bad one raises before
    # evaluate can take a carrier or encode
    taken = []

    def carriers():
        taken.append("carrier")
        yield generate_click_track(120, 40.0)

    def no_encode(*args, **kwargs):
        raise AssertionError("encode ran before the perturbation was checked")

    monkeypatch.setattr(harness, "encode", no_encode)
    for make in (lambda: Gain(math.nan), lambda: Noise(snr_db=-7000.0),
                 lambda: ResampleRoundTrip(math.inf)):
        with pytest.raises(ValueError):
            evaluate(carriers(), parse_bitstring("1"), perturbation=make())
    assert taken == []


def test_evaluate_rejects_names_that_do_not_match_the_carriers():
    carriers = [generate_click_track(120, 35.0), generate_click_track(135, 35.0)]
    with pytest.raises(ValueError):
        evaluate(carriers, parse_bitstring("1"), names=["only-one"])


def test_evaluate_records_failures_instead_of_raising():
    silent_start = concat([
        PcmBuffer(samples=np.zeros(5 * SR), sample_rate=SR),
        generate_click_track(120, 35.0),
    ])
    result = evaluate([silent_start], parse_bitstring("1"))
    assert result.files[0].failure == "ReferenceSilent"
    assert result.files[0].bits is None
    assert result.total_compared == 0
    assert "<ReferenceSilent>" in result.format_table()


def test_evaluate_empty_message_has_zero_ber():
    result = evaluate([generate_click_track(120, 35.0)], BitString(()))
    assert result.total_compared == 0
    assert result.ber == 0.0


def test_format_table_layout():
    message = parse_bitstring("1 0 1")
    files = (
        FileResult("short.wav", 40.0, 2, BitString((1, 0)), 0, 0, 2),
        FileResult("bad.wav", 35.0, 1, None, 0, 0, 0, failure="ReferenceSilent"),
    )
    table = EvalResult(files, message, None).format_table()
    lines = table.splitlines()
    assert "(message)" in lines[1] and "1 0 1" in lines[1]
    assert "1 0 x" in lines[2]  # decoded bits padded to message length
    assert "<ReferenceSilent>" in lines[3]
    assert lines[-1] == "totals: errors 0/2 (BER 0.0000), erasures 0"


def test_split_on_two_segments():
    gap = PcmBuffer(samples=np.zeros(3 * SR), sample_rate=SR)
    stream = concat([
        generate_click_track(120, 30.0, seed=1),
        gap,
        generate_click_track(140, 30.0, seed=2),
    ])
    segments = split_on_silence(stream)
    assert len(segments) == 2
    for seg in segments:
        assert 29.0 < seg.duration_s <= 30.05
    # a gap no stream holds, so long that it overflows in samples
    assert len(split_on_silence(stream, min_silence_s=1e305)) == 1


def test_short_gap_does_not_split():
    stream = concat([
        generate_click_track(120, 20.0),
        PcmBuffer(samples=np.zeros(int(1.5 * SR)), sample_rate=SR),
        generate_click_track(120, 20.0),
    ])
    assert len(split_on_silence(stream)) == 1


def test_all_silent_stream_yields_nothing():
    silence = PcmBuffer(samples=np.zeros(10 * SR), sample_rate=SR)
    assert split_on_silence(silence) == []


def test_edges_are_trimmed():
    stream = concat([
        PcmBuffer(samples=np.zeros(3 * SR), sample_rate=SR),
        generate_click_track(120, 20.0),
    ])
    segments = split_on_silence(stream)
    assert len(segments) == 1
    assert segments[0].duration_s <= 20.05
    # the leading silent frames are gone
    assert np.max(np.abs(segments[0].samples[: SR // 10])) > 0.1


def test_threshold_decides_what_counts_as_silence():
    rng = np.random.default_rng(9)
    hiss = PcmBuffer(samples=rng.standard_normal(3 * SR) * 1e-3, sample_rate=SR)
    stream = concat([
        generate_click_track(120, 20.0, seed=1),
        hiss,
        generate_click_track(120, 20.0, seed=2),
    ])
    # -60 dBFS hiss is silent against a -50 threshold, not against -70
    assert len(split_on_silence(stream, threshold_dbfs=-50.0)) == 2
    assert len(split_on_silence(stream, threshold_dbfs=-70.0)) == 1


def test_split_validation():
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            split_on_silence(generate_click_track(120, 5.0), min_silence_s=bad)


def test_threshold_must_not_be_nan():
    gapped = concat([
        generate_click_track(120, 20.0, seed=1),
        PcmBuffer(samples=np.zeros(3 * SR), sample_rate=SR),
        generate_click_track(120, 20.0, seed=2),
    ])
    assert len(split_on_silence(gapped, threshold_dbfs=-50.0)) == 2
    with pytest.raises(ValueError, match="NaN"):
        split_on_silence(gapped, threshold_dbfs=np.nan)
    # +inf: every frame is silent; -inf: none is, so nothing separates
    assert split_on_silence(gapped, threshold_dbfs=np.inf) == []
    (whole,) = split_on_silence(gapped, threshold_dbfs=-np.inf)
    assert np.array_equal(whole.samples, gapped.samples)
