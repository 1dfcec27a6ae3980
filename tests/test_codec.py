import contextlib
import errno
import io
import json
import math
import mmap
import os
import select
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from tempostego import (
    ERASURE,
    BitString,
    BoundaryMode,
    Direction,
    InsufficientCapacity,
    InvalidSymbol,
    MessageTooLong,
    Noise,
    NoPeriodicity,
    NonFiniteSamples,
    PcmBuffer,
    ReferenceSilent,
    StegoParams,
    TempoCandidates,
    TooShort,
    Undecidable,
    capacity,
    classify_slice,
    concat,
    decode,
    encode,
    encode_playlist,
    estimate_tempo,
    generate_click_track,
    generate_club_track,
    parse_bitstring,
    perturb,
    plan_slices,
    rms_dbfs,
    stretch_tempo,
)
from tempostego import codec, stretch
from tempostego.codec import _geometry
from tempostego.stretch import SEQUENCE_MS, frame_starts, stretched_length
from tempostego.tempo import MAX_DELTA

SR = 44100
PHI_N = 441000


def cands(*bpms, strengths=None):
    """Hand-built candidate set for classifier tests."""
    if strengths is None:
        strengths = [1.0 / len(bpms)] * len(bpms)
    return TempoCandidates(
        entries=tuple(zip(bpms, strengths)), analysis_window_s=9.0
    )


def slice_lengths(message, phi_n=PHI_N, delta=0.01):
    """Exact encoded sample count of each payload slice, from the output
    length law of the stretcher."""
    out = []
    for bit in message:
        ratio = 1.0 + delta if bit == 1 else 1.0 - delta
        out.append(int(math.floor(phi_n / ratio + 0.5)))
    return out


ERASE_OUTCOMES = {"LowEnergy", "NoPeriodicity", "TooShort", "Undecidable"}


def assert_outcomes_match_directions(report):
    """A slice is an erasure exactly when its outcome names an error."""
    for d in report.per_slice:
        assert d.outcome in ERASE_OUTCOMES | {"decided", "forced"}
        assert (d.direction is None) == (d.outcome in ERASE_OUTCOMES)


def test_params_validation():
    with pytest.raises(ValueError):
        StegoParams(phi_s=9.0)
    with pytest.raises(ValueError):
        StegoParams(delta=0.0)
    with pytest.raises(ValueError):
        StegoParams(delta=0.05)
    with pytest.raises(ValueError):
        StegoParams(trim_frac=-0.01)
    with pytest.raises(ValueError):
        StegoParams(trim_frac=0.5)
    with pytest.raises(ValueError):
        StegoParams(discard_pct=0.0)
    # phi * (1 - 2 trim) must leave a 9 s measurement window
    with pytest.raises(ValueError):
        StegoParams(phi_s=10.0, trim_frac=0.06)
    StegoParams(phi_s=12.0, trim_frac=0.06)


def test_params_refuse_a_discard_gate_a_payload_slice_cannot_clear():
    # a payload slice's attribute is about 100 * delta percent; the gate
    # must clear it by 1.2 times plus 0.3, and the default admits every
    # delta
    with pytest.raises(ValueError, match="discard_pct"):
        StegoParams(delta=0.01, discard_pct=1.0)
    with pytest.raises(ValueError, match="discard_pct"):
        StegoParams(delta=0.01, discard_pct=1.49)
    with pytest.raises(ValueError, match="discard_pct"):
        StegoParams(delta=0.03, discard_pct=3.85)
    StegoParams(delta=0.01, discard_pct=1.5)
    for delta in np.linspace(0.001, MAX_DELTA, 30):
        StegoParams(delta=float(delta))


@pytest.mark.parametrize("bpm,delta", [
    # at discard_pct 1.0 this carrier reads 1 x 1 x
    (120.0, 0.01),
    # a small delta needs the gate's constant part: at 4/3 * 100 * delta
    # this carrier reads 1 x 1 x
    (62.0, 0.004),
])
def test_the_smallest_discard_gate_reads_every_bit(click, bpm, delta):
    params = StegoParams(delta=delta, discard_pct=1.2 * 100.0 * delta + 0.3)
    message = parse_bitstring("1 0 1 0")
    stego = encode(click(bpm, 60.0), message, params)
    assert decode(stego, params, max_bits=4).bits == message


@pytest.mark.parametrize("field", ["phi_s", "delta", "trim_frac", "discard_pct"])
def test_params_reject_non_finite(field):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            StegoParams(**{field: value})


@pytest.mark.parametrize(
    "duration_s,expected",
    [(194.0, 17), (222.0, 20), (171.0, 15), (143.0, 12), (357.0, 33), (25.0, 0), (10.0, 0),
     (-10.0, 0), (-1e308, 0)],
)
def test_capacity_values(duration_s, expected):
    assert capacity(duration_s) == expected


@pytest.mark.parametrize("duration_s", [math.nan, math.inf, -math.inf])
def test_capacity_refuses_a_non_finite_duration(duration_s):
    with pytest.raises(ValueError, match=f"not {duration_s} s$"):
        capacity(duration_s)


def test_capacity_monotonic_and_scales_with_phi():
    caps = [capacity(d) for d in np.arange(0.0, 400.0, 3.7)]
    assert all(b >= a for a, b in zip(caps, caps[1:]))
    assert capacity(194.0, StegoParams(phi_s=20.0)) == 7


def test_plan_slices_partitions_the_carrier():
    for duration_s in [5.0, 10.0, 20.0, 30.0, 47.0, 194.0]:
        n = int(duration_s * 1000)
        plan = plan_slices(n, 1000, StegoParams())
        spans = [plan.reference, *plan.data, plan.tail]
        assert spans[0][0] == 0
        assert spans[-1][1] == n
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0
        assert plan.capacity == capacity(duration_s)
        for s0, s1 in plan.data:
            assert s1 - s0 == 10000


# 4 * round(10.00997 * 44100) - 1 samples: 40.04 s, so the seconds-based
# capacity() counts four slices where the sample plan fits only three
ODD_PHI = 10.00997
ODD_N = 1_765_759


def test_playlist_capacity_is_the_plan_encode_enforces():
    params = StegoParams(phi_s=ODD_PHI)
    carrier = generate_click_track(120, ODD_N / SR)
    assert len(carrier) == ODD_N
    assert capacity(carrier.duration_s, params) == 2
    assert plan_slices(ODD_N, SR, params).capacity == 1
    (stego,) = encode_playlist([carrier], BitString((1,)), params)
    assert np.array_equal(stego.samples, encode(carrier, BitString((1,)), params).samples)
    with pytest.raises(InsufficientCapacity) as exc_info:
        encode_playlist([carrier], BitString((1, 0)), params)
    assert (exc_info.value.required, exc_info.value.available) == (2, 1)


def test_geometry_matches_the_per_caller_formulas():
    """Slice length, trim and window keep the rounding each caller used
    to do on its own, so no decode window moves by a sample."""
    for sr in (8000, 22050, 44100, 48000, 96000):
        for phi_s in (10.0, ODD_PHI, 12.345, 17.77, 20.0):
            for trim_frac in (0.0, 0.01, 0.025, 0.0333, 0.05):
                params = StegoParams(phi_s=phi_s, trim_frac=trim_frac)
                phi_n = round(phi_s * sr)
                trim_n = round(trim_frac * phi_s * sr)
                assert _geometry(sr, params) == (phi_n, trim_n, phi_n - 2 * trim_n)
                plan = plan_slices(5 * phi_n + 7, sr, params)
                assert plan.reference == (0, phi_n)
                assert plan.data == tuple((i * phi_n, (i + 1) * phi_n) for i in (1, 2, 3))


def test_encoded_slices_play_at_offset_tempo(click):
    """Payload slices measure bpm * (1 +/- delta); untouched slices and
    the reference stay at the carrier tempo."""
    message = parse_bitstring("1 0 1")
    stego = encode(click(120, 60.0), message)
    lens = slice_lengths(message)
    expected = [121.2, 118.8, 121.2, 120.0]  # slice 4 carries no bit
    boundary = PHI_N
    trim_n = int(0.05 * PHI_N)
    win_n = PHI_N - 2 * trim_n
    for i, want in enumerate(expected):
        w0 = boundary + trim_n
        window = PcmBuffer(samples=stego.samples[w0 : w0 + win_n], sample_rate=SR)
        assert estimate_tempo(window).best_bpm == pytest.approx(want, abs=1.0)
        boundary += lens[i] if i < len(lens) else PHI_N
    ref = PcmBuffer(samples=stego.samples[trim_n : PHI_N - trim_n], sample_rate=SR)
    assert estimate_tempo(ref).best_bpm == pytest.approx(120.0, abs=1.0)


def test_empty_message_is_identity(click):
    car = click(120, 40.0)
    out = encode(car, BitString(()))
    assert np.array_equal(out.samples, car.samples)


def test_message_too_long(click):
    msg = BitString((1, 0) * 10 + (1,))
    with pytest.raises(MessageTooLong) as exc_info:
        encode(click(120, 143.0), msg)
    assert exc_info.value.message_bits == 21
    assert exc_info.value.capacity == 12


def test_erasures_cannot_be_embedded(click):
    with pytest.raises(InvalidSymbol):
        encode(click(120, 60.0), BitString((1, ERASURE, 0)))


def test_silent_reference_rejected(click):
    padded = concat(
        [PcmBuffer(samples=np.zeros(5 * SR), sample_rate=SR), click(120, 55.0)]
    )
    with pytest.raises(ReferenceSilent):
        encode(padded, BitString((1,)))
    with pytest.raises(ReferenceSilent):
        decode(padded)
    with pytest.raises(ReferenceSilent):
        encode(PcmBuffer(samples=np.zeros(0), sample_rate=SR), BitString(()))


def at_level(buf, gain=1.0, quiet_db=0.0):
    """buf times gain, with seconds 3-6 of its first slice quiet_db lower."""
    x = buf.samples * gain
    x[3 * SR : 6 * SR] *= 10.0 ** (-quiet_db / 20.0)
    return PcmBuffer(samples=x, sample_rate=SR)


def at_dbfs(buf, dbfs):
    return at_level(buf, 10.0 ** ((dbfs - rms_dbfs(buf)) / 20.0))


def refuses(call) -> bool:
    try:
        call()
    except ReferenceSilent:
        return True
    return False


@pytest.mark.parametrize("gain", [1e-3, 0.03, 1.0, 3.0])
@pytest.mark.parametrize("quiet_db", [0.0, 20.0, 26.0, 30.0, 60.0, math.inf])
def test_encode_and_decode_guard_the_reference_alike(click, gain, quiet_db):
    # the passage is 3 s of the slice, so it lowers the slice's own RMS
    # too: 26 dB below the rest is 24.5 dB below it, 30 dB is 28.5 dB below
    carrier = at_level(click(120, 40.0), gain, quiet_db)
    refused = refuses(lambda: encode(carrier, parse_bitstring("1")))
    assert refuses(lambda: decode(carrier, max_bits=1)) is refused
    assert refused is (quiet_db >= 30.0)


@pytest.mark.parametrize("carrier_dbfs,quiet_dbfs", [(-14.0, -40.0), (-59.0, -59.0)])
def test_every_carrier_encode_accepts_decodes(click, carrier_dbfs, quiet_dbfs):
    # a loud carrier with a quiet passage in its first slice, and a quiet
    # carrier: the reference is judged against its own level on both sides
    carrier = at_level(at_dbfs(click(120, 60.0), carrier_dbfs), quiet_db=carrier_dbfs - quiet_dbfs)
    stego = encode(carrier, parse_bitstring("1 0 1"))
    assert str(decode(stego, max_bits=3).bits) == "1 0 1"


def test_encode_refuses_a_reference_decode_cannot_measure(click):
    # a loud but beatless first slice: 10 s of noise at the track's own RMS
    x = click(120, 60.0, seed=1).samples.copy()
    x[: 10 * SR] = np.random.default_rng(5).standard_normal(10 * SR) * np.sqrt(np.mean(x**2))
    carrier = PcmBuffer(samples=x, sample_rate=SR)
    message = parse_bitstring("1 0")
    try:
        stego = encode(carrier, message)
    except NoPeriodicity:
        # refused, as decode refuses the carrier itself; a message with no
        # bit to read back is still written
        with pytest.raises(NoPeriodicity):
            decode(carrier, max_bits=2)
        assert np.array_equal(encode(carrier, BitString(())).samples, x)
        return
    assert decode(stego, max_bits=2).bits == message


def test_decode_ignores_audio_it_does_not_read(click):
    # a capture holds the song beside louder ones; the level comes from the
    # reference slice, so what follows the song changes no window decode reads
    song = encode(at_dbfs(click(120, 60.0), -35.0), parse_bitstring("1 0 1"))
    want = decode(song, max_bits=3).to_dict()
    loud = np.random.default_rng(0).normal(0.0, 10.0 ** (-6.0 / 20.0), 300 * SR)
    capture = concat([song, PcmBuffer(samples=loud, sample_rate=SR)])
    del loud
    assert decode(capture, max_bits=3).to_dict() == want
    assert want["bits"] == "1 0 1"


def test_classify_single_candidate_pair():
    direction, conf = classify_slice(cands(120.0), cands(121.2))
    assert direction is Direction.UP
    assert conf == pytest.approx(1.0)


def test_classify_sums_over_harmonic_pairs():
    # (120, 59.4) and (60, 118.8) differ by ~50% and are discarded;
    # the two matched pairs each read -1%.
    direction, conf = classify_slice(
        cands(120.0, 60.0, strengths=[0.6, 0.4]),
        cands(118.8, 59.4, strengths=[0.6, 0.4]),
    )
    assert direction is Direction.DOWN
    assert conf == pytest.approx(2.0)


def test_classify_undecidable_when_all_pairs_gated():
    with pytest.raises(Undecidable):
        classify_slice(cands(120.0), cands(240.0))


def test_classify_antisymmetry_under_uniform_scaling():
    """Swapping reference and sample flips the direction. Candidate sets
    mirror real ones (entries separated by well over the discard gate, as
    harmonics are), so only same-rank pairs survive and they all share
    the sign of the scaling factor."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        base = [rng.uniform(60.0, 90.0)]
        while len(base) < 4 and base[-1] * 1.15 < 200.0:
            base.append(base[-1] * rng.uniform(1.15, 1.6))
        strengths = rng.uniform(0.1, 1.0, len(base))
        strengths /= strengths.sum()
        scale = 1.0 + rng.choice([-1, 1]) * rng.uniform(0.003, 0.03)
        ref = cands(*base, strengths=list(strengths))
        smp = cands(*(b * scale for b in base), strengths=list(strengths))
        d_fwd, _ = classify_slice(ref, smp)
        d_rev, _ = classify_slice(smp, ref)
        assert d_fwd != d_rev
        assert d_fwd is (Direction.UP if scale > 1.0 else Direction.DOWN)


@pytest.mark.parametrize("bpm,seed", [(95, 1), (120, 2), (140, 3), (174, 4)])
def test_round_trip(click, bpm, seed):
    rng = np.random.default_rng(seed)
    message = BitString(tuple(int(b) for b in rng.integers(0, 2, 6)))
    stego = encode(click(bpm, 80.0, seed), message)
    report = decode(stego, max_bits=len(message))
    assert report.bits.symbols == message.symbols
    assert not report.bits.has_erasures


def test_round_trip_without_max_bits(click):
    """Blind decode reads every whole payload slice present in the file."""
    message = parse_bitstring("0 1 1 0 1 0")
    report = decode(encode(click(126, 90.0), message))
    assert report.bits.symbols[: len(message)] == message.symbols


def test_static_and_tracked_agree_on_short_files(click):
    message = parse_bitstring("1 1 0 1 0 0 1 0")
    stego = encode(click(110, 110.0), message)
    tracked = decode(stego, StegoParams(boundary_mode=BoundaryMode.TRACKED), max_bits=8)
    static = decode(stego, StegoParams(boundary_mode=BoundaryMode.STATIC), max_bits=8)
    assert tracked.bits.symbols == static.bits.symbols == message.symbols


def test_tracked_windows_start_trim_past_the_encoded_boundaries(click, monkeypatch):
    """Tracked decode steps by the stretcher's length law, so after a run
    of raised slices every window still starts exactly trim_n past the
    boundary encode wrote, not a rounding error or more away."""
    message = parse_bitstring("1 1 1 1 1")
    stego = encode(click(120, 70.0), message)
    windows = []

    def record(buf, *, quarter_rate=False):
        # a clean click track is read at the quarter rate throughout, so
        # those calls see each window once: the reference, then each slice
        if quarter_rate:
            windows.append(buf.samples.copy())
        return estimate_tempo(buf, quarter_rate=quarter_rate)

    monkeypatch.setattr(codec, "estimate_tempo", record)
    assert decode(stego, max_bits=len(message)).bits == message
    trim_n = int(0.05 * PHI_N)
    win_n = PHI_N - 2 * trim_n
    # the reference, then each payload slice at the running sum of lengths
    starts = np.cumsum([0, PHI_N, *slice_lengths(message)[:-1]]) + trim_n
    assert len(windows) == len(starts)
    x = stego.samples
    ref = x[trim_n : trim_n + win_n]
    level = np.dot(windows[0], ref) / np.dot(ref, ref)
    for i, (w, w0) in enumerate(zip(windows, starts)):
        expected = x[w0 : w0 + win_n] * level
        assert np.allclose(w, expected, rtol=1e-12, atol=0.0), f"window {i}"


@pytest.mark.parametrize("bpm", [113, 127, 145])
def test_payload_slices_decide_confidently_unmodified_do_not(click, bpm):
    """The embedded offset sits far above measurement jitter: payload
    slices classify with confidence near delta in percent, while an
    unmodified carrier reads near zero either way."""
    car = click(bpm, 60.0, 2)
    plain = decode(car)
    enc = decode(encode(car, parse_bitstring("1 0 1 1")), max_bits=4)
    for d in plain.per_slice:
        assert d.direction is None or d.confidence < 0.5
    for d in enc.per_slice:
        assert d.direction is not None
        assert d.confidence > 0.5


def test_reference_override_skews_every_decision(click):
    """A corrupted reference poisons all bits at once: scaling it so the
    raised slices fall just outside the discard gate while the lowered
    ones stay just inside flips every decided bit, and force_decide turns
    the gated ones into the opposite symbol. Static boundaries keep the
    windows aligned because the decoded lengths no longer match reality."""
    message = parse_bitstring("1 1 0 1 1 0 1 1")
    params = StegoParams(boundary_mode=BoundaryMode.STATIC)
    stego = encode(click(120, 100.0, 5), message, params)
    trim_n = int(0.05 * PHI_N)
    ref = estimate_tempo(
        PcmBuffer(samples=stego.samples[trim_n : PHI_N - trim_n], sample_rate=SR)
    )
    scale = 1.0 / 1.04
    skewed = TempoCandidates(
        entries=tuple((b * scale, s) for b, s in ref.entries),
        analysis_window_s=ref.analysis_window_s,
    )
    report = decode(
        stego, params, max_bits=8, reference_override=skewed, force_decide=True
    )
    complement = tuple(1 - b for b in message)
    assert report.bits.symbols == complement
    # the gated slices are forced toward DOWN at zero confidence, and keep
    # their low-confidence warning
    forced = (1, 2, 4, 5, 7, 8)
    assert report.warnings == tuple(f"slice {i}: low confidence 0.000" for i in forced)
    assert [d.outcome for d in report.per_slice] == [
        "forced" if d.slice_index in forced else "decided" for d in report.per_slice
    ]
    assert_outcomes_match_directions(report)


def test_erasure_leaves_later_bits_intact(click):
    """Destroying one payload slice costs exactly that bit. The decoder
    reports it as an erasure and keeps tracking boundaries well enough to
    read everything after it."""
    message = parse_bitstring("1 0 1 1 0")
    stego = encode(click(118, 80.0, 7), message)
    lens = slice_lengths(message)
    b2 = PHI_N + lens[0]
    rng = np.random.default_rng(3)
    x = stego.samples.copy()
    x[b2 : b2 + lens[1]] = rng.uniform(-1, 1, lens[1]) * 0.1 * np.sqrt(3.0)
    report = decode(PcmBuffer(samples=x, sample_rate=SR), max_bits=5)
    assert report.bits.symbols == (1, ERASURE, 1, 1, 0)
    assert report.per_slice[1].direction is None
    assert report.per_slice[1].candidate_count_used == 0
    assert any("slice 2" in w for w in report.warnings)


def test_decode_needs_three_slices(click):
    # the shortest file encode writes: a 30 s carrier whose one payload
    # slice is raised; anything shorter is refused
    shortest = encode(click(120, 30.0), parse_bitstring("1"))
    assert len(shortest) == 2 * PHI_N + slice_lengths([1])[0]
    one_less = PcmBuffer(samples=shortest.samples[:-1], sample_rate=SR)
    for buf in (click(120, 25.0), click(120, 29.0), one_less):
        with pytest.raises(TooShort):
            decode(buf, max_bits=1)


def test_negative_max_bits_rejected(click, monkeypatch):
    stego = encode(click(120, 30.0), parse_bitstring("1"))
    calls = counting_rates(monkeypatch)
    # refused before a window is measured: also a count that is not an
    # integer, or a bool
    for bad in (-1, 1.5, 1.0, math.nan, True, "1", np.float64(1.0)):
        with pytest.raises(ValueError, match="max_bits must be"):
            decode(stego, max_bits=bad)
    assert calls == {False: 0, True: 0}
    assert len(decode(stego, max_bits=0).bits) == 0
    assert decode(stego, max_bits=np.int64(1)).bits == decode(stego, max_bits=1).bits


@pytest.mark.parametrize("duration_s", [30.0, 30.05])
def test_raised_slice_of_a_three_slice_carrier_decodes(click, duration_s):
    stego = encode(click(120, duration_s), parse_bitstring("1"))
    assert len(stego) < 3 * PHI_N
    assert str(decode(stego, max_bits=1).bits) == "1"
    # a blind decode reads n // phi_n - 2 = 0 slices, and says so
    blind = decode(stego)
    assert len(blind.bits) == 0
    assert len(blind.warnings) == 1 and "max_bits" in blind.warnings[0]


def test_decode_report_serializes(click):
    report = decode(encode(click(120, 60.0), parse_bitstring("1 0")), max_bits=2)
    d = json.loads(json.dumps(report.to_dict()))
    assert d["bits"] == str(report.bits)
    assert len(d["per_slice"]) == 2
    assert d["per_slice"][0] == {
        "slice_index": 1,
        "direction": "up",
        "confidence": 1.7940774256047356,
        "candidate_count_used": 2,
        "outcome": "decided",
    }
    assert d["params"] == {
        "phi_s": 10.0,
        "delta": 0.01,
        "trim_frac": 0.05,
        "discard_pct": 4.0,
        "boundary_mode": "tracked",
    }
    assert d["warnings"] == []


def full_rate_decode(monkeypatch, *args, **kwargs):
    """decode with every measurement at full rate, so the quarter-rate
    screen agrees with the reference and decides as full rate would."""
    with monkeypatch.context() as mp:
        mp.setattr(codec, "estimate_tempo", lambda buf, quarter_rate=False: estimate_tempo(buf))
        return decode(*args, **kwargs)


def counting_rates(monkeypatch):
    calls = {False: 0, True: 0}

    def count(buf, *, quarter_rate=False):
        calls[quarter_rate] += 1
        return estimate_tempo(buf, quarter_rate=quarter_rate)

    monkeypatch.setattr(codec, "estimate_tempo", count)
    return calls


def test_decode_reads_weak_quarter_rate_decisions_again_at_full_rate(monkeypatch):
    # under a 0 dB bed some slices fall under LOW_CONFIDENCE at the quarter
    # rate; each of them is the full-rate decision, and so are the bits
    carrier = generate_click_track(140, 90.0, seed=5)
    x = perturb(carrier, Noise(snr_db=0.0, seed=5)).samples
    stego = encode(PcmBuffer(samples=x / max(1.0, float(np.max(np.abs(x)))), sample_rate=SR),
                   parse_bitstring("1 0 1 1 0 0 1"))
    full = full_rate_decode(monkeypatch, stego, max_bits=7)
    calls = counting_rates(monkeypatch)
    report = decode(stego, max_bits=7)
    assert report.bits == full.bits == parse_bitstring("1 0 1 1 0 0 1")
    weak = [i for i, d in enumerate(report.per_slice) if d.confidence < codec.LOW_CONFIDENCE]
    assert weak and len(weak) < 7
    for i in weak:
        assert report.per_slice[i] == full.per_slice[i]
    # one quarter-rate read of the reference and of every slice; at full
    # rate the reference and each slice read again
    assert calls[True] == 1 + 7
    reread = calls[False] - 1
    assert len(weak) <= reread < 7
    assert sum(d != f for d, f in zip(report.per_slice, full.per_slice)) == 7 - reread


def test_decode_reads_at_full_rate_where_the_rates_disagree_on_the_reference(monkeypatch):
    # this club carrier's reference has three candidates at full rate and
    # four at the quarter rate (two of them 82.5 and 85.7 BPM), whose cross
    # pairs once decoded payload slice 5 wrong at confidence 2.85
    message = parse_bitstring("1 0 0 0 1 1 0 1 0 0 0 0 1 0 1 1 0 0 0 1 1")
    stego = encode(generate_club_track(126, 240.0, seed=4), message)
    full = full_rate_decode(monkeypatch, stego, max_bits=21)
    calls = counting_rates(monkeypatch)
    report = decode(stego, max_bits=21)
    assert report.to_dict() == full.to_dict()
    assert report.bits == message
    assert calls == {True: 1, False: 1 + 21}


def test_decode_reads_at_full_rate_where_the_reference_has_no_quarter_rate_tempo(
        click, monkeypatch):
    stego = encode(click(120, 60.0), parse_bitstring("1 0 1"))
    full = full_rate_decode(monkeypatch, stego, max_bits=3)
    calls = {False: 0, True: 0}

    def no_quarter_rate_tempo(buf, *, quarter_rate=False):
        calls[quarter_rate] += 1
        if quarter_rate:
            raise NoPeriodicity("nothing clears the margin at the quarter rate")
        return estimate_tempo(buf)

    monkeypatch.setattr(codec, "estimate_tempo", no_quarter_rate_tempo)
    report = decode(stego, max_bits=3)
    assert report.to_dict() == full.to_dict()
    assert report.bits == parse_bitstring("1 0 1")
    assert calls == {True: 1, False: 1 + 3}


def test_a_reference_override_reads_every_window_at_full_rate(click, monkeypatch):
    stego = encode(click(120, 60.0), parse_bitstring("1 0 1"))
    reference = estimate_tempo(PcmBuffer(samples=stego.samples[: PHI_N], sample_rate=SR))
    calls = counting_rates(monkeypatch)
    decode(stego, max_bits=3, reference_override=reference)
    assert calls == {True: 0, False: 3}


def test_decode_stops_where_the_window_runs_past_the_end(click):
    # five lowered slices lengthen the file; cut at 7 slices, the sixth
    # window (asked for by max_bits) runs past the end
    stego = encode(click(120, 70.0), parse_bitstring("0 0 0 0 0"))
    cut = PcmBuffer(samples=stego.samples[: 7 * PHI_N], sample_rate=SR)
    report = decode(cut, max_bits=6)
    assert str(report.bits) == "0 0 0 0 0"
    assert report.warnings == ("slice 6: window runs past the end; stopping",)
    assert [d.outcome for d in report.per_slice] == ["decided"] * 5
    assert all(d.confidence >= codec.LOW_CONFIDENCE for d in report.per_slice)
    assert_outcomes_match_directions(report)


@pytest.fixture(scope="module")
def stego_1011(click):
    return encode(click(120, 240.0), parse_bitstring("1 0 1 1"))


def test_blind_decode_erases_the_unmodulated_slices(stego_1011):
    report = decode(stego_1011)
    assert str(report.bits) == "1 0 1 1" + " x" * 17
    assert report.warnings == tuple(f"slice {i}: Undecidable" for i in range(5, 22))
    assert [d.outcome for d in report.per_slice] == ["decided"] * 4 + ["Undecidable"] * 17
    assert_outcomes_match_directions(report)


def test_a_silent_slice_is_erased_as_low_energy(stego_1011):
    x = stego_1011.samples.copy()
    x[5 * PHI_N : 6 * PHI_N] = 0.0
    report = decode(PcmBuffer(samples=x, sample_rate=SR), max_bits=6)
    assert str(report.bits) == "1 0 1 1 x x"
    assert report.warnings == ("slice 5: LowEnergy", "slice 6: Undecidable")
    assert [d.outcome for d in report.per_slice] == ["decided"] * 4 + ["LowEnergy", "Undecidable"]
    assert report.per_slice[4].candidate_count_used == 0
    assert_outcomes_match_directions(report)


def test_playlist_single_carrier_matches_encode(click):
    message = parse_bitstring("1 0 0 1")
    single = encode_playlist([click(120, 70.0)], message)
    direct = encode(click(120, 70.0), message)
    assert len(single) == 1
    assert np.array_equal(single[0].samples, direct.samples)


def test_playlist_spans_carriers_in_order(click):
    message = BitString(tuple(int(c) for c in "110110111100111100111"))
    carriers = [click(120, 150.0, 1), click(135, 150.0, 2)]
    encoded = encode_playlist(carriers, message)
    first = decode(encoded[0], max_bits=13)
    second = decode(encoded[1], max_bits=8)
    assert (first.bits + second.bits).symbols == message.symbols


def test_playlist_insufficient_capacity(click):
    message = BitString((1,) * 21)
    with pytest.raises(InsufficientCapacity) as exc_info:
        encode_playlist([click(120, 120.0), click(120, 70.0)], message)
    assert exc_info.value.required == 21
    assert exc_info.value.available == 15


def with_sample(buf, index, value):
    x = buf.samples.copy()
    x[index] = value
    return PcmBuffer(samples=x, sample_rate=buf.sample_rate)


def test_decode_rejects_nan_instead_of_erasing_a_slice(click):
    stego = encode(click(120, 60.0), parse_bitstring("1 0 1"))
    # inside slice 2's measurement window
    with pytest.raises(NonFiniteSamples):
        decode(with_sample(stego, 2 * PHI_N + PHI_N // 2, np.nan), max_bits=3)


def test_decode_rejects_inf_not_as_silent_reference(click):
    with pytest.raises(NonFiniteSamples):
        decode(with_sample(click(120, 60.0), 100, np.inf))


def test_encode_rejects_nan_carrier(click):
    for value in (np.nan, -np.inf):
        with pytest.raises(NonFiniteSamples):
            encode(with_sample(click(120, 40.0), 3 * PHI_N - 1, value), parse_bitstring("1"))


def test_huge_finite_samples_are_not_rejected(click):
    # squares overflow to inf, yet every sample is finite, so the
    # confirming pass lets the buffer through, and the level comes from
    # the reference divided by its peak; neither side warns
    huge = PcmBuffer(samples=click(120, 40.0).samples * 1e160, sample_rate=SR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stego = encode(huge, parse_bitstring("1"))
        report = decode(stego, max_bits=1)
    assert np.isfinite(stego.samples).all()
    assert str(report.bits) == "1"
    assert report.per_slice[0].confidence >= 1.0


def test_huge_carrier_encodes_as_the_scaled_plain_carrier(click):
    # a power-of-two scale is exact, so the stretch's alignment sees the
    # same scores for samples past 1e154 as for the plain carrier
    plain = click(120, 40.0)
    scale = 2.0**532
    huge = encode(PcmBuffer(samples=plain.samples * scale, sample_rate=SR), parse_bitstring("10"))
    assert np.array_equal(huge.samples, encode(plain, parse_bitstring("10")).samples * scale)


def test_decode_holds_no_full_length_temporary(click):
    # the level comes from the 10 s reference and the finiteness screen
    # is one sum of squares: decode's own allocations stay far below the buffer
    # it reads (a full-length square alone would be as large as it)
    carrier = click(120, 240.0)
    tracemalloc.start()
    try:
        decode(carrier, max_bits=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < carrier.samples.nbytes / 2


def test_encode_and_decode_make_no_long_blas_dot(click, monkeypatch):
    # np.dot of more than 10,000 samples runs on OpenBLAS threads that keep
    # spinning after it returns; the finiteness screen and the stretch's
    # range check sum their squares in numpy's own loop instead
    dot = np.dot

    def short_dot(a, b, *args, **kwargs):
        assert np.size(a) <= 10_000, f"np.dot over {np.size(a)} samples"
        return dot(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "dot", short_dot)
    stego = encode(click(120, 40.0), parse_bitstring("10"))
    assert decode(stego, max_bits=2).bits == parse_bitstring("10")


def test_decode_of_huge_samples_holds_no_full_length_temporary(click):
    # samples past ~1e154 overflow a square, but the reference is divided
    # by its peak before it is squared, so they need no buffer-sized
    # temporary, and the level found reads the same bits
    stego = encode(click(120, 240.0), parse_bitstring("1 0"))
    want = decode(stego, max_bits=2).to_dict()
    huge = PcmBuffer(samples=stego.samples * 1e160, sample_rate=SR)
    tracemalloc.start()
    try:
        with np.errstate(over="ignore"):
            report = decode(huge, max_bits=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < huge.samples.nbytes / 2
    assert report.to_dict() == want


# A 62 s carrier holds four payload slices, shared among the processes
# that search them.
FOUR_BITS = parse_bitstring("1 0 0 1")


def open_fds():
    """How many descriptors this process has open, or None where there is
    no /proc/self/fd to count them in."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def encode_with_workers(carrier, message, workers, monkeypatch):
    monkeypatch.setattr(codec, "usable_cpus", lambda: workers)
    return encode(carrier, message).samples


def payload_slice(carrier, buf) -> int:
    """Which payload slice of a carrier encoded with FOUR_BITS buf is."""
    slices = [carrier.samples[i * PHI_N : (i + 1) * PHI_N] for i in range(1, 5)]
    return next(i for i, x in enumerate(slices) if np.shares_memory(buf.samples, x))


def assert_nothing_left(fds):
    assert open_fds() == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure", ["exit", "raise", "signal", "fork", "second-fork"])
def test_a_failed_worker_share_is_stretched_again(click, monkeypatch, failure):
    # a worker that fails in its search hands nothing back, so the caller
    # searches the slice it had claimed, and every later one it would have
    carrier = click(120, 62.0)
    want = encode_with_workers(carrier, FOUR_BITS, 1, monkeypatch)
    caller = os.getpid()
    forks = []
    real_fork = os.fork

    def fork_failing():
        # "second-fork": the first worker runs, the second is never made
        forks.append(None)
        if failure == "second-fork" and len(forks) == 1:
            return real_fork()
        raise BlockingIOError(errno.EAGAIN, "no process to spare")

    def failing(buf, ratio):
        if os.getpid() != caller:
            if failure == "exit":
                os._exit(3)
            if failure == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("search failed in a worker")
        return frame_starts(buf, ratio)

    if failure.endswith("fork"):
        monkeypatch.setattr(os, "fork", fork_failing)
    else:
        monkeypatch.setattr(codec, "frame_starts", failing)
    fds = open_fds()
    assert np.array_equal(encode_with_workers(carrier, FOUR_BITS, 3, monkeypatch), want)
    assert len(forks) == (2 if failure.endswith("fork") else 0)
    assert_nothing_left(fds)


def log_searches(carrier, monkeypatch, log) -> None:
    """From here on every process that searches a payload slice of
    carrier appends its pid and the slice to the file log."""

    def logged(buf, ratio):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{os.getpid()} {payload_slice(carrier, buf)}\n".encode())
        finally:
            os.close(fd)
        return frame_starts(buf, ratio)

    monkeypatch.setattr(codec, "frame_starts", logged)


def searches(log) -> list[tuple[int, int]]:
    if not os.path.exists(log):
        return []
    with open(log) as fh:
        return [tuple(map(int, line.split())) for line in fh]


def slices_rendered_by_the_caller(carrier, monkeypatch, log) -> list:
    """The list of payload slices of carrier the calling process renders
    from here on; a render in any other process is appended to log."""
    caller = os.getpid()
    rendered = []

    def rendering(buf, ratio, *, out=None, starts=None):
        if os.getpid() == caller:
            rendered.append(payload_slice(carrier, buf))
        else:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        return stretch_tempo(buf, ratio, out=out, starts=starts)

    monkeypatch.setattr(codec, "stretch_tempo", rendering)
    return rendered


@pytest.mark.parametrize("workers", [2, 3])
def test_every_worker_hands_back_its_run(click, monkeypatch, tmp_path, workers):
    # each slice is searched once, by whichever process claimed it, and
    # the caller renders every slice from the starts it was handed
    carrier = click(120, 62.0)
    want = encode_with_workers(carrier, FOUR_BITS, 1, monkeypatch)
    log = str(tmp_path / "searches")
    log_searches(carrier, monkeypatch, log)
    rendered = slices_rendered_by_the_caller(carrier, monkeypatch, str(tmp_path / "renders"))
    fds = open_fds()
    assert np.array_equal(encode_with_workers(carrier, FOUR_BITS, workers, monkeypatch), want)
    assert sorted(i for _, i in searches(log)) == [0, 1, 2, 3]
    assert rendered == [0, 1, 2, 3]
    assert_nothing_left(fds)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_caller_renders_each_payload_slice_once_in_order(click, monkeypatch, tmp_path,
                                                             workers):
    # codec.stretch_tempo runs once per payload slice, in slice order, in
    # the calling process, so the stretch layer's counts do not depend on
    # how many processes searched
    carrier = click(120, 62.0)
    elsewhere = str(tmp_path / "renders")
    rendered = slices_rendered_by_the_caller(carrier, monkeypatch, elsewhere)
    encode_with_workers(carrier, FOUR_BITS, workers, monkeypatch)
    assert rendered == [0, 1, 2, 3]
    assert not os.path.exists(elsewhere)


@pytest.mark.parametrize("failure", ["table", "queue", "result"])
def test_an_encode_with_no_pipe_searches_every_slice_here(click, monkeypatch, tmp_path, failure):
    # "table", no memory for the table of slots; at its descriptor limit,
    # "queue", no queue pipe can be made, or "result", the queue is made
    # but not the done pipe. No worker is forked, and the caller searches
    # and renders all four slices
    carrier = click(120, 62.0)
    want = encode_with_workers(carrier, FOUR_BITS, 1, monkeypatch)
    real_pipe = os.pipe
    pipes = []

    def no_table(*args):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    def no_pipe():
        pipes.append(None)
        if failure == "result" and len(pipes) == 1:
            return real_pipe()
        raise OSError(errno.EMFILE, "Too many open files")

    if failure == "table":
        monkeypatch.setattr(mmap, "mmap", no_table)
    else:
        monkeypatch.setattr(os, "pipe", no_pipe)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without a pipe"))
    log = str(tmp_path / "searches")
    log_searches(carrier, monkeypatch, log)
    rendered = slices_rendered_by_the_caller(carrier, monkeypatch, str(tmp_path / "renders"))
    fds = open_fds()
    assert np.array_equal(encode_with_workers(carrier, FOUR_BITS, 3, monkeypatch), want)
    assert searches(log) == [(os.getpid(), i) for i in range(4)]
    assert rendered == [0, 1, 2, 3]
    assert_nothing_left(fds)


def test_an_encode_on_one_cpu_needs_no_select_poll(click, monkeypatch):
    # where select.poll does not exist (Windows), one usable CPU means no
    # worker, so encode waits on no pipe and never asks for a poll object
    carrier = click(120, 62.0)
    want = encode_with_workers(carrier, FOUR_BITS, 3, monkeypatch)
    monkeypatch.delattr(select, "poll")
    assert np.array_equal(encode_with_workers(carrier, FOUR_BITS, 1, monkeypatch), want)


def wait_for(path, seconds=None):
    """Return once the file path exists, or after seconds if given."""
    deadline = None if seconds is None else time.monotonic() + seconds
    while not os.path.exists(path) and (deadline is None or time.monotonic() < deadline):
        time.sleep(0.001)


@pytest.mark.parametrize("bad", ["unissued", "duplicate", "below", "above", "short"])
def test_a_bad_record_is_searched_again_here(click, monkeypatch, tmp_path, bad):
    # a worker hands a bad record back for a slice: an index never
    # queued; a start under 0 or past len(slice) - seq; one start too
    # few, which its slot cannot take, so the worker exits; or, once the
    # caller has kept a slot, wrong starts that fit the slice written over
    # it and its index sent again. The caller keeps none of them and
    # searches those slices itself
    carrier = click(120, 62.0)
    want = encode_with_workers(carrier, FOUR_BITS, 1, monkeypatch)
    caller = os.getpid()
    seq = int(round(SEQUENCE_MS * SR / 1000.0))
    real_write, real_mmap = os.write, mmap.mmap
    tables, last = [], []
    # "duplicate": the worker has sent a slot (sent), the caller has kept
    # it and waits to render (kept), and the slot is rewritten and sent
    # again (again)
    sent, kept, again = (str(tmp_path / name) for name in ("sent", "kept", "again"))

    def mapped(*args):
        tables.append(real_mmap(*args))
        return tables[-1]

    def bad_search(buf, ratio):
        starts = frame_starts(buf, ratio)
        if os.getpid() == caller:
            # the caller's first search waits, so the workers claim slices
            if not searched:
                searched.append(None)
                if bad == "duplicate":
                    wait_for(sent, 10.0)
                else:
                    time.sleep(0.2)
            return starts
        if bad == "below":
            starts[-1] = -1
        elif bad == "above":
            starts[-1] = PHI_N - seq + 1
        elif bad == "short":
            starts = starts[:-1]
        last[:] = [payload_slice(carrier, buf), starts]
        return starts

    def bad_write(fd, data):
        if os.getpid() == caller:
            return real_write(fd, data)
        if bad == "unissued":
            return real_write(fd, (1000).to_bytes(len(data), sys.byteorder))
        written = real_write(fd, data)
        i, starts = last
        if bad == "duplicate" and i > 0 and not os.path.exists(sent):
            open(sent, "w").close()
            wait_for(kept)
            # slot i follows those of the slices before it, which FOUR_BITS
            # raises, lowers and lowers
            at = 8 * sum(stretch.frame_count(PHI_N, r, SR) for r in (1.01, 0.99, 0.99)[:i])
            wrong = starts.copy()
            wrong[1:] = 0
            tables[-1][at : at + wrong.nbytes] = wrong.tobytes()
            real_write(fd, data)
            open(again, "w").close()
        return written

    def render(buf, ratio, *, out=None, starts=None):
        # the caller's first render after its first search waits for the
        # rewrite, so it reads the index sent again before that slice's
        if bad == "duplicate" and searched and not os.path.exists(kept):
            open(kept, "w").close()
            wait_for(again, 10.0)
        return stretch_tempo(buf, ratio, out=out, starts=starts)

    searched = []
    monkeypatch.setattr(mmap, "mmap", mapped)
    monkeypatch.setattr(codec, "frame_starts", bad_search)
    monkeypatch.setattr(codec, "stretch_tempo", render)
    monkeypatch.setattr(os, "write", bad_write)
    fds = open_fds()
    assert np.array_equal(encode_with_workers(carrier, FOUR_BITS, 2 if bad == "duplicate" else 3, monkeypatch), want)
    assert_nothing_left(fds)
    if bad == "duplicate":
        assert os.path.exists(again)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    saved = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, saved)

def short_slices(count, seed):
    """A carrier of count short 8 kHz noise slices, and one stretch job
    per slice at a ratio drawn from [0.5, 2]."""
    sr = 8000
    n = 2 * int(round(SEQUENCE_MS * sr / 1000.0)) + 37
    rng = np.random.default_rng(seed)
    carrier = PcmBuffer(samples=rng.standard_normal(count * n) * 0.3, sample_rate=sr)
    ratios = rng.uniform(0.5, 2.0, count).tolist()
    jobs = [((i * n, (i + 1) * n), r, stretched_length(n, r)) for i, r in enumerate(ratios)]
    want = np.concatenate([
        stretch_tempo(PcmBuffer(samples=carrier.samples[s0:s1], sample_rate=sr), r).samples
        for (s0, s1), r, _ in jobs
    ])
    return carrier, jobs, want


def test_slices_past_the_queue_pipe_capacity_are_searched_by_the_caller(monkeypatch):
    # a queue pipe of one page holds 1024 slice indices; encode then
    # writes what fits without blocking, and the caller searches the rest.
    # Short slices at 8 kHz keep the many slices cheap
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs F_SETPIPE_SZ to shrink a pipe")
    real_pipe = os.pipe

    def one_page_pipe():
        r, w = real_pipe()
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
        return r, w

    r, w = one_page_pipe()
    held = fcntl.fcntl(w, fcntl.F_GETPIPE_SZ) // codec._INDEX
    os.close(r)
    os.close(w)
    carrier, jobs, want = short_slices(held + 50, 5)
    queued = []
    real_enqueue = codec._enqueue

    def enqueue(w, count):
        queued.append(real_enqueue(w, count))
        return queued[-1]

    monkeypatch.setattr(codec, "_enqueue", enqueue)
    monkeypatch.setattr(os, "pipe", one_page_pipe)
    monkeypatch.setattr(codec, "usable_cpus", lambda: 3)
    fds = open_fds()
    out = np.empty(len(want))
    with time_limit(120):  # a queue write that blocks fails here
        assert codec._stretch_into(carrier, jobs, out, 0) == len(want)
    assert queued == [held] and held < len(jobs)
    assert np.array_equal(out, want)
    assert_nothing_left(fds)


def test_many_workers_claim_each_slice_once(monkeypatch, tmp_path):
    # seven workers and the caller on fewer cores race for 300 slices; a
    # claim lost or taken twice would leave a slice unsearched or
    # searched twice
    carrier, jobs, want = short_slices(300, 9)
    n = jobs[0][0][1]
    log = str(tmp_path / "searches")

    def logged(buf, ratio):
        # buf is a view of the carrier's samples
        at = buf.samples.ctypes.data - carrier.samples.ctypes.data
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{os.getpid()} {at // 8 // n}\n".encode())
        finally:
            os.close(fd)
        return frame_starts(buf, ratio)

    monkeypatch.setattr(codec, "frame_starts", logged)
    monkeypatch.setattr(codec, "usable_cpus", lambda: 8)
    fds = open_fds()
    out = np.empty(len(want))
    with time_limit(120):
        assert codec._stretch_into(carrier, jobs, out, 0) == len(want)
    assert sorted(i for _, i in searches(log)) == list(range(300))
    assert np.array_equal(out, want)
    assert_nothing_left(fds)

DESCRIPTOR_LIMIT_PROBE = """
import os, resource
import numpy as np
from tempostego import codec, encode, generate_click_track, parse_bitstring
carrier = generate_click_track(120, 62.0, seed=0)
bits = parse_bitstring("1 0 0 1")
codec.usable_cpus = lambda: 1
want = encode(carrier, bits).samples
codec.usable_cpus = lambda: 3
encode(carrier, bits)  # anything encode imports lazily is imported by now
_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
highest = max(int(fd) for fd in os.listdir("/proc/self/fd"))
resource.setrlimit(resource.RLIMIT_NOFILE, (highest + 1, hard))
held = []
try:
    while True:  # take any free descriptor under the limit
        held.append(os.dup(1))
except OSError:
    pass
got = encode(carrier, bits).samples
for fd in held:
    os.close(fd)
print(np.array_equal(got, want))
"""


HIGH_DESCRIPTOR_PROBE = """
import os, resource
import numpy as np
from tempostego import codec, encode, generate_click_track, parse_bitstring
carrier = generate_click_track(120, 62.0, seed=0)
bits = parse_bitstring("1 0 0 1")
codec.usable_cpus = lambda: 1
want = encode(carrier, bits).samples
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
if soft != resource.RLIM_INFINITY and soft < 1100:
    if hard != resource.RLIM_INFINITY and hard < 1100:
        raise SystemExit("skip")
    resource.setrlimit(resource.RLIMIT_NOFILE, (1100, hard))
held = [os.dup(1)]
while held[-1] < 1024:  # every descriptor up to 1024 is taken
    held.append(os.dup(1))
codec.usable_cpus = lambda: 3
got = encode(carrier, bits).samples
for fd in held:
    os.close(fd)
print(np.array_equal(got, want))
"""


def run_probe(probe):
    """Run probe in a fresh interpreter, since setrlimit acts on the whole
    process; its stdout, split into words."""
    pytest.importorskip("resource")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0 and proc.stderr.strip() == "skip":
        pytest.skip("the descriptor limit cannot be raised past 1024")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_an_encode_at_its_descriptor_limit_stretches_every_run_itself():
    assert run_probe(DESCRIPTOR_LIMIT_PROBE) == ["True"]


def test_an_encode_with_descriptors_past_1024_hands_back_every_slice():
    # the queue and done pipes get descriptors above 1024, which the
    # caller must still be able to wait on
    assert run_probe(HIGH_DESCRIPTOR_PROBE) == ["True"]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_an_encode_unmaps_its_table(click, monkeypatch):
    # the table of slots lives for one encode; the first encode maps
    # whatever encode maps only once
    carrier = click(120, 62.0)

    def mappings():
        with open("/proc/self/maps") as fh:
            return len(fh.readlines())

    encode_with_workers(carrier, FOUR_BITS, 3, monkeypatch)
    before = mappings()
    encode_with_workers(carrier, FOUR_BITS, 3, monkeypatch)
    assert mappings() == before


def test_an_error_in_the_calling_process_reaps_every_worker(click, monkeypatch):
    # every search raises, so the caller searches a slice no worker hands
    # back and raises there, whoever claims what; then the caller's render
    def failing_search(buf, ratio):
        raise RuntimeError("stretch failed in the caller")

    def failing_render(buf, ratio, *, out=None, starts=None):
        raise RuntimeError("stretch failed in the caller")

    for name, failing in (("frame_starts", failing_search), ("stretch_tempo", failing_render)):
        fds = open_fds()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, name, failing)
            with pytest.raises(RuntimeError, match="in the caller"):
                encode_with_workers(click(120, 62.0), FOUR_BITS, 3, monkeypatch)
        assert_nothing_left(fds)


def test_a_short_stretch_shortens_the_file_by_one_sample_per_slice(click, monkeypatch):
    # the serial loop advances by the returned length, so each slice's
    # last sample is overwritten by the next slice; slices searched by
    # workers, and a failed worker's slice searched again in the caller,
    # must be rendered at the same running offset
    carrier = click(120, 62.0)
    full = encode(carrier, FOUR_BITS).samples
    lost = PHI_N + np.cumsum(slice_lengths(FOUR_BITS)) - 1
    caller = os.getpid()
    third = carrier.samples[3 * PHI_N : 4 * PHI_N]

    def search(buf, ratio):
        if failing and os.getpid() != caller and np.shares_memory(buf.samples, third):
            os._exit(3)
        return frame_starts(buf, ratio)

    def short(buf, ratio, *, out=None, starts=None):
        got = stretch_tempo(buf, ratio, out=out, starts=starts)
        return PcmBuffer(samples=got.samples[:-1], sample_rate=got.sample_rate)

    monkeypatch.setattr(codec, "frame_starts", search)
    monkeypatch.setattr(codec, "stretch_tempo", short)
    # failing: a worker that claims payload slice 3 exits non-zero
    for failing in (False, True):
        for workers in (1, 2, 3):
            got = encode_with_workers(carrier, FOUR_BITS, workers, monkeypatch)
            assert np.array_equal(got, np.delete(full, lost))


def test_encode_reaps_its_workers_and_flushes_no_stdio(click, monkeypatch, capfd):
    # a buffered stdout holding unflushed text when the workers fork: a
    # worker that flushed it on exit would print the text a second time
    stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(1, "w", closefd=False)))
    monkeypatch.setattr(sys, "stdout", stdout)
    print("unflushed", end="")
    encode_with_workers(click(120, 62.0), FOUR_BITS, 3, monkeypatch)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    stdout.flush()
    assert capfd.readouterr().out == "unflushed"
