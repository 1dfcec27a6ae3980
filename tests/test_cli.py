import inspect
import json

import pytest

from tempostego import concat, generate_click_track, read_wav, split_on_silence, write_wav
from tempostego.audio import PcmBuffer
from tempostego.cli import _params_from, _parse_perturb, build_parser, main
from tempostego.codec import BoundaryMode, StegoParams
from tempostego.harness import Gain, Noise, ResampleRoundTrip

import numpy as np

SR = 44100


@pytest.fixture
def carrier_wav(tmp_path, capsys):
    path = tmp_path / "carrier.wav"
    assert main(["make-carrier", "--bpm", "120", "--duration", "70", "--out", str(path)]) == 0
    capsys.readouterr()  # drop the fixture's own output
    return str(path)


def test_make_carrier_and_capacity(tmp_path, capsys):
    path = tmp_path / "carrier.wav"
    assert main(["make-carrier", "--bpm", "120", "--duration", "70", "--out", str(path)]) == 0
    assert "70.0 s at 120 BPM" in capsys.readouterr().out
    assert main(["capacity", "--in", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_parser_defaults_are_the_library_defaults():
    # make-carrier and split leave out what the library would default
    parser = build_parser()
    carrier = parser.parse_args(["make-carrier", "--bpm", "120", "--duration", "9", "--out", "x"])
    split = parser.parse_args(["split", "--in", "x", "--out-dir", "d"])
    click = inspect.signature(generate_click_track).parameters
    gaps = inspect.signature(split_on_silence).parameters
    assert (carrier.sr, carrier.seed) == (click["sample_rate"].default, click["seed"].default)
    assert (split.min_silence, split.threshold) == (
        gaps["min_silence_s"].default, gaps["threshold_dbfs"].default)


def test_capacity_respects_phi(capsys, carrier_wav):
    assert main(["capacity", "--in", carrier_wav, "--phi", "20"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_capacity_prints_what_encode_enforces(tmp_path, capsys):
    # 4 * round(10.00997 * 44100) - 1 samples: three whole slices, one bit
    path = tmp_path / "odd.wav"
    write_wav(generate_click_track(120, 1_765_759 / SR), str(path))
    phi = ["--phi", "10.00997"]
    assert main(["capacity", "--in", str(path), *phi]) == 0
    assert capsys.readouterr().out.strip() == "1"
    out = str(tmp_path / "stego.wav")
    assert main(["encode", "--in", str(path), "--out", out, "--bits", "1", *phi]) == 0
    assert "embedded 1 bits (capacity 1)" in capsys.readouterr().out
    assert main(["encode", "--in", str(path), "--out", out, "--bits", "10", *phi]) == 1
    assert "MessageTooLong" in capsys.readouterr().err


def test_encode_decode_round_trip(tmp_path, capsys, carrier_wav):
    stego = tmp_path / "stego.wav"
    rc = main(["encode", "--in", carrier_wav, "--out", str(stego),
               "--bits", "1 0 1 1"])
    assert rc == 0
    assert "embedded 4 bits (capacity 5)" in capsys.readouterr().out
    rc = main(["decode", "--in", str(stego), "--max-bits", "4"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1 0 1 1"


def test_decode_writes_json_report(tmp_path, capsys, carrier_wav):
    stego = tmp_path / "stego.wav"
    report = tmp_path / "report.json"
    main(["encode", "--in", carrier_wav, "--out", str(stego), "--bits", "10"])
    capsys.readouterr()
    rc = main(["decode", "--in", str(stego), "--max-bits", "2",
               "--report", str(report)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "1 0"
    data = json.loads(report.read_text())
    assert data["bits"] == "1 0"
    assert [d["direction"] for d in data["per_slice"]] == ["up", "down"]


def test_text_and_hex_payloads_agree(tmp_path, capsys):
    carrier = tmp_path / "c.wav"
    main(["make-carrier", "--bpm", "128", "--duration", "110", "--out", str(carrier)])
    out_a = tmp_path / "a.wav"
    out_b = tmp_path / "b.wav"
    main(["encode", "--in", str(carrier), "--out", str(out_a), "--text", "A"])
    main(["encode", "--in", str(carrier), "--out", str(out_b), "--hex", "41"])
    capsys.readouterr()
    main(["decode", "--in", str(out_a), "--max-bits", "8"])
    decoded_a = capsys.readouterr().out.strip()
    main(["decode", "--in", str(out_b), "--max-bits", "8"])
    decoded_b = capsys.readouterr().out.strip()
    assert decoded_a == decoded_b == "0 1 0 0 0 0 0 1"


def test_tempo_prints_candidates(capsys, carrier_wav):
    assert main(["tempo", "--in", carrier_wav]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    bpm, strength = map(float, lines[0].split())
    assert bpm == pytest.approx(120.0, abs=1.0)
    assert 0.0 < strength <= 1.0


def test_tempo_window_flags(capsys, carrier_wav):
    assert main(["tempo", "--in", carrier_wav, "--from", "10", "--to", "20"]) == 0
    bpm = float(capsys.readouterr().out.split()[0])
    assert bpm == pytest.approx(120.0, abs=1.0)


def test_message_too_long_exits_nonzero(tmp_path, capsys, carrier_wav):
    rc = main(["encode", "--in", carrier_wav, "--out", str(tmp_path / "x.wav"),
               "--bits", "1" * 6])
    assert rc == 1
    assert "error: MessageTooLong" in capsys.readouterr().err


def test_a_beatless_reference_exits_nonzero(tmp_path, capsys, carrier_wav):
    # the first 10 s are noise at the track's own level: decode could not
    # measure the reference, so encode refuses and writes nothing
    buf = read_wav(carrier_wav)
    x = buf.samples.copy()
    x[: 10 * SR] = np.random.default_rng(5).standard_normal(10 * SR) * np.sqrt(np.mean(x**2))
    write_wav(PcmBuffer(samples=x / np.max(np.abs(x)), sample_rate=SR), str(tmp_path / "in.wav"))
    out = tmp_path / "out.wav"
    rc = main(["encode", "--in", str(tmp_path / "in.wav"), "--out", str(out), "--bits", "10"])
    assert rc == 1
    assert "error: NoPeriodicity" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_reports_io_error(tmp_path, capsys):
    rc = main(["capacity", "--in", str(tmp_path / "nope.wav")])
    assert rc == 1
    assert "error: IoError" in capsys.readouterr().err


def test_bad_bpm_reports_value_error(tmp_path, capsys):
    rc = main(["make-carrier", "--bpm", "20", "--duration", "10",
               "--out", str(tmp_path / "x.wav")])
    assert rc == 1
    assert "error: ValueError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["capacity", "--phi", "inf"],
    ["capacity", "--phi", "1e305"],
    ["decode", "--max-bits", "1", "--discard", "nan"],
    ["decode", "--max-bits", "1", "--discard", "0.9"],
    ["decode", "--max-bits", "-2"],
    ["split", "--out-dir", "segments", "--min-silence", "inf"],
])
def test_bad_numbers_report_value_error(capsys, carrier_wav, argv):
    assert main([argv[0], "--in", carrier_wav, *argv[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: ValueError" in out.err


@pytest.mark.parametrize("duration", ["inf", "nan"])
def test_non_finite_duration_reports_value_error(tmp_path, capsys, duration):
    rc = main(["make-carrier", "--bpm", "120", "--duration", duration,
               "--out", str(tmp_path / "x.wav")])
    assert rc == 1
    assert "error: ValueError" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["gain:nan", "gain:inf", "noise:nan", "noise:-inf",
                                  "noise:-7000"])
def test_non_finite_perturbation_reports_value_error(capsys, spec):
    rc = main(["evaluate", "--generate", "120@40", "--bits", "1", "--perturb", spec])
    assert rc == 1
    assert "error: ValueError" in capsys.readouterr().err


CHANNEL_FLAGS = {"--phi": "20", "--delta": "0.02", "--trim": "0.04",
                 "--discard": "3", "--mode": "static"}


@pytest.mark.parametrize("argv,takes", [
    (["capacity", "--in", "c.wav"], {"--phi"}),
    (["encode", "--in", "c.wav", "--out", "s.wav", "--bits", "1"], {"--phi", "--delta"}),
    (["decode", "--in", "s.wav"], set(CHANNEL_FLAGS)),
    (["evaluate", "--generate", "120@40", "--bits", "1"], set(CHANNEL_FLAGS)),
])
def test_each_subcommand_takes_only_the_channel_flags_it_uses(argv, takes):
    parser = build_parser()
    for flag, value in CHANNEL_FLAGS.items():
        if flag in takes:
            parser.parse_args([*argv, flag, value])
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([*argv, flag, value])
    given = [a for flag in takes for a in (flag, CHANNEL_FLAGS[flag])]
    params = _params_from(parser.parse_args([*argv, *given]))
    assert params.phi_s == 20.0
    if "--mode" in takes:
        assert params == StegoParams(20.0, 0.02, 0.04, 3.0, BoundaryMode.STATIC)


def test_payload_flags_are_exclusive(carrier_wav, tmp_path):
    with pytest.raises(SystemExit):
        main(["encode", "--in", carrier_wav, "--out", str(tmp_path / "x.wav"),
              "--text", "A", "--bits", "1"])


def test_evaluate_generate_prints_table(capsys):
    rc = main(["evaluate", "--generate", "120@60,135@60", "--bits", "1 0 1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(message)" in out
    assert "click-120bpm-60s" in out
    assert "totals: errors 0/" in out


def test_evaluate_with_perturbation(capsys):
    rc = main(["evaluate", "--generate", "126@60", "--bits", "1 1 0",
               "--perturb", "gain:0.5"])
    assert rc == 0
    assert "errors 0/" in capsys.readouterr().out


@pytest.mark.parametrize("spec, want", [
    ("noise:20", Noise(snr_db=20.0)),
    ("gain:0.5", Gain(factor=0.5)),
    ("resample:22050", ResampleRoundTrip(rate=22050)),
])
def test_parse_perturb(spec, want):
    assert _parse_perturb(spec) == want


@pytest.mark.parametrize("spec", ["resample:3999", "resample:22050.5", "gain:0", "gain:-1"])
def test_evaluate_reports_a_perturbation_it_cannot_make(capsys, spec):
    rc = main(["evaluate", "--generate", "120@40", "--bits", "1", "--perturb", spec])
    assert rc == 1
    assert "error: ValueError" in capsys.readouterr().err


def test_evaluate_reads_the_wavs_of_a_directory(tmp_path, capsys):
    write_wav(generate_click_track(135, 40.0, seed=2), str(tmp_path / "b.wav"))
    write_wav(generate_click_track(120, 40.0, seed=1), str(tmp_path / "a.wav"))
    (tmp_path / "notes.txt").write_text("not a carrier")
    assert main(["evaluate", "--carriers", str(tmp_path), "--bits", "1 0"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[1] for row in rows[2:4]] == ["a.wav", "b.wav"]
    assert rows[4].startswith("totals: errors 0/4")
    assert len(rows) == 5


def test_evaluate_reports_a_bad_generate_item_and_a_directory_without_wavs(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("not a carrier")
    for source, message in [(["--generate", "120@60,126"], "bad --generate item '126'"),
                            (["--carriers", str(tmp_path)], "no .wav files in")]:
        assert main(["evaluate", *source, "--bits", "1"]) == 1
        assert f"error: ValueError: {message}" in capsys.readouterr().err


def test_evaluate_rejects_unknown_perturbation(capsys):
    rc = main(["evaluate", "--generate", "126@60", "--bits", "1",
               "--perturb", "echo:3"])
    assert rc == 1
    assert "error: ValueError" in capsys.readouterr().err


def test_split_writes_segments(tmp_path, capsys):
    stream = concat([
        generate_click_track(120, 35.0, seed=1),
        PcmBuffer(samples=np.zeros(3 * SR), sample_rate=SR),
        generate_click_track(140, 35.0, seed=2),
    ])
    stream_path = tmp_path / "stream.wav"
    write_wav(stream, str(stream_path))
    out_dir = tmp_path / "segments"
    rc = main(["split", "--in", str(stream_path), "--out-dir", str(out_dir)])
    assert rc == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["segment-01.wav", "segment-02.wav"]
    assert 34.0 < read_wav(str(out_dir / "segment-01.wav")).duration_s <= 35.05


def test_split_removes_stale_segments(tmp_path, capsys):
    gap = PcmBuffer(samples=np.zeros(3 * SR), sample_rate=SR)
    songs = [generate_click_track(120 + 10 * i, 12.0, seed=i) for i in range(3)]
    out_dir = tmp_path / "segments"
    out_dir.mkdir()
    (out_dir / "segment-notes.txt").write_text("kept")
    # three songs, then two, then a silent stream with no segment at all
    streams = [concat([x for song in songs[:count] for x in (song, gap)][:-1])
               for count in (3, 2)]
    streams.append(PcmBuffer(samples=np.zeros(5 * SR), sample_rate=SR))
    for i, stream in enumerate(streams):
        stream_path = tmp_path / f"stream{i}.wav"
        write_wav(stream, str(stream_path))
        assert main(["split", "--in", str(stream_path), "--out-dir", str(out_dir)]) == 0
    removed = [line for line in capsys.readouterr().out.splitlines() if "removed stale" in line]
    assert removed == [f"removed stale {out_dir / name}"
                       for name in ("segment-03.wav", "segment-01.wav", "segment-02.wav")]
    assert sorted(p.name for p in out_dir.iterdir()) == ["segment-notes.txt"]


def test_split_rejects_a_nan_threshold(tmp_path, capsys, carrier_wav):
    out_dir = tmp_path / "segments"
    argv = ["split", "--in", carrier_wav, "--out-dir", str(out_dir), "--threshold", "nan"]
    assert main(argv) == 1
    assert "error: ValueError" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--carriers", "{tmp}/missing", "--bits", "1"],
    ["split", "--in", "{wav}", "--out-dir", "{wav}"],
    ["decode", "--in", "{wav}", "--max-bits", "1", "--report", "{tmp}/missing/r.json"],
])
def test_cli_file_errors_report_io_error(tmp_path, capsys, carrier_wav, argv):
    argv = [a.format(tmp=tmp_path, wav=carrier_wav) for a in argv]
    assert main(argv) == 1
    assert "error: IoError: " in capsys.readouterr().err


def test_split_that_writes_nothing_leaves_no_directory(tmp_path, capsys):
    # read_wav accepts a 3 GHz header, which no 16-bit segment can state:
    # split refuses the stream before it makes the output directory
    path = tmp_path / "fast.wav"
    write_wav(generate_click_track(120, 2.0), str(path))
    data = bytearray(path.read_bytes())
    data[24:28] = (3_000_000_000).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    out_dir = tmp_path / "new" / "segments"
    assert main(["split", "--in", str(path), "--out-dir", str(out_dir)]) == 1
    assert "error: UnsupportedFormat" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_split_whose_first_write_fails_removes_the_directory_it_made(
    tmp_path, capsys, monkeypatch
):
    # the first segment's write fails after split has made the directory
    from tempostego import audio
    from tempostego.errors import IoError

    def refuse(buf, path):
        raise IoError(f"cannot write {path}: disk full")

    path = tmp_path / "stream.wav"
    write_wav(generate_click_track(120, 2.0), str(path))
    monkeypatch.setattr(audio, "write_wav", refuse)
    out_dir = tmp_path / "new" / "segments"
    assert main(["split", "--in", str(path), "--out-dir", str(out_dir)]) == 1
    assert "error: IoError: " in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
