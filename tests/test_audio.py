import gc
import struct
import tracemalloc

import numpy as np
import pytest

from tempostego import (
    ClippingWarning,
    IoError,
    MalformedHeader,
    NonFiniteSamples,
    OutOfRange,
    PcmBuffer,
    SampleRateMismatch,
    UnsupportedFormat,
    concat,
    read_wav,
    rms_dbfs,
    slice_buffer,
    write_wav,
)
from tempostego import audio


def wav_bytes(fmt_tag, channels, sample_rate, bits, payload):
    """Assemble a minimal RIFF/WAVE file around a raw data payload."""
    block = max(1, channels * bits // 8)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        fmt_tag,
        channels,
        sample_rate,
        sample_rate * block,
        block,
        bits,
        b"data",
        len(payload),
    )
    return header + payload


KSDATAFORMAT_SUFFIX = bytes.fromhex("00001000800000aa00389b71")


def extensible_wav_bytes(subformat, channels, sample_rate, bits, payload,
                         suffix=KSDATAFORMAT_SUFFIX, fmt_size=40):
    """A WAVE_FORMAT_EXTENSIBLE file: the 16-byte fmt fields, cbSize 22,
    valid bits, channel mask and the subformat GUID, cut to fmt_size."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE, channels, sample_rate, sample_rate * block, block, bits)
    fmt += struct.pack("<HHI", 22, bits, (1 << channels) - 1)
    fmt += struct.pack("<I", subformat) + suffix
    fmt = fmt[:fmt_size]
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(payload)) + payload
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def write_raw(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return str(path)


def test_write_read_round_trip_bounded_by_quantization(tmp_path):
    rng = np.random.default_rng(0)
    buf = PcmBuffer(samples=rng.uniform(-0.9, 0.9, 4410), sample_rate=44100)
    path = str(tmp_path / "rt.wav")
    write_wav(buf, path)
    back = read_wav(path)
    assert back.sample_rate == 44100
    assert len(back) == len(buf)
    assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768


def test_stereo_mixdown_is_channel_mean(tmp_path):
    left = np.full(1000, 16384, dtype="<i2")
    right = np.full(1000, -16384, dtype="<i2")
    interleaved = np.empty(2000, dtype="<i2")
    interleaved[0::2] = left
    interleaved[1::2] = right
    path = write_raw(tmp_path, "st.wav", wav_bytes(1, 2, 8000, 16, interleaved.tobytes()))
    buf = read_wav(path)
    assert len(buf) == 1000
    assert np.all(buf.samples == 0.0)


def test_16bit_scaling(tmp_path):
    payload = np.array([16384, -32768, 0], dtype="<i2").tobytes()
    buf = read_wav(write_raw(tmp_path, "s16.wav", wav_bytes(1, 1, 44100, 16, payload)))
    assert abs(buf.samples[0] - 0.5) < 1e-4
    assert buf.samples[1] == -1.0
    assert buf.samples[2] == 0.0


def test_8bit_scaling(tmp_path):
    payload = bytes([192, 128, 0])
    buf = read_wav(write_raw(tmp_path, "s8.wav", wav_bytes(1, 1, 8000, 8, payload)))
    assert abs(buf.samples[0] - 0.5) < 1e-6
    assert buf.samples[1] == 0.0
    assert buf.samples[2] == -1.0


def test_24bit_scaling(tmp_path):
    def triplet(v):
        return bytes([v & 0xFF, (v >> 8) & 0xFF, (v >> 16) & 0xFF])

    payload = triplet(1 << 22) + triplet((1 << 24) - (1 << 22))  # +2^22, -2^22
    buf = read_wav(write_raw(tmp_path, "s24.wav", wav_bytes(1, 1, 48000, 24, payload)))
    assert abs(buf.samples[0] - 0.5) < 1e-6
    assert abs(buf.samples[1] + 0.5) < 1e-6


def test_float32_read(tmp_path):
    payload = np.array([0.25, -0.75], dtype="<f4").tobytes()
    buf = read_wav(write_raw(tmp_path, "f32.wav", wav_bytes(3, 1, 44100, 32, payload)))
    assert buf.samples[0] == 0.25
    assert buf.samples[1] == -0.75


@pytest.mark.parametrize(
    "tag,bits,channels,payload",
    [
        (1, 24, 1, bytes(range(2, 242))),
        (1, 24, 2, bytes(range(255, 15, -1))),
        (1, 16, 1, np.array([16384, -32768, 7], dtype="<i2").tobytes()),
        (3, 32, 1, np.array([0.25, -0.75, 1e-3], dtype="<f4").tobytes()),
    ],
)
def test_extensible_reads_like_plain_tag(tmp_path, tag, bits, channels, payload):
    plain_blob = wav_bytes(tag, channels, 48000, bits, payload)
    ext_blob = extensible_wav_bytes(tag, channels, 48000, bits, payload)
    plain = read_wav(write_raw(tmp_path, "plain.wav", plain_blob))
    ext = read_wav(write_raw(tmp_path, "ext.wav", ext_blob))
    assert ext.sample_rate == plain.sample_rate == 48000
    assert len(ext) > 0
    assert ext.samples.tobytes() == plain.samples.tobytes()


@pytest.mark.parametrize(
    "subformat,suffix",
    [(7, KSDATAFORMAT_SUFFIX), (2, KSDATAFORMAT_SUFFIX), (1, bytes(12))],
)
def test_extensible_foreign_subformat_rejected(tmp_path, subformat, suffix):
    blob = extensible_wav_bytes(subformat, 1, 8000, 16, bytes(100), suffix=suffix)
    with pytest.raises(UnsupportedFormat):
        read_wav(write_raw(tmp_path, "ext.wav", blob))


@pytest.mark.parametrize("fmt_size", [16, 18, 39])
def test_extensible_short_fmt_rejected(tmp_path, fmt_size):
    blob = extensible_wav_bytes(1, 1, 8000, 16, bytes(100), fmt_size=fmt_size)
    with pytest.raises(MalformedHeader):
        read_wav(write_raw(tmp_path, "ext.wav", blob))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_read_rejects_non_finite(tmp_path, bad):
    payload = np.array([0.25, bad, -0.5], dtype="<f4").tobytes()
    with pytest.raises(NonFiniteSamples):
        read_wav(write_raw(tmp_path, "nf.wav", wav_bytes(3, 1, 44100, 32, payload)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_rejects_non_finite_without_leaving_a_file(tmp_path, bad):
    x = np.zeros(1000)
    x[-1] = bad
    path = tmp_path / "nf.wav"
    with pytest.raises(NonFiniteSamples):
        write_wav(PcmBuffer(samples=x, sample_rate=8000), str(path))
    assert not path.exists()


def test_write_rejects_a_byte_rate_past_32_bits_without_leaving_a_file(tmp_path):
    # read_wav accepts a 3 GHz header; its byte rate needs 33 bits
    path = tmp_path / "fast.wav"
    with pytest.raises(ValueError, match="byte rate"):
        write_wav(PcmBuffer(samples=np.zeros(1000), sample_rate=3_000_000_000), str(path))
    assert not path.exists()


def test_compressed_format_rejected(tmp_path):
    path = write_raw(tmp_path, "ulaw.wav", wav_bytes(7, 1, 8000, 8, bytes(100)))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_three_channels_rejected(tmp_path):
    path = write_raw(tmp_path, "c3.wav", wav_bytes(1, 3, 44100, 16, bytes(600)))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_wav(str(tmp_path / "absent.wav"))


@pytest.mark.parametrize(
    "blob",
    [
        b"RIFF",
        b"OGGS" + bytes(40),
        b"RIFF" + struct.pack("<I", 36) + b"AIFF" + bytes(30),
    ],
)
def test_malformed_signatures_rejected(tmp_path, blob):
    with pytest.raises(MalformedHeader):
        read_wav(write_raw(tmp_path, "bad.wav", blob))


def test_missing_data_chunk_rejected(tmp_path):
    blob = wav_bytes(1, 1, 44100, 16, b"")
    blob = blob[: blob.index(b"data")]  # drop the data chunk entirely
    blob = blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:]
    with pytest.raises(MalformedHeader):
        read_wav(write_raw(tmp_path, "nodata.wav", blob))


def test_truncated_data_chunk_rejected(tmp_path):
    blob = wav_bytes(1, 1, 44100, 16, bytes(1000))
    with pytest.raises(MalformedHeader):
        read_wav(write_raw(tmp_path, "trunc.wav", blob[:-200]))


def test_odd_sized_chunk_padding_skipped(tmp_path):
    payload = np.array([1000, -1000], dtype="<i2").tobytes()
    extra = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"  # odd chunk + pad byte
    base = wav_bytes(1, 1, 44100, 16, payload)
    blob = base[:12] + extra + base[12:]
    blob = blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:]
    buf = read_wav(write_raw(tmp_path, "pad.wav", blob))
    assert len(buf) == 2


def test_write_clips_and_warns(tmp_path):
    buf = PcmBuffer(samples=np.array([1.5, -2.0, 0.5]), sample_rate=8000)
    path = str(tmp_path / "clip.wav")
    with pytest.warns(ClippingWarning):
        write_wav(buf, path)
    back = read_wav(path)
    assert back.samples[0] == 32767 / 32768
    assert back.samples[1] == -1.0
    assert abs(back.samples[2] - 0.5) <= 1.0 / 32768


def test_write_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_wav(PcmBuffer(samples=np.array([]), sample_rate=8000), str(tmp_path / "e.wav"))


def make_buffer(duration_s=60.0, sr=44100, seed=1):
    rng = np.random.default_rng(seed)
    return PcmBuffer(samples=rng.uniform(-0.5, 0.5, int(duration_s * sr)), sample_rate=sr)


def test_slice_sample_window():
    buf = make_buffer()
    piece = slice_buffer(buf, 10.0, 20.0)
    assert len(piece) == 441000
    assert np.array_equal(piece.samples, buf.samples[441000:882000])


def test_slice_full_span_is_identity():
    buf = make_buffer(2.0)
    piece = slice_buffer(buf, 0.0, 2.0)
    assert np.array_equal(piece.samples, buf.samples)


@pytest.mark.parametrize("start,end", [
    (5.0, 5.0), (-1.0, 2.0), (1.0, 61.0), (3.0, 2.0),
    (np.inf, 2.0), (0.0, np.inf), (np.nan, 2.0), (0.0, 1e305),
])
def test_slice_rejects_bad_intervals(start, end):
    with pytest.raises(OutOfRange):
        slice_buffer(make_buffer(), start, end)


def test_partition_identity_at_any_cut():
    buf = make_buffer(3.0)
    for cut in (0.5, 1.0, 1.23456, 2.999):
        left = slice_buffer(buf, 0.0, cut)
        right = slice_buffer(buf, cut, 3.0)
        joined = concat([left, right])
        assert np.array_equal(joined.samples, buf.samples)


def test_concat_singleton_and_rate_mismatch():
    buf = make_buffer(1.0)
    assert np.array_equal(concat([buf]).samples, buf.samples)
    other = PcmBuffer(samples=np.zeros(100), sample_rate=48000)
    with pytest.raises(SampleRateMismatch):
        concat([buf, other])
    with pytest.raises(ValueError):
        concat([])


def test_rms_levels():
    square = PcmBuffer(samples=np.tile([1.0, -1.0], 500), sample_rate=1000)
    assert abs(rms_dbfs(square)) < 1e-9
    silence = PcmBuffer(samples=np.zeros(1000), sample_rate=1000)
    assert rms_dbfs(silence) == float("-inf")
    t = np.arange(44100) / 44100
    sine = PcmBuffer(samples=np.sin(2 * np.pi * 100 * t), sample_rate=44100)
    assert rms_dbfs(sine) == pytest.approx(-3.01, abs=0.1)


@pytest.mark.parametrize("n", [8_555_555, 13_230_000])
def test_mean_square_matches_numpy_on_long_buffers(n):
    # at 8,555,555 samples a left-to-right sum of blocks differs from
    # np.mean(x**2) in the last bit; 13,230,000 is a 300 s carrier
    x = np.random.default_rng(n).standard_normal(n)
    assert audio.mean_square(x) == float(np.mean(x**2))


def test_mean_square_frees_its_block_without_the_garbage_collector():
    x = np.ones(3 * audio.CHUNK_SAMPLES)
    gc.disable()
    tracemalloc.start()
    try:
        audio.mean_square(x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < audio.CHUNK_SAMPLES * x.itemsize / 2
