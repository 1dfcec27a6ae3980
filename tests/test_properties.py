"""Property tests for the sample path: the silence splitter, WAV I/O,
the tempo stretch, the onset envelope and the whole channel.

The splitter, the 16-bit writer and the onset envelope work in blocks.
The oracles below are the straightforward per-frame loop, the one-line
whole-buffer conversion and the one-shot STFT; the blocked code must
match them sample for sample and byte for byte, including at block
boundaries. The 24-bit reader views each sample as an int32; its oracle
shifts and ORs the three bytes in int64. The stretch oracle fills a
zeroed buffer past the output length and copies the head out; the kernel
writes its output exactly once and must match it. The encode oracle
stretches each payload slice into its own array and concatenates the
parts; encode writes one plan-sized buffer and must match it. rms_dbfs
sums squares without a temporary; it must stay within 1e-9 dB of
10*log10(np.mean(x**2)), and equal it where either is infinite. The
reader's conversions, the writer's and the splitter's scan run in sample
ranges, one per usable CPU; with the CPU count patched to 1, 2 and 3 and
the serial size lowered to 0, they must match a serial run sample for
sample and byte for byte. The reader reads each range's bytes by
position; it must also match the whole-buffer reader, which holds every
byte of the file in one buffer and converts the data chunk in one piece.
A 16-bit mono file is read into its int16 samples: written again it must
give the same bytes, and its split, encode and decode must equal those
of a float buffer holding the same samples, without a whole-length
float64 of the buffer. The frame scan takes one path for both forms
and sums squared integers for a 16-bit stream; its mean squares must
equal np.mean of the float twin's squares byte for byte, the float
twin's own scan at 2**23 + 1 samples a frame too, and its split the
oracle's at a threshold on one frame's level or the next double above
or below it.
audio.float_range, the one range reader of both forms, must give
samples[a:b] * factor byte for byte. perturb must give
the perturbation's formula, written out per kind, byte for byte from a
16-bit buffer and its float twin, and leave the source as it was.
wavheader.wav_frames, which reads only the header, must give the length
and rate of read_wav's buffer for arbitrary bytes, or raise read_wav's
error; only NaN or infinite samples, which it does not read, may differ.
"""

import contextlib
import math
import struct
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tempostego import (
    BitString,
    ClippingWarning,
    LowEnergy,
    MessageTooLong,
    Noise,
    NoPeriodicity,
    NonFiniteSamples,
    PcmBuffer,
    ReferenceSilent,
    StegoError,
    StegoParams,
    TooShort,
    concat,
    decode,
    encode,
    estimate_tempo,
    evaluate,
    generate_click_track,
    onset_envelope,
    parse_bitstring,
    perturb,
    plan_slices,
    read_wav,
    rms_dbfs,
    slice_buffer,
    split_on_silence,
    stretch_tempo,
    write_wav,
)
from tempostego import audio, codec, harness, stretch, tempo, wavheader

RATES = (8000, 44100)


def oracle_split_on_silence(stream, min_silence_s=2.0, threshold_dbfs=-50.0):
    """The frame-by-frame splitter the block version must reproduce."""
    sr = stream.sample_rate
    frame_n = max(1, int(round(0.020 * sr)))
    n = len(stream)
    n_frames = (n + frame_n - 1) // frame_n
    silent = np.zeros(n_frames, dtype=bool)
    for f in range(n_frames):
        piece = stream.samples[f * frame_n : (f + 1) * frame_n]
        mean_sq = float(np.mean(piece**2))
        level = float("-inf") if mean_sq == 0.0 else 10.0 * np.log10(mean_sq)
        silent[f] = level < threshold_dbfs
    need = max(1, int(np.ceil(min_silence_s * sr / frame_n)))

    separator = np.zeros(n_frames, dtype=bool)
    f = 0
    while f < n_frames:
        if silent[f]:
            g = f
            while g < n_frames and silent[g]:
                g += 1
            if g - f >= need:
                separator[f:g] = True
            f = g
        else:
            f += 1

    segments = []
    f = 0
    while f < n_frames:
        if separator[f]:
            f += 1
            continue
        g = f
        while g < n_frames and not separator[g]:
            g += 1
        a, b = f, g
        while a < b and silent[a]:
            a += 1
        while b > a and silent[b - 1]:
            b -= 1
        if b > a:
            segments.append(stream.samples[a * frame_n : min(n, b * frame_n)].copy())
        f = g
    return segments


def oracle_wav_bytes(x, sample_rate):
    """The whole-buffer 16-bit conversion and header the writer must
    reproduce, and whether it warns about clipping."""
    clips = bool(np.max(np.abs(x)) > 1.0)
    with np.errstate(over="ignore"):  # finite samples past ~5e303
        payload = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16, 1, 1,
        sample_rate, sample_rate * 2, 2, 16, b"data", len(payload),
    )
    return header + payload, clips


def assert_split_matches_oracle(stream, **kwargs):
    got = split_on_silence(stream, **kwargs)
    want = oracle_split_on_silence(stream, **kwargs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.sample_rate == stream.sample_rate
        assert g.samples.tobytes() == w.tobytes()
        # segments are views of the stream, not copies
        assert np.shares_memory(g.samples, stream.samples)


def write_and_compare(x, sample_rate, path):
    want, clips = oracle_wav_bytes(x, sample_rate)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        write_wav(PcmBuffer(samples=x, sample_rate=sample_rate), str(path))
    warned = any(issubclass(w.category, ClippingWarning) for w in caught)
    assert path.read_bytes() == want
    assert warned == clips


@st.composite
def run_streams(draw):
    """A stream of alternating loud and quiet runs with a ragged end.

    Quiet runs are digital silence or hiss at a drawn level, so levels
    fall on both sides of the drawn threshold."""
    sr = draw(st.sampled_from(RATES))
    frame_n = int(round(0.020 * sr))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        frames = draw(st.integers(1, 60))
        offset = draw(st.integers(0, frame_n - 1))
        length = frames * frame_n + offset
        kind = draw(st.sampled_from(["loud", "hiss", "zero"]))
        if kind == "zero":
            parts.append(np.zeros(length))
        else:
            db = draw(st.floats(-30, 0)) if kind == "loud" else draw(st.floats(-100, -30))
            parts.append(rng.standard_normal(length) * 10.0 ** (db / 20.0))
    parts.append(rng.standard_normal(draw(st.integers(0, frame_n - 1))) * 0.1)
    return PcmBuffer(samples=np.concatenate(parts), sample_rate=sr)


@settings(max_examples=150, deadline=None)
@given(
    stream=run_streams(),
    threshold=st.floats(-80, -20),
    min_silence_s=st.floats(0.005, 0.6),
    block_samples=st.integers(1, 4000),
)
def test_split_matches_frame_loop(stream, threshold, min_silence_s, block_samples):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audio, "CHUNK_SAMPLES", block_samples)
        assert_split_matches_oracle(
            stream, min_silence_s=min_silence_s, threshold_dbfs=threshold
        )


@pytest.mark.parametrize("sr", RATES)
@pytest.mark.parametrize("kind", ["zeros", "hiss", "loud"])
def test_split_uniform_streams_match_frame_loop(sr, kind):
    rng = np.random.default_rng(3)
    n = 5 * sr + 7  # partial final frame
    level = {"zeros": 0.0, "hiss": 1e-4, "loud": 0.3}[kind]
    stream = PcmBuffer(samples=rng.standard_normal(n) * level, sample_rate=sr)
    segments = split_on_silence(stream)
    assert len(segments) == (0 if kind != "loud" else 1)
    assert_split_matches_oracle(stream)


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_split_at_block_boundaries_matches_frame_loop(delta):
    sr = 8000
    n = audio.CHUNK_SAMPLES + delta
    rng = np.random.default_rng(delta + 1)
    x = rng.standard_normal(n) * 0.2
    x[n // 3 : n // 3 + 3 * sr] = 0.0
    x[-sr // 2 :] = 1e-5  # quiet ragged tail
    stream = PcmBuffer(samples=x, sample_rate=sr)
    assert len(split_on_silence(stream)) == 2
    assert_split_matches_oracle(stream)


CHUNK = audio.CHUNK_SAMPLES


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(
        st.integers(1, 300),
        st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]),
        st.integers(3 * CHUNK - 9, 3 * CHUNK + 9),
    ),
    stride=st.integers(1, 3),
    scale=st.sampled_from([0.0, 1e-300, 1e-100, 1.0, 1e160]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3 * CHUNK + 9, stride=1, scale=1.0, seed=0)
@example(n=3 * CHUNK + 9, stride=1, scale=1e160, seed=0)
def test_rms_dbfs_matches_the_mean_of_squares(n, stride, scale, seed):
    x = np.random.default_rng(seed).standard_normal(n * stride)[::stride] * scale
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        got = rms_dbfs(PcmBuffer(samples=x, sample_rate=44100))
        want = float(10.0 * np.log10(np.mean(x**2)))
    if math.isinf(got) or math.isinf(want):
        assert got == want
    else:
        assert abs(got - want) < 1e-9


def samples_around_full_scale():
    """Rounding ties, exact full scale, and the first values past it."""
    lsb = 1.0 / 32768
    specials = [1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
                32767.5 * lsb, -32768.5 * lsb, 0.5 * lsb, -0.5 * lsb, 1.5 * lsb,
                2.5 * lsb, -2.5 * lsb, 0.0, -0.0, 1e305, -1e305, 5e-324]
    ties = st.integers(-32769, 32768).map(lambda k: (k + 0.5) * lsb)
    return st.one_of(
        st.sampled_from(specials),
        ties,
        st.floats(-1.5, 1.5, allow_nan=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=st.lists(samples_around_full_scale(), min_size=1, max_size=300),
    sr=st.sampled_from(RATES),
    chunk=st.integers(1, 64),
)
@example(values=[0.5] * 10, sr=8000, chunk=10)
@example(values=[0.5] * 9 + [1.0 + 1e-12], sr=8000, chunk=3)
def test_write_matches_whole_buffer_conversion(tmp_path, values, sr, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audio, "CHUNK_SAMPLES", chunk)
        write_and_compare(np.array(values), sr, tmp_path / "w.wav")


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_write_at_block_boundaries_matches_whole_buffer_conversion(tmp_path, delta):
    n = audio.CHUNK_SAMPLES + delta
    x = np.random.default_rng(delta + 5).uniform(-1.0, 1.0, n)
    write_and_compare(x, 44100, tmp_path / "quiet.wav")
    x[-1] = 1.0 + 1e-9  # clips in the last block only
    write_and_compare(x, 44100, tmp_path / "loud.wav")


def riff(chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


# Sample-range runner: lengths around one to three blocks, so the cuts
# fall at every block boundary of the ranges and beside it.
RANGE_LENGTHS = st.one_of(
    st.integers(1, 3 * CHUNK + 1),
    st.builds(lambda m, d: m * CHUNK + d, st.integers(1, 3), st.integers(-1, 1)),
)


@contextlib.contextmanager
def ranges_on(cpus):
    """Run the ranged passes on `cpus` CPUs, at any buffer size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audio, "usable_cpus", lambda: cpus)
        mp.setattr(audio, "PARALLEL_MIN_SAMPLES", 0)
        yield


def wav_file(tag, channels, bits, payload, extensible=False):
    """A 44.1 kHz WAV file around raw sample bytes, under a plain or
    EXTENSIBLE fmt chunk."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, 44100,
                      44100 * block, block, bits)
    if extensible:
        fmt += struct.pack("<HHI", 22, bits, 0) + struct.pack("<I", tag)
        fmt += bytes.fromhex("00001000800000aa00389b71")
    return riff([
        b"fmt " + struct.pack("<I", len(fmt)) + fmt,
        b"data" + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) & 1),
    ])


READ_FORMATS = [(1, 8), (1, 16), (1, 24), (3, 32)]


def random_payload(tag, bits, count, seed):
    """Bytes of `count` samples; float samples are finite."""
    rng = np.random.default_rng(seed)
    if tag == 3:
        return (rng.standard_normal(count) * 0.5).astype("<f4").tobytes()
    return rng.integers(0, 256, count * bits // 8, dtype=np.uint8).tobytes()


def oracle_read_wav(path):
    """The whole-buffer reader: every byte of the file in one buffer, the
    chunks walked over it, the data chunk converted in one piece."""
    with open(path, "rb") as fh:
        data = fh.read()
    fmt = raw = None
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        body = data[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body)
            if fmt[0] == 0xFFFE:
                fmt = (struct.unpack_from("<I", body, 24)[0],) + fmt[1:]
        elif cid == b"data":
            raw = body
    tag, channels, _, _, _, bits = fmt
    width = bits // 8
    raw = raw[: len(raw) // (width * channels) * width * channels]
    if bits == 8:
        x = (np.frombuffer(raw, np.uint8) - 128.0) / 128.0
    elif bits == 16:
        x = np.frombuffer(raw, "<i2") / 32768.0
    elif bits == 24:
        x = oracle_pcm24(raw)
    else:
        x = np.frombuffer(raw, "<f4").astype(np.float64)
    return x if channels == 1 else np.mean(x.reshape(-1, 2), axis=1)


@settings(max_examples=60, deadline=None)
@given(
    n=RANGE_LENGTHS,
    fmt=st.sampled_from(READ_FORMATS),
    channels=st.sampled_from([1, 2]),
    extensible=st.booleans(),
    cpus=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranged_read_matches_serial(tmp_path_factory, n, fmt, channels, extensible, cpus, seed):
    tag, bits = fmt
    path = tmp_path_factory.getbasetemp() / "ranged.wav"
    path.write_bytes(wav_file(tag, channels, bits, random_payload(tag, bits, n * channels, seed),
                              extensible))
    want = oracle_read_wav(str(path))
    serial = read_wav(str(path)).samples
    with ranges_on(cpus):
        got = read_wav(str(path)).samples
    assert len(got) == n
    assert got.tobytes() == serial.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=RANGE_LENGTHS, cpus=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_ranged_write_matches_serial(tmp_path_factory, n, cpus, seed):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    base = tmp_path_factory.getbasetemp()
    write_wav(PcmBuffer(samples=x, sample_rate=44100), str(base / "serial.wav"))
    with ranges_on(cpus):
        write_wav(PcmBuffer(samples=x, sample_rate=44100), str(base / "ranged.wav"))
    assert (base / "ranged.wav").read_bytes() == (base / "serial.wav").read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    n=RANGE_LENGTHS,
    sr=st.sampled_from(RATES),
    cpus=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranged_split_matches_serial(n, sr, cpus, seed):
    # each 20 ms frame is loud or quiet at random and one quiet frame
    # separates, so every frame's level decides the segments, the frames
    # that straddle a range cut too
    frame_n = int(round(0.020 * sr))
    rng = np.random.default_rng(seed)
    levels = rng.choice([0.2, 1e-4], size=-(-n // frame_n))
    x = rng.standard_normal(n) * np.repeat(levels, frame_n)[:n]
    stream = PcmBuffer(samples=x, sample_rate=sr)
    # the ranged run first, so its output buffer cannot reuse the serial one's
    with ranges_on(cpus):
        got = split_on_silence(stream, min_silence_s=0.02)
    want = split_on_silence(stream, min_silence_s=0.02)
    assert [len(g) for g in got] == [len(w) for w in want]
    for g, w in zip(got, want):
        assert g.samples.tobytes() == w.samples.tobytes()


@pytest.mark.parametrize("cpus", [2, 3])
def test_ranged_passes_reject_nan_in_last_range(tmp_path, cpus):
    x = np.zeros(3 * CHUNK + 1)
    x[-1] = np.nan
    path = tmp_path / "nan.wav"
    with ranges_on(cpus), pytest.raises(NonFiniteSamples):
        write_wav(PcmBuffer(samples=x, sample_rate=44100), str(path))
    assert not path.exists()
    path.write_bytes(wav_file(3, 1, 32, x.astype("<f4").tobytes()))
    with ranges_on(cpus), pytest.raises(NonFiniteSamples):
        read_wav(str(path))


@pytest.mark.parametrize("cpus", [2, 3])
def test_ranged_write_warns_for_a_clip_in_any_range(tmp_path, cpus):
    n = 3 * CHUNK + 1
    for at in (0, CHUNK, 2 * CHUNK + 5, n - 1):
        x = np.full(n, 0.25)
        x[at] = 1.5
        with ranges_on(cpus), pytest.warns(ClippingWarning):
            write_wav(PcmBuffer(samples=x, sample_rate=44100), str(tmp_path / "clip.wav"))


@st.composite
def riff_blobs(draw):
    """RIFF/WAVE files with drawn tags, widths, channel counts and chunk
    sizes that may disagree with the bytes that follow."""
    tag = draw(st.sampled_from([1, 3, 0xFFFE, 0, 2, 0xFFFF]))
    channels = draw(st.integers(0, 4))
    rate = draw(st.sampled_from([0, 1, 8000, 44100, 2**32 - 1]))
    bits = draw(st.sampled_from([0, 4, 8, 16, 24, 32, 64]))
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * 2 % 2**32, 2, bits)
    if draw(st.booleans()):
        sub = draw(st.sampled_from([1, 3, 7]))
        suffix = draw(st.sampled_from([bytes.fromhex("00001000800000aa00389b71"), bytes(12)]))
        fmt += struct.pack("<HHI", 22, bits, 4) + struct.pack("<I", sub) + suffix
    fmt = fmt[: draw(st.integers(0, len(fmt)))]
    data = draw(st.binary(max_size=64))
    chunks = []
    for cid, body in draw(st.permutations([(b"fmt ", fmt), (b"data", data), (b"LIST", b"x")])):
        size = draw(st.one_of(st.just(len(body)), st.integers(0, 2**32 - 1)))
        chunks.append(cid + struct.pack("<I", size) + body + b"\0" * (len(body) & 1))
    blob = riff(chunks)
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


def oracle_pcm24(raw):
    """The int64 shift-and-or conversion the 24-bit reader must reproduce."""
    n = len(raw) // 3
    triplets = np.frombuffer(raw[: n * 3], dtype=np.uint8).reshape(n, 3)
    vals = (
        triplets[:, 0].astype(np.int64)
        | (triplets[:, 1].astype(np.int64) << 8)
        | (triplets[:, 2].astype(np.int64) << 16)
    )
    vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
    return vals.astype(np.float64) / float(1 << 23)


def pcm24(values):
    return b"".join(struct.pack("<i", v)[:3] for v in values)


@settings(max_examples=200, deadline=None)
@given(payload=st.binary(max_size=600))
# full scale on both sides, the values next to zero, and a ragged last byte
@example(payload=pcm24([-(1 << 23), (1 << 23) - 1, -(1 << 23) + 1, -1, 0, 1]) + b"\x80")
def test_read_24bit_matches_shift_and_or(tmp_path_factory, payload):
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 24000, 3, 24)
    pad = b"\0" * (len(payload) & 1)
    path = tmp_path_factory.getbasetemp() / "pcm24.wav"
    path.write_bytes(riff([
        b"fmt " + struct.pack("<I", len(fmt)) + fmt,
        b"data" + struct.pack("<I", len(payload)) + payload + pad,
    ]))
    got = read_wav(str(path)).samples
    assert got.dtype == np.float64
    assert np.array_equal(got, oracle_pcm24(payload))


@settings(max_examples=500, deadline=None)
@given(blob=st.one_of(st.binary(max_size=120), riff_blobs()))
def test_read_arbitrary_bytes_raises_only_stego_errors(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "arbitrary.wav"
    path.write_bytes(blob)
    try:
        buf = read_wav(str(path))
    except StegoError:
        return
    assert buf.samples.dtype == np.float64
    assert np.isfinite(buf.samples).all()


@st.composite
def wav_files(draw):
    """Well-formed WAV files of every supported encoding, mono or stereo,
    under a plain or EXTENSIBLE fmt chunk, whose data may end mid-frame
    and, as float, may hold NaN or infinity."""
    tag, bits = draw(st.sampled_from(sorted(wavheader.SAMPLE_BYTES)))
    channels = draw(st.integers(1, 2))
    payload = draw(st.binary(max_size=64))
    return wav_file(tag, channels, bits, payload, extensible=draw(st.booleans()))


NAN_FLOAT_WAV = wav_file(3, 1, 32, np.array([0.5, np.nan, -0.25], dtype="<f4").tobytes())


@settings(max_examples=500, deadline=None)
@given(blob=st.one_of(st.binary(max_size=120), riff_blobs(), wav_files()))
@example(blob=NAN_FLOAT_WAV)
def test_the_header_reader_agrees_with_read_wav(tmp_path_factory, blob):
    # wav_frames gives the length and rate of read_wav's buffer, or raises
    # what read_wav raises; it reads no sample, so a file read_wav refuses
    # for NaN or infinity has a length and rate here. riff_blobs seldom
    # makes a file read_wav accepts, so wav_files makes them
    path = str(tmp_path_factory.getbasetemp() / "header.wav")
    with open(path, "wb") as fh:
        fh.write(blob)

    def outcome(read):
        try:
            return read(path)
        except StegoError as exc:
            return type(exc)

    buf = outcome(read_wav)
    got = outcome(wavheader.wav_frames)
    if buf is NonFiniteSamples:
        assert isinstance(got, tuple)
    elif isinstance(buf, PcmBuffer):
        assert got == (len(buf), buf.sample_rate)
    else:
        assert got is buf


def test_every_supported_encoding_has_one_converter():
    assert audio._CONVERTERS.keys() == wavheader.SAMPLE_BYTES.keys()
    for key, (dtype, _, _) in audio._CONVERTERS.items():
        assert dtype.itemsize == wavheader.SAMPLE_BYTES[key]


@settings(max_examples=100, deadline=None)
@given(
    sr=st.sampled_from(RATES),
    frames=st.floats(2.0, 6.0),
    ratio=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
    silent=st.booleans(),
)
@example(sr=44100, frames=2.0, ratio=2.0, seed=0, silent=False)
@example(sr=8000, frames=2.0, ratio=0.5, seed=0, silent=True)
def test_stretch_length_law_and_first_frame(sr, frames, ratio, seed, silent):
    seq = int(round(stretch.SEQUENCE_MS * sr / 1000.0))
    overlap = int(round(stretch.OVERLAP_MS * sr / 1000.0))
    n = int(frames * seq)
    if silent:
        x = np.zeros(n)
    else:
        x = np.random.default_rng(seed).standard_normal(n) * 0.3
    out = stretch_tempo(PcmBuffer(samples=x, sample_rate=sr), ratio).samples
    assert len(out) == int(np.floor(n / ratio + 0.5))
    # the first frame is copied as is up to where the second one fades in
    assert np.array_equal(out[: seq - overlap], x[: seq - overlap])
    if silent:
        assert not out.any()


def oracle_onset_envelope(buf, config):
    """The one-shot STFT the blocked envelope must reproduce."""
    if buf.duration_s < 1.0:
        raise TooShort(f"onset envelope needs at least 1 s, got {buf.duration_s:.2f} s")
    if rms_dbfs(buf) < config.min_rms_dbfs:
        raise LowEnergy(f"signal below {config.min_rms_dbfs} dBFS gate")
    x = buf.samples
    win = config.stft_window
    hop = config.stft_hop
    if len(x) < win + hop:
        raise TooShort("buffer shorter than two STFT frames")
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop] * np.hanning(win)
    mag = np.abs(np.fft.rfft(frames, axis=1))
    flux = np.maximum(mag[1:] - mag[:-1], 0.0).sum(axis=1)
    env = np.maximum(flux - flux.mean(), 0.0)
    return env, buf.sample_rate / hop


def oracle_stretch_core(x, ratio, seq, seek, overlap, n_out):
    """The zeros-then-copy kernel the exact-length one must reproduce."""
    hop = seq - overlap
    n = x.shape[0]
    if n_out <= seq:
        n_frames = 1
    else:
        n_frames = (n_out - seq + hop - 1) // hop + 1
    out = np.zeros((n_frames - 1) * hop + seq)
    fade_in = np.arange(overlap) / overlap
    fade_out = 1.0 - fade_in

    out[:seq] = x[:seq]
    prev = 0
    for k in range(1, n_frames):
        nominal = int(np.floor(k * hop * ratio + 0.5))
        if nominal > n - seq:
            nominal = n - seq
        if nominal < 0:
            nominal = 0
        lo = nominal - seek
        if lo < 0:
            lo = 0
        hi = nominal + seek
        if hi > n - seq:
            hi = n - seq

        tb = prev + hop
        tmpl = x[tb : tb + overlap]
        te = float(np.dot(tmpl, tmpl))
        if te <= 0.0:
            start = nominal
        else:
            seg = x[lo : hi + overlap]
            corr = np.correlate(seg, tmpl, mode="valid")
            sq = np.concatenate(([0.0], np.cumsum(seg * seg)))
            en = sq[overlap : overlap + corr.shape[0]] - sq[: corr.shape[0]]
            scores = np.full(corr.shape[0], -2.0)
            ok = en > 0.0
            scores[ok] = corr[ok] / np.sqrt(te * en[ok])
            start = lo + int(np.argmax(scores))

        o = k * hop
        out[o : o + overlap] = out[o : o + overlap] * fade_out + x[start : start + overlap] * fade_in
        out[o + overlap : o + seq] = x[start + overlap : start + seq]
        prev = start
    return out[:n_out].copy()


# (window, hop) pairs: the default, a finer grid, hop equal to the window,
# and sizes that are not powers of two
STFT_GEOMETRIES = ((2048, 512), (1024, 256), (512, 512), (1000, 333))


@settings(max_examples=60, deadline=None)
@given(
    sr=st.sampled_from(RATES),
    geometry=st.sampled_from(STFT_GEOMETRIES),
    blocks=st.integers(0, 3),
    offset=st.sampled_from([-1, 0, 1, 2]),
    ragged=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
@example(sr=8000, geometry=(2048, 512), blocks=0, offset=0, ragged=0.0, seed=0)
def test_onset_envelope_matches_one_shot_stft(sr, geometry, blocks, offset, ragged, seed):
    win, hop = geometry
    config = tempo.TempoConfig(stft_window=win, stft_hop=hop)
    block = tempo.BLOCK_FRAMES
    # frames for the 1 s the envelope needs, plus one for offset -1
    need = math.ceil((sr - win) / hop) + 2
    n_frames = (math.ceil(need / block) + blocks) * block + offset
    n = (n_frames - 1) * hop + win + int(ragged * hop)
    x = np.random.default_rng(seed).standard_normal(n) * 0.3
    x[n // 3 : n // 2] = 0.0  # frames of silence give zero spectra and zero flux
    buf = PcmBuffer(samples=x, sample_rate=sr)
    want_env, want_rate = oracle_onset_envelope(buf, config)
    assert want_env.shape == (n_frames - 1,)
    for workers in (1, 3):
        with ThreadPoolExecutor(workers) as pool, pytest.MonkeyPatch.context() as mp:
            mp.setattr(tempo, "shared_pool", lambda: pool)
            mp.setattr(tempo, "SETTINGS", config)
            env, rate = onset_envelope(buf)
        assert rate == want_rate
        assert np.array_equal(env, want_env)


@settings(max_examples=100, deadline=None)
@given(
    sr=st.sampled_from(RATES),
    frames=st.floats(2.0, 6.0),
    ratio=st.floats(0.5, 2.0),
    out_shift=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
    content=st.sampled_from(["noise", "gapped", "silent"]),
)
@example(sr=44100, frames=2.0, ratio=2.0, out_shift=0, seed=0, content="noise")
# every search window has energy, so no frame replaces a score
@example(sr=44100, frames=6.0, ratio=1.5, out_shift=0, seed=2, content="noise")
# templates with energy meet ranges that hold windows of zeros, whose
# scores are replaced by -2
@example(sr=8000, frames=3.0, ratio=0.5, out_shift=0, seed=0, content="gapped")
def test_stretch_kernel_matches_zeros_then_copy(sr, frames, ratio, out_shift, seed, content):
    seq = int(round(stretch.SEQUENCE_MS * sr / 1000.0))
    seek = int(round(stretch.SEEK_MS * sr / 1000.0))
    overlap = int(round(stretch.OVERLAP_MS * sr / 1000.0))
    n = int(frames * seq)
    x = np.random.default_rng(seed).standard_normal(n) * 0.3
    if content == "gapped":  # templates of zeros take the nominal position
        x[seq // 2 : 2 * seq] = 0.0
    elif content == "silent":
        x[:] = 0.0
    # lengths around the law's, so the last frame's copy ends at, short of
    # and past a frame boundary
    n_out = max(seq, int(np.floor(n / ratio + 0.5)) + out_shift)
    want = oracle_stretch_core(x, ratio, seq, seek, overlap, n_out)
    got = stretch.stretch_core(x, ratio, seq, seek, overlap, n_out)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("sr", RATES)
def test_stretch_kernel_matches_at_whole_frame_lengths(sr):
    seq = int(round(stretch.SEQUENCE_MS * sr / 1000.0))
    seek = int(round(stretch.SEEK_MS * sr / 1000.0))
    overlap = int(round(stretch.OVERLAP_MS * sr / 1000.0))
    hop = seq - overlap
    x = np.random.default_rng(sr).standard_normal(6 * seq) * 0.3
    for n_out in (seq - 1, seq, seq + 1, 3 * hop + seq - 1, 3 * hop + seq, 3 * hop + seq + 1):
        want = oracle_stretch_core(x, 1.1, seq, seek, overlap, n_out)
        assert np.array_equal(stretch.stretch_core(x, 1.1, seq, seek, overlap, n_out), want)



@settings(max_examples=60, deadline=None)
@given(
    sr=st.sampled_from(RATES),
    frames=st.floats(2.0, 6.0),
    ratio=st.floats(0.5, 2.0),
    scale=st.sampled_from([1.0, 1e-100, 1e76]),
    content=st.sampled_from(["noise", "gapped", "silent", "pcm16"]),
    seed=st.integers(0, 2**32 - 1),
)
# samples near 1e76 and 1e-100 are stretched at a power-of-two scale
@example(sr=44100, frames=2.0, ratio=2.0, scale=1e76, content="noise", seed=0)
@example(sr=8000, frames=3.0, ratio=0.5, scale=1e-100, content="gapped", seed=0)
@example(sr=44100, frames=2.5, ratio=1.0, scale=1.0, content="silent", seed=0)
@example(sr=44100, frames=4.0, ratio=1.01, scale=1.0, content="pcm16", seed=0)
def test_a_stretch_rendered_at_its_found_starts_is_the_stretch(sr, frames, ratio, scale, content,
                                                                seed):
    # the search and the render split the stretch without changing a byte
    seq = int(round(stretch.SEQUENCE_MS * sr / 1000.0))
    n = int(frames * seq)
    if content == "pcm16":  # int16 samples; the scale does not apply
        buf = PcmBuffer(samples=pcm16_values(n, seed, [-32768, 32767, 0]), sample_rate=sr)
    else:
        x = np.random.default_rng(seed).standard_normal(n) * scale
        if content == "gapped":
            x[seq // 2 : 2 * seq] = 0.0
        elif content == "silent":
            x[:] = 0.0
        buf = PcmBuffer(samples=x, sample_rate=sr)
    starts = stretch.frame_starts(buf, ratio)
    assert stretch.starts_fit(starts, n, ratio, sr)
    want = stretch.stretch_tempo(buf, ratio).samples
    got = stretch.stretch_tempo(buf, ratio, starts=starts).samples
    assert got.tobytes() == want.tobytes()

def oracle_encode(carrier, message, params):
    """Encode as parts: each payload slice stretched into its own array,
    then one concatenate."""
    plan = plan_slices(len(carrier), carrier.sample_rate, params)
    a, b = plan.reference
    parts = [carrier.samples[a:b]]
    for i, (s0, s1) in enumerate(plan.data):
        piece = PcmBuffer(samples=carrier.samples[s0:s1], sample_rate=carrier.sample_rate)
        if i < len(message):
            ratio = 1.0 + params.delta if message[i] == 1 else 1.0 - params.delta
            piece = stretch_tempo(piece, ratio)
        parts.append(piece.samples)
    t0, t1 = plan.tail
    if t1 > t0:
        parts.append(carrier.samples[t0:t1])
    return np.concatenate(parts)


@settings(max_examples=25, deadline=None)
@given(
    sr=st.sampled_from(RATES),
    bpm=st.floats(80.0, 180.0),
    duration_s=st.floats(20.0, 62.0),
    noise_bed=st.booleans(),
    seed=st.integers(0, 2**16),
    n_bits=st.integers(0, 4),
    bits=st.lists(st.integers(0, 1), min_size=4, max_size=4),
    workers=st.integers(1, 3),
)
@example(sr=44100, bpm=120.0, duration_s=62.0, noise_bed=True, seed=0, n_bits=4,
         bits=[1, 0, 0, 1], workers=3)
def test_encode_matches_parts_then_concatenate(
    sr, bpm, duration_s, noise_bed, seed, n_bits, bits, workers
):
    params = StegoParams(phi_s=10.00997)
    carrier = generate_click_track(bpm, duration_s, sr, seed=seed)
    if noise_bed:  # every stretch frame then runs the correlation search
        rng = np.random.default_rng(seed)
        carrier = PcmBuffer(carrier.samples + rng.standard_normal(len(carrier)) * 0.05, sr)
    # a 62 s carrier holds 4 bits; shorter ones take the head of the draw
    capacity = plan_slices(len(carrier), sr, params).capacity
    message = BitString(tuple(bits[: min(n_bits, capacity)]))
    # the slices are shared among this many processes (encode's CPU count)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codec, "usable_cpus", lambda: workers)
        got = encode(carrier, message, params)
    assert got.sample_rate == sr
    assert np.array_equal(got.samples, oracle_encode(carrier, message, params))


# The first example is the 60 BPM edge: its lowered slice plays at
# 59.4 BPM, which the estimator's band must still cover, or the 0 bit
# decodes as an erasure. The second, a 30 s carrier with a 1 bit, encodes
# to the shortest file decode accepts.
@settings(max_examples=20, deadline=None, report_multiple_bugs=False)
@given(
    bpm=st.floats(60.0, 200.0),
    duration_s=st.floats(30.0, 70.0),
    subdivision=st.booleans(),
    seed=st.integers(0, 2**16),
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=5),
)
@example(bpm=60.0, duration_s=31.0, subdivision=False, seed=0, bits=[0])
@example(bpm=120.0, duration_s=30.0, subdivision=False, seed=0, bits=[1])
def test_round_trip_over_click_tracks(bpm, duration_s, subdivision, seed, bits):
    carrier = generate_click_track(bpm, duration_s, seed=seed, subdivision=subdivision)
    params = StegoParams()
    # a 70 s carrier holds 5 bits; shorter ones take the head of the draw
    capacity = plan_slices(len(carrier), carrier.sample_rate, params).capacity
    message = BitString(tuple(bits[:capacity]))
    report = decode(encode(carrier, message, params), params, max_bits=len(message))
    assert report.bits == message


# What encode accepts, decode reads: params that cannot carry a bit are
# refused by StegoParams, a carrier too short for one bit or with a
# reference decode cannot measure by encode; everything else round-trips.
@settings(max_examples=20, deadline=None, report_multiple_bugs=False)
@given(
    bpm=st.floats(60.0, 200.0),
    duration_s=st.floats(35.0, 90.0),
    subdivision=st.booleans(),
    seed=st.integers(0, 2**16),
    phi_s=st.floats(10.0, 16.0),
    delta=st.floats(0.002, 0.03),
    trim_frac=st.floats(0.0, 0.05),
    discard_pct=st.floats(1.0, 8.0),
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=7),
)
def test_params_and_carrier_are_refused_by_name_or_round_trip(
    bpm, duration_s, subdivision, seed, phi_s, delta, trim_frac, discard_pct, bits
):
    try:
        params = StegoParams(phi_s=phi_s, delta=delta, trim_frac=trim_frac,
                             discard_pct=discard_pct)
    except ValueError:
        return
    carrier = generate_click_track(bpm, duration_s, seed=seed, subdivision=subdivision)
    # at least one bit, so a carrier with no capacity is refused too
    capacity = plan_slices(len(carrier), carrier.sample_rate, params).capacity
    message = BitString(tuple(bits[: max(1, capacity)]))
    try:
        stego = encode(carrier, message, params)
    except (MessageTooLong, LowEnergy, NoPeriodicity, ReferenceSilent, TooShort):
        return
    assert decode(stego, params, max_bits=len(message)).bits == message


# 16-bit mono path: a buffer read from such a file keeps its int16
# samples until `samples` is first read. Lengths around one block and
# around the size from which the passes run in ranges.
PCM16_LENGTHS = st.one_of(
    st.integers(1, 300),
    st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]),
    st.sampled_from([audio.PARALLEL_MIN_SAMPLES - 1, audio.PARALLEL_MIN_SAMPLES,
                     audio.PARALLEL_MIN_SAMPLES + 1]),
)


def pcm16_values(n, seed, extremes):
    """n random 16-bit samples with full scale on both sides and zero
    placed among them."""
    rng = np.random.default_rng(seed)
    q = rng.integers(-32768, 32768, n).astype("<i2")
    q[rng.integers(0, n, len(extremes))] = extremes
    return q


def pcm16_file(path, q, sr=44100):
    data = q.astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sr, 2 * sr, 2, 16)
    path.write_bytes(riff([b"fmt " + struct.pack("<I", 16) + fmt,
                           b"data" + struct.pack("<I", len(data)) + data]))
    return str(path)


def float_twin(buf):
    """The same samples in a buffer that holds floats."""
    return PcmBuffer(samples=buf.samples.copy(), sample_rate=buf.sample_rate)


@settings(max_examples=30, deadline=None)
@given(
    n=PCM16_LENGTHS,
    cpus=st.sampled_from([1, 2, 3]),
    extremes=st.lists(st.sampled_from([-32768, 32767, 0]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=audio.PARALLEL_MIN_SAMPLES + 1, cpus=2, extremes=[-32768, 32767, 0], seed=0)
def test_pcm16_file_round_trips_byte_for_byte(tmp_path_factory, n, cpus, extremes, seed):
    base = tmp_path_factory.getbasetemp()
    path = pcm16_file(base / "in16.wav", pcm16_values(n, seed, extremes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audio, "usable_cpus", lambda: cpus)
        buf = read_wav(path)
        write_wav(buf, str(base / "out16.wav"))
        got = buf.samples  # made here, from the int16 samples
    assert (base / "out16.wav").read_bytes() == (base / "in16.wav").read_bytes()
    assert got.tobytes() == oracle_read_wav(path).tobytes()
    assert len(buf) == n


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(RANGE_LENGTHS, PCM16_LENGTHS),
    sr=st.sampled_from(RATES),
    cpus=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pcm16_split_equals_float_split(tmp_path_factory, n, sr, cpus, seed):
    # 20 ms frames loud or quiet at random, quiet ones a few steps of
    # 16-bit noise or zeros, full scale and zero among the loud ones
    frame_n = int(round(0.020 * sr))
    rng = np.random.default_rng(seed)
    levels = rng.choice([8000.0, 3.0, 0.0], size=-(-n // frame_n))
    q = np.clip(np.rint(rng.standard_normal(n) * np.repeat(levels, frame_n)[:n]), -32768, 32767)
    q[rng.integers(0, n, 3)] = [-32768, 32767, 0]
    base = tmp_path_factory.getbasetemp()
    stream = read_wav(pcm16_file(base / "stream16.wav", q.astype("<i2"), sr))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audio, "usable_cpus", lambda: cpus)
        got = split_on_silence(stream, min_silence_s=0.02)
        twin = float_twin(read_wav(str(base / "stream16.wav")))
        want = split_on_silence(twin, min_silence_s=0.02)
    assert [len(g) for g in got] == [len(w) for w in want]
    for g, w in zip(got[:3], want[:3]):
        write_wav(g, str(base / "g.wav"))
        write_wav(w, str(base / "w.wav"))
        assert (base / "g.wav").read_bytes() == (base / "w.wav").read_bytes()
    for g, w in zip(got, want):
        assert g.samples.tobytes() == w.samples.tobytes()


def oracle_mean_squares(x, frame_n):
    """np.mean of each frame's squares, frame by frame, as the oracle
    splitter takes them."""
    return np.array([np.mean(x[f : f + frame_n] ** 2) for f in range(0, len(x), frame_n)])


@st.composite
def pcm16_level_streams(draw):
    """16-bit samples of frames at drawn levels: zero frames, frames at
    -32768 throughout, a few steps of noise and loud noise with full scale
    on both sides, and a ragged last frame."""
    sr = draw(st.sampled_from([50, 1000, 8000, 44100]))
    frame_n = max(1, int(round(0.020 * sr)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.sampled_from([0.0, 1.0, 3.0, 300.0, 8000.0, -32768.0]),
                           min_size=1, max_size=40))
    n = len(levels) * frame_n + draw(st.integers(-(frame_n - 1), 0))
    x = rng.standard_normal(n) * np.repeat(levels, frame_n)[:n]
    x[np.repeat(np.array(levels) < 0, frame_n)[:n]] = -32768.0
    q = np.clip(np.rint(x), -32768, 32767).astype("<i2")
    if n > 2 and levels[0] == 8000.0:
        q[:2] = [-32768, 32767]
    return q, sr


@settings(max_examples=120, deadline=None)
@given(
    stream=pcm16_level_streams(),
    at=st.floats(0.0, 1.0, exclude_max=True),
    ulps=st.sampled_from([-1, 0, 1]),
    min_silence_s=st.sampled_from([0.02, 0.06, 1.0]),
    chunk=st.sampled_from([1, 7, 64, 1000, CHUNK]),
    cpus=st.sampled_from([1, 2, 3]),
)
def test_pcm16_split_equals_float_split_at_a_frame_level(stream, at, ulps, min_silence_s,
                                                         chunk, cpus):
    # the threshold is one frame's level to the last bit, or the next
    # double above or below it, so a mean square one ulp off would flip
    # that frame
    q, sr = stream
    frame_n = max(1, int(round(0.020 * sr)))
    x = q / 32768.0
    want_sq = oracle_mean_squares(x, frame_n)
    with np.errstate(divide="ignore"):
        level = 10.0 * np.log10(want_sq[int(at * len(want_sq))])
    threshold = float(np.nextafter(level, math.copysign(math.inf, ulps))) if ulps else level
    with pytest.MonkeyPatch.context() as mp, ranges_on(cpus):
        mp.setattr(audio, "CHUNK_SAMPLES", chunk)
        got_sq = audio.frame_mean_squares(PcmBuffer(samples=q, sample_rate=sr), frame_n)
        got = split_on_silence(PcmBuffer(samples=q, sample_rate=sr),
                               min_silence_s=min_silence_s, threshold_dbfs=threshold)
    assert got_sq.tobytes() == want_sq.tobytes()
    want = oracle_split_on_silence(PcmBuffer(samples=x, sample_rate=sr),
                                   min_silence_s=min_silence_s, threshold_dbfs=threshold)
    assert [len(g) for g in got] == [len(w) for w in want]
    for g, w in zip(got, want):
        assert g.samples.tobytes() == w.tobytes()


def test_16bit_frame_levels_equal_the_float_twin_past_exact_sums():
    # a full-scale frame of -32768 but for an odd count of 32767: the sum
    # of its squares is odd and above 2**53, so no double holds it. The
    # 16-bit sums round as the float twin's do, times 2**30 exactly, so
    # the levels still agree
    frame_n = 2**23 + 1
    q = np.full(frame_n + 7, -32768, dtype="<i2")
    q[np.random.default_rng(3).choice(len(q), 99, replace=False)] = 32767
    exact = int(np.sum(q[:frame_n].astype(np.int64) ** 2))
    assert exact > 2**53 and exact % 2 == 1
    got = audio.frame_mean_squares(PcmBuffer(samples=q, sample_rate=44100), frame_n)
    want = audio.frame_mean_squares(PcmBuffer(samples=q / 32768.0, sample_rate=44100), frame_n)
    assert len(got) == 2
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_16bit_frame_scan_holds_one_block_scratch_per_range(cpus):
    # 240 s of 16-bit samples, then their float twin: the scan makes the
    # frame array and one block of float64 scratch per range, never a
    # float64 of the stream, and casts either form with no temporary
    n = 240 * 44100 + 123
    q = pcm16_values(n, 2, [-32768])
    for samples in (q, q / 32768.0):
        buf = PcmBuffer(samples=samples, sample_rate=44100)
        with ranges_on(cpus):
            audio.shared_pool()
            mean_sq, peak = traced_peak(lambda: audio.frame_mean_squares(buf, 882))
        assert len(mean_sq) == -(-n // 882)
        assert peak <= mean_sq.nbytes + cpus * 8 * CHUNK + 64 * 1024


@pytest.mark.parametrize(
    "bpm, duration_s, subdivision, bits",
    [(90.0, 52.0, False, "101"), (128.0, 41.0, True, "1 0"), (174.0, 62.0, False, "0110")],
)
def test_pcm16_encode_and_decode_equal_the_float_twin(tmp_path, bpm, duration_s,
                                                      subdivision, bits):
    path = str(tmp_path / "carrier16.wav")
    write_wav(generate_click_track(bpm, duration_s, subdivision=subdivision), path)
    message = parse_bitstring(bits)
    got = encode(read_wav(path), message)
    want = encode(float_twin(read_wav(path)), message)
    assert got.samples.tobytes() == want.samples.tobytes()
    stego = str(tmp_path / "stego16.wav")
    write_wav(got, stego)
    for kwargs in ({"max_bits": len(message)}, {}):
        report = decode(read_wav(stego), **kwargs)
        assert report.to_dict() == decode(float_twin(read_wav(stego)), **kwargs).to_dict()
    assert report.bits[: len(message)] == message


def test_pcm16_samples_are_a_new_read_only_array_and_write_writes_the_file(tmp_path):
    q = pcm16_values(CHUNK + 1, 7, [-32768, 32767, 0])
    path = pcm16_file(tmp_path / "in16.wav", q)
    buf = read_wav(path)
    x = buf.samples
    assert x.tobytes() == (q / 32768.0).tobytes()
    assert x is not buf.samples and not x.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        x[:3] = [0.5, -0.25, 1.0]
    assert buf._data.dtype == np.dtype("<i2")
    write_wav(buf, str(tmp_path / "copy.wav"))
    with open(path, "rb") as fh:
        assert (tmp_path / "copy.wav").read_bytes() == fh.read()
    # an edit goes to a float copy, which write_wav then writes
    edited = PcmBuffer(samples=buf.samples.copy(), sample_rate=buf.sample_rate)
    edited.samples[:3] = [0.5, -0.25, 1.5]
    with pytest.warns(ClippingWarning):  # 1.5 is past full scale
        write_wav(edited, str(tmp_path / "edited.wav"))
    back = read_wav(str(tmp_path / "edited.wav")).samples
    assert back[:3].tolist() == [0.5, -0.25, 32767 / 32768]
    assert np.array_equal(back[3:], q[3:] / 32768.0)
    # a segment of a 16-bit stream is a view of its int16 samples, and its
    # samples are read-only too, so the stream stays as read
    seg = split_on_silence(buf, min_silence_s=0.02, threshold_dbfs=-math.inf)[0]
    with pytest.raises(ValueError, match="read-only"):
        seg.samples[:] = 0.0
    assert seg._data.dtype == np.dtype("<i2")
    assert buf.samples.tobytes() == (q / 32768.0).tobytes()


def test_a_samples_read_before_the_scan_leaves_the_split_that_of_the_float_twin(monkeypatch):
    # a caller may read `samples` at any moment, e.g. from another thread
    # between frame_mean_squares's form check and its scan; the buffer's
    # form must not change under the scan
    q = pcm16_values(5 * 44100, 11, [-32768, 32767, 0])
    buf = PcmBuffer(samples=q, sample_rate=44100)
    want = split_on_silence(PcmBuffer(samples=q / 32768.0, sample_rate=44100))
    run_ranges = audio.run_ranges
    reads = []

    def read_samples_first(n, fn):
        if not reads:
            reads.append(None)  # set first: reading may itself run ranges
            reads[0] = buf.samples
        return run_ranges(n, fn)

    monkeypatch.setattr(audio, "run_ranges", read_samples_first)
    got = split_on_silence(buf)
    assert reads and len(got) == len(want) == 1
    assert [s.samples.tobytes() for s in got] == [s.samples.tobytes() for s in want]
    assert buf._data.dtype == np.dtype("<i2")


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(0, 300), st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])),
    pcm16=st.booleans(),
    factor=st.sampled_from([1.0, 0.3, 1e160]),
    with_out=st.booleans(),
    cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_float_range_is_samples_times_factor(n, pcm16, factor, with_out, cut, seed):
    if pcm16:
        buf = PcmBuffer(samples=pcm16_values(max(n, 1), seed, [-32768, 32767, 0])[:n],
                        sample_rate=44100)
    else:
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        buf = PcmBuffer(samples=x, sample_rate=44100)
    a, b = sorted(int(c * n) for c in cut)
    out = np.full(b - a, np.nan) if with_out else None
    got = audio.float_range(buf, a, b, factor, out=out)
    if with_out:
        assert got is out
    elif not pcm16 and factor == 1.0 and a < b:
        assert np.shares_memory(got, buf.samples)  # a float buffer's view
    # the 16-bit buffer makes its float samples only here, after the read
    assert got.dtype == np.float64
    assert got.tobytes() == (buf.samples[a:b] * factor).tobytes()


def oracle_perturb(x, sr, kind):
    """perturb's arithmetic written out per kind, as one function with a
    branch for each."""
    if isinstance(kind, harness.Gain):
        return x * kind.factor
    if isinstance(kind, harness.Noise):
        sig_rms = float(np.sqrt(np.square(x).sum() / len(x)))
        if sig_rms == 0.0:
            return x.copy()
        noise_rms = sig_rms * 10.0 ** (-kind.snr_db / 20.0)
        return x + np.random.default_rng(kind.seed).standard_normal(len(x)) * noise_rms
    n = len(x)
    n_mid = int(round(n * kind.rate / sr))
    step = sr / kind.rate
    mid = np.interp(np.arange(n_mid) * step, np.arange(n), x)
    return np.interp(np.arange(n) / step, np.arange(n_mid), mid)


PERTURBATIONS = st.one_of(
    st.builds(harness.Gain, st.floats(0.01, 10.0)),
    st.builds(harness.Noise, st.one_of(st.floats(-40.0, 60.0), st.just(math.inf)),
              st.integers(0, 2**32 - 1)),
    st.builds(harness.ResampleRoundTrip,
              st.one_of(st.sampled_from([4000, 22050, 44100, 48000]), st.integers(4000, 96000))),
)


# from 16 samples on, every rate drawn leaves at least one intermediate
# sample, which np.interp needs
@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.integers(16, 3000), st.sampled_from([CHUNK - 1, CHUNK + 1])),
    sr=st.sampled_from(RATES),
    kind=PERTURBATIONS,
    silent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_perturb_matches_its_formula_and_leaves_the_source_as_it_was(n, sr, kind, silent, seed):
    q = np.zeros(n, "<i2") if silent else pcm16_values(n, seed, [-32768, 32767, 0])
    want = oracle_perturb(q / 32768.0, sr, kind)
    # a 16-bit buffer and its float twin
    for stored, scale in ((q.copy(), 2.0**-15), (q / 32768.0, 1.0)):
        before = stored.copy()
        buf = PcmBuffer(samples=stored, sample_rate=sr)
        got = perturb(buf, kind)
        assert (len(got), got.sample_rate) == (n, sr)
        assert got.samples.tobytes() == want.tobytes()
        assert stored.tobytes() == before.tobytes()
        # the source still holds `stored` in its form: an edit to it shows
        # in the source's samples, made only now for a 16-bit one, and not
        # in the result
        stored[:] = 1
        assert (buf.samples == scale).all()
        assert got.samples.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def pcm16_carrier_240s(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pcm16") / "carrier240.wav")
    write_wav(generate_click_track(120.0, 240.0, subdivision=True), path)
    return path


def traced_peak(fn):
    """fn's result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("op", ["read", "split", "write", "decode", "encode", "slice"])
def test_pcm16_hot_paths_make_no_whole_length_float(pcm16_carrier_240s, tmp_path, op):
    # a whole-length float64 of the buffer would be 8 bytes per sample;
    # each of these converts only blocks, slices and windows, if any
    buf = read_wav(pcm16_carrier_240s)
    whole = 8 * len(buf)
    if op == "read":
        _, peak = traced_peak(lambda: read_wav(pcm16_carrier_240s))
        peak -= 2 * len(buf)  # the int16 samples it returns
    elif op == "split":
        segments, peak = traced_peak(lambda: split_on_silence(buf))
        assert len(segments) == 1
    elif op == "write":
        _, peak = traced_peak(lambda: write_wav(buf, str(tmp_path / "copy.wav")))
    elif op == "decode":
        _, peak = traced_peak(lambda: decode(buf, max_bits=3))
    elif op == "slice":
        _, peak = traced_peak(lambda: slice_buffer(buf, 10.0, 20.0))
    else:
        out, peak = traced_peak(lambda: encode(buf, BitString((1, 0, 1))))
        peak -= out.samples.nbytes  # encode's own output is exempt
    assert peak < whole / 4


# Library calls that read a buffer's samples as floats, for the one-reader
# tests below: each reads through audio.float_range, never `samples`
READERS = {
    "rms_dbfs": rms_dbfs,
    "onset_envelope": onset_envelope,
    "estimate_tempo": estimate_tempo,
    "stretch_tempo": lambda b: stretch_tempo(b, 1.01),
    "perturb": lambda b: perturb(b, Noise(snr_db=20.0, seed=1)),
    "concat": lambda b: concat([b, b]),
}


def comparable(result):
    """A reader's result in a form == compares exactly."""
    if isinstance(result, PcmBuffer):
        return result.samples.tobytes(), result.sample_rate
    if isinstance(result, tuple):  # onset_envelope's (envelope, frame rate)
        return result[0].tobytes(), result[1]
    return result


@pytest.fixture(scope="module")
def pcm16_carrier_20s(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pcm16") / "carrier20.wav")
    write_wav(generate_click_track(120.0, 20.0, seed=4), path)
    return path


@pytest.mark.parametrize("name", READERS)
def test_a_reader_leaves_a_16bit_buffer_16bit_and_equals_its_float_twin(pcm16_carrier_20s, name):
    buf = read_wav(pcm16_carrier_20s)
    got = READERS[name](buf)
    assert buf._data.dtype == np.dtype("<i2")
    assert comparable(got) == comparable(READERS[name](float_twin(buf)))


@pytest.mark.parametrize("dtype", ["<f4", ">f8"])
@pytest.mark.parametrize("name", READERS)
def test_a_reader_of_float32_or_big_endian_samples_equals_their_float64_twin(
        pcm16_carrier_20s, name, dtype):
    # the constructor converts them to native float64 once, so every
    # reader sees the floats of the float64 twin
    x = read_wav(pcm16_carrier_20s).samples.astype(dtype)
    buf = PcmBuffer(samples=x, sample_rate=44100)
    twin = PcmBuffer(samples=x.astype(np.float64), sample_rate=44100)
    assert comparable(READERS[name](buf)) == comparable(READERS[name](twin))
    assert buf._data.dtype == np.float64 and buf._data.dtype.isnative


@pytest.mark.parametrize("dtype", ["<f4", ">f8"])
def test_decode_of_float32_or_big_endian_samples_equals_their_float64_twin(click, dtype):
    stego = encode(click(120.0, 60.0), BitString((1, 0, 1, 1)))
    x = stego.samples.astype(dtype)
    got = decode(PcmBuffer(samples=x, sample_rate=44100), max_bits=4).to_dict()
    twin = PcmBuffer(samples=x.astype(np.float64), sample_rate=44100)
    assert got == decode(twin, max_bits=4).to_dict()


def float32_wav(path, x, sr=44100):
    """x as a 32-bit float mono WAV, which read_wav reads into float
    samples."""
    data = x.astype("<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, sr, 4 * sr, 4, 32)
    path.write_bytes(riff([b"fmt " + struct.pack("<I", 16) + fmt,
                           b"data" + struct.pack("<I", len(data)) + data]))
    return str(path)


@pytest.mark.parametrize("form", ["pcm16", "float"])
def test_no_library_call_reads_samples(tmp_path, monkeypatch, form):
    x = generate_click_track(120.0, 40.0, seed=2).samples
    if form == "pcm16":
        write_wav(PcmBuffer(samples=x, sample_rate=44100), str(tmp_path / "carrier.wav"))
    else:
        float32_wav(tmp_path / "carrier.wav", x)

    def refuse(buf):
        raise AssertionError("library code read PcmBuffer.samples")

    monkeypatch.setattr(PcmBuffer, "samples", property(refuse))
    carrier = read_wav(str(tmp_path / "carrier.wav"))
    assert carrier._data.dtype == (np.dtype("<i2") if form == "pcm16" else np.float64)
    message = BitString((1,))
    stego = encode(carrier, message)
    write_wav(stego, str(tmp_path / "stego.wav"))
    for buf in (stego, read_wav(str(tmp_path / "stego.wav"))):
        assert decode(buf, max_bits=1).bits == message
        assert len(split_on_silence(buf)) == 1
        perturb(buf, Noise(snr_db=20.0, seed=1))
    assert evaluate([carrier], message).files[0].bits == message
    for read in READERS.values():
        read(carrier)
