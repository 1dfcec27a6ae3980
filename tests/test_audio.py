import errno
import os
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tempostego import (
    BitString,
    ClippingWarning,
    IoError,
    MalformedHeader,
    NonFiniteSamples,
    OutOfRange,
    PcmBuffer,
    SampleRateMismatch,
    UnsupportedFormat,
    concat,
    encode,
    generate_click_track,
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


# One sample past what the 32-bit RIFF sizes hold (36 + 2n <= 0xFFFFFFFF),
# as stride-0 views: the refusal comes before any copy or conversion, so
# no 4 GiB is ever allocated.
TOO_LONG = 2_147_483_630


def too_long(dtype):
    return np.lib.stride_tricks.as_strided(np.zeros(1, dtype), (TOO_LONG,), (0,))


@pytest.mark.parametrize("dtype", ["<i2", np.float64])
def test_write_rejects_a_length_past_the_riff_sizes_without_leaving_a_file(tmp_path, dtype):
    path = tmp_path / "long.wav"
    with pytest.raises(ValueError, match="RIFF sizes"):
        write_wav(PcmBuffer(samples=too_long(dtype), sample_rate=8000), str(path))
    assert not path.exists()


@pytest.mark.parametrize("samples,rate", [
    (np.array([0.0, np.nan]), 8000),
    (np.zeros(1000), 3_000_000_000),
    (too_long("<i2"), 8000),
    (too_long(np.float64), 8000),
])
def test_refused_write_leaves_an_existing_file_untouched(tmp_path, samples, rate):
    path = tmp_path / "old.wav"
    write_wav(make_buffer(0.5), str(path))
    before = path.read_bytes()
    with pytest.raises((NonFiniteSamples, ValueError)):
        write_wav(PcmBuffer(samples=samples, sample_rate=rate), str(path))
    assert path.read_bytes() == before


@pytest.mark.parametrize("old_seconds", [0.1, 0.5, 1.0])
def test_rewrite_over_an_existing_file_equals_a_fresh_write(tmp_path, old_seconds):
    # the old file is shorter than, as long as and longer than the new one
    buf = make_buffer(0.5, seed=7)
    write_wav(buf, str(tmp_path / "fresh.wav"))
    path = tmp_path / "over.wav"
    write_wav(make_buffer(old_seconds, seed=8), str(path))
    write_wav(buf, str(path))
    assert path.read_bytes() == (tmp_path / "fresh.wav").read_bytes()
    # over bytes that are no WAV file at all
    path.write_bytes(b"\xff" * 100_000)
    write_wav(buf, str(path))
    assert path.read_bytes() == (tmp_path / "fresh.wav").read_bytes()


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs links")
def test_rewrite_goes_through_symlinks_and_reaches_hard_links(tmp_path):
    buf = make_buffer(0.5, seed=7)
    write_wav(buf, str(tmp_path / "fresh.wav"))
    want = (tmp_path / "fresh.wav").read_bytes()
    target = tmp_path / "target.wav"
    write_wav(make_buffer(1.0, seed=8), str(target))
    os.symlink(target, tmp_path / "link.wav")
    os.link(target, tmp_path / "hard.wav")
    write_wav(buf, str(tmp_path / "link.wav"))
    assert os.path.islink(tmp_path / "link.wav")
    assert target.read_bytes() == want
    assert (tmp_path / "hard.wav").read_bytes() == want
    write_wav(make_buffer(0.2, seed=9), str(tmp_path / "hard.wav"))
    assert target.read_bytes() == (tmp_path / "hard.wav").read_bytes() != want


@pytest.mark.skipif(not os.path.exists(os.devnull) or not hasattr(os, "mkfifo"),
                    reason="needs a null device and named pipes")
def test_write_to_the_null_device_and_a_fifo(tmp_path):
    buf = make_buffer(2.0)
    write_wav(buf, os.devnull)
    write_wav(buf, str(tmp_path / "plain.wav"))
    fifo = tmp_path / "pipe.wav"
    os.mkfifo(fifo)
    got = []

    def drain():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        write_wav(buf, str(fifo))
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [(tmp_path / "plain.wav").read_bytes()]


@pytest.mark.parametrize("existing", [False, True])
def test_write_that_fails_after_the_header_leaves_a_rejected_file(tmp_path, monkeypatch,
                                                                 existing):
    path = tmp_path / "cut.wav"
    if existing:  # a longer valid file, so old samples follow the cut
        write_wav(make_buffer(1.0, seed=8), str(path))
    write = os.write
    calls = []

    def disk_full_after_the_header(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(fd, data)

    monkeypatch.setattr(audio.os, "write", disk_full_after_the_header)
    with pytest.raises(IoError):
        write_wav(make_buffer(0.5), str(path))
    monkeypatch.undo()
    assert calls[0] == 44
    with pytest.raises(MalformedHeader, match="signature"):
        read_wav(str(path))


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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_fifo(tmp_path):
    # fstat cannot size a pipe, so it is read to its end
    buf = make_buffer(2.0)
    write_wav(buf, str(tmp_path / "plain.wav"))
    blob = (tmp_path / "plain.wav").read_bytes()
    fifo = tmp_path / "pipe.wav"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(blob)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        got = read_wav(str(fifo))
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert np.array_equal(got.samples, read_wav(str(tmp_path / "plain.wav")).samples)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_read_from_dev_zero_stops_at_the_signature():
    # a source that never ends fails on its first 12 bytes
    with pytest.raises(MalformedHeader, match="signature"):
        read_wav("/dev/zero")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_fifo_stops_at_the_declared_size(tmp_path):
    write_wav(make_buffer(0.1, sr=8000), str(tmp_path / "plain.wav"))
    blob = (tmp_path / "plain.wav").read_bytes()
    extra = b"LIST" + struct.pack("<I", 1 << 30) + b"not part of the file"
    assert len(blob + extra) < 4096  # one atomic write into the pipe
    fifo = tmp_path / "pipe.wav"
    os.mkfifo(fifo)
    done = threading.Event()

    def feed():
        fd = os.open(fifo, os.O_WRONLY)
        try:
            os.write(fd, blob + extra)
            done.wait(timeout=30)  # the unread bytes stay in the pipe meanwhile
        finally:
            os.close(fd)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = read_wav(str(fifo))
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            left = os.read(fd, 4096)
        finally:
            os.close(fd)
    finally:
        done.set()
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert np.array_equal(got.samples, read_wav(str(tmp_path / "plain.wav")).samples)
    assert left == extra


def test_read_holds_no_copy_of_the_file(tmp_path, monkeypatch):
    # the float64 samples, plus a scratch of a few blocks per range
    cpus = 2
    monkeypatch.setattr(audio, "usable_cpus", lambda: cpus)
    path = tmp_path / "long.wav"
    write_wav(make_buffer(60.0), str(path))
    n = 60 * 44100
    assert n >= audio.PARALLEL_MIN_SAMPLES
    audio.shared_pool()
    tracemalloc.start()
    try:
        buf = read_wav(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buf) == n
    assert peak <= 8 * n + 2 * cpus * audio.CHUNK_SAMPLES * 8


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_fifo_holds_one_copy_of_the_data(tmp_path, monkeypatch):
    # a pipe is read whole into one bytearray, and each range reads its
    # part through a view of it: the bytes plus the int16 samples, and no
    # copy of a range
    monkeypatch.setattr(audio, "usable_cpus", lambda: 2)
    q = np.random.default_rng(5).integers(-32768, 32768, 120 * 44100).astype("<i2")
    assert len(q) >= audio.PARALLEL_MIN_SAMPLES
    blob = wav_bytes(1, 1, 44100, 16, q.tobytes())
    fifo = tmp_path / "pipe.wav"
    os.mkfifo(fifo)

    def feed():
        fd = os.open(fifo, os.O_WRONLY)
        try:
            view = memoryview(blob)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)

    audio.shared_pool()
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    tracemalloc.start()
    try:
        buf = read_wav(str(fifo))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert buf._data.tobytes() == q.tobytes()
    assert peak <= 2.2 * q.nbytes


def test_ranges_start_at_the_parallel_size(monkeypatch):
    monkeypatch.setattr(audio, "usable_cpus", lambda: 2)
    n = audio.PARALLEL_MIN_SAMPLES
    assert audio.run_ranges(n, lambda a, b: (a, b)) == [(0, n // 2), (n // 2, n)]
    assert audio.run_ranges(n - 1, lambda a, b: (a, b)) == [(0, n - 1)]


def test_ranges_have_all_ended_when_one_raises(monkeypatch):
    monkeypatch.setattr(audio, "usable_cpus", lambda: 3)
    monkeypatch.setattr(audio, "PARALLEL_MIN_SAMPLES", 0)
    ended = []

    def fn(a, b):
        if a == 0:
            raise OSError(errno.EIO, "first range fails at once")
        threading.Event().wait(0.2)
        ended.append(a)

    with pytest.raises(OSError, match="first range"):
        audio.run_ranges(3 * audio.CHUNK_SAMPLES, fn)
    assert sorted(ended) == [audio.CHUNK_SAMPLES, 2 * audio.CHUNK_SAMPLES]


def test_ranges_run_in_the_calling_thread_on_a_pool_thread(monkeypatch):
    # a pool thread that waited on ranges queued behind it could wait for
    # ever, e.g. when work submitted to the pool reads or writes a long file
    monkeypatch.setattr(audio, "usable_cpus", lambda: 2)
    monkeypatch.setattr(audio, "PARALLEL_MIN_SAMPLES", 0)
    n = 3 * audio.CHUNK_SAMPLES
    assert len(audio.run_ranges(n, lambda a, b: (a, b))) == 2
    nested = audio.shared_pool().submit(audio.run_ranges, n, lambda a, b: (a, b))
    assert nested.result(timeout=60) == [(0, n)]


def test_file_that_shrinks_after_fstat_is_malformed(tmp_path, monkeypatch):
    path = tmp_path / "shrinks.wav"
    write_wav(make_buffer(2.0), str(path))
    fstat = os.fstat

    def fstat_then_truncate(fd):
        info = fstat(fd)
        os.truncate(path, info.st_size // 2)
        return info

    monkeypatch.setattr(audio.os, "fstat", fstat_then_truncate)
    with pytest.raises(MalformedHeader, match="past end of file"):
        read_wav(str(path))


POOL_PROBE = """
import sys
from tempostego import audio
from tempostego.cli import main
audio.usable_cpus = lambda: 2  # as on any machine with two CPUs or more
assert main(["capacity", "--in", sys.argv[1]]) == 0
print(audio._pool is not None, "concurrent.futures.thread" in sys.modules)
audio.read_wav(sys.argv[1])
print(audio._pool is not None, "concurrent.futures.thread" in sys.modules)
"""


def pool_started_by_capacity(path):
    """Whether a fresh interpreter's `capacity` call created the pool, and
    whether it imported the thread pool module; then the same after a
    read_wav of the file."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.split()[-4:]


def test_capacity_on_a_30s_file_never_creates_the_pool(tmp_path):
    path = tmp_path / "carrier.wav"
    write_wav(make_buffer(30.0), str(path))
    assert len(read_wav(str(path))) < audio.PARALLEL_MIN_SAMPLES
    assert pool_started_by_capacity(path) == ["False", "False"] * 2
    # capacity reads only the header; past the serial size the read is
    # cut into ranges on the pool
    write_wav(make_buffer(60.0), str(path))
    assert pool_started_by_capacity(path) == ["False", "False", "True", "True"]


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


def with_sizes(blob, riff_size, data_size):
    """A wav_bytes blob with its RIFF and data size fields rewritten."""
    head = blob[:4] + struct.pack("<I", riff_size) + blob[8:40]
    return head + struct.pack("<I", data_size) + blob[44:]


@pytest.mark.parametrize("source", ["file", "fifo"])
@pytest.mark.parametrize("channels,bits", [(1, 16), (2, 24)], ids=["mono16", "stereo24"])
def test_read_a_stream_whose_writer_left_its_sizes_unknown(tmp_path, source, channels, bits):
    # ffmpeg's WAV muxer on a pipe leaves both sizes at 0xFFFFFFFF; the data
    # runs to the end of the source, and a partial last frame is dropped
    if source == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    frame = channels * bits // 8
    payload = np.random.default_rng(3).integers(0, 256, 1001 * frame, dtype=np.uint8).tobytes()
    want = read_wav(write_raw(tmp_path, "sized.wav", wav_bytes(1, channels, 8000, bits, payload)))
    blob = with_sizes(wav_bytes(1, channels, 8000, bits, payload), 0xFFFFFFFF, 0xFFFFFFFF)
    blob += payload[: frame - 1]
    if source == "file":
        got = read_wav(write_raw(tmp_path, "streamed.wav", blob))
    else:
        fifo = tmp_path / "pipe.wav"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(blob)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            got = read_wav(str(fifo))
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
    assert len(got) == 1001
    assert got.samples.tobytes() == want.samples.tobytes()
    # a real size past the end is still a broken header
    with pytest.raises(MalformedHeader, match="past end of file"):
        read_wav(write_raw(tmp_path, "long.wav", with_sizes(blob, 0xFFFFFFFF, 0xFFFFFFFE)))


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
    floats = make_buffer()
    q = np.rint(floats.samples * 32767.0).astype("<i2")
    # a float buffer, and a 16-bit one beside its float twin
    for buf, twin, stored in ((floats, floats, floats.samples),
                              (PcmBuffer(samples=q, sample_rate=44100),
                               PcmBuffer(samples=q / 32768.0, sample_rate=44100), q)):
        want = twin.samples[441000:882000].copy()
        assert slice_buffer(twin, 10.0, 20.0).samples.tobytes() == want.tobytes()
        piece = slice_buffer(buf, 10.0, 20.0)
        stored[:] = 0  # the slice shares no memory with its source
        assert len(piece) == 441000
        assert piece.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("samples", [
    np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=bool),
    np.zeros(4, dtype=complex), np.zeros(4, dtype=">i2"), np.zeros(4, dtype=np.float16),
], ids=["int64", "uint8", "bool", "complex", "big-endian int16", "float16"])
def test_buffer_refuses_samples_that_are_neither_float_nor_little_endian_int16(samples):
    with pytest.raises(ValueError, match=f"not {samples.dtype}"):
        PcmBuffer(samples=samples, sample_rate=44100)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, ">f8", np.longdouble])
def test_buffer_holds_float_samples_as_native_float64(dtype):
    x = np.array([0.25, -0.75, 1e-3]).astype(dtype)
    buf = PcmBuffer(samples=x, sample_rate=44100)
    assert buf.samples.dtype == np.float64 and buf.samples.dtype.isnative
    assert buf.samples.tolist() == x.astype(np.float64).tolist()
    # native float64 is kept as given; anything else is converted once
    assert (buf.samples is x) == (x.dtype == np.float64 and x.dtype.isnative)


@pytest.mark.parametrize("rate", [44100.0, 0, -1, True])
def test_buffer_refuses_a_rate_that_is_not_a_positive_integer(rate):
    with pytest.raises(ValueError, match="sample rate must be"):
        PcmBuffer(samples=np.zeros(4), sample_rate=rate)


def test_int16_built_buffer_equals_its_float_twin(tmp_path):
    # quiet enough that its sum of squares in int16 would overflow
    x = generate_click_track(120.0, 41.0).samples * 0.01
    q = np.rint(x * 32768.0).astype("<i2")
    twin = PcmBuffer(samples=q / 32768.0, sample_rate=44100)
    assert rms_dbfs(PcmBuffer(samples=q, sample_rate=44100)) == rms_dbfs(twin)
    write_wav(PcmBuffer(samples=q, sample_rate=44100), str(tmp_path / "q.wav"))
    write_wav(twin, str(tmp_path / "twin.wav"))
    assert (tmp_path / "q.wav").read_bytes() == (tmp_path / "twin.wav").read_bytes()
    message = BitString((1,))
    got = encode(PcmBuffer(samples=q, sample_rate=44100), message).samples
    assert got.tobytes() == encode(twin, message).samples.tobytes()
    # a strided view of int16 samples writes the samples it shows, in order
    for view in (q[::2], q[::-3]):
        write_wav(PcmBuffer(samples=view, sample_rate=22050), str(tmp_path / "view.wav"))
        write_wav(PcmBuffer(samples=view / 32768.0, sample_rate=22050), str(tmp_path / "want.wav"))
        assert (tmp_path / "view.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()
        assert np.array_equal(read_wav(str(tmp_path / "view.wav")).samples, view / 32768.0)


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


def test_concat_keeps_each_part_in_its_form():
    rng = np.random.default_rng(0)
    q = [rng.integers(-32768, 32768, 60 * 44100).astype("<i2") for _ in range(2)]
    f = rng.uniform(-1.0, 1.0, 44100)
    parts = [PcmBuffer(samples=a, sample_rate=44100) for a in q]
    mixed = concat([parts[0], PcmBuffer(samples=f, sample_rate=44100), parts[1]])
    assert mixed.samples.tobytes() == np.concatenate([q[0] / 32768.0, f, q[1] / 32768.0]).tobytes()
    tracemalloc.start()
    try:
        joined = concat(parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the int16 join takes 10.6 MB; a float64 one takes 42 MB
    assert peak < 16e6
    want = np.concatenate([q[0] / 32768.0, q[1] / 32768.0])
    assert joined.samples.tobytes() == want.tobytes()
    # each part still holds its int16 samples: an edit to them shows in the
    # float samples it makes only now, and not in the join
    for a, part in zip(q, parts):
        a[:] = 1
        assert (part.samples == 1 / 32768).all()
    assert joined.samples.tobytes() == want.tobytes()


def test_rms_levels():
    square = PcmBuffer(samples=np.tile([1.0, -1.0], 500), sample_rate=1000)
    assert abs(rms_dbfs(square)) < 1e-9
    silence = PcmBuffer(samples=np.zeros(1000), sample_rate=1000)
    assert rms_dbfs(silence) == float("-inf")
    t = np.arange(44100) / 44100
    sine = PcmBuffer(samples=np.sin(2 * np.pi * 100 * t), sample_rate=44100)
    assert rms_dbfs(sine) == pytest.approx(-3.01, abs=0.1)


def test_rms_dbfs_of_a_long_buffer_holds_no_temporary():
    # a 240 s buffer squared into a temporary would take 84 MB
    buf = PcmBuffer(samples=np.ones(240 * 44100), sample_rate=44100)
    tracemalloc.start()
    try:
        level = rms_dbfs(buf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert level == 0.0
    assert peak < 64 * 1024
