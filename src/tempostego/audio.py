"""WAV file I/O and mono PCM buffers.

All processing happens on mono float buffers with samples in [-1, 1].
Files are read with a small RIFF parser rather than the stdlib wave
module so that 24-bit PCM and 32-bit float content can be accepted and
so that malformed files fail with a precise error instead of a generic
one. Stereo input is mixed down to mono on read; output is always
16-bit mono PCM.

A buffer holds its samples in one of two forms, which its constructor
fixes from their dtype and which never changes: float64 samples, or
little-endian int16 samples, the form read_wav gives a 16-bit mono file,
the format this package writes. Library code reads samples only through
float_range, which converts only the range it reads (each int16 / 32768,
times a factor, in one multiply); the public `samples` property of a
16-bit buffer is one such read of the whole buffer, a new read-only
array each time. The splitter also cuts the int16 array into views
(view_range), the writer writes its bytes unchanged, and screen_finite
skips it, since integers are always finite. Every float a call sees
equals the one the float64 form holds, so results do not depend on the
form. The splitter's frame scan (frame_mean_squares) reads the int16
array too, on the path a float64 array takes: it sums each frame's
squares of the stored values and scales the sum once by a power of two,
so both forms give the same mean squares. No other module refers to the
int16 form.

Long buffers are converted and scanned in sample ranges, one per usable
CPU, on a thread pool that the STFT of the tempo estimator shares. Every
output element comes from the same elementwise operation at any CPU
count, so results do not depend on it.

Samples move straight between the file and the buffer. The reader
parses the chunk headers with small positioned reads (wavheader, which
holds the one header parser and needs no numpy), then each range
reads its own part of the data chunk by position: 16-bit mono straight
into the int16 array, other formats one block at a time into a scratch
that it converts. A pipe or device is read in sequence, never past the
size its RIFF header declares. The writer rewrites an existing file in
place rather than truncating it on open, and writes the RIFF signature
last.
"""

from __future__ import annotations

import math
import numbers
import os
import stat
import struct
import threading
import warnings
from collections.abc import Callable
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from .errors import (
    ClippingWarning,
    IoError,
    MalformedHeader,
    NonFiniteSamples,
    OutOfRange,
    SampleRateMismatch,
)
from .wavheader import (
    O_BINARY,
    WAVE_FORMAT_IEEE_FLOAT,
    WAVE_FORMAT_PCM,
    _fill,
    open_read,
    read_header,
)

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

T = TypeVar("T")

# Samples per block of the chunked passes over long buffers (read_wav,
# write_wav and frame_mean_squares). A block's float64 input
# and temporaries (about 1.2 MB at 1 << 16) stay in a core's 2 MiB L2
# cache across the five or six passes made over it; results do not
# depend on the size.
# Median of 5 over a 600 s 44.1 kHz buffer on a 2-vCPU Xeon (write_wav,
# then split_on_silence): 1 << 15: 148-161 / 55-57 ms, 1 << 16:
# 139-146 / 50-54 ms, 1 << 17: 150-152 / 55-56 ms, 1 << 20: 171-177 /
# 75-77 ms.
CHUNK_SAMPLES = 1 << 16

# Buffers shorter than this are converted and scanned in the calling
# thread and never start the pool. Importing concurrent.futures.thread
# takes 8-16 ms, about what two CPUs save on the read, write and silence
# scan of a buffer this long (48 s at 44.1 kHz: 22.7 ms serial, 17.6 ms
# in two ranges on a running pool; medians of 15 on a 2-vCPU VM). So a
# CLI call on a 30 s file runs serial code only.
PARALLEL_MIN_SAMPLES = 1 << 21

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# marks the pool's own threads
_pool_thread = threading.local()

# 1 / 32768: a 16-bit sample times this is exactly its float value
_I16_SCALE = 2.0**-15
# the dtype of a buffer's 16-bit form, and of a 16-bit mono file's data
_PCM16 = np.dtype("<i2")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (Linux; `taskset`
    narrows it), or 1 where the platform has no affinity call. The shared
    pool, the sample ranges and encode's slice workers are sized by it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


def shared_pool() -> ThreadPoolExecutor:
    """The process's one thread pool, one thread per usable CPU, created
    on first use. The STFT blocks and the sample ranges run on it; work
    submitted to it must not wait for other work on it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, so a call that never needs the pool never pays for it
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=usable_cpus(),
                thread_name_prefix="tempostego",
                initializer=setattr,
                initargs=(_pool_thread, "on", True),
            )
        return _pool


def _forget_pool_after_fork() -> None:
    # a forked child inherits the pool object but none of its threads,
    # and a lock that a thread it does not have may hold
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


def run_ranges(n: int, fn: Callable[[int, int], T]) -> list[T]:
    """fn(a, b) for ranges [a, b) that tile [0, n), results in order.

    From PARALLEL_MIN_SAMPLES on, [0, n) is cut at multiples of
    CHUNK_SAMPLES into one range per usable CPU and the ranges run on the
    shared pool; below it, and on a thread of the pool, fn(0, n) runs in
    this thread. fn must write only its own range of any shared output,
    so the result does not depend on the cut. Every range has ended when
    this returns or raises (so a range may use a file descriptor the
    caller closes after); the exception of the first range that raised
    is re-raised.
    """
    blocks = -(-n // CHUNK_SAMPLES)
    k = min(usable_cpus(), blocks) if n >= PARALLEL_MIN_SAMPLES else 1
    # a pool thread runs its ranges itself: waiting on the pool from one
    # of its own threads could wait for ever
    if k <= 1 or getattr(_pool_thread, "on", False):
        return [fn(0, n)]
    cuts = [min(n, blocks * i // k * CHUNK_SAMPLES) for i in range(k + 1)]
    pool = shared_pool()
    futures = [pool.submit(fn, a, b) for a, b in zip(cuts, cuts[1:])]
    for f in futures:
        f.exception()  # waits, and does not raise
    return [f.result() for f in futures]


class PcmBuffer:
    """Mono audio: samples in [-1, 1] plus a sample rate in Hz.

    The constructor fixes the buffer's form from the dtype of `samples`,
    and no call changes it. A 1-D float64 array is the float form, kept
    as given; other floats of 32 bits or more (float32, big-endian
    float64, longdouble) are converted to float64 once, here (float16 is
    refused: its sums of squares overflow). A little-endian int16 array
    (what read_wav makes of a 16-bit mono file) is the 16-bit form, kept
    as given. The int16 form is audio's own (see the module docstring),
    and no library call reads `samples`. Any other dtype, and a sample
    rate that is not a positive integer, raise ValueError.
    """

    __slots__ = ("_data", "sample_rate")

    def __init__(self, samples: np.ndarray, sample_rate: int):
        if samples.ndim != 1:
            raise ValueError("PcmBuffer holds mono audio only")
        if samples.dtype != _PCM16 and not (samples.dtype.kind == "f" and samples.itemsize >= 4):
            raise ValueError(f"PcmBuffer holds float32 or wider or <i2 samples, not {samples.dtype}")
        rate_ok = isinstance(sample_rate, numbers.Integral) and not isinstance(sample_rate, bool)
        if not (rate_ok and sample_rate > 0):
            raise ValueError(f"sample rate must be a positive whole number of Hz, not {sample_rate!r}")
        if samples.dtype.kind == "f" and samples.dtype != np.float64:
            samples = samples.astype(np.float64)
        self._data, self.sample_rate = samples, int(sample_rate)

    def __repr__(self) -> str:
        return f"PcmBuffer({len(self)} samples at {self.sample_rate} Hz)"

    @property
    def samples(self) -> np.ndarray:
        """The samples as float64: a float buffer's own array, edits to
        which are what write_wav writes; for a 16-bit buffer, each int16 /
        32768 in a new read-only array on each read (edit a float copy,
        PcmBuffer(buf.samples.copy(), buf.sample_rate))."""
        if self._data.dtype != _PCM16:
            return self._data
        x = float_range(self, 0, len(self))
        x.flags.writeable = False
        return x

    def __len__(self) -> int:
        return len(self._data)

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate


def float_range(
    buf: PcmBuffer, a: int, b: int, factor: float = 1.0, out: np.ndarray | None = None
) -> np.ndarray:
    """samples[a:b] * factor, for reading only: the one way this package
    reads a buffer's samples as floats, `samples` included. Written into
    out (b - a float64 samples) when given; else a view of a float
    buffer's samples when factor is 1, or a new float64 array. A 16-bit
    range is cast and scaled by factor / 32768 in one multiply,
    converting only that range; a 16-bit sample is exact in float64 and
    the power-of-two factor is exact, so each float is rounded once, as
    (q / 32768) * factor is."""
    part = buf._data[a:b]
    if part.dtype == _PCM16:
        factor *= _I16_SCALE
    elif out is None and factor == 1.0:
        return part
    return np.multiply(part, factor, out=out)


def view_range(buf: PcmBuffer, a: int, b: int) -> PcmBuffer:
    """Samples [a, b) as a buffer sharing buf's memory, in buf's form: a
    view of a float buffer's samples, or of a 16-bit buffer's int16
    samples."""
    return PcmBuffer(samples=buf._data[a:b], sample_rate=buf.sample_rate)


def screen_finite(buf: PcmBuffer, what: str) -> None:
    """Raise NonFiniteSamples if buf holds NaN or infinity. 16-bit
    samples are always finite and are not read. Float samples are
    screened by one sum of squares, which makes no temporary; it is also
    inf for huge finite samples, so a second pass confirms before
    rejecting."""
    x = buf._data
    if x.dtype == _PCM16:
        return
    with np.errstate(over="ignore"):
        if not math.isfinite(energy(x)) and not np.isfinite(x).all():
            raise NonFiniteSamples(f"the {what} holds NaN or infinite samples")


def read_wav(path: str) -> PcmBuffer:
    """Read a WAV file into a mono PcmBuffer.

    Accepts 8/16/24-bit integer PCM and 32-bit float, mono or stereo,
    under a plain format tag or WAVE_FORMAT_EXTENSIBLE with the PCM or
    IEEE-float subformat. Stereo is mixed down by channel mean. Integer
    samples are scaled by the full-scale value of their width (e.g.
    16-bit by 1/32768). A 16-bit mono file gives a buffer in the 16-bit
    form, holding its int16 samples (see PcmBuffer).

    The header is parsed by wavheader.read_header, which wav_frames
    shares. A regular file is then read by position, each sample range of
    the data chunk, 16-bit mono straight into the int16 array, other
    formats one block at a time into a scratch that it converts, so no
    copy of the file is held. A pipe or device, or any file where
    os.preadv is missing, is read in sequence up to the size its RIFF
    header declares, and no further. A data size of 0xFFFFFFFF, which
    ffmpeg writes where it cannot seek back, means the rest of the source.

    Raises IoError when the file cannot be read, MalformedHeader when the
    RIFF structure is broken, UnsupportedFormat for other encodings, and
    NonFiniteSamples when float content holds NaN or infinity.
    """
    return open_read(path, lambda fd: _read_fd(fd, path))


def _read_fd(fd: int, path: str) -> PcmBuffer:
    pread, (fmt_tag, channels, sample_rate, bits), offset, n = read_header(fd, path)
    dtype, offset_value, scale = _CONVERTERS[fmt_tag, bits]
    frame = dtype.itemsize * channels

    def fill(buf, at: int) -> None:
        if _fill(pread, buf, offset + at * frame) < buf.nbytes:
            raise MalformedHeader(f"{path}: chunk b'data' extends past end of file")

    if (fmt_tag, bits, channels) == (WAVE_FORMAT_PCM, 16, 1):
        q = np.empty(n, dtype=_PCM16)
        # the bytes are the samples: each range reads its own straight in
        run_ranges(n, lambda a, b: fill(q[a:b], a))
        return PcmBuffer(samples=q, sample_rate=int(sample_rate))

    x = np.empty(n)

    def read_range(a: int, b: int) -> None:
        # each block's bytes are read into raw, then cast and scaled by a
        # power of two into x in one multiply (a stereo block into pairs,
        # then mixed down), then offset in place; every step is exact
        m = min(b - a, CHUNK_SAMPLES)
        raw = np.empty(m * frame, dtype=np.uint8)
        pairs = np.empty(2 * m) if channels == 2 else None
        # a 24-bit triplet becomes the top three bytes of a little-endian
        # int32, which carries its sign; the low byte stays zero
        quads = np.zeros((m * channels, 4), dtype=np.uint8) if bits == 24 else None
        for i in range(a, b, CHUNK_SAMPLES):
            j = min(i + CHUNK_SAMPLES, b)
            block = raw[: (j - i) * frame]
            fill(block, i)
            src = block.view(dtype)
            if quads is not None:
                k = len(src)
                quads[:k, 1:] = block.reshape(k, 3)
                src = quads[:k].view("<i4")[:, 0]
            t = x[i:j] if pairs is None else pairs[: 2 * (j - i)]
            np.multiply(src, scale, out=t)
            if offset_value:
                t -= offset_value * scale
            if pairs is not None:
                np.mean(t.reshape(j - i, 2), axis=1, out=x[i:j])
            # only float content can be non-finite; integer PCM skips this
            # pass. A non-finite channel makes its frame's mean non-finite.
            if fmt_tag == WAVE_FORMAT_IEEE_FLOAT and not np.isfinite(x[i:j]).all():
                raise NonFiniteSamples(f"{path}: float samples include NaN or infinity")

    run_ranges(n, read_range)
    return PcmBuffer(samples=x, sample_rate=int(sample_rate))


# (format tag, bits), the keys of wavheader.SAMPLE_BYTES: (dtype of one
# sample as stored, then the offset subtracted from it and the power of
# two it is scaled by to give float64 samples in [-1, 1]); 24-bit samples
# are stored as byte triplets, read as int32 with the sample in the top
# three bytes
_CONVERTERS = {
    (WAVE_FORMAT_PCM, 8): (np.dtype(np.uint8), 128.0, 2.0**-7),
    (WAVE_FORMAT_PCM, 16): (_PCM16, 0.0, _I16_SCALE),
    (WAVE_FORMAT_PCM, 24): (np.dtype("V3"), 0.0, 2.0**-31),
    (WAVE_FORMAT_IEEE_FLOAT, 32): (np.dtype("<f4"), 0.0, 1.0),
}


def write_wav(buf: PcmBuffer, path: str) -> None:
    """Write a buffer as 16-bit mono PCM.

    A 16-bit buffer writes the bytes of its int16 samples as they are.
    Float samples are rounded to the nearest 16-bit step; samples
    outside [-1, 1] are saturated and a ClippingWarning is issued.
    NaN or infinite samples raise NonFiniteSamples, and a sample rate whose
    byte rate, or a length whose sizes, do not fit the header raise
    ValueError, before the file is opened, so none of them leaves a file
    behind or changes an existing one.
    An existing regular file is rewritten in place and cut to length, and
    its RIFF signature is written last: a write that fails part way
    leaves a file that read_wav rejects with MalformedHeader.
    """
    if len(buf) == 0:
        raise ValueError("refusing to write an empty buffer")
    if buf.sample_rate * 2 > 0xFFFFFFFF:
        raise ValueError(f"{buf.sample_rate} Hz overflows the header's 32-bit byte rate")
    if 36 + 2 * len(buf) > 0xFFFFFFFF:
        raise ValueError(f"{len(buf)} samples overflow the header's 32-bit RIFF sizes")
    d = buf._data
    # a 16-bit view may be strided; the writer needs its bytes in order
    q = np.ascontiguousarray(d) if d.dtype == _PCM16 else _to_pcm16(d, path)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + q.nbytes,
        b"WAVE",
        b"fmt ",
        16,
        WAVE_FORMAT_PCM,
        1,
        buf.sample_rate,
        buf.sample_rate * 2,
        2,
        16,
        b"data",
        q.nbytes,
    )
    # A regular file is rewritten in place, not truncated on open: on
    # ext4, a truncating open frees the old blocks first. Rewriting a
    # 53 MB file took 40-46 ms that way (20 ms in open) against 24-29 ms
    # in place (quartiles of 12, 2-vCPU VM). The RIFF signature is
    # written last, after the file is cut to length, so a write that
    # fails part way leaves a file that read_wav rejects.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | O_BINARY, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            _write_all(fd, bytes(4) + header[4:] if regular else header)
            _write_all(fd, q)
            if regular:
                os.ftruncate(fd, len(header) + q.nbytes)
                os.lseek(fd, 0, os.SEEK_SET)
                _write_all(fd, header[:4])
        finally:
            os.close(fd)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _to_pcm16(x: np.ndarray, path: str) -> np.ndarray:
    """x rounded to 16-bit samples, saturated at full scale, with a
    ClippingWarning if any sample was; NonFiniteSamples if any is NaN
    or infinite."""
    q = np.empty(len(x), dtype="<i2")

    def write_range(a: int, b: int) -> bool:
        """Convert x[a:b] into q[a:b]; whether any sample clipped."""
        scaled = np.empty(min(b - a, CHUNK_SAMPLES))
        clipped = False
        for i in range(a, b, CHUNK_SAMPLES):
            src = x[i : min(i + CHUNK_SAMPLES, b)]
            t = scaled[: len(src)]
            np.multiply(src, 32768.0, out=t)
            # max and min propagate NaN, so they double as the finiteness
            # test; only a finite sample past ~5e303 can scale to infinity
            hi, lo = t.max(), t.min()
            if not (-32768.0 <= lo and hi <= 32767.0):
                if not (np.isfinite(hi) and np.isfinite(lo)) and not np.isfinite(src).all():
                    raise NonFiniteSamples(f"cannot write NaN or infinite samples to {path}")
                # the scale is a power of two, so this is exactly |x| > 1
                clipped = clipped or hi > 32768.0 or lo < -32768.0
                # the bounds are whole numbers, so clipping before rounding
                # gives what rounding before clipping would
                np.clip(t, -32768.0, 32767.0, out=t)
            np.rint(t, out=q[i : i + len(src)], casting="unsafe")
        return clipped

    if any(run_ranges(len(x), write_range)):
        warnings.warn(
            "samples outside [-1, 1] were clipped on write", ClippingWarning, stacklevel=3
        )
    return q


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def slice_buffer(buf: PcmBuffer, start_s: float, end_s: float) -> PcmBuffer:
    """Extract [start_s, end_s) as a new buffer.

    Endpoints are converted with round(t * sample_rate) so adjacent slices
    share exact boundaries. The interval must be non-empty and lie inside
    the buffer; a non-finite endpoint raises OutOfRange too.
    """
    sr = buf.sample_rate
    if not (math.isfinite(start_s * sr) and math.isfinite(end_s * sr)):
        raise OutOfRange(f"slice [{start_s}, {end_s}) s has an endpoint no buffer reaches")
    i0 = int(round(start_s * sr))
    i1 = int(round(end_s * sr))
    if start_s < 0 or i0 < 0:
        raise OutOfRange(f"slice start {start_s} s is before the buffer")
    if i1 > len(buf):
        raise OutOfRange(f"slice end {end_s} s is past the buffer end")
    if i0 >= i1:
        raise OutOfRange(f"slice [{start_s}, {end_s}) s is empty")
    # a copy of the range in buf's form: a 16-bit buffer stays 16-bit
    return PcmBuffer(samples=buf._data[i0:i1].copy(), sample_rate=sr)


def concat(parts: list[PcmBuffer]) -> PcmBuffer:
    """Join buffers sample-exactly into a new buffer, 16-bit when every
    part is, leaving each part in its form. All parts must share one
    sample rate."""
    if not parts:
        raise ValueError("concat needs at least one buffer")
    rate = parts[0].sample_rate
    for p in parts[1:]:
        if p.sample_rate != rate:
            raise SampleRateMismatch(f"cannot concat {p.sample_rate} Hz into {rate} Hz")
    stored = [p._data for p in parts]
    if any(d.dtype != _PCM16 for d in stored):
        stored = [float_range(p, 0, len(p)) for p in parts]
    return PcmBuffer(samples=np.concatenate(stored), sample_rate=rate)


def energy(x: np.ndarray) -> float:
    """x . x, summed by numpy's own multiply-add loop.

    np.dot hands a vector of more than 10,000 samples to OpenBLAS, which
    runs it on its own threads. Those keep spinning after the call
    returns, so they take cores from the shared pool and encode's slice
    workers wherever the BLAS thread count is not pinned.
    """
    return float(np.einsum("i,i->", x, x))


def rms_dbfs(buf: PcmBuffer) -> float:
    """RMS level in dBFS; digital silence reads as -inf.

    A gate measure: callers only compare it with a level threshold. It
    sums squares with energy, which makes no temporary of a float
    buffer; a 16-bit buffer is read through float_range, so one float64
    copy lives for the call and the buffer stays 16-bit. That sum runs
    in another order than np.mean's, so the level may differ from
    10*log10(np.mean(x**2)) in the last bits.
    """
    if len(buf) == 0:
        raise ValueError("rms of an empty buffer is undefined")
    mean_sq = energy(float_range(buf, 0, len(buf))) / len(buf)
    if mean_sq == 0.0:
        return float("-inf")
    return 10.0 * np.log10(mean_sq)


def frame_mean_squares(buf: PcmBuffer, frame_n: int) -> np.ndarray:
    """The mean square of each frame_n-sample frame of buf's samples, in
    order, the last frame ragged when frame_n does not divide len(buf).

    Whole frames are scanned a block at a time, in sample ranges on the
    shared pool (run_ranges), so the float64 scratch stays one block per
    range. Both forms take one path: a block is cast into the scratch as
    stored (a 16-bit one unscaled), each frame's squares are summed by
    np.einsum, and the sum is scaled (by 2**-30 for 16-bit samples, so
    that it is the sum of the floats' squares) and divided by frame_n.
    A 16-bit square is an exact integer and the scale is a power of two,
    so every partial sum is the float twin's times 2**30 exactly: the two
    forms give the same levels at any frame length. Below 2**23 samples
    a 16-bit frame's sums are exact, so its level is also the double
    np.mean(x**2) gives for its floats x. A float frame's level is
    einsum's sum, which may differ from np.mean's in the last bits.
    """
    n = len(buf)
    n_full = n // frame_n
    mean_sq = np.empty(-(-n // frame_n))
    scale = _I16_SCALE * _I16_SCALE if buf._data.dtype == _PCM16 else 1.0
    block = max(1, CHUNK_SAMPLES // frame_n)

    def frames(a: int, sq: np.ndarray, out: np.ndarray) -> None:
        # the mean square of each row of samples[a:] laid out as sq
        sq.reshape(-1)[...] = buf._data[a : a + sq.size]
        np.einsum("ij,ij->i", sq, sq, out=out)
        out *= scale
        out /= sq.shape[1]

    def scan_range(a: int, b: int) -> None:
        # the whole frames that start in [a, b)
        f0, f1 = -(-a // frame_n), -(-b // frame_n)
        scratch = np.empty((min(block, f1 - f0), frame_n))
        for g0 in range(f0, f1, block):
            g1 = min(g0 + block, f1)
            frames(g0 * frame_n, scratch[: g1 - g0], mean_sq[g0:g1])

    run_ranges(n_full * frame_n, scan_range)
    if n_full < len(mean_sq):
        frames(n_full * frame_n, np.empty((1, n - n_full * frame_n)), mean_sq[n_full:])
    return mean_sq
