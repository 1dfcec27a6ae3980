"""WAV file I/O and mono PCM buffers.

All processing happens on mono float buffers with samples in [-1, 1].
Files are read with a small RIFF parser rather than the stdlib wave
module so that 24-bit PCM and 32-bit float content can be accepted and
so that malformed files fail with a precise error instead of a generic
one. Stereo input is mixed down to mono on read; output is always
16-bit mono PCM.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClippingWarning,
    IoError,
    MalformedHeader,
    NonFiniteSamples,
    OutOfRange,
    SampleRateMismatch,
    UnsupportedFormat,
)

WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 4..15 of the KSDATAFORMAT_SUBTYPE GUIDs; bytes 0..3 hold the tag.
_SUBFORMAT_GUID_SUFFIX = bytes.fromhex("00001000800000aa00389b71")

# Samples per block of the chunked passes over long buffers (write_wav,
# mean_square and the splitter's mean square). A block's float64 input
# and temporaries (about 1.2 MB at 1 << 16) stay in a core's 2 MiB L2
# cache across the five or six passes made over it; results do not
# depend on the size.
# Median of 5 over a 600 s 44.1 kHz buffer on a 2-vCPU Xeon (write_wav,
# then split_on_silence): 1 << 15: 148-161 / 55-57 ms, 1 << 16:
# 139-146 / 50-54 ms, 1 << 17: 150-152 / 55-56 ms, 1 << 20: 171-177 /
# 75-77 ms.
CHUNK_SAMPLES = 1 << 16


@dataclass(frozen=True)
class PcmBuffer:
    """Mono audio: float64 samples in [-1, 1] plus a sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.samples.ndim != 1:
            raise ValueError("PcmBuffer holds mono audio only")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


def read_wav(path: str) -> PcmBuffer:
    """Read a WAV file into a mono PcmBuffer.

    Accepts 8/16/24-bit integer PCM and 32-bit float, mono or stereo,
    under a plain format tag or WAVE_FORMAT_EXTENSIBLE with the PCM or
    IEEE-float subformat. Stereo is mixed down by channel mean. Integer
    samples are scaled by the full-scale value of their width (e.g.
    16-bit by 1/32768).

    Raises IoError when the file cannot be read, MalformedHeader when the
    RIFF structure is broken, UnsupportedFormat for other encodings, and
    NonFiniteSamples when float content holds NaN or infinity.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    if len(data) < 12:
        raise MalformedHeader(f"{path}: too small to be a WAV file")
    riff, _, wave_id = struct.unpack_from("<4sI4s", data, 0)
    if riff != b"RIFF" or wave_id != b"WAVE":
        raise MalformedHeader(f"{path}: missing RIFF/WAVE signature")

    # chunk bodies are views into the file bytes, so the data chunk is
    # converted without being copied first
    view = memoryview(data)
    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        cid, csize = struct.unpack_from("<4sI", data, pos)
        pos += 8
        if csize > len(data) - pos:
            raise MalformedHeader(f"{path}: chunk {cid!r} extends past end of file")
        body = view[pos : pos + csize]
        # chunks are word-aligned; odd sizes carry a pad byte
        pos += csize + (csize & 1)
        if cid == b"fmt ":
            fmt = _parse_fmt(path, body)
        elif cid == b"data":
            raw = body

    if fmt is None:
        raise MalformedHeader(f"{path}: no fmt chunk")
    if raw is None:
        raise MalformedHeader(f"{path}: no data chunk")

    fmt_tag, channels, sample_rate, _, _, bits = fmt
    if fmt_tag not in (WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT):
        raise UnsupportedFormat(f"{path}: format tag {fmt_tag} not supported")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{path}: {channels} channels not supported")
    if sample_rate == 0:
        raise MalformedHeader(f"{path}: zero sample rate")

    if fmt_tag == WAVE_FORMAT_PCM and bits == 8:
        x = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
        x = (x - 128.0) / 128.0
    elif fmt_tag == WAVE_FORMAT_PCM and bits == 16:
        n = len(raw) // 2
        # one promoting divide; exact because int16 fits float64 and the
        # divisor is a power of two
        x = np.frombuffer(raw[: n * 2], dtype="<i2") / 32768.0
    elif fmt_tag == WAVE_FORMAT_PCM and bits == 24:
        n = len(raw) // 3
        # each triplet becomes the top three bytes of a little-endian int32,
        # which carries its sign; the divide is exact as for 16-bit
        quads = np.zeros((n, 4), dtype=np.uint8)
        quads[:, 1:] = np.frombuffer(raw[: n * 3], dtype=np.uint8).reshape(n, 3)
        x = quads.view("<i4")[:, 0] / float(1 << 31)
    elif fmt_tag == WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        n = len(raw) // 4
        x = np.frombuffer(raw[: n * 4], dtype="<f4").astype(np.float64)
        # only float content can be non-finite; integer PCM skips this pass
        if not np.isfinite(x).all():
            raise NonFiniteSamples(f"{path}: float samples include NaN or infinity")
    else:
        raise UnsupportedFormat(f"{path}: {bits}-bit samples with format tag {fmt_tag}")

    if channels == 2:
        n = len(x) // 2
        x = x[: n * 2].reshape(n, 2).mean(axis=1)

    return PcmBuffer(samples=x, sample_rate=int(sample_rate))


def _parse_fmt(path: str, body: memoryview) -> tuple[int, int, int, int, int, int]:
    """(format tag, channels, rate, byte rate, block align, bits) of a fmt
    chunk body. An EXTENSIBLE chunk reports the tag of its subformat."""
    if len(body) < 16:
        raise MalformedHeader(f"{path}: fmt chunk too small")
    fmt = struct.unpack_from("<HHIIHH", body, 0)
    if fmt[0] != WAVE_FORMAT_EXTENSIBLE:
        return fmt
    if len(body) < 40:
        raise MalformedHeader(f"{path}: extensible fmt chunk too small")
    guid = bytes(body[24:40])
    tag = int.from_bytes(guid[:4], "little")
    known = tag in (WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT)
    if not known or guid[4:] != _SUBFORMAT_GUID_SUFFIX:
        raise UnsupportedFormat(f"{path}: extensible subformat {guid.hex()} not supported")
    return (tag,) + fmt[1:]


def write_wav(buf: PcmBuffer, path: str) -> None:
    """Write a buffer as 16-bit mono PCM.

    Samples outside [-1, 1] are saturated and a ClippingWarning is issued.
    NaN or infinite samples raise NonFiniteSamples, and a sample rate whose
    byte rate does not fit the header raises ValueError, before the file
    is opened, so no partial file is left behind.
    """
    if len(buf) == 0:
        raise ValueError("refusing to write an empty buffer")
    if buf.sample_rate * 2 > 0xFFFFFFFF:
        raise ValueError(f"{buf.sample_rate} Hz overflows the header's 32-bit byte rate")
    x = buf.samples
    q = np.empty(len(x), dtype="<i2")
    scaled = np.empty(min(len(x), CHUNK_SAMPLES))
    clipped = False
    for i in range(0, len(x), CHUNK_SAMPLES):
        src = x[i : i + CHUNK_SAMPLES]
        t = scaled[: len(src)]
        np.multiply(src, 32768.0, out=t)
        # max and min propagate NaN, so they double as the finiteness
        # test; only a finite sample past ~5e303 can scale to infinity
        hi, lo = t.max(), t.min()
        if not (np.isfinite(hi) and np.isfinite(lo)) and not np.isfinite(src).all():
            raise NonFiniteSamples(f"cannot write NaN or infinite samples to {path}")
        # the scale is a power of two, so this is exactly |x| > 1
        clipped = clipped or hi > 32768.0 or lo < -32768.0
        np.rint(t, out=t)
        np.clip(t, -32768, 32767, out=t)
        q[i : i + len(src)] = t
    if clipped:
        warnings.warn(
            "samples outside [-1, 1] were clipped on write", ClippingWarning, stacklevel=2
        )
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
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(q)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


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
    return PcmBuffer(samples=buf.samples[i0:i1].copy(), sample_rate=sr)


def concat(parts: list[PcmBuffer]) -> PcmBuffer:
    """Join buffers sample-exactly. All parts must share one sample rate."""
    if not parts:
        raise ValueError("concat needs at least one buffer")
    rate = parts[0].sample_rate
    for p in parts[1:]:
        if p.sample_rate != rate:
            raise SampleRateMismatch(f"cannot concat {p.sample_rate} Hz into {rate} Hz")
    return PcmBuffer(samples=np.concatenate([p.samples for p in parts]), sample_rate=rate)


def mean_square(x: np.ndarray, divisor: float = 1.0) -> float:
    """np.mean((x / divisor)**2) of a float64 array, bit for bit, without
    a full-length temporary.

    numpy sums a contiguous float64 array pairwise: it splits n values at
    n2 = n//2 - (n//2) % 8 until a piece holds at most 128. Splitting the
    same way down to pieces of at most CHUNK_SAMPLES, and summing each
    with np.add.reduce, evaluates every subtree of that sum in the same
    order, so the result is identical. Each piece is divided and squared
    in one reused block-sized buffer. (A plain left-to-right sum of
    blocks is a different tree and can differ in the last bit.)
    """
    sq = np.empty(min(len(x), CHUNK_SAMPLES))
    return float(_sum_of_squares(x, divisor, sq) / len(x))


def _sum_of_squares(a: np.ndarray, divisor: float, sq: np.ndarray) -> np.float64:
    # a module-level function, not a self-referencing closure: that would
    # be a reference cycle keeping each call's block buffer alive until
    # the cyclic garbage collector runs
    n = len(a)
    if n <= CHUNK_SAMPLES:
        t = sq[:n]
        if divisor == 1.0:
            np.square(a, out=t)
        else:
            np.divide(a, divisor, out=t)
            np.square(t, out=t)
        return np.add.reduce(t)
    half = n // 2
    half -= half % 8
    return _sum_of_squares(a[:half], divisor, sq) + _sum_of_squares(a[half:], divisor, sq)


def rms_dbfs(buf: PcmBuffer) -> float:
    """RMS level in dBFS; digital silence reads as -inf."""
    if len(buf) == 0:
        raise ValueError("rms of an empty buffer is undefined")
    mean_sq = mean_square(buf.samples)
    if mean_sq == 0.0:
        return float("-inf")
    return 10.0 * np.log10(mean_sq)
