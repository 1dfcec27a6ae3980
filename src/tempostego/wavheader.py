"""The WAV layer, without numpy: the only module that knows the layout.

The RIFF signature, the chunk header and the fmt body are each one
struct, read by the one parser (read_header: every header check, then a
reader of whole frames for audio's read_wav) and written by the one
header writer (pcm16_header, which holds the write limits). wav_frames
reads no sample, so a call that needs only a file's length and rate
(the CLI's `capacity`) never loads numpy.

A regular file is read by position with small reads; a pipe or device,
or any file where os.preadv is missing, in sequence and never past the
size its RIFF header declares. Either is parsed only that far.
"""

from __future__ import annotations

import os
import stat
import struct
from collections.abc import Callable
from typing import Any, TypeVar

from .errors import IoError, MalformedHeader, UnsupportedFormat

T = TypeVar("T")

WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 4..15 of the KSDATAFORMAT_SUBTYPE GUIDs; bytes 0..3 hold the tag.
_SUBFORMAT_GUID_SUFFIX = bytes.fromhex("00001000800000aa00389b71")
# The RIFF and data sizes of a WAV stream whose writer could not seek
# back to fill them in (ffmpeg's WAV muxer on a pipe)
_SIZE_UNKNOWN = 0xFFFFFFFF

# The supported encodings by (format tag, bits), under a plain or an
# EXTENSIBLE fmt chunk alike: (bytes one sample takes, its numpy type as
# stored, then the offset subtracted from it and the power of two it is
# scaled by to give float64 samples in [-1, 1]). read_header takes the
# frame width from here and audio's reader the rest. A 24-bit sample is
# stored as a byte triplet, read as the top three bytes of an int32, so
# its scale is the 32-bit one.
ENCODINGS = {
    (WAVE_FORMAT_PCM, 8): (1, "u1", 128.0, 2.0**-7),
    (WAVE_FORMAT_PCM, 16): (2, "<i2", 0.0, 2.0**-15),
    (WAVE_FORMAT_PCM, 24): (3, "V3", 0.0, 2.0**-31),
    (WAVE_FORMAT_PCM, 32): (4, "<i4", 0.0, 2.0**-31),
    (WAVE_FORMAT_IEEE_FLOAT, 32): (4, "<f4", 0.0, 1.0),
}
# the format tags of ENCODINGS
_TAGS = {tag for tag, _ in ENCODINGS}

# the RIFF signature, a chunk header (id, size), and a fmt body's first 16
# bytes (format tag, channels, rate, byte rate, block align, bits)
_RIFF = struct.Struct("<4sI4s")
_CHUNK = struct.Struct("<4sI")
_FMT = struct.Struct("<HHIIHH")

# the highest sample rate pcm16_header can state: the header's 32-bit
# byte rate holds 2 bytes (one 16-bit sample) for each
MAX_WRITE_RATE = 0xFFFFFFFF // 2

# reads up to len(buf) bytes at an offset into buf; the count read
Pread = Callable[[memoryview, int], int]


def open_fd(path: str, flags: int, verb: str, body: Callable[[int], T]) -> T:
    """body(fd) on path opened in binary mode with flags, a file it creates
    with mode 0o666; an OSError from either becomes IoError("cannot <verb> <path>: ...")."""
    try:
        # O_BINARY keeps Windows from translating line endings in WAV bytes
        fd = os.open(path, flags | getattr(os, "O_BINARY", 0), 0o666)
        try:
            return body(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise IoError(f"cannot {verb} {path}: {exc}") from exc


def pcm16_header(sample_rate: int, frames: int) -> bytes:
    """The 44 header bytes of a 16-bit mono PCM file of `frames` samples
    at sample_rate; ValueError for no samples, a rate past MAX_WRITE_RATE
    or RIFF sizes past 32 bits."""
    if frames == 0:
        raise ValueError("refusing to write an empty buffer")
    if sample_rate > MAX_WRITE_RATE:
        raise ValueError(f"{sample_rate} Hz overflows the header's 32-bit byte rate")
    data = 2 * frames
    if 36 + data > 0xFFFFFFFF:  # "WAVE", the fmt chunk, the data header
        raise ValueError(f"{frames} samples overflow the header's 32-bit RIFF sizes")
    fmt = _FMT.pack(WAVE_FORMAT_PCM, 1, sample_rate, 2 * sample_rate, 2, 16)
    return (_RIFF.pack(b"RIFF", 36 + data, b"WAVE") + _CHUNK.pack(b"fmt ", len(fmt)) + fmt
            + _CHUNK.pack(b"data", data))


def read_header(fd: int, path: str) -> tuple[Callable[[Any, int], None], tuple[int, ...], int]:
    """A reader of the WAV source fd's frames, its (format tag, channels,
    sample rate, bits), and the whole frames its data chunk holds; an
    EXTENSIBLE file reports the tag of its subformat. read(buf, frame)
    fills buf with whole frames from that frame of the data chunk on, and
    raises MalformedHeader where the source ends first.

    Raises MalformedHeader when the RIFF structure is broken or the rate
    is zero, and UnsupportedFormat for an encoding not in ENCODINGS or
    more than two channels.
    """
    info = os.fstat(fd)
    if stat.S_ISREG(info.st_mode) and hasattr(os, "preadv"):
        size = info.st_size

        def pread(buf, offset: int) -> int:
            return os.preadv(fd, [buf], offset)

    else:
        blob = _read_declared(fd, path)
        size = len(blob)
        # slices of a memoryview share the blob's bytes; slices of the
        # bytearray itself would copy every range
        view = memoryview(blob)

        def pread(buf, offset: int) -> int:
            got = view[offset : offset + len(buf)]
            buf[: len(got)] = got
            return len(got)

    fmt, offset, length = _parse_riff(path, pread, size)
    fmt_tag, channels, sample_rate, _, _, bits = fmt
    if fmt_tag not in _TAGS:
        raise UnsupportedFormat(f"{path}: format tag {fmt_tag} not supported")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{path}: {channels} channels not supported")
    if sample_rate == 0:
        raise MalformedHeader(f"{path}: zero sample rate")
    if (fmt_tag, bits) not in ENCODINGS:
        raise UnsupportedFormat(f"{path}: {bits}-bit samples with format tag {fmt_tag}")
    frame = ENCODINGS[fmt_tag, bits][0] * channels

    def read_frames(buf, at: int) -> None:
        if _fill(pread, buf, offset + at * frame) < buf.nbytes:
            raise MalformedHeader(f"{path}: chunk b'data' extends past end of file")

    return read_frames, (fmt_tag, channels, sample_rate, bits), length // frame


def wav_frames(path: str) -> tuple[int, int]:
    """(frames, sample rate) of the WAV file at path: len and sample_rate
    of the buffer read_wav would give, from the header alone. Raises what
    read_wav raises for the header: IoError, MalformedHeader,
    UnsupportedFormat. No sample is read, so float samples holding NaN
    or infinity raise nothing here."""

    def frames(fd: int) -> tuple[int, int]:
        _, (_, _, sample_rate, _), n = read_header(fd, path)
        return n, sample_rate

    return open_fd(path, os.O_RDONLY, "read", frames)


def _fill(pread: Pread, buf, offset: int) -> int:
    """Read into buf from offset until it is full or the source ends;
    the byte count read."""
    view = memoryview(buf).cast("B")
    got = 0
    while got < len(view):
        k = pread(view[got:], offset + got)
        if not k:
            break
        got += k
    return got


def _signature(path: str, head: bytes) -> int:
    """The size a RIFF/WAVE file's first 12 bytes declare for what
    follows its first 8."""
    if len(head) < 12:
        raise MalformedHeader(f"{path}: too small to be a WAV file")
    riff, size, wave_id = _RIFF.unpack_from(head)
    if riff != b"RIFF" or wave_id != b"WAVE":
        raise MalformedHeader(f"{path}: missing RIFF/WAVE signature")
    return size


def _read_declared(fd: int, path: str) -> bytearray:
    """A source read in sequence: its first 12 bytes, which must be a
    RIFF/WAVE signature, then at most the rest that the RIFF size
    declares."""
    blob = bytearray()
    _read_until(fd, blob, 12)
    _read_until(fd, blob, 8 + _signature(path, blob))
    return blob


def _read_until(fd: int, blob: bytearray, end: int) -> None:
    # os.read never returns more than it is asked for, so nothing past
    # `end` leaves the source
    while len(blob) < end:
        part = os.read(fd, min(end - len(blob), 1 << 20))
        if not part:
            return
        blob += part


def _parse_riff(
    path: str, pread: Pread, size: int
) -> tuple[tuple[int, int, int, int, int, int], int, int]:
    """The fmt fields of a RIFF/WAVE source of `size` bytes, and the
    offset and length of its data chunk, from its chunk headers. Where a
    chunk occurs twice, the last one counts. A data chunk of unknown size
    (_SIZE_UNKNOWN) runs to the end of the source, and the source ends
    where its RIFF size says, unless that size is _SIZE_UNKNOWN."""
    declared = _signature(path, _read_at(pread, 0, 12))
    if declared != _SIZE_UNKNOWN:
        size = min(size, 8 + declared)
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= size:
        head = _read_at(pread, pos, 8)
        if len(head) < 8:  # the file shrank after it was sized
            raise MalformedHeader(f"{path}: chunk header extends past end of file")
        cid, csize = _CHUNK.unpack(head)
        pos += 8
        if cid == b"data" and csize == _SIZE_UNKNOWN:
            csize = size - pos
        if csize > size - pos:
            raise MalformedHeader(f"{path}: chunk {cid!r} extends past end of file")
        if cid == b"fmt ":
            # _parse_fmt needs at most the first 40 bytes of the body
            fmt = _parse_fmt(path, _read_at(pread, pos, min(csize, 40)))
        elif cid == b"data":
            data = (pos, csize)
        # chunks are word-aligned; odd sizes carry a pad byte
        pos += csize + (csize & 1)

    if fmt is None:
        raise MalformedHeader(f"{path}: no fmt chunk")
    if data is None:
        raise MalformedHeader(f"{path}: no data chunk")
    return fmt, data[0], data[1]


def _read_at(pread: Pread, offset: int, k: int) -> bytes:
    """Up to k bytes from offset; fewer where the source ends first."""
    buf = bytearray(k)
    return bytes(buf[: _fill(pread, buf, offset)])


def _parse_fmt(path: str, body: bytes) -> tuple[int, int, int, int, int, int]:
    """(format tag, channels, rate, byte rate, block align, bits) of a fmt
    chunk body. An EXTENSIBLE chunk reports the tag of its subformat."""
    if len(body) < _FMT.size:
        raise MalformedHeader(f"{path}: fmt chunk too small")
    fmt = _FMT.unpack_from(body)
    if fmt[0] != WAVE_FORMAT_EXTENSIBLE:
        return fmt
    if len(body) < 40:
        raise MalformedHeader(f"{path}: extensible fmt chunk too small")
    guid = bytes(body[24:40])
    tag = int.from_bytes(guid[:4], "little")
    if tag not in _TAGS or guid[4:] != _SUBFORMAT_GUID_SUFFIX:
        raise UnsupportedFormat(f"{path}: extensible subformat {guid.hex()} not supported")
    return (tag,) + fmt[1:]
