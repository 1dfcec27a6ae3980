"""The WAV header reader: RIFF chunk walk and fmt parsing, without numpy.

read_wav (audio) reads its files through read_header here, so this module
holds the one parser and every header check. wav_frames makes the same
checks and reads no sample, so a call that needs only a file's length
and rate (the CLI's `capacity`) never loads numpy.

A regular file is read by position with small reads. A pipe or device,
or any file where os.preadv is missing, is read in sequence up to the
size its RIFF header declares, and no further, then parsed the same way.
"""

from __future__ import annotations

import os
import stat
import struct
from collections.abc import Callable
from typing import TypeVar

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

# The supported encodings, (format tag, bits): bytes one sample takes
SAMPLE_BYTES = {
    (WAVE_FORMAT_PCM, 8): 1,
    (WAVE_FORMAT_PCM, 16): 2,
    (WAVE_FORMAT_PCM, 24): 3,
    (WAVE_FORMAT_IEEE_FLOAT, 32): 4,
}

# keeps Windows from translating line endings in WAV bytes; 0 elsewhere
O_BINARY = getattr(os, "O_BINARY", 0)

# reads up to len(buf) bytes at an offset into buf; the count read
Pread = Callable[[memoryview, int], int]


def open_read(path: str, body: Callable[[int], T]) -> T:
    """body(fd) on path opened for reading; an OSError from either becomes
    IoError."""
    try:
        fd = os.open(path, os.O_RDONLY | O_BINARY)
        try:
            return body(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def read_header(fd: int, path: str) -> tuple[Pread, tuple[int, int, int, int], int, int]:
    """A positioned reader of the WAV source fd, its (format tag, channels,
    sample rate, bits), the byte offset of its data chunk, and the whole
    frames that chunk holds. An EXTENSIBLE file reports the tag of its
    subformat.

    Raises MalformedHeader when the RIFF structure is broken or the rate
    is zero, and UnsupportedFormat for an encoding not in SAMPLE_BYTES or
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
    if fmt_tag not in (WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT):
        raise UnsupportedFormat(f"{path}: format tag {fmt_tag} not supported")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{path}: {channels} channels not supported")
    if sample_rate == 0:
        raise MalformedHeader(f"{path}: zero sample rate")
    if (fmt_tag, bits) not in SAMPLE_BYTES:
        raise UnsupportedFormat(f"{path}: {bits}-bit samples with format tag {fmt_tag}")
    frames = length // (SAMPLE_BYTES[fmt_tag, bits] * channels)
    return pread, (fmt_tag, channels, sample_rate, bits), offset, frames


def wav_frames(path: str) -> tuple[int, int]:
    """(frames, sample rate) of the WAV file at path: len and sample_rate
    of the buffer read_wav would give, from the header alone. Raises what
    read_wav raises for the header: IoError, MalformedHeader,
    UnsupportedFormat. No sample is read, so float samples holding NaN
    or infinity raise nothing here."""

    def frames(fd: int) -> tuple[int, int]:
        _, (_, _, sample_rate, _), _, n = read_header(fd, path)
        return n, sample_rate

    return open_read(path, frames)


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
    riff, size, wave_id = struct.unpack_from("<4sI4s", head, 0)
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
    (_SIZE_UNKNOWN) runs to the end of the source."""
    _signature(path, _read_at(pread, 0, 12))
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= size:
        head = _read_at(pread, pos, 8)
        if len(head) < 8:  # the file shrank after it was sized
            raise MalformedHeader(f"{path}: chunk header extends past end of file")
        cid, csize = struct.unpack("<4sI", head)
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
