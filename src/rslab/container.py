"""Shared framing of rslab's binary containers: RSAM dumps, RSCK checkpoints
and RSDS datasets.

Layout (little-endian):

    magic (4 bytes) | u16 version | u32 record_count
    body: records, laid out by the owning format
    u32 trailer_len | trailer: JSON object, utf-8
    footer: u64 byte offset of the trailer_len field

Names inside records are u16-length-prefixed utf-8, and array payloads are
raw little-endian items. The footer must point at the trailer and end the
file. `Reader` raises a FormatError subclass, its message led by the file's
path, for every violation, so a corrupt file never surfaces as a decoding or
struct error; a float payload that holds NaN or infinity is one.

`Reader.extent` validates a payload as `Reader.array` does but returns only
its `Extent`, the payload's place in the file, whose `read` reads the
payload again with the same finite check. The file must stay unchanged
meanwhile: `Extent.read` raises FormatError when the file's device, inode,
size or modification time differ from those the `Reader` saw.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import BadMagicError, FormatError, ManifestError, TruncatedError, VersionError


def pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def write(path, magic: bytes, version: int, count: int, body: list, trailer: dict) -> None:
    """Frame `body` with header, trailer and footer.

    A body part is any C-contiguous buffer, byte strings and numpy arrays
    alike; arrays are written from their own memory, without a copy.
    """
    head = magic + struct.pack("<HI", version, count)
    tb = json.dumps(trailer, sort_keys=True).encode("utf-8")
    offset = len(head) + sum(memoryview(part).nbytes for part in body)
    with open(path, "wb") as fh:
        fh.writelines([head, *body, struct.pack("<I", len(tb)), tb, struct.pack("<Q", offset)])


def _stamp(fh) -> tuple:
    """What changes when an open file is rewritten, truncated or replaced."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _need(where: str, offset: int, nbytes: int, size: int) -> None:
    if offset + nbytes > size:
        raise TruncatedError(
            f"{where}: need {nbytes} bytes at offset {offset}, file has {size}"
        )


def _check_finite(out: np.ndarray, where: str, offset: int) -> None:
    # checked before the caller's cast, which warns on a signalling NaN
    if out.dtype.kind == "f" and not np.isfinite(out).all():
        raise FormatError(f"{where}: payload at offset {offset} holds NaN or infinity")


class Extent:
    """Where one payload that `Reader.extent` validated lies in its file:
    the `offset`, `dtype` and `shape` of the payload in the file at `path`,
    the file's `_stamp` when the Reader opened it, and the Reader's message
    prefix `where`."""

    def __init__(self, where: str, path: str, offset: int, dtype: str, shape: tuple, stamp: tuple):
        self.where, self.path, self.offset = where, path, offset
        self.dtype, self.shape, self.stamp = dtype, shape, stamp

    def read(self) -> np.ndarray:
        """The payload, read from the file again: a read-only array, checked
        finite. Raises FormatError if the file changed since the Reader."""
        nbytes = math.prod(self.shape) * np.dtype(self.dtype).itemsize
        with open(self.path, "rb") as fh:
            if _stamp(fh) != self.stamp:
                raise FormatError(f"{self.where}: file changed since it was read")
            fh.seek(self.offset)
            raw = fh.read(nbytes)
        _need(self.where, self.offset, nbytes, self.offset + len(raw))
        out = np.frombuffer(raw, dtype=self.dtype).reshape(self.shape)
        _check_finite(out, self.where, self.offset)
        return out


class Reader:
    """Bounds-checked cursor over one container file, positioned after the header."""

    def __init__(self, path, magic: bytes, version: int):
        with open(path, "rb") as fh:
            self.stamp = _stamp(fh)  # before the read, so a write during it shows
            self.buf = fh.read()
        self.path = os.path.abspath(path)  # an Extent outlives the caller's cwd
        self.pos = 0
        self.where = f"{path}: {magic.decode()}"  # every error message starts with it
        if self.take(len(magic)) != magic:
            raise BadMagicError(f"{path}: not an {magic.decode()} file")
        (found,) = self.unpack("<H")
        if found != version:
            raise VersionError(f"{self.where} version {found} is not supported")
        (self.count,) = self.unpack("<I")

    def take(self, nbytes: int) -> bytes:
        _need(self.where, self.pos, nbytes, len(self.buf))
        self.pos += nbytes
        return self.buf[self.pos - nbytes : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self) -> str:
        (length,) = self.unpack("<H")
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{self.where}: record name is not valid UTF-8: {exc}") from exc

    def array(self, dtype: str, shape) -> np.ndarray:
        """Read-only view of the next `shape` payload of `dtype` items, no copy."""
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        _need(self.where, self.pos, nbytes, len(self.buf))
        out = np.frombuffer(self.buf, dtype=dtype, count=count, offset=self.pos)
        _check_finite(out, self.where, self.pos)
        self.pos += nbytes
        try:
            return out.reshape(shape)
        except ValueError as exc:  # an empty payload whose shape numpy cannot index
            raise FormatError(f"{self.where}: payload shape {tuple(shape)} is invalid") from exc

    def extent(self, dtype: str, shape) -> Extent:
        """The `Extent` of the next `shape` payload of `dtype` items, which
        `array` checks, as it checks every payload; its bytes are not kept."""
        offset = self.pos
        self.array(dtype, shape)
        return Extent(self.where, self.path, offset, dtype, tuple(shape), self.stamp)

    def trailer(self) -> dict:
        """The JSON trailer, which must be the footer's target and end the file."""
        offset = self.pos
        (length,) = self.unpack("<I")
        try:
            doc = json.loads(self.take(length).decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ManifestError(f"{self.where}: trailer is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ManifestError(f"{self.where}: trailer must be a JSON object")
        (footer,) = self.unpack("<Q")
        if footer != offset:
            raise ManifestError(
                f"{self.where}: footer offset {footer} does not point at the trailer ({offset})"
            )
        if self.pos != len(self.buf):
            raise ManifestError(f"{self.where}: {len(self.buf) - self.pos} trailing bytes after footer")
        return doc
