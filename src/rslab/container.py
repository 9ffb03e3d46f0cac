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
"""
from __future__ import annotations

import json
import math
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


class Reader:
    """Bounds-checked cursor over one container file, positioned after the header."""

    def __init__(self, path, magic: bytes, version: int):
        with open(path, "rb") as fh:
            self.buf = fh.read()
        self.pos = 0
        self.where = f"{path}: {magic.decode()}"  # every error message starts with it
        if self.take(len(magic)) != magic:
            raise BadMagicError(f"{path}: not an {magic.decode()} file")
        (found,) = self.unpack("<H")
        if found != version:
            raise VersionError(f"{self.where} version {found} is not supported")
        (self.count,) = self.unpack("<I")

    def _need(self, nbytes: int) -> None:
        if self.pos + nbytes > len(self.buf):
            raise TruncatedError(
                f"{self.where}: need {nbytes} bytes at offset {self.pos}, "
                f"file has {len(self.buf)}"
            )

    def take(self, nbytes: int) -> bytes:
        self._need(nbytes)
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
        self._need(nbytes)
        out = np.frombuffer(self.buf, dtype=dtype, count=count, offset=self.pos)
        # checked before the caller's cast, which warns on a signalling NaN
        if out.dtype.kind == "f" and not np.isfinite(out).all():
            raise FormatError(f"{self.where}: payload at offset {self.pos} holds NaN or infinity")
        self.pos += nbytes
        try:
            return out.reshape(shape)
        except ValueError as exc:  # an empty payload whose shape numpy cannot index
            raise FormatError(f"{self.where}: payload shape {tuple(shape)} is invalid") from exc

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
