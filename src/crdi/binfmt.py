"""Framing of the .crdt, .crdn and .crds artifacts: 4-byte magic, u32 version, u32 header
fields, float64 blocks, tail bytes; all little-endian. Reads are bounds-checked."""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError


def write_file(path, *chunks):
    """The one writer of every file crdi writes: unlinks path (never truncates it), then writes
    the chunks in order, bytes or contiguous arrays each from its own buffer."""
    Path(path).unlink(missing_ok=True)
    with open(path, "wb") as f:
        f.writelines(chunks)


def write(path, magic: bytes, version: int, header, blocks, tail: bytes = b""):
    write_file(path, magic + struct.pack(f"<{len(header) + 1}I", version, *header),
               *(np.ascontiguousarray(block, dtype="<f8") for block in blocks), tail)


class Reader:
    """Cursor over one artifact's bytes, placed after its magic and version."""

    def __init__(self, path, magic: bytes, version: int, what: str):
        self.blob = Path(path).read_bytes()
        self.what, self.off = what, 4
        if self.blob[:4] != magic:
            raise FormatError(f"bad {what} magic at byte 0: {self.blob[:4]!r}")
        if (found := self.u32(1)[0]) != version:
            raise FormatError(f"unsupported {what} version {found} at byte 4")

    def _take(self, size: int) -> int:
        if self.off + size > len(self.blob):
            raise FormatError(f"truncated {self.what}: {size} bytes needed at byte {self.off}")
        self.off += size
        return self.off - size

    def u32(self, n: int, positive: bool = False) -> tuple:
        """The next n header fields; sizes, when positive, must not be 0."""
        start = self._take(4 * n)
        values = struct.unpack_from(f"<{n}I", self.blob, start)
        if positive and 0 in values:
            raise FormatError(f"zero {self.what} size at byte {start + 4 * values.index(0)}")
        return values

    def f64(self, shape) -> np.ndarray:
        """The next float64 block, copied and checked finite; a Python-int size cannot overflow."""
        start = self._take(8 * math.prod(shape))
        block = np.frombuffer(self.blob, "<f8", math.prod(shape), start).reshape(shape)
        if not np.isfinite(block).all():
            raise FormatError(f"non-finite {self.what} values in the block at byte {start}")
        return block.copy()

    def rest(self) -> bytes:
        start, self.off = self.off, len(self.blob)
        return self.blob[start:]

    def done(self):
        if self.off != len(self.blob):
            raise FormatError(f"trailing bytes at offset {self.off} of {self.what}")
