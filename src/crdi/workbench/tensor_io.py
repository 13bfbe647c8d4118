"""On-disk artifact formats: CRDT tensors and PGM sample grids."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import binfmt
from ..errors import FormatError, InvalidArgumentError

_TENSOR_MAGIC = b"CRDT"
_TENSOR_VERSION = 1


def write_tensor(path, tensor: np.ndarray):
    """CRDT format: magic, version u32, rank u32, dims u32, LE float64."""
    t = np.asarray(tensor, dtype=np.float64)
    if t.ndim == 0 or t.size == 0:
        raise FormatError(f"tensors of shape {t.shape} are not representable")
    binfmt.write(path, _TENSOR_MAGIC, _TENSOR_VERSION, [t.ndim, *t.shape], [t])


def read_tensor(path) -> np.ndarray:
    """A CRDT tensor; its rank and every dimension must be at least 1, and
    every value finite."""
    r = binfmt.Reader(path, _TENSOR_MAGIC, _TENSOR_VERSION, "tensor")
    (rank,) = r.u32(1, positive=True)
    tensor = r.f64(r.u32(rank, positive=True))
    r.done()
    return tensor


def write_grid(path, images, columns: int):
    """Montage of an (n, h, w) array of grayscale images as a binary PGM
    with 1-pixel separators; values clamped to [0, 1] then scaled to 255.
    Clamping is flagged in a sidecar `.note` file, which a write that
    clamps nothing removes."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3 or not len(images):
        raise InvalidArgumentError(f"images must be a non-empty (n, h, w) array, got {images.shape}")
    if columns < 1:
        raise InvalidArgumentError("columns must be >= 1")
    n, h, w = images.shape
    rows = -(-n // columns)
    # image i fills the top-left of tile i, (h + 1, w + 1) pixels whose rest is separator
    tiles = np.zeros((rows * columns, h + 1, w + 1))
    tiles[:n, :h, :w] = np.clip(images, 0.0, 1.0)
    grid = tiles.reshape(rows, columns, h + 1, w + 1).swapaxes(1, 2)
    grid = grid.reshape(rows * (h + 1), columns * (w + 1))[:-1, :-1]
    pixels = np.round(grid * 255.0).astype(np.uint8)
    binfmt.write_file(path, b"P5\n%d %d\n255\n" % grid.shape[::-1], pixels)
    note = Path(str(path) + ".note")
    note.unlink(missing_ok=True)
    if images.min() < 0.0 or images.max() > 1.0:
        binfmt.write_file(note, b"values clamped to [0, 1]\n")
