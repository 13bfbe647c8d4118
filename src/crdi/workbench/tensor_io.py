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
    tensor = r.f64(r.u32(rank, positive=True), finite=True)
    r.done()
    return tensor


def write_grid(path, images, columns: int):
    """Montage of equally shaped grayscale images as a binary PGM with
    1-pixel separators; values clamped to [0, 1] then scaled to 255.
    Clamping is flagged in a sidecar `.note` file, which a write that
    clamps nothing removes."""
    images = [np.asarray(im, dtype=np.float64) for im in images]
    if not images:
        raise InvalidArgumentError("empty image set")
    if columns < 1:
        raise InvalidArgumentError("columns must be >= 1")
    shape = images[0].shape
    if any(im.shape != shape for im in images):
        raise InvalidArgumentError("all images must share one shape")

    clamped = any(im.min() < 0.0 or im.max() > 1.0 for im in images)
    h, w = shape
    rows = (len(images) + columns - 1) // columns
    gh = rows * h + (rows - 1)
    gw = columns * w + (columns - 1)
    grid = np.zeros((gh, gw))
    for i, im in enumerate(images):
        r, c = divmod(i, columns)
        grid[r * (h + 1):r * (h + 1) + h, c * (w + 1):c * (w + 1) + w] = \
            np.clip(im, 0.0, 1.0)
    pixels = np.round(grid * 255.0).astype(np.uint8)
    binfmt.write_file(path, f"P5\n{gw} {gh}\n255\n".encode("ascii"), pixels)
    note = Path(str(path) + ".note")
    note.unlink(missing_ok=True)
    if clamped:
        binfmt.write_file(note, b"values clamped to [0, 1]\n")
