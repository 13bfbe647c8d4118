"""Synthetic source/target domain generators."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError
from ..numerics import RngStream, gaussian


@dataclass(frozen=True)
class DomainSpec:
    """One synthetic data domain: its kind and every parameter of that kind."""

    kind: str                      # ring-of-gaussians | two-moons | sprite-images
    params: tuple = ()             # sorted (key, value) pairs; hashable
    seed: int = 0

    @classmethod
    def make(cls, kind: str, seed: int = 0, **params) -> "DomainSpec":
        """The spec with the kind's defaults for every parameter not given."""
        if kind not in KINDS:
            raise InvalidArgumentError(f"unknown domain kind {kind!r}")
        defaults = KINDS[kind][1]
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise InvalidArgumentError(f"domain kind {kind!r} takes no parameter "
                                       f"{', '.join(unknown)}; it takes {', '.join(defaults)}")
        return cls(kind=kind, params=tuple(sorted({**defaults, **params}.items())), seed=seed)


def _ring(count, stream, *, components, radius, rotation, center_x, center_y, noise_std):
    modes = (stream.uniform(count) * components).astype(np.int64).clip(0, components - 1)
    ang = rotation + 2.0 * np.pi * modes / components
    centers = np.stack([center_x + radius * np.cos(ang), center_y + radius * np.sin(ang)], axis=1)
    return centers + noise_std * gaussian(stream, (count, 2))


def _two_moons(count, stream, *, noise_std, scale):
    upper = stream.uniform(count) < 0.5
    theta = np.pi * stream.uniform(count)
    x = np.where(upper, np.cos(theta), 1.0 - np.cos(theta))
    y = np.where(upper, np.sin(theta), 0.5 - np.sin(theta))
    pts = scale * np.stack([x, y], axis=1)
    return pts + noise_std * gaussian(stream, (count, 2))


def _sprites(count, stream, *, size, bar, bar_row, bar_intensity):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    out = np.zeros((count, size, size))
    for i in range(count):
        u = stream.uniform(4)
        cx = size / 2 - 2 + 4 * u[0]
        cy = size / 2 - 2 + 4 * u[1]
        r = 3.0 + 2.0 * u[2]
        bright = 0.6 + 0.4 * u[3]
        # soft-edged disc keeps the images differentiable-looking at 16px
        dist = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
        img = bright * np.clip(r + 0.5 - dist, 0.0, 1.0)
        if bar:
            img[bar_row:bar_row + 2, :] = bar_intensity
        out[i] = np.clip(img, 0.0, 1.0)
    return out


# kind -> (generator, its parameters with their defaults). The config's
# [source] and [target] sections hold the union of these, in this order.
KINDS = {
    "ring-of-gaussians": (_ring, {"components": 8, "radius": 2.0, "rotation": 0.0,
                                  "center_x": 0.0, "center_y": 0.0, "noise_std": 0.1}),
    "two-moons": (_two_moons, {"noise_std": 0.1, "scale": 1.5}),
    "sprite-images": (_sprites, {"size": 16, "bar": False, "bar_row": 11,
                                 "bar_intensity": 0.9}),
}


def synth_domain(spec: DomainSpec, count: int, stream: RngStream | None = None) -> np.ndarray:
    """Deterministic dataset for a domain spec. Points come back (n, 2);
    sprite images (n, size, size) with values in [0, 1]."""
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    if spec.kind not in KINDS:
        raise InvalidArgumentError(f"unknown domain kind {spec.kind!r}")
    if stream is None:
        stream = RngStream(spec.seed, f"domain/{spec.kind}")
    return KINDS[spec.kind][0](count, stream, **dict(spec.params))


def flatten(samples: np.ndarray) -> np.ndarray:
    return np.asarray(samples).reshape(samples.shape[0], -1)


def sample_shape(spec: DomainSpec):
    """Shape of a single sample for this domain."""
    if spec.kind == "sprite-images":
        size = dict(spec.params)["size"]
        return (size, size)
    return (2,)
