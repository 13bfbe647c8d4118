"""Evaluation battery: SSIM, mode-coverage SSIM, Frechet distance over the
flat sample rows, and intra-cluster pairwise diversity."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidArgumentError, ShapeError

# SSIM's stabilising constants (K1 L)^2 and (K2 L)^2 for the dynamic range L = 1
_C1, _C2 = 0.01 ** 2, 0.03 ** 2
_WINDOW, _SIGMA = 11, 1.5

_NOTE = ("features are the flat sample rows, a desk-scale substitute for a perception "
         "network; values are internally comparable only")


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    k = np.exp(-0.5 * (ax / sigma) ** 2)
    k2 = np.outer(k, k)
    return k2 / k2.sum()


_KERNEL = _gaussian_kernel(_WINDOW, _SIGMA)   # SSIM's window weights, built once
_KERNEL.flags.writeable = False


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity; global statistics if the first two axes are not
    both 16px or more, else an 11-wide Gaussian-windowed map over them, averaged."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")

    if a.ndim == 1 or min(a.shape[:2]) < 16:
        mu_a, mu_b = a.mean(), b.mean()
        va, vb = a.var(), b.var()
        cov = ((a - mu_a) * (b - mu_b)).mean()
        return float(((2 * mu_a * mu_b + _C1) * (2 * cov + _C2)) /
                     ((mu_a ** 2 + mu_b ** 2 + _C1) * (va + vb + _C2)))

    # The five window moments in one batched matmul, one gemv per moment; a
    # single (5M, 121) gemv would round the remainder rows differently. The
    # maps are written in place and their 11 x 11 windows over the first two
    # image axes are a strided view over them, the view sliding_window_view
    # gives: np.stack and sliding_window_view cost more per call than the
    # products.
    maps = np.empty((5, *a.shape))
    maps[0], maps[1] = a, b
    np.multiply(a, a, out=maps[2])
    np.multiply(b, b, out=maps[3])
    np.multiply(a, b, out=maps[4])
    strides = maps.strides
    w = np.ndarray((5, a.shape[0] - _WINDOW + 1, a.shape[1] - _WINDOW + 1, *a.shape[2:],
                    _WINDOW, _WINDOW), np.float64, maps, strides=(*strides, *strides[1:3]))
    mu_a, mu_b, ea, eb, eab = w.reshape(5, -1, _WINDOW * _WINDOW) @ _KERNEL.reshape(-1)
    va, vb = ea - mu_a ** 2, eb - mu_b ** 2
    cov = eab - mu_a * mu_b
    local = ((2 * mu_a * mu_b + _C1) * (2 * cov + _C2)) / \
            ((mu_a ** 2 + mu_b ** 2 + _C1) * (va + vb + _C2))
    return float(local.mean())


def check_top_n(n: int, generated: int):
    """InvalidArgumentError unless n is in [1, generated], mc_ssim's pool size."""
    if not (1 <= n <= generated):
        raise InvalidArgumentError(f"n={n} outside [1, {generated}]")


def mc_ssim(generated, targets, n: int) -> float:
    """Mode-coverage SSIM: for each target, the mean of its n best SSIM
    matches among the generated set, averaged over the targets."""
    generated = [np.asarray(g, dtype=np.float64) for g in generated]
    targets = [np.asarray(t, dtype=np.float64) for t in targets]
    if not generated or not targets:
        raise InvalidArgumentError("both sets must be non-empty")
    check_top_n(n, len(generated))
    scores = []
    for y in targets:
        vals = sorted((ssim(g, y) for g in generated), reverse=True)
        scores.append(float(np.mean(vals[:n])))
    return float(np.mean(scores))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet(features_a: np.ndarray, features_b: np.ndarray) -> float:
    """2-Wasserstein distance between Gaussians fitted to each feature set.

    The cross term uses the symmetric square root of S1^(1/2) S2 S1^(1/2)
    with eigenvalues clamped at zero; a small ridge keeps near-singular
    covariances well conditioned.
    """
    fa = np.atleast_2d(np.asarray(features_a, dtype=np.float64))
    fb = np.atleast_2d(np.asarray(features_b, dtype=np.float64))
    if fa.ndim == 2 and fa.shape[1] != fb.shape[1]:
        raise ShapeError(f"feature dims differ: {fa.shape[1]} vs {fb.shape[1]}")
    if fa.shape[0] < 2 or fb.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 samples per side")
    mu1, mu2 = fa.mean(axis=0), fb.mean(axis=0)
    k = fa.shape[1]
    ridge = 1e-6 * np.eye(k)
    s1 = np.cov(fa, rowvar=False).reshape(k, k) + ridge
    s2 = np.cov(fb, rowvar=False).reshape(k, k) + ridge
    root1 = _psd_sqrt(s1)
    inner = root1 @ s2 @ root1
    cross = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)))
    d = float(np.sum((mu1 - mu2) ** 2) + np.trace(s1) + np.trace(s2) - 2.0 * cross)
    return max(d, 0.0)


def intra_diversity(generated, targets):
    """Mean pairwise distance of the unit-normalized flat sample rows inside
    each target-assigned cluster, averaged over non-empty clusters.

    A sample joins the target of highest SSIM when it is an image, that is
    when ``generated`` has more than two axes, else the nearest target.
    Returns (value, degenerate) where degenerate flags the all-singleton
    case (value 0).
    """
    generated = np.asarray(generated, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape[0] < 1 or generated.shape[0] < 2:
        raise InvalidArgumentError("need >= 1 target and >= 2 generated samples")

    feats = generated.reshape(generated.shape[0], -1)
    if generated.ndim > 2:
        assign = np.array([int(np.argmax([ssim(g, y) for y in targets]))
                           for g in generated])
    else:
        flat_t = targets.reshape(targets.shape[0], -1)
        dists = np.linalg.norm(feats[:, None, :] - flat_t[None, :, :], axis=-1)
        assign = np.argmin(dists, axis=1)

    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    feats = feats / np.where(norms > 0, norms, 1.0)

    cluster_vals = []
    any_pair = False
    for c in np.unique(assign):
        members = feats[assign == c]
        m = members.shape[0]
        if m < 2:
            cluster_vals.append(0.0)
            continue
        any_pair = True
        # the upper triangle row by row: O(m d) memory where an (m, m, d)
        # difference array took O(m^2 d), with the same values in the same order
        dists = [np.linalg.norm(members[i] - members[i + 1:], axis=-1) for i in range(m - 1)]
        cluster_vals.append(float(np.concatenate(dists).mean()))
    value = float(np.mean(cluster_vals)) if cluster_vals else 0.0
    return value, (not any_pair)


@dataclass
class MetricsReport:
    """Bundle of evaluation results for one run."""

    ssim_per_pair: list = field(default_factory=list)
    mc_ssim: float | None = None
    frechet: float | None = None
    intra_diversity: float | None = None
    degenerate_clusters: bool = False
    config: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"note": _NOTE, **asdict(self)}

    def to_csv_row(self) -> dict:
        mean_ssim = float(np.mean(self.ssim_per_pair)) if self.ssim_per_pair else ""
        return {
            "mean_ssim": mean_ssim,
            "mc_ssim": "" if self.mc_ssim is None else self.mc_ssim,
            "frechet": "" if self.frechet is None else self.frechet,
            "intra_diversity": "" if self.intra_diversity is None else self.intra_diversity,
        }
