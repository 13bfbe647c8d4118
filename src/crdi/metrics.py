"""Evaluation battery: SSIM, mode-coverage SSIM, Frechet distance over
configurable features, and intra-cluster pairwise diversity."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError, ShapeError, check_choice
from .numerics import RngStream, gaussian

# SSIM's stabilising constants (K1 L)^2 and (K2 L)^2 for the dynamic range L = 1
_C1, _C2 = 0.01 ** 2, 0.03 ** 2
_WINDOW, _SIGMA = 11, 1.5

FEATURES = ("identity", "pixels", "random-projection")
DIRECTIONS = ("per-target", "per-generated")

_NOTE = "feature extractors are desk-scale substitutes; values are internally comparable only"


@dataclass(frozen=True)
class FeatureExtractor:
    """Deterministic feature map standing in for a perception network.

    kinds: "identity" (points), "pixels" (flattened images),
    "random-projection" (seeded Gaussian projection to `dim`).
    """

    kind: str = "identity"
    dim: int = 32
    seed: int = 0

    def __post_init__(self):
        check_choice("feature kind", self.kind, FEATURES)
        if self.dim < 1:
            raise InvalidArgumentError(f"feature dim must be >= 1, got {self.dim}")

    def __call__(self, samples: np.ndarray) -> np.ndarray:
        x = np.asarray(samples, dtype=np.float64)
        flat = x.reshape(x.shape[0], -1)
        if self.kind != "random-projection":
            return flat
        proj = gaussian(RngStream(self.seed, "feature-projection"),
                        (flat.shape[1], self.dim)) / np.sqrt(flat.shape[1])
        return flat @ proj


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    k = np.exp(-0.5 * (ax / sigma) ** 2)
    k2 = np.outer(k, k)
    return k2 / k2.sum()


_KERNEL = _gaussian_kernel(_WINDOW, _SIGMA)   # SSIM's window weights, built once
_KERNEL.flags.writeable = False


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity; global statistics below 16px, otherwise an
    11-wide Gaussian-windowed local map averaged over the image."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")

    if a.ndim == 1 or min(a.shape) < 16:
        mu_a, mu_b = a.mean(), b.mean()
        va, vb = a.var(), b.var()
        cov = ((a - mu_a) * (b - mu_b)).mean()
        return float(((2 * mu_a * mu_b + _C1) * (2 * cov + _C2)) /
                     ((mu_a ** 2 + mu_b ** 2 + _C1) * (va + vb + _C2)))

    # The five window moments in one batched matmul, one gemv per moment; a
    # single (5M, 121) gemv would round the remainder rows differently.
    w = sliding_window_view(np.stack([a, b, a * a, b * b, a * b]), (_WINDOW, _WINDOW),
                            axis=(1, 2))
    mu_a, mu_b, ea, eb, eab = w.reshape(5, -1, _WINDOW * _WINDOW) @ _KERNEL.reshape(-1)
    va, vb = ea - mu_a ** 2, eb - mu_b ** 2
    cov = eab - mu_a * mu_b
    local = ((2 * mu_a * mu_b + _C1) * (2 * cov + _C2)) / \
            ((mu_a ** 2 + mu_b ** 2 + _C1) * (va + vb + _C2))
    return float(local.mean())


def check_top_n(n: int, direction: str, generated: int, targets: int):
    """InvalidArgumentError unless n is in [1, pool size], where mc_ssim's pool
    is the generated set for "per-target" and the targets for "per-generated"."""
    check_choice("direction", direction, DIRECTIONS)
    pool = generated if direction == "per-target" else targets
    if not (1 <= n <= pool):
        raise InvalidArgumentError(f"n={n} outside [1, {pool}]")


def mc_ssim(generated, targets, n: int, direction: str = "per-target") -> float:
    """Mode-coverage SSIM: mean of the top-n match scores.

    "per-target" averages, for each target, its n best matches among the
    generated set; "per-generated" swaps the roles.
    """
    generated = [np.asarray(g, dtype=np.float64) for g in generated]
    targets = [np.asarray(t, dtype=np.float64) for t in targets]
    if not generated or not targets:
        raise InvalidArgumentError("both sets must be non-empty")
    check_top_n(n, direction, len(generated), len(targets))
    pool, anchors = (generated, targets) if direction == "per-target" \
        else (targets, generated)
    scores = []
    for y in anchors:
        vals = sorted((ssim(g, y) for g in pool), reverse=True)
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


def intra_diversity(generated, targets, extractor: FeatureExtractor,
                    images: bool = False):
    """Mean pairwise distance of unit-normalized features inside each
    target-assigned cluster, averaged over non-empty clusters.

    Returns (value, degenerate) where degenerate flags the all-singleton
    case (value 0).
    """
    generated = np.asarray(generated, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape[0] < 1 or generated.shape[0] < 2:
        raise InvalidArgumentError("need >= 1 target and >= 2 generated samples")

    feats = extractor(generated)
    if images:
        assign = np.array([int(np.argmax([ssim(g, y) for y in targets]))
                           for g in generated])
    else:
        feat_t = extractor(targets)
        dists = np.linalg.norm(feats[:, None, :] - feat_t[None, :, :], axis=-1)
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
        diff = np.linalg.norm(members[:, None, :] - members[None, :, :], axis=-1)
        iu = np.triu_indices(m, k=1)
        cluster_vals.append(float(diff[iu].mean()))
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
