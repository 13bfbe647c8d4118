"""Sample-wise Guidance Embedding: representation, guided-noise
composition, and the fitting loop with conditional relaxing and the
set-wise mean penalty.

The guidance enters the predicted noise linearly (the net is frozen), so
the loss gradient w.r.t. the active segment has a closed form; it is
still validated against finite differences in the test suite.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import binfmt
from .diffusion import NoiseNet, eps_theta, noise_to, predict_x0
from .errors import FormatError, InvalidArgumentError, NumericError, ShapeError, check_choice
from .numerics import RngStream, adam_step, box_muller, int_from_uniform
from .schedules import NoiseSchedule, RigidityMap, segment_for

_SGE_MAGIC = b"CRDS"
_SGE_VERSION = 1

# "coupled" draws one noise for both forward targets of a draw; "independent" two.
COUPLINGS = ("coupled", "independent")

# Iterations whose draws fit_sge takes from each sample's stream in one
# uniform call. A stream yields the same values in one call as in several,
# and a block of sprite draws stays well under 1 MB.
_FIT_BLOCK = 16


_Member = namedtuple("_Member", "segments meta")


@dataclass
class SgeSet:
    """The fitted embeddings of one few-shot target set: row i of
    ``segments`` holds sample i's eta segment vectors over the guided
    window of ``rmap``, and ``meta[i]`` its fit metadata."""

    segments: np.ndarray                # (N, eta, d)
    rmap: RigidityMap
    meta: list                          # one metadata dict per sample
    targets: np.ndarray | None = None   # (N, d) flattened targets, when known

    def __post_init__(self):
        self.segments = np.asarray(self.segments, dtype=np.float64)
        if self.segments.ndim != 3:
            raise ShapeError(f"segments must be (N, eta, d), got shape {self.segments.shape}")
        n, eta, _ = self.segments.shape
        if n < 1:
            raise InvalidArgumentError("need at least one sample")
        if eta != self.rmap.eta:
            raise ShapeError(f"segments hold {eta} segments, rigidity map has {self.rmap.eta}")
        if len(self.meta) != n:
            raise InvalidArgumentError(f"{len(self.meta)} metadata entries for {n} samples")

    @classmethod
    def zeros(cls, n: int, d: int, rmap: RigidityMap, targets=None) -> "SgeSet":
        return cls(np.zeros((n, rmap.eta, d)), rmap, [{} for _ in range(n)], targets)

    def __len__(self) -> int:
        return self.segments.shape[0]

    @property
    def mean_segments(self) -> np.ndarray:
        """Set-wise guidance: the per-segment arithmetic mean over samples."""
        return self.segments.mean(axis=0)

    @property
    def members(self) -> list:
        """One read-only (segments, meta) record per sample. Only the
        benchmark's artifact checks read this view; code indexes ``segments``
        and ``meta`` directly."""
        return [_Member(s, m) for s, m in zip(self.segments, self.meta)]


def guided_noise(net: NoiseNet, schedule: NoiseSchedule, x_t: np.ndarray,
                 t: int, g: np.ndarray) -> np.ndarray:
    """eps_theta(x_t, t) - sqrt(1 - ab_t) * g.

    Adding g to the score is the same as subtracting sqrt(1-ab_t)*g from
    the predicted noise.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape[-1] != net.d:
        raise ShapeError(f"guidance width {g.shape[-1]} != {net.d}")
    return eps_theta(net, x_t, t) - schedule.sqrt_one_minus_ab(t) * g


@dataclass
class SgeFitConfig:
    lam: float = 1.0
    lr: float = 1e-2
    iterations: int = 2000
    coupling: str = "coupled"

    def __post_init__(self):
        check_choice("coupling", self.coupling, COUPLINGS)
        if not self.lr > 0:
            raise InvalidArgumentError(f"learning rate lr must be > 0, got {self.lr}")
        if not self.lam >= 0:
            raise InvalidArgumentError(f"penalty weight lam must be >= 0, got {self.lam}")
        if self.iterations < 0:
            raise InvalidArgumentError(f"iterations must be >= 0, got {self.iterations}")


def sge_loss(eps_net: np.ndarray, schedule: NoiseSchedule, x0: np.ndarray, t: int,
             x_t: np.ndarray, x_prev: np.ndarray, g: np.ndarray,
             g_mean: np.ndarray, lam: float):
    """Reconstruction + mean-penalty loss for one (t, eps) draw.

    ``x_t`` is the noised state ``noise_to(schedule, x0, t, eps)`` and
    ``eps_net`` the frozen net's prediction there, ``eps_theta(net, x_t, t)``;
    it does not depend on g, and the guidance shifts it by
    -sqrt(1 - ab_t) * g. Returns (loss, grad) where grad is d loss / d g for
    the active segment vector g. The forward targets are x_t and ``x_prev``,
    the state ``noise_to(schedule, x0, t - 1, eps_prev)``; neither depends on g.
    """
    a_t = schedule.sqrt_one_minus_ab(t)
    eps_hat = eps_net - a_t * g
    x0_hat = predict_x0(schedule, x_t, t, eps_hat)
    d0 = x0_hat - x0
    dp = noise_to(schedule, x0_hat, t - 1, eps_hat) - x_prev
    dg = g - g_mean
    loss = float(d0 @ d0 + dp @ dp + lam * (dg @ dg))
    if not math.isfinite(loss):
        raise NumericError("non-finite SGE loss")

    # d eps_hat / d g = -a_t; chain through the two linear reconstructions
    dx0_dg = a_t * a_t / schedule.sqrt_ab(t)
    dxp_dg = schedule.sqrt_ab(t - 1) * dx0_dg - schedule.sqrt_one_minus_ab(t - 1) * a_t
    grad = 2.0 * d0 * dx0_dg + 2.0 * dp * dxp_dg + 2.0 * lam * dg
    return loss, grad


def fit_window(rmap: RigidityMap, schedule: NoiseSchedule) -> tuple:
    """(t_lo, t_hi): the timesteps fit_sge draws from, the guided window
    without t = 0. Its top must be a step of the schedule."""
    if rmap.t_hi > schedule.T:
        raise InvalidArgumentError(f"guidance window top {rmap.t_hi} above T = {schedule.T}")
    return max(rmap.t_lo, 1), rmap.t_hi


def _draw_block(streams, block: int, d: int, coupled: bool, t_lo: int, t_hi: int):
    """The draws of the next ``block`` fit iterations: (block, N) timesteps and
    (block, N, d) noises eps and eps_prev. Sample i's stream gives, iteration
    after iteration, t, then eps, then eps_prev unless coupled, in one
    uniform call."""
    per_noise = 2 * ((d + 1) // 2)                  # uniforms per Box-Muller noise vector
    width = 1 + per_noise * (1 if coupled else 2)   # uniforms per iteration
    u = np.stack([st.uniform(block * width).reshape(block, width) for st in streams], axis=1)
    eps = box_muller(u[..., 1:1 + per_noise], d)
    return (int_from_uniform(u[..., 0], t_lo, t_hi), eps,
            eps if coupled else box_muller(u[..., 1 + per_noise:], d))


def fit_sge(net: NoiseNet, schedule: NoiseSchedule, targets, rmap: RigidityMap,
            config: SgeFitConfig, stream: RngStream) -> SgeSet:
    """Inversion loop: per iteration, every sample draws (t, eps) from its
    own stream, one net call predicts the noise at all N noised states, and
    each sample then updates only the active segment of its embedding, in
    place; Adam's moments are (N, eta, d) arrays and its update counts an
    (N, eta) array. The samples do not interact within an iteration: the
    penalty mean refreshes after each iteration."""
    if not net.frozen:
        raise InvalidArgumentError("fit_sge requires a frozen net")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[0] == 0:
        raise InvalidArgumentError("targets must be a non-empty (N, d) array")
    n, d = targets.shape
    if d != net.d:
        raise ShapeError(f"target dim {d} != net.d {net.d}")

    t_lo, t_hi = fit_window(rmap, schedule)
    coupled = config.coupling == "coupled"
    segments = np.zeros((n, rmap.eta, d))
    mean = np.zeros((rmap.eta, d))   # penalty target, refreshed after each iteration
    streams = [stream.child(f"sample{i}") for i in range(n)]
    m, v = np.zeros_like(segments), np.zeros_like(segments)
    updates = np.zeros((n, rmap.eta), dtype=np.int64)
    last_loss = [0.0] * n

    for start in range(0, config.iterations, _FIT_BLOCK):
        ts, eps, eps_prev = _draw_block(streams, min(_FIT_BLOCK, config.iterations - start),
                                        d, coupled, t_lo, t_hi)
        for j in range(len(ts)):
            noised = noise_to(schedule, targets, ts[j], eps[j])
            prev = noise_to(schedule, targets, ts[j] - 1, eps_prev[j])
            eps_net = eps_theta(net, noised, ts[j])
            for i, t in enumerate(ts[j].tolist()):
                seg = segment_for(rmap, t)
                g = segments[i, seg]
                loss, grad = sge_loss(eps_net[i], schedule, targets[i], t, noised[i],
                                      prev[i], g, mean[seg], config.lam)
                updates[i, seg] += 1
                adam_step(g, grad, m[i, seg], v[i, seg], int(updates[i, seg]), config.lr)
                last_loss[i] = loss
            mean = segments.mean(axis=0)

    meta = [{"final_loss": loss, "iterations": config.iterations} for loss in last_loss]
    return SgeSet(segments, rmap, meta, targets.copy())


def save_sge(path, sge_set: SgeSet):
    """CRDS format: magic, version, N, eta, d, window, the (N, eta, d)
    segment floats in C order, then a trailing JSON list of per-sample
    metadata. The set-wise mean is not stored; it is computed on demand."""
    rmap = sge_set.rmap
    binfmt.write(path, _SGE_MAGIC, _SGE_VERSION, [*sge_set.segments.shape, rmap.t_lo, rmap.t_hi],
                 [sge_set.segments], json.dumps(sge_set.meta).encode("utf-8"))


def load_sge(path) -> SgeSet:
    """An SgeSet with a non-empty window, finite segments and one metadata dict per sample."""
    r = binfmt.Reader(path, _SGE_MAGIC, _SGE_VERSION, "SGE")
    if (n := r.u32(1)[0]) < 1:
        raise FormatError("SGE set holds no samples (N = 0 at byte 8)")
    eta, d = r.u32(2, positive=True)
    t_lo, t_hi = r.u32(2)
    if t_lo >= t_hi:
        raise FormatError(f"empty SGE window ({t_lo}, {t_hi}) at byte 20")
    segments = r.f64((n, eta, d), finite=True)
    end = r.off
    try:
        metas = json.loads(r.rest().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"bad SGE metadata block at byte {end}") from exc
    if not isinstance(metas, list) or [type(m) for m in metas] != [dict] * n:
        raise FormatError(f"SGE metadata at byte {end} is not a list of {n} entries (objects)")
    return SgeSet(segments, RigidityMap(eta=eta, t_lo=t_lo, t_hi=t_hi), metas)
