"""Sample-wise Guidance Embedding: representation, guided-noise
composition, and the fitting loop with conditional relaxing and the
set-wise mean penalty.

The guidance enters the predicted noise linearly (the net is frozen), so
the loss gradient w.r.t. the active segment has a closed form; it is
still validated against finite differences in the test suite.
"""
from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import binfmt
from .diffusion import NoiseNet, eps_theta, noise_to, predict_x0
from .errors import FormatError, InvalidArgumentError, NumericError, ShapeError, check_choice
from .numerics import AdamState, RngStream, adam_step, gaussian
from .schedules import NoiseSchedule, RigidityMap, segment_for

_SGE_MAGIC = b"CRDS"
_SGE_VERSION = 1

# "coupled" draws one noise for both forward targets of a draw; "independent" two.
COUPLINGS = ("coupled", "independent")


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
             eps: np.ndarray, eps_prev: np.ndarray, g: np.ndarray,
             g_mean: np.ndarray, lam: float):
    """Reconstruction + mean-penalty loss for one (t, eps) draw.

    ``eps_net`` is the frozen net's prediction at the noised state,
    ``eps_theta(net, noise_to(schedule, x0, t, eps), t)``; it does not
    depend on g, and the guidance shifts it by -sqrt(1 - ab_t) * g.
    Returns (loss, grad) where grad is d loss / d g for the active segment
    vector g. Both forward targets sit on the noising ray defined by
    (eps, eps_prev).
    """
    a_t = schedule.sqrt_one_minus_ab(t)
    x_t = noise_to(schedule, x0, t, eps)
    eps_hat = eps_net - a_t * g
    x0_hat = predict_x0(schedule, x_t, t, eps_hat)
    d0 = x0_hat - x0
    dp = noise_to(schedule, x0_hat, t - 1, eps_hat) - noise_to(schedule, x0, t - 1, eps_prev)
    dg = g - g_mean
    loss = float(d0 @ d0 + dp @ dp + lam * (dg @ dg))
    if not np.isfinite(loss):
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


def fit_sge(net: NoiseNet, schedule: NoiseSchedule, targets, rmap: RigidityMap,
            config: SgeFitConfig, stream: RngStream) -> SgeSet:
    """Inversion loop: per iteration, every sample draws (t, eps) from its
    own stream, one net call predicts the noise at all N noised states, and
    each sample then updates only the active segment of its embedding. The
    samples do not interact within an iteration: the penalty mean refreshes
    at epoch boundaries."""
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
    mean = np.zeros((rmap.eta, d))   # penalty target, refreshed at epoch boundaries
    streams = [stream.child(f"sample{i}") for i in range(n)]
    # independent Adam moments per (sample, segment) slice
    adam = [[AdamState([np.zeros(d)], [np.zeros(d)]) for _ in range(rmap.eta)]
            for _ in range(n)]
    last_loss = [0.0] * n

    for _ in range(config.iterations):
        draws = []
        for st in streams:
            t = st.randint(t_lo, t_hi)
            eps = gaussian(st, (d,))
            draws.append((t, eps, eps if coupled else gaussian(st, (d,))))
        ts = np.array([t for t, _, _ in draws])
        noised = noise_to(schedule, targets, ts, np.stack([eps for _, eps, _ in draws]))
        eps_net = eps_theta(net, noised, ts)
        for i, (t, eps, eps_prev) in enumerate(draws):
            seg = segment_for(rmap, t)
            g = segments[i, seg]
            loss, grad = sge_loss(eps_net[i], schedule, targets[i], t, eps, eps_prev,
                                  g, mean[seg], config.lam)
            (new_g,), adam[i][seg] = adam_step([g], [grad], adam[i][seg], config.lr)
            segments[i, seg] = new_g
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
