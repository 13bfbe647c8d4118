"""Sample-wise Guidance Embedding: representation, guided-noise
composition, and the fitting loop with conditional relaxing and the
set-wise mean penalty.

The guidance enters the predicted noise linearly (the net is frozen), so
the loss gradient w.r.t. the active segment has a closed form; it is
still validated against finite differences in the test suite.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .diffusion import NoiseNet, eps_theta, noise_to
from .errors import FormatError, InvalidArgumentError, NumericError, ShapeError
from .numerics import AdamState, RngStream, adam_step, gaussian
from .schedules import NoiseSchedule, RigidityMap, segment_for

_SGE_MAGIC = b"CRDS"
_SGE_VERSION = 1


@dataclass
class Sge:
    """Per-sample guidance: eta segment vectors over the guided window."""

    segments: np.ndarray          # (eta, d)
    rmap: RigidityMap
    sample_id: int
    meta: dict = field(default_factory=dict)

    def lookup(self, t: int) -> np.ndarray:
        return self.segments[segment_for(self.rmap, t)]


@dataclass
class SgeSet:
    """The fitted embeddings of one few-shot target set plus their mean."""

    members: list                 # list[Sge], shared rigidity map
    rmap: RigidityMap
    mean_segments: np.ndarray     # (eta, d)
    targets: np.ndarray | None = None   # (N, d) flattened targets, when known

    @classmethod
    def zeros(cls, n: int, d: int, rmap: RigidityMap, targets=None) -> "SgeSet":
        if n < 1:
            raise InvalidArgumentError("need at least one sample")
        members = [Sge(np.zeros((rmap.eta, d)), rmap, i) for i in range(n)]
        return cls(members, rmap, np.zeros((rmap.eta, d)), targets)

    def refresh_mean(self):
        self.mean_segments = np.mean([m.segments for m in self.members], axis=0)


def mean_sge(sge_set: SgeSet) -> Sge:
    """Set-wise guidance: the per-segment arithmetic mean of all members."""
    if not sge_set.members:
        raise InvalidArgumentError("empty SgeSet")
    seg = np.mean([m.segments for m in sge_set.members], axis=0)
    return Sge(seg, sge_set.rmap, sample_id=-1, meta={"kind": "mean"})


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
    lr: float = 1e-2
    iterations: int = 2000
    lam: float = 1.0
    coupling: str = "coupled"     # or "independent"


def sge_loss(net: NoiseNet, schedule: NoiseSchedule, x0: np.ndarray, t: int,
             eps: np.ndarray, eps_prev: np.ndarray, g: np.ndarray,
             g_mean: np.ndarray, lam: float):
    """Reconstruction + mean-penalty loss for one (t, eps) draw.

    Returns (loss, grad) where grad is d loss / d g for the active segment
    vector g. Both forward targets sit on the noising ray defined by
    (eps, eps_prev); the net itself carries no gradient (frozen).
    """
    a_t = schedule.sqrt_one_minus_ab(t)
    r_t = schedule.sqrt_ab(t)
    a_p = schedule.sqrt_one_minus_ab(t - 1)
    r_p = schedule.sqrt_ab(t - 1)

    x_t = noise_to(schedule, x0, t, eps)
    x_prev = noise_to(schedule, x0, t - 1, eps_prev)
    eps_hat = eps_theta(net, x_t, t) - a_t * g
    x0_hat = (x_t - a_t * eps_hat) / r_t
    x_prev_hat = r_p * x0_hat + a_p * eps_hat

    d0 = x0_hat - x0
    dp = x_prev_hat - x_prev
    dg = g - g_mean
    loss = float(d0 @ d0 + dp @ dp + lam * (dg @ dg))
    if not np.isfinite(loss):
        raise NumericError("non-finite SGE loss")

    # d eps_hat / d g = -a_t; chain through the two linear reconstructions
    dx0_dg = a_t * a_t / r_t
    dxp_dg = r_p * dx0_dg - a_p * a_t
    grad = 2.0 * d0 * dx0_dg + 2.0 * dp * dxp_dg + 2.0 * lam * dg
    return loss, grad


def fit_sge(net: NoiseNet, schedule: NoiseSchedule, targets, rmap: RigidityMap,
            config: SgeFitConfig, stream: RngStream) -> SgeSet:
    """Inversion loop: per iteration and per sample, draw (t, eps), relax
    the noisy state, and update only the active segment of that sample's
    embedding. The penalty mean refreshes at epoch boundaries."""
    if not net.frozen:
        raise InvalidArgumentError("fit_sge requires a frozen net")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[0] == 0:
        raise InvalidArgumentError("targets must be a non-empty (N, d) array")
    n, d = targets.shape
    if d != net.d:
        raise ShapeError(f"target dim {d} != net.d {net.d}")

    sge_set = SgeSet.zeros(n, d, rmap, targets=targets.copy())
    t_lo = max(rmap.t_lo, 1)
    t_hi = rmap.t_hi
    streams = [stream.child(f"sample{i}") for i in range(n)]
    # independent Adam moments per (sample, segment) slice
    adam = [[AdamState([np.zeros(d)], [np.zeros(d)]) for _ in range(rmap.eta)]
            for _ in range(n)]
    last_loss = [0.0] * n

    for _ in range(config.iterations):
        for i in range(n):
            st = streams[i]
            t = st.randint(t_lo, t_hi)
            eps = gaussian(st, (d,))
            eps_prev = eps if config.coupling == "coupled" else gaussian(st, (d,))
            seg = segment_for(rmap, t)
            g = sge_set.members[i].segments[seg]
            g_mean = sge_set.mean_segments[seg]
            loss, grad = sge_loss(net, schedule, targets[i], t, eps, eps_prev,
                                  g, g_mean, config.lam)
            (new_g,), adam[i][seg] = adam_step([g], [grad], adam[i][seg], config.lr)
            sge_set.members[i].segments[seg] = new_g
            last_loss[i] = loss
        sge_set.refresh_mean()

    for i, m in enumerate(sge_set.members):
        m.meta = {"final_loss": last_loss[i], "iterations": config.iterations}
    return sge_set


def save_sge(path, sge_set: SgeSet):
    """CRDS format: magic, version, N, eta, d, window, segment floats,
    then a trailing JSON metadata block."""
    n = len(sge_set.members)
    eta, d = sge_set.mean_segments.shape
    with open(path, "wb") as f:
        f.write(_SGE_MAGIC)
        f.write(struct.pack("<IIIIII", _SGE_VERSION, n, eta, d,
                            sge_set.rmap.t_lo, sge_set.rmap.t_hi))
        for m in sge_set.members:
            f.write(np.ascontiguousarray(m.segments, dtype="<f8").tobytes())
        f.write(json.dumps([m.meta for m in sge_set.members]).encode("utf-8"))


def load_sge(path) -> SgeSet:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _SGE_MAGIC:
        raise FormatError(f"bad SGE magic at byte 0: {blob[:4]!r}")
    off = 4
    try:
        version, n, eta, d, t_lo, t_hi = struct.unpack_from("<IIIIII", blob, off)
    except struct.error as exc:
        raise FormatError(f"truncated SGE header at byte {off}") from exc
    off += 24
    if version != _SGE_VERSION:
        raise FormatError(f"unsupported SGE version {version} at byte 4")
    if n < 1:
        raise FormatError("SGE set holds no samples (N = 0 at byte 8)")
    rmap = RigidityMap(eta=eta, t_lo=t_lo, t_hi=t_hi)
    members = []
    for i in range(n):
        count = eta * d
        if off + 8 * count > len(blob):
            raise FormatError(f"truncated SGE payload at byte {off}")
        seg = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(eta, d)
        off += 8 * count
        members.append(Sge(seg.copy(), rmap, i))
    try:
        metas = json.loads(blob[off:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad SGE metadata block at byte {off}") from exc
    if not isinstance(metas, list) or len(metas) != n:
        raise FormatError(f"SGE metadata block at byte {off} is not a list of {n} entries")
    for m, meta in zip(members, metas):
        m.meta = meta
    out = SgeSet(members, rmap, np.zeros((eta, d)))
    out.refresh_mean()
    return out
