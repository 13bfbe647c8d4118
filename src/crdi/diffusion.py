"""Diffusion core: forward noising, x0 prediction, deterministic DDIM
stepping, score/noise conversion, and source-model training."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import binfmt
from .errors import FormatError, InvalidArgumentError, NumericError, ShapeError
from .numerics import (Mlp, RngStream, adam_step, box_muller, box_muller_uniforms,
                       int_from_uniform, mlp_backward, mlp_forward, param_count)
from .schedules import NoiseSchedule, check_steps

TIME_EMBED_DIM = 32
MAX_T = 100_000   # bounds the (T + 1, TIME_EMBED_DIM) time table a checkpoint can ask for
_CHECKPOINT_MAGIC = b"CRDN"
_CHECKPOINT_VERSION = 1
# train_source takes the draws of up to _TRAIN_BLOCK steps from its stream in
# one uniform call, and no more than _TRAIN_BLOCK_UNIFORMS unless a single
# step needs more: 16 steps of a 128-row ring batch, one of a sprite batch,
# so a block of sprite draws is no larger than one step's.
_TRAIN_BLOCK = 16
_TRAIN_BLOCK_UNIFORMS = 2 ** 15


def time_features(t, T: int) -> np.ndarray:
    """Sinusoidal embedding of t: 16 geometric frequencies spanning 1..T."""
    t = np.asarray(t, dtype=np.float64)
    freqs = np.geomspace(1.0, float(T), TIME_EMBED_DIM // 2)
    ang = np.multiply.outer(t, freqs) / float(T)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


@dataclass
class NoiseNet:
    """Noise-prediction network over (x_t, t); an MLP over [x, time features],
    whose output width is the state width ``d``. ``time_table[t]`` is
    ``time_features(t, T)`` for every t in [0, T], built once and read-only.
    """

    backbone: Mlp
    T: int
    frozen: bool = field(init=False, default=False)   # set by freeze()
    time_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (w := self.backbone.widths)[0] != w[-1] + TIME_EMBED_DIM:
            raise ShapeError(f"backbone input width {w[0]} != d + {TIME_EMBED_DIM}, d = {w[-1]}")
        if not 1 <= self.T <= MAX_T:
            raise InvalidArgumentError(f"T={self.T} must be in [1, {MAX_T}]")
        table = time_features(np.arange(self.T + 1), self.T)
        table.flags.writeable = False
        self.time_table = table

    @property
    def d(self) -> int:
        return self.backbone.widths[-1]

    @classmethod
    def init(cls, d: int, T: int, hidden, stream: RngStream) -> "NoiseNet":
        widths = [d + TIME_EMBED_DIM, *hidden, d]
        return cls(backbone=Mlp.init(widths, stream), T=T)

    def freeze(self) -> "NoiseNet":
        self.frozen = True
        return self

    def param_checksum(self) -> str:
        return self.backbone.param_checksum()


def eps_theta(net: NoiseNet, x: np.ndarray, t) -> np.ndarray:
    """Predicted noise for state x at integer timestep(s) t in [0, T].
    Batched when x is 2-D; t is then one step or one step per row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.d:
        raise ShapeError(f"state of shape {x.shape} is not ({net.d},) or (m, {net.d})")
    feat = net.time_table[check_steps(t, net.T, x)]
    if x.ndim == 2 and feat.ndim == 1:
        feat = np.broadcast_to(feat, (x.shape[0], feat.shape[0]))
    return mlp_forward(net.backbone, np.concatenate([x, feat], axis=-1))


def _operands(schedule: NoiseSchedule, x, t, y, lo: int = 0):
    """x and y as float arrays of one shape, and (sqrt(ab_t), sqrt(1-ab_t))
    with t checked: one step, or for a 2-D x one step per row, as columns."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"state shape {x.shape} != noise shape {y.shape}")
    t = check_steps(t, schedule.T, x, lo)
    a, b = schedule.sqrt_ab(t), schedule.sqrt_one_minus_ab(t)
    if isinstance(t, np.ndarray):   # one step per row
        a, b = a[:, None], b[:, None]
    return x, y, a, b


def noise_to(schedule: NoiseSchedule, x0: np.ndarray, t, eps: np.ndarray) -> np.ndarray:
    """Forward noising: sqrt(ab_t) x0 + sqrt(1-ab_t) eps. t is one integer
    step, or for a 2-D x0 an integer array with one step per row."""
    x0, eps, a, b = _operands(schedule, x0, t, eps)
    return a * x0 + b * eps


def predict_x0(schedule: NoiseSchedule, x_t: np.ndarray, t, eps_hat: np.ndarray) -> np.ndarray:
    """Direct x0 estimate from x_t and a noise prediction. t is one step in
    [1, T], or for a 2-D x_t an integer array with one step per row."""
    x_t, eps_hat, a, b = _operands(schedule, x_t, t, eps_hat, lo=1)
    return (x_t - b * eps_hat) / a


def ddim_step(schedule: NoiseSchedule, x_t: np.ndarray, t: int, t_prev: int,
              eps_hat: np.ndarray) -> np.ndarray:
    """Deterministic DDIM transition from timestep t to t_prev < t."""
    if t_prev >= check_steps(t, schedule.T, lo=1):
        raise InvalidArgumentError(f"t_prev={t_prev} must be < t={t}")
    return noise_to(schedule, predict_x0(schedule, x_t, t, eps_hat), t_prev, eps_hat)


def score_from_noise(schedule: NoiseSchedule, eps_hat: np.ndarray, t: int) -> np.ndarray:
    """Tweedie conversion: score = -eps_hat / sqrt(1 - ab_t), for t in [1, T]."""
    t = check_steps(t, schedule.T, lo=1)
    return -np.asarray(eps_hat, dtype=np.float64) / schedule.sqrt_one_minus_ab(t)


def noise_from_score(schedule: NoiseSchedule, score: np.ndarray, t: int) -> np.ndarray:
    """Exact inverse of score_from_noise."""
    t = check_steps(t, schedule.T, lo=1)
    return -np.asarray(score, dtype=np.float64) * schedule.sqrt_one_minus_ab(t)


@dataclass
class TrainConfig:
    steps: int = 4000
    batch: int = 128
    lr: float = 1e-3

    def __post_init__(self):
        if self.steps < 0:
            raise InvalidArgumentError(f"steps must be >= 0, got {self.steps}")
        if self.batch < 1:
            raise InvalidArgumentError(f"batch must be >= 1, got {self.batch}")
        if not self.lr > 0:
            raise InvalidArgumentError(f"learning rate lr must be > 0, got {self.lr}")


def train_source(net: NoiseNet, schedule: NoiseSchedule, dataset: np.ndarray,
                 config: TrainConfig, stream: RngStream):
    """Denoising-objective training on the source dataset.

    Minimizes E||eps - eps_theta(noise_to(x0, t, eps), t)||^2 over uniform
    t in [1, T]. Returns the per-step loss trace; the net is frozen on exit.

    Each step's backward pass reads the forward pass's tape and writes the
    parameter gradients, and no input gradient, into one buffer shaped like
    the net's ``params`` vector; one in-place ``adam_step`` then updates the
    whole vector, so the net holds one vector from init to checkpoint. The
    stream gives each step's draws in the order batch indices,
    timesteps, noise, taken for a block of steps in one uniform call.
    """
    dataset = np.asarray(dataset, dtype=np.float64)
    if dataset.ndim != 2 or dataset.shape[0] == 0:
        raise InvalidArgumentError("dataset must be a non-empty (n, d) array")
    if dataset.shape[1] != net.d:
        raise ShapeError(f"dataset dim {dataset.shape[1]} != net.d {net.d}")
    if net.frozen:
        raise InvalidArgumentError("cannot train a frozen net")

    n, batch, mlp = dataset.shape[0], config.batch, net.backbone
    grad = np.empty_like(mlp.params)
    m, v = np.zeros_like(grad), np.zeros_like(grad)
    trace = np.zeros(config.steps)
    width = 2 * batch + box_muller_uniforms(batch * net.d)   # uniforms per step
    block = min(_TRAIN_BLOCK, max(1, _TRAIN_BLOCK_UNIFORMS // width))

    for start in range(0, config.steps, block):
        steps = min(block, config.steps - start)
        u = stream.uniform(steps * width).reshape(steps, width)
        idx = int_from_uniform(u[:, :batch], 0, n - 1)
        ts = int_from_uniform(u[:, batch:2 * batch], 1, schedule.T)
        noise = box_muller(u[:, 2 * batch:], batch * net.d).reshape(steps, batch, net.d)
        for j in range(steps):
            t, eps = ts[j], noise[j]
            x_t = noise_to(schedule, dataset[idx[j]], t, eps)
            inp = np.concatenate([x_t, net.time_table[t]], axis=-1)
            tape = []
            resid = mlp_forward(mlp, inp, tape=tape) - eps
            loss = float(np.mean(resid * resid))
            if not math.isfinite(loss):
                raise NumericError(f"non-finite training loss at step {start + j}")
            trace[start + j] = loss
            mlp_backward(mlp, 2.0 * resid / resid.size, tape, grad)
            adam_step(mlp.params, grad, m, v, start + j + 1, config.lr)
    net.freeze()
    return net, trace


def save_checkpoint(path, net: NoiseNet):
    """CRDN format: magic, version, T, layer widths, ``params`` as one LE float64 block."""
    widths = net.backbone.widths
    binfmt.write(path, _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION,
                 [net.T, len(widths), *widths], [net.backbone.params])


def load_checkpoint(path) -> NoiseNet:
    """A frozen NoiseNet, widths d + TIME_EMBED_DIM to d, whose ``params`` is the file's block."""
    r = binfmt.Reader(path, _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, "checkpoint")
    T, nwidths = r.u32(2)
    if not 1 <= T <= MAX_T or nwidths < 2:
        raise FormatError(f"bad checkpoint header (T={T}, {nwidths} widths) at byte 8")
    widths = list(r.u32(nwidths, positive=True))
    if widths[0] != widths[-1] + TIME_EMBED_DIM:
        raise FormatError(f"checkpoint input width {widths[0]} at byte 16 != d + {TIME_EMBED_DIM}")
    params = r.f64((param_count(widths),))
    r.done()
    return NoiseNet(Mlp(widths, params), T=T).freeze()
