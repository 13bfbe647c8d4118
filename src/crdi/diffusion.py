"""Diffusion core: forward noising, x0 prediction, deterministic DDIM
stepping, score/noise conversion, and source-model training."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import binfmt
from .errors import FormatError, InvalidArgumentError, NumericError, ShapeError
from .numerics import AdamState, Mlp, RngStream, adam_step, gaussian, mlp_backward, mlp_forward
from .schedules import NoiseSchedule

TIME_EMBED_DIM = 32
MAX_T = 100_000   # bounds the (T + 1, TIME_EMBED_DIM) time table a checkpoint can ask for
_CHECKPOINT_MAGIC = b"CRDN"
_CHECKPOINT_VERSION = 1


def time_features(t, T: int) -> np.ndarray:
    """Sinusoidal embedding of t: 16 geometric frequencies spanning 1..T."""
    t = np.asarray(t, dtype=np.float64)
    freqs = np.geomspace(1.0, float(T), TIME_EMBED_DIM // 2)
    ang = np.multiply.outer(t, freqs) / float(T)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


@dataclass
class NoiseNet:
    """Noise-prediction network over (x_t, t); an MLP over [x, time features].

    ``time_table[t]`` is ``time_features(t, T)`` for every t in [0, T],
    built once and read-only.
    """

    backbone: Mlp
    d: int
    T: int
    frozen: bool = False
    time_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.T <= MAX_T:
            raise InvalidArgumentError(f"T={self.T} must be in [1, {MAX_T}]")
        table = time_features(np.arange(self.T + 1), self.T)
        table.flags.writeable = False
        self.time_table = table

    @classmethod
    def init(cls, d: int, T: int, hidden, stream: RngStream) -> "NoiseNet":
        widths = [d + TIME_EMBED_DIM, *hidden, d]
        return cls(backbone=Mlp.init(widths, stream), d=d, T=T)

    def freeze(self) -> "NoiseNet":
        self.frozen = True
        return self

    def param_checksum(self) -> str:
        return self.backbone.param_checksum()


def eps_theta(net: NoiseNet, x: np.ndarray, t) -> np.ndarray:
    """Predicted noise for state x at integer timestep(s) t in [0, T].
    Batched when x is 2-D; t is then one step or one step per row."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.d:
        raise ShapeError(f"state width {x.shape[-1]} != {net.d}")
    if isinstance(t, (int, np.integer)):
        in_range = 0 <= t <= net.T
    else:
        t = np.asarray(t)
        if t.dtype.kind not in "iu":
            raise InvalidArgumentError(f"timestep dtype {t.dtype} is not an integer type")
        in_range = t.size == 0 or (t.min() >= 0 and t.max() <= net.T)
    if not in_range:
        raise InvalidArgumentError(f"timestep outside [0, {net.T}]")
    feat = net.time_table[t]
    if x.ndim == 2 and feat.ndim == 1:
        feat = np.broadcast_to(feat, (x.shape[0], feat.shape[0]))
    return mlp_forward(net.backbone, np.concatenate([x, feat], axis=-1))


def noise_to(schedule: NoiseSchedule, x0: np.ndarray, t: int, eps: np.ndarray) -> np.ndarray:
    """Forward noising: sqrt(ab_t) x0 + sqrt(1-ab_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ShapeError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    if not (0 <= t <= schedule.T):
        raise InvalidArgumentError(f"t={t} outside [0, {schedule.T}]")
    return schedule.sqrt_ab(t) * x0 + schedule.sqrt_one_minus_ab(t) * eps


def predict_x0(schedule: NoiseSchedule, x_t: np.ndarray, t: int, eps_hat: np.ndarray) -> np.ndarray:
    """Direct x0 estimate from x_t and a noise prediction."""
    if t < 1:
        raise InvalidArgumentError("predict_x0 requires t >= 1")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if x_t.shape != eps_hat.shape:
        raise ShapeError(f"x_t shape {x_t.shape} != eps_hat shape {eps_hat.shape}")
    return (x_t - schedule.sqrt_one_minus_ab(t) * eps_hat) / schedule.sqrt_ab(t)


def ddim_step(schedule: NoiseSchedule, x_t: np.ndarray, t: int, t_prev: int,
              eps_hat: np.ndarray) -> np.ndarray:
    """Deterministic DDIM transition from timestep t to t_prev < t."""
    if t_prev >= t:
        raise InvalidArgumentError(f"t_prev={t_prev} must be < t={t}")
    return noise_to(schedule, predict_x0(schedule, x_t, t, eps_hat), t_prev, eps_hat)


def score_from_noise(schedule: NoiseSchedule, eps_hat: np.ndarray, t: int) -> np.ndarray:
    """Tweedie conversion: score = -eps_hat / sqrt(1 - ab_t)."""
    if t < 1:
        raise InvalidArgumentError("score conversion requires t >= 1")
    return -np.asarray(eps_hat, dtype=np.float64) / schedule.sqrt_one_minus_ab(t)


def noise_from_score(schedule: NoiseSchedule, score: np.ndarray, t: int) -> np.ndarray:
    """Exact inverse of score_from_noise."""
    if t < 1:
        raise InvalidArgumentError("score conversion requires t >= 1")
    return -np.asarray(score, dtype=np.float64) * schedule.sqrt_one_minus_ab(t)


@dataclass
class TrainConfig:
    steps: int = 4000
    batch: int = 128
    lr: float = 1e-3

    def __post_init__(self):
        if not self.lr > 0:
            raise InvalidArgumentError(f"learning rate lr must be > 0, got {self.lr}")


def train_source(net: NoiseNet, schedule: NoiseSchedule, dataset: np.ndarray,
                 config: TrainConfig, stream: RngStream):
    """Denoising-objective training on the source dataset.

    Minimizes E||eps - eps_theta(noise_to(x0, t, eps), t)||^2 over uniform
    t in [1, T]. Returns the per-step loss trace; the net is frozen on exit.
    """
    dataset = np.asarray(dataset, dtype=np.float64)
    if dataset.ndim != 2 or dataset.shape[0] == 0:
        raise InvalidArgumentError("dataset must be a non-empty (n, d) array")
    if dataset.shape[1] != net.d:
        raise ShapeError(f"dataset dim {dataset.shape[1]} != net.d {net.d}")
    if net.frozen:
        raise InvalidArgumentError("cannot train a frozen net")

    n = dataset.shape[0]
    params = net.backbone.parameters()
    state = AdamState.for_params(params)
    trace = np.zeros(config.steps)

    for step in range(config.steps):
        idx = (stream.uniform(config.batch) * n).astype(np.int64).clip(0, n - 1)
        t = 1 + (stream.uniform(config.batch) * schedule.T).astype(np.int64).clip(0, schedule.T - 1)
        x0 = dataset[idx]
        eps = gaussian(stream, (config.batch, net.d))
        x_t = schedule.sqrt_ab(t)[:, None] * x0 + schedule.sqrt_one_minus_ab(t)[:, None] * eps
        inp = np.concatenate([x_t, net.time_table[t]], axis=-1)
        tape = []
        pred = mlp_forward(net.backbone, inp, tape=tape)
        resid = pred - eps
        loss = float(np.mean(resid * resid))
        if not np.isfinite(loss):
            raise NumericError(f"non-finite training loss at step {step}")
        trace[step] = loss
        upstream = 2.0 * resid / resid.size
        grads, _ = mlp_backward(net.backbone, inp, upstream, tape=tape)
        params, state = adam_step(params, grads, state, config.lr)
        for i in range(len(net.backbone.weights)):
            net.backbone.weights[i] = params[2 * i]
            net.backbone.biases[i] = params[2 * i + 1]
    net.freeze()
    return net, trace


def save_checkpoint(path, net: NoiseNet):
    """CRDN format: magic, version, T, layer widths, params as LE float64."""
    widths = net.backbone.widths
    binfmt.write(path, _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION,
                 [net.T, len(widths), *widths], net.backbone.parameters())


def load_checkpoint(path) -> NoiseNet:
    """A frozen NoiseNet whose widths run from d + TIME_EMBED_DIM to d."""
    r = binfmt.Reader(path, _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, "checkpoint")
    T, nwidths = r.u32(2)
    if not 1 <= T <= MAX_T or nwidths < 2:
        raise FormatError(f"bad checkpoint header (T={T}, {nwidths} widths) at byte 8")
    widths = list(r.u32(nwidths, positive=True))
    if widths[0] != widths[-1] + TIME_EMBED_DIM:
        raise FormatError(f"checkpoint input width {widths[0]} at byte 16 != d + {TIME_EMBED_DIM}")
    params = [r.f64(s, finite=True) for a, b in zip(widths, widths[1:]) for s in ((a, b), (b,))]
    r.done()
    return NoiseNet(Mlp(widths, params[0::2], params[1::2]), d=widths[-1], T=T).freeze()
