"""Deterministic numeric substrate: seeded RNG streams, a small MLP with
hand-rolled reverse-mode gradients, and an Adam update.

Everything is float64 and pure: same inputs (including RNG state) give
bit-identical outputs.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError, ShapeError


def _stream_key(seed: int, purpose_tag: str) -> int:
    """Derive a 128-bit PRNG key from (seed, purpose_tag)."""
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(8, "little", signed=False))
    h.update(purpose_tag.encode("utf-8"))
    return int.from_bytes(h.digest()[:16], "little")


class RngStream:
    """A named, seeded random stream.

    Identical (seed, purpose_tag) pairs replay the same sequence; distinct
    purpose tags give independent streams. Gaussian draws use Box-Muller
    over the uniform stream so the mapping is portable.
    """

    def __init__(self, seed: int, purpose_tag: str = ""):
        if seed < 0:
            raise InvalidArgumentError("seed must be non-negative")
        if seed >= 2**64:
            raise InvalidArgumentError(f"seed {seed} does not fit in 64 bits")
        self.seed = int(seed)
        self.purpose_tag = purpose_tag
        self.counter = 0
        self._gen = np.random.Generator(np.random.PCG64(_stream_key(seed, purpose_tag)))

    def child(self, tag: str) -> "RngStream":
        """Independent sub-stream keyed by an extended purpose tag."""
        return RngStream(self.seed, f"{self.purpose_tag}/{tag}")

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1); advances the counter by n."""
        self.counter += n
        return self._gen.random(n)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise InvalidArgumentError(f"empty integer range [{lo}, {hi}]")
        u = self.uniform(1)[0]
        return lo + min(int(u * (hi - lo + 1)), hi - lo)


def gaussian(stream: RngStream, shape) -> np.ndarray:
    """i.i.d. standard normal draws via Box-Muller."""
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s < 1 for s in shape):
        raise InvalidArgumentError(f"invalid gaussian shape {shape}")
    n = int(np.prod(shape))
    m = (n + 1) // 2
    # 1 - u keeps the argument of log strictly positive
    u1 = 1.0 - stream.uniform(m)
    u2 = stream.uniform(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


@dataclass
class Mlp:
    """Fully connected net: SiLU on hidden layers, identity output.

    ``weights[i]`` has shape (widths[i], widths[i+1]); inputs are row
    vectors or (batch, width) matrices.
    """

    widths: list
    weights: list
    biases: list

    @classmethod
    def init(cls, widths, stream: RngStream) -> "Mlp":
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise InvalidArgumentError(f"bad layer widths {widths}")
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(scale * gaussian(stream, (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(list(widths), weights, biases)

    @classmethod
    def zeros(cls, widths) -> "Mlp":
        weights = [np.zeros((a, b)) for a, b in zip(widths[:-1], widths[1:])]
        biases = [np.zeros(b) for b in widths[1:]]
        return cls(list(widths), weights, biases)

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def param_checksum(self) -> str:
        h = hashlib.sha256()
        for p in self.parameters():
            h.update(np.ascontiguousarray(p).tobytes())
        return h.hexdigest()


def _forward(net: Mlp, x: np.ndarray, tape: list) -> np.ndarray:
    """Layer loop shared by mlp_forward and mlp_backward; appends one
    (layer input, pre-activation) pair per layer to ``tape``."""
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        tape.append((h, z))
        h = silu(z) if i != last else z
    return h


def mlp_forward(net: Mlp, x: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Forward evaluation; accepts a vector or a (batch, width) matrix.

    When ``tape`` is a list, each layer's input and pre-activation are
    appended to it, so that ``mlp_backward`` can reuse this pass instead of
    recomputing it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.widths[0]:
        raise ShapeError(f"input width {x.shape[-1]} != {net.widths[0]}")
    h = _forward(net, x, [] if tape is None else tape)
    if not np.all(np.isfinite(h)):
        raise NumericError("mlp_forward produced non-finite values")
    return h


def mlp_backward(net: Mlp, x: np.ndarray, upstream: np.ndarray,
                 tape: list | None = None):
    """Gradients of <upstream, output> w.r.t. parameters and input.

    Returns (param_grads, input_grad) where param_grads interleaves
    (dW, db) per layer in declaration order. Batched inputs sum the
    parameter gradients over the batch. ``tape`` is the one filled by
    ``mlp_forward(net, x, tape)`` on the same weights; without it the
    forward pass is recomputed.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if x.shape[-1] != net.widths[0]:
        raise ShapeError(f"input width {x.shape[-1]} != {net.widths[0]}")
    if upstream.shape != x.shape[:-1] + (net.widths[-1],):
        raise ShapeError(f"upstream shape {upstream.shape} incompatible with output")
    if tape is None:
        tape = []
        _forward(net, x, tape)
    elif len(tape) != len(net.weights) or np.shape(tape[0][0]) != x.shape:
        raise ShapeError(f"tape of {len(tape)} layers does not match a "
                         f"{len(net.weights)}-layer net on input {x.shape}")
    squeeze = x.ndim == 1

    last = len(net.weights) - 1
    param_grads = [None] * (2 * len(net.weights))
    delta = np.atleast_2d(upstream)
    for i in range(last, -1, -1):
        h, z = tape[i]
        if i != last:
            delta = delta * silu_grad(z)
        param_grads[2 * i] = np.atleast_2d(h).T @ delta
        param_grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
    input_grad = delta[0] if squeeze else delta
    return param_grads, input_grad


@dataclass
class AdamState:
    """First/second moment accumulators plus the bias-correction step."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


# Adam's moment decay rates and denominator guard (Kingma & Ba's values).
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(params, grads, state: AdamState, lr: float):
    """One Adam update. Mutates nothing; returns (new_params, new_state)."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params/grads/state length mismatch")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient at parameter index {i}")
        if g.shape != params[i].shape:
            raise ShapeError(f"gradient shape mismatch at index {i}")
    t = state.t + 1
    new_p, new_m, new_v = [], [], []
    c1, c2 = 1.0 - _BETA1 ** t, 1.0 - _BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = _BETA1 * m + (1.0 - _BETA1) * g
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        p = p - lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
        new_p.append(p)
        new_m.append(m)
        new_v.append(v)
    return new_p, AdamState(new_m, new_v, t)
