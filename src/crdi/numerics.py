"""Deterministic numeric substrate: seeded RNG streams, a small MLP with
hand-rolled reverse-mode gradients, and an Adam update.

Everything is float64 and deterministic: same inputs (including RNG state)
give bit-identical outputs; ``adam_step`` updates its arrays in place.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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
        return int(int_from_uniform(self.uniform(1)[0], lo, hi))


def int_from_uniform(u, lo: int, hi: int):
    """Integers in [lo, hi] inclusive from uniforms u in [0, 1), elementwise."""
    return lo + np.minimum((np.asarray(u) * (hi - lo + 1)).astype(np.int64), hi - lo)


def box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """n standard normals per row from the last axis of u, which holds
    2 * ((n + 1) // 2) uniforms: the radii come from the first half, the
    angles from the second."""
    m = (n + 1) // 2
    # 1 - u keeps the argument of log strictly positive
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., :m]))
    # each term scales the angles itself: keeping one angle array alive
    # through both made gaussian((128, 256)) about 7% slower
    return np.concatenate([r * np.cos(2.0 * np.pi * u[..., m:]),
                           r * np.sin(2.0 * np.pi * u[..., m:])], axis=-1)[..., :n]


def gaussian(stream: RngStream, shape) -> np.ndarray:
    """i.i.d. standard normal draws via Box-Muller."""
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s < 1 for s in shape):
        raise InvalidArgumentError(f"invalid gaussian shape {shape}")
    n = int(np.prod(shape))
    return box_muller(stream.uniform(2 * ((n + 1) // 2)), n).reshape(shape)


# Below x = -709.78, exp(-x) overflows to inf, which gives silu and its
# gradient their exact limits (-0); the overflow is expected, not reported.
# Both are written in terms of e = 1 + exp(-x), which the forward pass keeps
# on its tape so that the backward pass needs no second exp.

def _silu_denominator(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 + np.exp(-x)


def _silu_grad_from(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """SiLU's derivative at x, given e = 1 + exp(-x)."""
    s = 1.0 / e
    return s * (1.0 + x * (1.0 - s))


def silu(x: np.ndarray) -> np.ndarray:
    return x / _silu_denominator(x)


def silu_grad(x: np.ndarray) -> np.ndarray:
    """SiLU's derivative; kept public as the tests' reference for the tape's."""
    return _silu_grad_from(x, _silu_denominator(x))


@dataclass
class Mlp:
    """Fully connected net: SiLU on hidden layers, identity output.

    ``params``, one float64 vector in checkpoint order (``layer_views``),
    is the only storage of the parameters: ``weights[i]``, of shape
    (widths[i], widths[i+1]), and ``biases[i]`` are views of it. Inputs are
    row vectors or (batch, width) matrices.
    """

    widths: list
    params: np.ndarray
    weights: tuple = field(init=False, repr=False, compare=False)
    biases: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.widths = list(self.widths)
        views = layer_views(self.widths, self.params)
        self.weights, self.biases = tuple(views[0::2]), tuple(views[1::2])

    @classmethod
    def init(cls, widths, stream: RngStream) -> "Mlp":
        net = cls.zeros(widths)
        for w in net.weights:
            w[...] = np.sqrt(2.0 / w.shape[0]) * gaussian(stream, w.shape)
        return net

    @classmethod
    def zeros(cls, widths) -> "Mlp":
        return cls(widths, np.zeros(_param_count(widths)))

    def parameters(self) -> list:
        """The interleaved (W, b) views of ``params``, layer by layer."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def param_checksum(self) -> str:
        return hashlib.sha256(self.params.tobytes()).hexdigest()


def _param_count(widths) -> int:
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise InvalidArgumentError(f"bad layer widths {list(widths)}")
    return sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))


def layer_views(widths, flat: np.ndarray) -> list:
    """The parameters of an MLP with these widths as views of one flat
    float64 vector, interleaved (W, b) per layer as ``Mlp.parameters()``
    orders them and a checkpoint stores them."""
    n = _param_count(widths)
    if flat.dtype != np.float64 or flat.shape != (n,):
        raise ShapeError(f"flat parameters of shape {flat.shape} and dtype {flat.dtype} "
                         f"are not the ({n},) float64 vector of widths {list(widths)}")
    views, off = [], 0
    for a, b in zip(widths[:-1], widths[1:]):
        views.append(flat[off:off + a * b].reshape(a, b))
        views.append(flat[off + a * b:off + a * b + b])
        off += a * b + b
    return views


def mlp_forward(net: Mlp, x: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Forward evaluation; accepts a vector or a (batch, width) matrix.

    When ``tape`` is a list, one (layer input, pre-activation z, e) triple
    per layer is appended to it, where e = 1 + exp(-z), SiLU's denominator,
    on hidden layers and None on the output layer; ``mlp_backward`` reads
    the pass from it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.widths[0]:
        raise ShapeError(f"input width {x.shape[-1]} != {net.widths[0]}")
    h, tape = x, [] if tape is None else tape
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ w
        z += b
        e = _silu_denominator(z)
        tape.append((h, z, e))
        h = z / e
    z = h @ net.weights[-1]
    z += net.biases[-1]
    tape.append((h, z, None))
    if not np.isfinite(z).all():
        raise NumericError("mlp_forward produced non-finite values")
    return z


def mlp_backward(net: Mlp, x: np.ndarray, upstream: np.ndarray, tape: list,
                 out: np.ndarray) -> None:
    """Gradients of <upstream, output> w.r.t. the parameters, written into
    ``out``, a float64 vector shaped like ``net.params``: each dW and db
    into its view of ``out`` (``layer_views``). Batched inputs sum them
    over the batch.

    ``tape`` is the one filled by ``mlp_forward(net, x, tape)`` on the same
    weights; SiLU's derivative comes from its 1 + exp(-z), not from a
    second exp. No gradient w.r.t. the input is formed.
    """
    shape = np.shape(x)
    upstream = np.asarray(upstream, dtype=np.float64)
    if shape[-1] != net.widths[0]:
        raise ShapeError(f"input width {shape[-1]} != {net.widths[0]}")
    if upstream.shape != shape[:-1] + (net.widths[-1],):
        raise ShapeError(f"upstream shape {upstream.shape} incompatible with output")
    if len(tape) != len(net.weights) or np.shape(tape[0][0]) != shape:
        raise ShapeError(f"tape of {len(tape)} layers does not match a "
                         f"{len(net.weights)}-layer net on input {shape}")
    param_grads = layer_views(net.widths, out)

    delta = np.atleast_2d(upstream)
    for i in range(len(net.weights) - 1, -1, -1):
        h, z, e = tape[i]
        if e is not None:
            delta = delta * _silu_grad_from(z, e)
        np.matmul(np.atleast_2d(h).T, delta, out=param_grads[2 * i])
        np.sum(delta, axis=0, out=param_grads[2 * i + 1])
        if i:
            delta = delta @ net.weights[i].T


# Adam's moment decay rates and denominator guard (Kingma & Ba's values).
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
              lr: float) -> None:
    """One Adam update, in place, of the array p (a net's ``params``, or one
    embedding segment) and of the caller's moments m and v, in the order of
    operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p = p - lr (m / c1) / (sqrt(v / c2) + eps). ``t`` is the 1-based count of
    updates p has had, this one included. A rejected step writes nothing.
    """
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient")
    if not p.shape == g.shape == m.shape == v.shape:
        raise ShapeError(f"shapes differ: p {p.shape}, g {g.shape}, moments {m.shape}, {v.shape}")
    if t < 1:
        raise InvalidArgumentError(f"update count t must be >= 1, got {t}")
    c1, c2 = 1.0 - _BETA1 ** t, 1.0 - _BETA2 ** t
    m *= _BETA1
    tmp = (1.0 - _BETA1) * g
    m += tmp
    v *= _BETA2
    np.multiply(1.0 - _BETA2, g, out=tmp)
    tmp *= g
    v += tmp
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += _EPS
    step = np.divide(m, c1)
    step *= lr
    step /= tmp
    p -= step
