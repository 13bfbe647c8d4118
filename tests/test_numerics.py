"""Numeric substrate: RNG streams, the MLP, reverse-mode gradients, Adam."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdi import numerics
from crdi.errors import InvalidArgumentError, NumericError, ShapeError
from crdi.numerics import (Mlp, RngStream, adam_step, gaussian, layer_views,
                           mlp_backward, mlp_forward, silu)


def silu_grad(x):
    """SiLU's derivative from a fresh exp, the reference for the one the
    tape forms from its stored 1 + exp(-x); exp(-x) overflows to inf below
    x = -709.78, which gives the exact limit -0."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


# ---------------------------------------------------------------- RngStream

def test_same_seed_and_tag_replays():
    a = gaussian(RngStream(7, "fit"), (4,))
    b = gaussian(RngStream(7, "fit"), (4,))
    np.testing.assert_array_equal(a, b)


def test_distinct_tags_decorrelate():
    a = gaussian(RngStream(7, "fit"), (1000,))
    b = gaussian(RngStream(7, "sample"), (1000,))
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_child_streams_differ_from_parent():
    parent = RngStream(3, "root")
    a = parent.child("x").uniform(100)
    b = parent.child("y").uniform(100)
    assert not np.array_equal(a, b)
    # re-derived child replays
    np.testing.assert_array_equal(a, RngStream(3, "root").child("x").uniform(100))


def test_negative_seed_rejected():
    with pytest.raises(InvalidArgumentError):
        RngStream(-1)


def test_seed_above_64_bits_rejected():
    RngStream(2**64 - 1)
    with pytest.raises(InvalidArgumentError, match="64 bits"):
        RngStream(2**64)


def test_randint_inclusive_bounds():
    s = RngStream(11, "ints")
    draws = [s.randint(2, 5) for _ in range(2000)]
    assert min(draws) == 2 and max(draws) == 5
    with pytest.raises(InvalidArgumentError):
        s.randint(5, 2)


def test_gaussian_moments_large_sample():
    # law-of-large-numbers check at a fixed seed
    z = gaussian(RngStream(123, "lln"), (100_000,))
    assert -0.02 < z.mean() < 0.02
    assert 0.96 < z.var() < 1.04


def _two_call_gaussian(stream, shape):
    """Box-Muller as two uniform calls, radii then angles: the reference
    gaussian must match in value and stream position."""
    n = int(np.prod(shape))
    m = (n + 1) // 2
    u1 = 1.0 - stream.uniform(m)
    u2 = stream.uniform(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


@pytest.mark.parametrize("shape", [(1,), (7,), (8,), (257,), (256,), (3, 5), (4, 4), (2, 3, 3)])
def test_gaussian_matches_two_call_box_muller(shape):
    new, ref = RngStream(21, "bm"), RngStream(21, "bm")
    z = gaussian(new, shape)
    assert z.shape == shape
    assert z.tobytes() == _two_call_gaussian(ref, shape).tobytes()
    assert new.uniform(3).tobytes() == ref.uniform(3).tobytes()


def test_gaussian_empty_shape_rejected():
    with pytest.raises(InvalidArgumentError):
        gaussian(RngStream(0), ())
    with pytest.raises(InvalidArgumentError):
        gaussian(RngStream(0), (0, 3))


# ---------------------------------------------------------------- Mlp forward

def test_zero_net_zero_output():
    net = Mlp.zeros([3, 5, 2])
    out = mlp_forward(net, np.array([1.0, -2.0, 3.0]))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_identity_single_layer():
    net = Mlp.zeros([4, 4])
    net.weights[0][...] = np.eye(4)
    x = np.array([0.5, -1.5, 2.0, 0.0])
    np.testing.assert_array_equal(mlp_forward(net, x), x)


def test_silu_saturates_without_overflow_warning():
    # exp(800) overflows; the pytest filter turns any RuntimeWarning into a failure
    x = np.array([-800.0, -709.0, -3.5, 0.0, 2.25])
    out, grad = silu(x), silu_grad(x)
    assert out[0] == 0.0 and grad[0] == 0.0
    finite = x[1:]
    s = 1.0 / (1.0 + np.exp(-finite))
    np.testing.assert_array_equal(out[1:], finite / (1.0 + np.exp(-finite)))
    np.testing.assert_array_equal(grad[1:], s * (1.0 + finite * (1.0 - s)))

    # through the tape: the hidden pre-activations reach -800 and +800
    net = Mlp.zeros([1, 3, 1])
    net.weights[0][...] = [[800.0, -800.0, 1.0]]
    net.biases[0][...] = [0.0, 0.0, -0.5]
    net.weights[1][...] = [[1.0], [2.0], [-3.0]]
    net.biases[1][...] = [0.25]
    x = np.array([[1.0], [-1.0], [0.25]])
    up = np.array([[0.5], [-1.5], [2.0]])
    tape = []
    out = mlp_forward(net, x, tape=tape)
    grads = _tape_backward(net, x, up, tape)
    z = x @ net.weights[0] + net.biases[0]
    assert z.min() == -800.0 and z.max() == 800.0
    h = silu(z)
    delta = (up @ net.weights[1].T) * silu_grad(z)
    ref = [x.T @ delta, delta.sum(axis=0), h.T @ up, up.sum(axis=0)]
    assert out.tobytes() == (h @ net.weights[1] + net.biases[1]).tobytes()
    for g, r in zip(grads, ref, strict=True):
        assert g.tobytes() == r.tobytes()


def test_forward_matches_manual_recurrence():
    net = Mlp.init([3, 7, 5, 2], RngStream(5, "net"))
    x = gaussian(RngStream(5, "probe"), (3,))
    h = silu(x @ net.weights[0] + net.biases[0])
    h = silu(h @ net.weights[1] + net.biases[1])
    h = h @ net.weights[2] + net.biases[2]
    np.testing.assert_allclose(mlp_forward(net, x), h, rtol=0, atol=1e-14)


def test_forward_batched_equals_rowwise():
    net = Mlp.init([4, 8, 3], RngStream(1, "net"))
    xb = gaussian(RngStream(1, "batch"), (6, 4))
    batched = mlp_forward(net, xb)
    rows = np.stack([mlp_forward(net, row) for row in xb])
    # BLAS matrix-matrix and matrix-vector kernels may differ at ULP level
    np.testing.assert_allclose(batched, rows, rtol=0, atol=1e-12)


def test_forward_width_mismatch():
    net = Mlp.zeros([3, 2])
    with pytest.raises(ShapeError):
        mlp_forward(net, np.zeros(4))


def test_bad_widths_rejected():
    with pytest.raises(InvalidArgumentError):
        Mlp.init([3], RngStream(0))
    with pytest.raises(InvalidArgumentError):
        Mlp.init([3, 0, 2], RngStream(0))


def test_param_checksum_tracks_values():
    net = Mlp.init([2, 4, 2], RngStream(9, "net"))
    before = net.param_checksum()
    assert before == net.param_checksum()
    net.weights[0][0, 0] += 1.0
    assert before != net.param_checksum()


def test_parameters_are_views_of_one_vector():
    net = Mlp.init([34, 8, 2], RngStream(0, "init"))
    # pinned: the init's draws, their order and the layout of params
    assert net.param_checksum() == \
        "430ef7c1e3745b6f125207e37507037a6742435242e68fdf6e133b86a1d83bad"
    assert net.params.shape == (34 * 8 + 8 + 8 * 2 + 2,)
    views = [*net.weights, *net.biases]
    assert all(np.shares_memory(p, net.params) for p in views)
    assert net.parameters() == [net.weights[0], net.biases[0], net.weights[1], net.biases[1]]
    assert [p.tobytes() for p in layer_views(net.widths, net.params)] == \
        [p.tobytes() for p in net.parameters()]
    before = net.param_checksum()
    net.weights[1][3, 1] = 0.5
    assert net.params[34 * 8 + 8 + 3 * 2 + 1] == 0.5
    assert net.param_checksum() != before
    with pytest.raises(ShapeError, match="flat parameters"):
        Mlp([34, 8, 2], net.params[:-1])


# ---------------------------------------------------------------- gradients

def _tape_backward(net, x, up, tape=None):
    """mlp_backward's parameter gradients as the views of its ``out`` buffer,
    on ``tape`` or else on a tape from a fresh forward pass."""
    if tape is None:
        tape = []
        mlp_forward(net, x, tape=tape)
    out = np.full(net.params.size, np.nan)
    assert mlp_backward(net, up, tape, out) is None
    return layer_views(net.widths, out)


def recomputing_backward(mlp, x, upstream):
    """Parameter gradients as mlp_backward formed them before the SiLU tape
    and the flat gradient buffer, for a (batch, width) x: the forward pass
    recomputed with silu, SiLU's derivative from silu_grad, one new array
    per gradient."""
    inputs, pre, h = [], [], x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w + b
        inputs.append(h)
        pre.append(z)
        h = silu(z) if i != last else z
    grads = [None] * (2 * len(mlp.weights))
    delta = upstream
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * silu_grad(pre[i])
        grads[2 * i] = inputs[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ mlp.weights[i].T
    return grads


def test_backward_zero_upstream():
    net = Mlp.init([3, 6, 2], RngStream(2, "net"))
    grads = _tape_backward(net, np.ones(3), np.zeros(2))
    assert all(np.all(g == 0) for g in grads)
    # one row: the input gradient delta0 W0^T is W0 db0
    np.testing.assert_array_equal(net.weights[0] @ grads[1], np.zeros(3))


def test_backward_linear_layer_closed_form():
    net = Mlp.init([3, 2], RngStream(4, "net"))
    x = np.array([1.0, -0.5, 2.0])
    up = np.array([0.3, -1.2])
    grads = _tape_backward(net, x, up)
    np.testing.assert_allclose(net.weights[0] @ grads[1], net.weights[0] @ up, atol=1e-14)
    np.testing.assert_allclose(grads[0], np.outer(x, up), atol=1e-14)
    np.testing.assert_allclose(grads[1], up, atol=1e-14)


def _fd_param_grads(net, x, up, h=1e-4):
    """Central finite differences of <up, forward(x)> over all parameters."""
    out = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            f_plus = float(up @ mlp_forward(net, x)) if x.ndim == 1 else \
                float(np.sum(up * mlp_forward(net, x)))
            p[idx] = orig - h
            f_minus = float(up @ mlp_forward(net, x)) if x.ndim == 1 else \
                float(np.sum(up * mlp_forward(net, x)))
            p[idx] = orig
            g[idx] = (f_plus - f_minus) / (2 * h)
        out.append(g)
    return out


def test_backward_matches_finite_differences():
    net = Mlp.init([3, 5, 4, 2], RngStream(6, "net"))
    x = gaussian(RngStream(6, "x"), (3,))
    up = gaussian(RngStream(6, "up"), (2,))
    grads = _tape_backward(net, x, up)
    fd = _fd_param_grads(net, x, up)
    for g, ref in zip(grads, fd):
        np.testing.assert_allclose(g, ref, rtol=1e-5, atol=1e-7)
    h = 1e-4
    fd_in = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd_in[i] = (up @ mlp_forward(net, x + e) - up @ mlp_forward(net, x - e)) / (2 * h)
    np.testing.assert_allclose(net.weights[0] @ grads[1], fd_in, rtol=1e-5, atol=1e-7)


def test_backward_batch_sums_param_grads():
    net = Mlp.init([3, 4, 2], RngStream(8, "net"))
    xb = gaussian(RngStream(8, "x"), (5, 3))
    ub = gaussian(RngStream(8, "u"), (5, 2))
    grads = _tape_backward(net, xb, ub)
    acc = [np.zeros_like(p) for p in net.parameters()]
    for x, u in zip(xb, ub):
        for a, g in zip(acc, _tape_backward(net, x, u)):
            a += g
    for g, ref in zip(grads, acc):
        np.testing.assert_allclose(g, ref, atol=1e-12)


def test_backward_with_tape_equals_recomputed_forward():
    net = Mlp.init([3, 5, 4, 2], RngStream(9, "net"))
    x = gaussian(RngStream(9, "x"), (3,))
    xb = gaussian(RngStream(9, "xb"), (6, 3))
    for inp, up in ((x, gaussian(RngStream(9, "u"), (2,))),
                    (xb, gaussian(RngStream(9, "ub"), (6, 2)))):
        tape = []
        out = mlp_forward(net, inp, tape=tape)
        np.testing.assert_array_equal(out, mlp_forward(net, inp))
        assert len(tape) == 3
        grads = _tape_backward(net, inp, up, tape)
        ref = recomputing_backward(net, np.atleast_2d(inp), np.atleast_2d(up))
        for g, r in zip(grads, ref, strict=True):
            assert g.tobytes() == r.tobytes()


def test_backward_rejects_mismatched_tape():
    net = Mlp.init([3, 5, 2], RngStream(10, "net"))
    x = np.ones(3)
    tape = []
    mlp_forward(net, x, tape=tape)
    out = np.empty_like(net.params)
    with pytest.raises(ShapeError, match="tape"):
        mlp_backward(net, np.ones(2), tape[:1], out)
    with pytest.raises(ShapeError, match="tape"):
        mlp_backward(net, np.ones(2), tape + tape[:1], out)
    with pytest.raises(ShapeError, match="upstream"):
        mlp_backward(net, np.ones((4, 2)), tape, out)   # four rows on a one-row tape
    other = []
    mlp_forward(Mlp.init([4, 5, 2], RngStream(10, "other")), np.ones(4), tape=other)
    with pytest.raises(ShapeError, match="input width 4"):
        mlp_backward(net, np.ones(2), other, out)       # a tape from a net of input width 4


def test_backward_out_holds_the_gradients():
    net = Mlp.init([3, 5, 4, 2], RngStream(11, "net"))
    flat = np.concatenate([p.ravel() for p in net.parameters()])
    for v, p in zip(layer_views(net.widths, flat), net.parameters(), strict=True):
        assert v.base is flat and v.tobytes() == p.tobytes()
    xb = gaussian(RngStream(11, "x"), (6, 3))
    ub = gaussian(RngStream(11, "u"), (6, 2))
    tape = []
    mlp_forward(net, xb, tape=tape)
    out = np.full(flat.size, np.nan)
    mlp_backward(net, ub, tape, out)
    ref = recomputing_backward(net, xb, ub)
    for g, r in zip(layer_views(net.widths, out), ref, strict=True):
        assert g.base is out and g.tobytes() == r.tobytes()
    assert out.tobytes() == np.concatenate([r.ravel() for r in ref]).tobytes()
    for size in (flat.size - 1, flat.size + 1):
        with pytest.raises(ShapeError, match="flat parameters"):
            mlp_backward(net, ub, tape, np.zeros(size))


def test_backward_shape_errors():
    net = Mlp.zeros([3, 2])
    tape, out = [], np.empty_like(net.params)
    mlp_forward(net, np.zeros(3), tape=tape)
    with pytest.raises(ShapeError):
        mlp_backward(net, np.zeros(3), tape, out)


# ---------------------------------------------------------------- Adam

def _pure_adam_step(p, g, m, v, t, lr):
    """adam_step as it was before it updated in place, kept test-side as the
    reference: ``t`` is the count of earlier updates, and new p, m, v and
    t + 1 are returned with nothing mutated."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = t + 1
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m = b1 * m
    tmp = (1.0 - b1) * g
    m += tmp
    v = b2 * v
    np.multiply(1.0 - b2, g, out=tmp)
    tmp *= g
    v += tmp
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    p_new = np.divide(m, c1)
    p_new *= lr
    p_new /= tmp
    np.subtract(p, p_new, out=p_new)
    return p_new, m, v, t


def test_adam_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0])
    m, v = np.zeros(2), np.zeros(2)
    assert adam_step(p, np.zeros(2), m, v, 1, lr=0.1) is None
    np.testing.assert_array_equal(p, [1.0, -2.0])
    np.testing.assert_array_equal(m, 0.0)
    np.testing.assert_array_equal(v, 0.0)


def test_adam_moves_against_gradient_sign():
    p = np.array([0.0, 0.0])
    g = np.array([1.0, -3.0])
    m, v = np.zeros(2), np.zeros(2)
    for t in range(1, 11):
        adam_step(p, g, m, v, t, lr=0.01)
    assert p[0] < 0 and p[1] > 0


def test_adam_descends_quadratic():
    # f(x) = x^2 from x = 1, lr = 0.1, 100 steps
    p = np.array([1.0])
    m, v = np.zeros(1), np.zeros(1)
    for t in range(1, 101):
        adam_step(p, 2.0 * p, m, v, t, lr=0.1)
    assert abs(p[0]) < 0.05


def _adam_example():
    p = np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]])
    m = np.array([[0.1, 0.2, -0.3], [0.5, -0.5, 0.0]])
    v = np.array([[0.01, 0.04, 0.09], [0.25, 0.25, 1.0]])
    return p, m, v


def test_adam_rejects_nonfinite_gradient():
    # a rejected step writes nothing into p, m or v
    p, m, v = _adam_example()
    nan_g = np.ones_like(p)
    nan_g[1, 2] = np.nan
    cases = [(nan_g, v, 6, NumericError, "non-finite gradient"),
             (np.ones_like(p), np.concatenate([v, v]), 6, ShapeError, "shapes differ"),
             (np.ones_like(p), v, 0, InvalidArgumentError, "update count")]
    for g, vv, t, exc, match in cases:
        before = [a.tobytes() for a in (p, m, vv)]
        with pytest.raises(exc, match=match):
            adam_step(p, g, m, vv, t, lr=0.1)
        assert [a.tobytes() for a in (p, m, vv)] == before


def test_adam_in_place_matches_pure_reference():
    # from five earlier updates and non-zero moments, each in-place step is
    # bit-equal to the pure reference, and g is left as it was
    p, m, v = _adam_example()
    ref_p, ref_m, ref_v, ref_t = p.copy(), m.copy(), v.copy(), 5
    stream = RngStream(3, "adam")
    for t in range(6, 11):
        g = gaussian(stream, p.shape)
        g_before = g.tobytes()
        adam_step(p, g, m, v, t, lr=0.1)
        ref_p, ref_m, ref_v, ref_t = _pure_adam_step(ref_p, g, ref_m, ref_v, ref_t, lr=0.1)
        assert ref_t == t and g.tobytes() == g_before
        assert (p.tobytes(), m.tobytes(), v.tobytes()) == \
            (ref_p.tobytes(), ref_m.tobytes(), ref_v.tobytes())


def test_adam_through_a_segment_view_changes_only_that_slot():
    # the (sample, segment) layout fit_sge updates: one slot of (N, eta, d)
    # parameters and moments, through views
    stream = RngStream(4, "slots")
    segments, m = gaussian(stream, (3, 4, 5)), gaussian(stream, (3, 4, 5))
    v = gaussian(stream, (3, 4, 5)) ** 2
    g = gaussian(stream, (5,))
    before = [a.copy() for a in (segments, m, v)]
    adam_step(segments[1, 2], g, m[1, 2], v[1, 2], 3, lr=0.1)
    ref = _pure_adam_step(before[0][1, 2], g, before[1][1, 2], before[2][1, 2], 2, lr=0.1)
    others = np.ones((3, 4), dtype=bool)
    others[1, 2] = False
    for now, then, slot in zip((segments, m, v), before, ref):
        assert now[others].tobytes() == then[others].tobytes()
        assert now[1, 2].tobytes() == slot.tobytes()
        assert not np.array_equal(now[1, 2], then[1, 2])


def _adam_vectors(n, seed):
    """p, m, v and two gradients of n entries, with non-zero moments."""
    stream = RngStream(seed, "adam-blocks")
    p, m, g1, g2 = (gaussian(stream, (n,)) for _ in range(4))
    return p, m, gaussian(stream, (n,)) ** 2, g1, g2


def test_adam_blocked_matches_pure_reference():
    # two whole blocks and a 3-entry tail, from earlier updates: each step is
    # bit-equal to one unblocked pass
    n = 2 * numerics._ADAM_BLOCK + 3
    p, m, v, g1, g2 = _adam_vectors(n, 5)
    ref_p, ref_m, ref_v, ref_t = p.copy(), m.copy(), v.copy(), 4
    for t, g in ((5, g1), (6, g2)):
        adam_step(p, g, m, v, t, lr=0.01)
        ref_p, ref_m, ref_v, ref_t = _pure_adam_step(ref_p, g, ref_m, ref_v, ref_t, lr=0.01)
        assert ref_t == t
        assert (p.tobytes(), m.tobytes(), v.tobytes()) == \
            (ref_p.tobytes(), ref_m.tobytes(), ref_v.tobytes())


def test_adam_blocked_rejection_writes_no_block():
    # a NaN in the last block is seen before the first block is written
    n = 2 * numerics._ADAM_BLOCK + 3
    p, m, v, g, _ = _adam_vectors(n, 6)
    g[-1] = np.nan
    before = [a.tobytes() for a in (p, m, v)]
    with pytest.raises(NumericError, match="non-finite gradient"):
        adam_step(p, g, m, v, 3, lr=0.01)
    assert [a.tobytes() for a in (p, m, v)] == before


def test_adam_step_memory_is_bounded():
    # the sprite net's parameter count: its temporaries are two blocks, not
    # two copies of the vector (3.1 MB)
    p, m, v, g, _ = _adam_vectors(205_568, 7)
    tracemalloc.start()
    try:
        adam_step(p, g, m, v, 2, lr=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------- properties

@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=64))
def test_gaussian_deterministic_and_finite(seed, n):
    a = gaussian(RngStream(seed, "prop"), (n,))
    b = gaussian(RngStream(seed, "prop"), (n,))
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a))
