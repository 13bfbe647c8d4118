"""Numeric substrate: RNG streams, the MLP, reverse-mode gradients, Adam."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdi.errors import InvalidArgumentError, NumericError, ShapeError
from crdi.numerics import (AdamState, Mlp, RngStream, adam_step, gaussian,
                           mlp_backward, mlp_forward, silu)


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


def test_counter_advances():
    s = RngStream(0)
    s.uniform(5)
    s.uniform(3)
    assert s.counter == 8


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
    net.weights[0] = np.eye(4)
    x = np.array([0.5, -1.5, 2.0, 0.0])
    np.testing.assert_array_equal(mlp_forward(net, x), x)


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


# ---------------------------------------------------------------- gradients

def test_backward_zero_upstream():
    net = Mlp.init([3, 6, 2], RngStream(2, "net"))
    grads, input_grad = mlp_backward(net, np.ones(3), np.zeros(2))
    assert all(np.all(g == 0) for g in grads)
    np.testing.assert_array_equal(input_grad, np.zeros(3))


def test_backward_linear_layer_closed_form():
    net = Mlp.init([3, 2], RngStream(4, "net"))
    x = np.array([1.0, -0.5, 2.0])
    up = np.array([0.3, -1.2])
    grads, input_grad = mlp_backward(net, x, up)
    np.testing.assert_allclose(input_grad, net.weights[0] @ up, atol=1e-14)
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
    grads, input_grad = mlp_backward(net, x, up)
    fd = _fd_param_grads(net, x, up)
    for g, ref in zip(grads, fd):
        np.testing.assert_allclose(g, ref, rtol=1e-5, atol=1e-7)
    h = 1e-4
    fd_in = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd_in[i] = (up @ mlp_forward(net, x + e) - up @ mlp_forward(net, x - e)) / (2 * h)
    np.testing.assert_allclose(input_grad, fd_in, rtol=1e-5, atol=1e-7)


def test_backward_batch_sums_param_grads():
    net = Mlp.init([3, 4, 2], RngStream(8, "net"))
    xb = gaussian(RngStream(8, "x"), (5, 3))
    ub = gaussian(RngStream(8, "u"), (5, 2))
    grads, input_grad = mlp_backward(net, xb, ub)
    acc = [np.zeros_like(p) for p in net.parameters()]
    for x, u in zip(xb, ub):
        row, row_in = mlp_backward(net, x, u)
        for a, g in zip(acc, row):
            a += g
    for g, ref in zip(grads, acc):
        np.testing.assert_allclose(g, ref, atol=1e-12)
    assert input_grad.shape == (5, 3)


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
        grads, input_grad = mlp_backward(net, inp, up, tape=tape)
        ref, ref_in = mlp_backward(net, inp, up)
        for g, r in zip(grads, ref):
            assert g.tobytes() == r.tobytes()
        assert input_grad.tobytes() == ref_in.tobytes()


def test_backward_rejects_mismatched_tape():
    net = Mlp.init([3, 5, 2], RngStream(10, "net"))
    x = np.ones(3)
    tape = []
    mlp_forward(net, x, tape=tape)
    with pytest.raises(ShapeError, match="tape"):
        mlp_backward(net, x, np.ones(2), tape=tape[:1])
    with pytest.raises(ShapeError, match="tape"):
        mlp_backward(net, x, np.ones(2), tape=tape + tape[:1])
    with pytest.raises(ShapeError, match="tape"):
        mlp_backward(net, np.ones((4, 3)), np.ones((4, 2)), tape=tape)


def test_backward_shape_errors():
    net = Mlp.zeros([3, 2])
    with pytest.raises(ShapeError):
        mlp_backward(net, np.zeros(4), np.zeros(2))
    with pytest.raises(ShapeError):
        mlp_backward(net, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------- Adam

def test_adam_zero_gradient_keeps_params():
    params = [np.array([1.0, -2.0])]
    state = AdamState.for_params(params)
    new_p, new_state = adam_step(params, [np.zeros(2)], state, lr=0.1)
    np.testing.assert_array_equal(new_p[0], params[0])
    assert new_state.t == 1


def test_adam_moves_against_gradient_sign():
    params = [np.array([0.0, 0.0])]
    g = np.array([1.0, -3.0])
    state = AdamState.for_params(params)
    for _ in range(10):
        params, state = adam_step(params, [g], state, lr=0.01)
    assert params[0][0] < 0 and params[0][1] > 0


def test_adam_descends_quadratic():
    # f(x) = x^2 from x = 1, lr = 0.1, 100 steps
    params = [np.array([1.0])]
    state = AdamState.for_params(params)
    for _ in range(100):
        params, state = adam_step(params, [2.0 * params[0]], state, lr=0.1)
    assert abs(params[0][0]) < 0.05


def test_adam_rejects_nonfinite_gradient():
    params = [np.zeros(2), np.zeros(3)]
    state = AdamState.for_params(params)
    with pytest.raises(NumericError, match="index 1"):
        adam_step(params, [np.zeros(2), np.array([0.0, np.nan, 0.0])],
                  state, lr=0.1)


def test_adam_pure_no_mutation():
    params = [np.array([1.0])]
    state = AdamState.for_params(params)
    adam_step(params, [np.array([0.5])], state, lr=0.1)
    assert params[0][0] == 1.0 and state.t == 0 and state.m[0][0] == 0.0


# ---------------------------------------------------------------- properties

@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=64))
def test_gaussian_deterministic_and_finite(seed, n):
    a = gaussian(RngStream(seed, "prop"), (n,))
    b = gaussian(RngStream(seed, "prop"), (n,))
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a))
