"""Diffusion core: forward noising, x0 prediction, DDIM stepping,
score conversions, training, and checkpoint IO."""
import struct

import numpy as np
import pytest

from crdi.diffusion import (NoiseNet, TrainConfig, ddim_step, eps_theta,
                            load_checkpoint, noise_from_score, noise_to,
                            predict_x0, save_checkpoint, score_from_noise,
                            time_features, train_source)
from crdi.errors import FormatError, InvalidArgumentError, ShapeError
from crdi.numerics import RngStream, adam_step, gaussian, mlp_forward
from crdi.sampler import generate
from crdi.schedules import PerturbationSchedule, linear_schedule, make_plan
from crdi.sge import SgeSet
from crdi.schedules import RigidityMap
from test_numerics import recomputing_backward


@pytest.fixture(scope="module")
def sched100():
    return linear_schedule(100, 1e-4, 0.02)


# ---------------------------------------------------------------- noising

def test_noise_to_t0_returns_x0(sched100):
    x0 = np.array([1.0, -2.0])
    eps = np.array([5.0, 5.0])
    np.testing.assert_array_equal(noise_to(sched100, x0, 0, eps), x0)


def test_noise_to_zero_signal(sched100):
    eps = np.array([1.0, 2.0])
    t = 40
    out = noise_to(sched100, np.zeros(2), t, eps)
    np.testing.assert_allclose(out, sched100.sqrt_one_minus_ab(t) * eps, atol=1e-15)


def test_noise_to_terminal_is_mostly_noise():
    sched = linear_schedule(1000, 1e-4, 0.02)
    eps = np.array([1.0, 0.0])
    out = noise_to(sched, np.array([3.0, 3.0]), 1000, eps)
    assert abs(np.linalg.norm(out) - 1.0) < 0.03


def test_noise_to_validation(sched100):
    with pytest.raises(ShapeError):
        noise_to(sched100, np.zeros(2), 5, np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        noise_to(sched100, np.zeros(2), 101, np.zeros(2))


def test_noise_to_per_row_steps_match_rowwise(sched100):
    stream = RngStream(21, "rows")
    x0, eps = gaussian(stream, (5, 3)), gaussian(stream, (5, 3))
    t = np.array([0, 1, 37, 99, 100])
    out = noise_to(sched100, x0, t, eps)
    for i in range(5):
        assert out[i].tobytes() == noise_to(sched100, x0[i], int(t[i]), eps[i]).tobytes()
    for bad_t, bad_x, error in ((np.array([0, 101]), np.zeros((2, 2)), InvalidArgumentError),
                                (np.array([-1, 5]), np.zeros((2, 2)), InvalidArgumentError),
                                (np.array([1.0, 5.0]), np.zeros((2, 2)), InvalidArgumentError),
                                (np.array([1, 5, 7]), np.zeros((2, 2)), ShapeError),
                                (np.array([1, 5]), np.zeros(2), ShapeError)):
        with pytest.raises(error):
            noise_to(sched100, bad_x, bad_t, bad_x)


# ---------------------------------------------------------------- predict_x0

def test_round_trip_all_timesteps(sched100):
    x0 = gaussian(RngStream(0, "x0"), (2,))
    for t in range(1, sched100.T + 1):
        eps = gaussian(RngStream(t, "eps"), (2,))
        x_t = noise_to(sched100, x0, t, eps)
        np.testing.assert_allclose(predict_x0(sched100, x_t, t, eps), x0,
                                   atol=1e-10)


def test_predict_x0_zero_noise_estimate(sched100):
    x_t = np.array([1.0, 2.0])
    out = predict_x0(sched100, x_t, 30, np.zeros(2))
    np.testing.assert_allclose(out, x_t / sched100.sqrt_ab(30), atol=1e-15)


def test_predict_x0_matches_formula(sched100):
    x_t = gaussian(RngStream(2, "xt"), (3,))
    eps_hat = gaussian(RngStream(2, "eh"), (3,))
    t = 55
    ref = (x_t - np.sqrt(1 - sched100.alpha_bar[t]) * eps_hat) / \
        np.sqrt(sched100.alpha_bar[t])
    np.testing.assert_allclose(predict_x0(sched100, x_t, t, eps_hat), ref,
                               atol=1e-14)


def test_predict_x0_rejects_t0(sched100):
    with pytest.raises(InvalidArgumentError):
        predict_x0(sched100, np.zeros(2), 0, np.zeros(2))


# ---------------------------------------------------------------- ddim_step

def test_ddim_consistent_with_forward_ray(sched100):
    # with the exact noise the step lands on the forward-noised x_{t_prev}
    x0 = np.array([0.7, -1.1])
    eps = gaussian(RngStream(3, "eps"), (2,))
    for t, t_prev in [(100, 60), (60, 25), (25, 0)]:
        x_t = noise_to(sched100, x0, t, eps)
        stepped = ddim_step(sched100, x_t, t, t_prev, eps)
        np.testing.assert_allclose(stepped, noise_to(sched100, x0, t_prev, eps),
                                   atol=1e-12)


def test_ddim_equal_coefficients_fixed_point():
    # a hand-built schedule with two equal alpha_bar entries
    sched = linear_schedule(10, 1e-3, 0.1)
    ab = sched.alpha_bar.copy()
    ab[5] = ab[6]
    frozen = sched.__class__(T=10, beta=sched.beta, alpha=sched.alpha, alpha_bar=ab)
    x_t = np.array([0.3, -0.8])
    eps = np.array([0.1, 0.2])
    np.testing.assert_allclose(ddim_step(frozen, x_t, 6, 5, eps), x_t, atol=1e-12)


def test_ddim_step_direction_validated(sched100):
    with pytest.raises(InvalidArgumentError):
        ddim_step(sched100, np.zeros(2), 5, 5, np.zeros(2))


# ---------------------------------------------------------------- score

def test_score_noise_round_trip(sched100):
    eps = gaussian(RngStream(4, "eps"), (5,))
    for t in (1, 50, 100):
        back = noise_from_score(sched100, score_from_noise(sched100, eps, t), t)
        np.testing.assert_allclose(back, eps, atol=1e-12)


def test_score_closed_form():
    sched = linear_schedule(10, 1e-3, 0.1)
    ab = sched.alpha_bar.copy()
    ab[3] = 0.75
    s = sched.__class__(T=10, beta=sched.beta, alpha=sched.alpha, alpha_bar=ab)
    score = score_from_noise(s, np.array([1.0]), 3)
    assert score[0] == pytest.approx(-2.0, abs=1e-12)
    np.testing.assert_array_equal(score_from_noise(s, np.zeros(3), 3), np.zeros(3))


def test_score_requires_positive_t(sched100):
    with pytest.raises(InvalidArgumentError):
        score_from_noise(sched100, np.zeros(2), 0)
    with pytest.raises(InvalidArgumentError):
        noise_from_score(sched100, np.zeros(2), 0)


# ---------------------------------------------------------------- invariants

def test_variance_preservation_monte_carlo(sched100):
    # E||x_t||^2 = ab_t ||x0||^2 + (1 - ab_t) d, within 3%
    x0 = np.array([1.5, -0.5])
    t = 60
    stream = RngStream(7, "mc")
    draws = np.array([noise_to(sched100, x0, t, gaussian(stream, (2,)))
                      for _ in range(20000)])
    expected = sched100.alpha_bar[t] * (x0 @ x0) + (1 - sched100.alpha_bar[t]) * 2
    measured = np.mean(np.sum(draws ** 2, axis=1))
    assert abs(measured - expected) / expected < 0.03


def test_time_features_shape_and_range():
    f = time_features(np.array([0, 10, 99]), 100)
    assert f.shape == (3, 32)
    assert np.all(np.abs(f) <= 1.0)
    # distinct timesteps embed distinctly
    assert not np.allclose(f[0], f[2])


@pytest.mark.parametrize("T", [50, 60, 400, 1000])
def test_time_table_equals_time_features(T):
    net = NoiseNet.init(2, T, [4], RngStream(0, "init"))
    assert net.time_table.shape == (T + 1, 32)
    assert not net.time_table.flags.writeable
    for t in range(T + 1):
        np.testing.assert_array_equal(net.time_table[t], time_features(t, T))
    steps = np.arange(T, -1, -1)
    np.testing.assert_array_equal(net.time_table[steps], time_features(steps, T))


def _eps_reference(net, x, t):
    """eps_theta as computed before the time-feature table, kept test-side."""
    feat = time_features(t, net.T)
    if x.ndim == 2 and feat.ndim == 1:
        feat = np.broadcast_to(feat, (x.shape[0], feat.shape[0]))
    return mlp_forward(net.backbone, np.concatenate([x, feat], axis=-1))


def test_eps_theta_matches_time_features_reference():
    net = NoiseNet.init(2, 60, [16, 16], RngStream(4, "init"))
    x = gaussian(RngStream(4, "x"), (2,))
    xb = gaussian(RngStream(4, "xb"), (7, 2))
    tb = np.array([0, 1, 17, 30, 59, 60, 5])
    for t in (0, 1, 33, 60, np.int64(12)):
        np.testing.assert_array_equal(eps_theta(net, x, t), _eps_reference(net, x, t))
        np.testing.assert_array_equal(eps_theta(net, xb, t), _eps_reference(net, xb, t))
    np.testing.assert_array_equal(eps_theta(net, xb, tb), _eps_reference(net, xb, tb))


def test_eps_theta_rejects_timesteps_outside_range():
    net = NoiseNet.init(2, 60, [8], RngStream(5, "init"))
    x, xb = np.zeros(2), np.zeros((3, 2))
    for t in (-1, 61, np.int64(-1), np.array(61), np.array([0, 61, 3]),
              np.array([-1, 0, 3])):
        with pytest.raises(InvalidArgumentError, match="outside"):
            eps_theta(net, xb if np.ndim(t) else x, t)
    with pytest.raises(InvalidArgumentError, match="integer"):
        eps_theta(net, x, 3.0)


def test_noise_net_rejects_empty_schedule():
    with pytest.raises(InvalidArgumentError):
        NoiseNet.init(2, 0, [8], RngStream(0, "init"))


# ---------------------------------------------------------------- training

def test_training_reduces_loss(tiny_ring):
    _, net, _, trace = tiny_ring
    assert net.frozen
    assert trace[-50:].mean() < trace[:50].mean()
    assert trace[-50:].mean() < 0.95  # regression anchor for the tiny ring run


def test_single_point_dataset_concentrates():
    schedule = linear_schedule(50, 1e-4, 0.02)
    point = np.array([0.5, -0.3])
    dataset = np.tile(point, (64, 1))
    net = NoiseNet.init(2, 50, [32], RngStream(1, "init"))
    net, _ = train_source(net, schedule, dataset,
                          TrainConfig(steps=800, batch=32, lr=3e-3),
                          RngStream(1, "train"))
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=50)
    samples = generate(
        net, schedule, SgeSet.zeros(1, 2, rmap),
        guidance="mean", start="prior",
        perturb=PerturbationSchedule(alpha_t=50, beta_t=25, s=0.0),
        plan=make_plan(schedule, 15), count=32, stream=RngStream(1, "gen"))
    dists = np.linalg.norm(samples - point, axis=1)
    assert dists.mean() < 0.5


def test_zero_training_steps_noop():
    schedule = linear_schedule(10, 1e-3, 0.1)
    net = NoiseNet.init(2, 10, [8], RngStream(2, "init"))
    before = net.param_checksum()
    net, trace = train_source(net, schedule, np.zeros((4, 2)),
                              TrainConfig(steps=0), RngStream(2, "train"))
    assert net.param_checksum() == before
    assert trace.shape == (0,)
    assert net.frozen


def test_train_validation():
    schedule = linear_schedule(10, 1e-3, 0.1)
    net = NoiseNet.init(2, 10, [8], RngStream(3, "init"))
    with pytest.raises(InvalidArgumentError):
        train_source(net, schedule, np.zeros((0, 2)), TrainConfig(steps=1),
                     RngStream(0))
    with pytest.raises(ShapeError):
        train_source(net, schedule, np.zeros((4, 3)), TrainConfig(steps=1),
                     RngStream(0))
    net.freeze()
    with pytest.raises(InvalidArgumentError):
        train_source(net, schedule, np.zeros((4, 2)), TrainConfig(steps=1),
                     RngStream(0))
    with pytest.raises(InvalidArgumentError, match="batch must be >= 1, got 0"):
        TrainConfig(batch=0)
    with pytest.raises(InvalidArgumentError, match="steps must be >= 0, got -1"):
        TrainConfig(steps=-1)


def _two_pass_training(net, schedule, dataset, config, stream):
    """train_source as it ran before the forward tape, the time-feature
    table, the flat parameter vector and the block draws, kept test-side as
    the reference: time features recomputed per step, a backward pass that
    recomputes the forward, per-step draws and one pair of Adam moments
    per parameter array."""
    n = dataset.shape[0]
    params = net.backbone.parameters()
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    trace = np.zeros(config.steps)
    sqrt_ab = np.sqrt(schedule.alpha_bar)
    sqrt_1mab = np.sqrt(1.0 - schedule.alpha_bar)
    for step in range(config.steps):
        idx = (stream.uniform(config.batch) * n).astype(np.int64).clip(0, n - 1)
        t = 1 + (stream.uniform(config.batch) * schedule.T).astype(np.int64).clip(0, schedule.T - 1)
        eps = gaussian(stream, (config.batch, net.d))
        x_t = sqrt_ab[t, None] * dataset[idx] + sqrt_1mab[t, None] * eps
        inp = np.concatenate([x_t, time_features(t, net.T)], axis=-1)
        resid = mlp_forward(net.backbone, inp) - eps
        trace[step] = float(np.mean(resid * resid))
        grads = recomputing_backward(net.backbone, inp, 2.0 * resid / resid.size)
        for p, g, (m, v) in zip(params, grads, moments, strict=True):
            adam_step(p, g, m, v, step + 1, config.lr)
    return net, trace


@pytest.mark.parametrize("hidden", [[24, 24], []], ids=["two-hidden", "linear"])
def test_train_source_matches_two_pass_reference(hidden):
    # 60 steps of 32 draws each span several draw blocks
    schedule = linear_schedule(60, 1e-4, 0.02)
    dataset = gaussian(RngStream(6, "data"), (200, 2))
    config = TrainConfig(steps=60, batch=32, lr=2e-3)
    net, trace = train_source(NoiseNet.init(2, 60, hidden, RngStream(6, "init")),
                              schedule, dataset, config, RngStream(6, "train"))
    ref, ref_trace = _two_pass_training(
        NoiseNet.init(2, 60, hidden, RngStream(6, "init")), schedule, dataset,
        config, RngStream(6, "train"))
    assert trace.tobytes() == ref_trace.tobytes()
    for p, q in zip(net.backbone.parameters(), ref.backbone.parameters(), strict=True):
        assert p.tobytes() == q.tobytes()


def _ancestral_chain(net, schedule, stream):
    """Stochastic DDPM sampler kept test-side only: x_{t-1} =
    (x_t - beta_t/sqrt(1-ab_t) eps_hat)/sqrt(alpha_t) + sigma_t z."""
    x = gaussian(stream, (net.d,))
    for t in range(schedule.T, 0, -1):
        eps_hat = eps_theta(net, x, t)
        coef = schedule.beta[t - 1] / schedule.sqrt_one_minus_ab(t)
        x = (x - coef * eps_hat) / np.sqrt(schedule.alpha[t - 1])
        if t > 1:
            var = schedule.beta[t - 1] * \
                (1 - schedule.alpha_bar[t - 1]) / (1 - schedule.alpha_bar[t])
            x = x + np.sqrt(var) * gaussian(stream, (net.d,))
    return x


def test_trained_model_moments(tiny_ring):
    # terminal samples of both samplers stay finite with variance within a
    # loose factor of the source domain's
    schedule, net, dataset, _ = tiny_ring
    stream = RngStream(9, "chains")
    plan = make_plan(schedule, 25)
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=schedule.T)
    ddim_samples = generate(
        net, schedule, SgeSet.zeros(1, 2, rmap),
        guidance="mean", start="prior",
        perturb=PerturbationSchedule(alpha_t=schedule.T, beta_t=1, s=0.0),
        plan=plan, count=64, stream=stream.child("ddim"))
    anc = np.array([_ancestral_chain(net, schedule, stream.child(f"anc{i}"))
                    for i in range(64)])
    ref_var = dataset.var(axis=0)
    for samples in (ddim_samples, anc):
        assert np.all(np.isfinite(samples))
        ratio = samples.var(axis=0) / ref_var
        assert np.all(ratio > 0.2) and np.all(ratio < 5.0)


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path, tiny_ring):
    _, net, _, _ = tiny_ring
    path = tmp_path / "model.crdn"
    save_checkpoint(path, net)
    loaded = load_checkpoint(path)
    assert loaded.frozen
    assert loaded.T == net.T and loaded.d == net.d
    assert loaded.param_checksum() == net.param_checksum()


def test_checkpoint_stores_params_as_one_block(tmp_path):
    net = NoiseNet.init(2, 10, [4, 3], RngStream(0, "init"))
    path = tmp_path / "model.crdn"
    save_checkpoint(path, net)
    header = struct.pack("<4s7I", b"CRDN", 1, 10, 4, 34, 4, 3, 2)
    assert path.read_bytes() == header + net.backbone.params.tobytes()
    loaded = load_checkpoint(path)
    assert loaded.backbone.params.tobytes() == net.backbone.params.tobytes()

    # a NaN in the last bias fails the block, which starts after the header
    blob = bytearray(path.read_bytes())
    blob[-8:] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"non-finite checkpoint values in the block "
                                          f"at byte {len(header)}"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.crdn"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path, tiny_ring):
    _, net, _, _ = tiny_ring
    path = tmp_path / "model.crdn"
    save_checkpoint(path, net)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_zero_T_rejected(tmp_path):
    path = tmp_path / "model.crdn"
    save_checkpoint(path, NoiseNet.init(2, 10, [4], RngStream(0, "init")))
    blob = bytearray(path.read_bytes())
    blob[8:12] = (0).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="T=0"):
        load_checkpoint(path)


def test_loaded_checkpoint_has_time_table(tmp_path, tiny_ring):
    _, net, _, _ = tiny_ring
    path = tmp_path / "model.crdn"
    save_checkpoint(path, net)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.time_table, net.time_table)
    assert not loaded.time_table.flags.writeable


def test_checkpoint_trailing_bytes(tmp_path, tiny_ring):
    _, net, _, _ = tiny_ring
    path = tmp_path / "model.crdn"
    save_checkpoint(path, net)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(FormatError, match="[Tt]railing"):
        load_checkpoint(path)
