"""Guidance embeddings: composition, the fitting loss and loop, file IO."""
import json
import struct

import numpy as np
import pytest

from crdi.diffusion import NoiseNet, eps_theta, noise_from_score, noise_to, \
    score_from_noise, time_features
from crdi.errors import FormatError, InvalidArgumentError, ShapeError
from crdi.numerics import Mlp, RngStream, adam_step, gaussian, mlp_forward
from crdi.schedules import NoiseSchedule, RigidityMap, linear_schedule, segment_for
from crdi.sge import (_FIT_BLOCK, SgeFitConfig, SgeSet, fit_sge, guided_noise, load_sge,
                      save_sge, sge_loss)


def _zero_net(d: int, T: int) -> NoiseNet:
    from crdi.diffusion import TIME_EMBED_DIM
    net = NoiseNet(backbone=Mlp.zeros([d + TIME_EMBED_DIM, d]), d=d, T=T)
    return net.freeze()


@pytest.fixture(scope="module")
def sched():
    return linear_schedule(50, 1e-4, 0.02)


# ---------------------------------------------------------------- guided noise

def test_zero_guidance_is_identity(tiny_ring):
    schedule, net, _, _ = tiny_ring
    x_t = gaussian(RngStream(0, "xt"), (2,))
    np.testing.assert_array_equal(guided_noise(net, schedule, x_t, 10, np.zeros(2)),
                                  eps_theta(net, x_t, 10))


def test_guided_noise_matches_score_composition(tiny_ring):
    # adding g to the score is the same operation in noise space
    schedule, net, _, _ = tiny_ring
    x_t = gaussian(RngStream(1, "xt"), (2,))
    g = gaussian(RngStream(1, "g"), (2,))
    t = 25
    via_score = noise_from_score(
        schedule, score_from_noise(schedule, eps_theta(net, x_t, t), t) + g, t)
    np.testing.assert_allclose(guided_noise(net, schedule, x_t, t, g),
                               via_score, atol=1e-10)


def test_guided_noise_closed_form_offset():
    # alpha_bar = 0.36 at the probed step: offset is exactly sqrt(0.64) = 0.8
    base = linear_schedule(10, 1e-3, 0.1)
    ab = base.alpha_bar.copy()
    ab[4] = 0.36
    sched = NoiseSchedule(T=10, beta=base.beta, alpha=base.alpha, alpha_bar=ab)
    net = _zero_net(2, 10)
    x_t = np.array([0.2, -0.4])
    g = np.array([1.0, 0.0])
    out = guided_noise(net, sched, x_t, 4, g)
    unguided = eps_theta(net, x_t, 4)
    np.testing.assert_allclose(out - unguided, np.array([-0.8, 0.0]), atol=1e-12)


def test_guided_noise_shape_check(tiny_ring):
    schedule, net, _, _ = tiny_ring
    with pytest.raises(ShapeError):
        guided_noise(net, schedule, np.zeros(2), 5, np.zeros(3))


# ---------------------------------------------------------------- sge_loss

def test_loss_zero_for_perfect_guidance(sched):
    # net == 0, coupled draws: g = -eps/a_t makes eps_hat equal the true eps
    net = _zero_net(2, sched.T)
    x0 = np.array([0.8, -0.2])
    t = 20
    eps = gaussian(RngStream(2, "eps"), (2,))
    g = -eps / sched.sqrt_one_minus_ab(t)
    x_t = noise_to(sched, x0, t, eps)
    eps_net = eps_theta(net, x_t, t)
    loss, grad = sge_loss(eps_net, sched, x0, t, x_t, noise_to(sched, x0, t - 1, eps), g, g,
                          lam=1.0)
    assert loss == pytest.approx(0.0, abs=1e-18)


def test_penalty_vanishes_at_mean(sched, tiny_ring):
    _, net, _, _ = tiny_ring
    schedule = tiny_ring[0]
    x0 = np.array([1.0, 0.0])
    g = np.array([0.3, -0.7])
    eps = gaussian(RngStream(3, "eps"), (2,))
    x_t = noise_to(schedule, x0, 12, eps)
    eps_net = eps_theta(net, x_t, 12)
    loss_eq, _ = sge_loss(eps_net, schedule, x0, 12, x_t,
                          noise_to(schedule, x0, 12 - 1, eps), g, g, lam=100.0)
    loss_zero, _ = sge_loss(eps_net, schedule, x0, 12, x_t,
                            noise_to(schedule, x0, 12 - 1, eps), g, g, lam=0.0)
    assert loss_eq == pytest.approx(loss_zero, rel=1e-12)


def test_loss_gradient_matches_finite_differences(tiny_ring):
    schedule, net, _, _ = tiny_ring
    stream = RngStream(4, "fd")
    h = 1e-4
    for probe in range(20):
        x0 = gaussian(stream, (2,))
        t = stream.randint(1, schedule.T)
        eps = gaussian(stream, (2,))
        eps_prev = gaussian(stream, (2,))
        g = gaussian(stream, (2,))
        g_mean = gaussian(stream, (2,))
        lam = [0.0, 1.0, 10.0][probe % 3]
        x_t = noise_to(schedule, x0, t, eps)
        x_prev = noise_to(schedule, x0, t - 1, eps_prev)
        eps_net = eps_theta(net, x_t, t)
        _, grad = sge_loss(eps_net, schedule, x0, t, x_t, x_prev, g, g_mean, lam)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            lp, _ = sge_loss(eps_net, schedule, x0, t, x_t, x_prev, g + e, g_mean, lam)
            lm, _ = sge_loss(eps_net, schedule, x0, t, x_t, x_prev, g - e, g_mean, lam)
            fd = (lp - lm) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------- SgeSet

def test_mean_of_single_member():
    rmap = RigidityMap(eta=2, t_lo=0, t_hi=9)
    seg = gaussian(RngStream(5, "seg"), (2, 3))
    s = SgeSet(seg[None].copy(), rmap, [{}])
    np.testing.assert_array_equal(s.mean_segments, seg)


def test_mean_of_opposites_is_zero():
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=9)
    g = gaussian(RngStream(6, "g"), (1, 4))
    s = SgeSet(np.stack([g, -g]), rmap, [{}, {}])
    np.testing.assert_allclose(s.mean_segments, np.zeros((1, 4)), atol=1e-15)


def test_mean_matches_direct_sum():
    rmap = RigidityMap(eta=3, t_lo=0, t_hi=29)
    segs = [gaussian(RngStream(7, f"m{i}"), (3, 2)) for i in range(3)]
    s = SgeSet(np.stack(segs), rmap, [{}, {}, {}])
    np.testing.assert_allclose(s.mean_segments,
                               (segs[0] + segs[1] + segs[2]) / 3.0, atol=1e-15)


def test_mean_empty_set_rejected():
    # a set with no samples, whose mean would be empty, cannot be built
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=9)
    with pytest.raises(InvalidArgumentError):
        SgeSet(np.zeros((0, 1, 2)), rmap, [])
    with pytest.raises(InvalidArgumentError):
        SgeSet.zeros(0, 2, rmap)


@pytest.mark.parametrize("shape,n_meta", [
    ((2, 2), 2),          # not 3-D
    ((2, 2, 2, 2), 2),    # not 3-D
    ((2, 3, 2), 2),       # eta = 3 against rmap.eta = 2
    ((2, 2, 2), 1),       # one meta entry for two samples
    ((2, 2, 2), 3),
], ids=["2-D", "4-D", "eta", "meta-short", "meta-long"])
def test_sgeset_rejects_malformed(shape, n_meta):
    rmap = RigidityMap(eta=2, t_lo=0, t_hi=9)
    with pytest.raises((ShapeError, InvalidArgumentError)):
        SgeSet(np.zeros(shape), rmap, [{}] * n_meta)


def test_members_view_reads_rows():
    rmap = RigidityMap(eta=2, t_lo=0, t_hi=9)
    segments = gaussian(RngStream(17, "rows"), (3, 2, 4))
    s = SgeSet(segments, rmap, [{"i": i} for i in range(3)])
    assert len(s) == 3
    for i, m in enumerate(s.members):
        np.testing.assert_array_equal(m.segments, segments[i])
        assert m.meta == {"i": i}


def test_lookup_uses_segments():
    rmap = RigidityMap(eta=2, t_lo=0, t_hi=9)
    seg = np.array([[1.0, 1.0], [2.0, 2.0]])
    sge_set = SgeSet(seg[None], rmap, [{}])
    np.testing.assert_array_equal(sge_set.segments[0, segment_for(rmap, 0)], seg[0])
    np.testing.assert_array_equal(sge_set.segments[0, segment_for(rmap, 9)], seg[1])


# ---------------------------------------------------------------- fit_sge

def test_single_sample_penalty_is_inert(sched):
    # with N = 1 the member equals the mean, so lambda cannot matter
    net = _zero_net(2, sched.T)
    targets = np.array([[1.2, -0.4]])
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=sched.T)
    fits = [fit_sge(net, sched, targets, rmap,
                    SgeFitConfig(lr=0.05, iterations=200, lam=lam),
                    RngStream(8, "fit"))
            for lam in (0.0, 5.0)]
    np.testing.assert_allclose(fits[0].segments[0], fits[1].segments[0], atol=1e-12)


def test_zero_iterations_keeps_initialization(sched):
    net = _zero_net(2, sched.T)
    targets = np.array([[1.0, 1.0], [-1.0, 2.0]])
    rmap = RigidityMap(eta=3, t_lo=0, t_hi=sched.T)
    out = fit_sge(net, sched, targets, rmap,
                  SgeFitConfig(iterations=0), RngStream(9, "fit"))
    for segments in out.segments:
        np.testing.assert_array_equal(segments, np.zeros((3, 2)))


def test_fit_config_rejects_unknown_coupling():
    with pytest.raises(InvalidArgumentError, match="unknown coupling 'coupld'"):
        SgeFitConfig(coupling="coupld")


def test_fit_leaves_net_untouched(tiny_ring):
    schedule, net, _, _ = tiny_ring
    before = net.param_checksum()
    fit_sge(net, schedule, np.array([[0.5, 0.5]]),
            RigidityMap(eta=2, t_lo=0, t_hi=schedule.T),
            SgeFitConfig(iterations=50), RngStream(10, "fit"))
    assert net.param_checksum() == before


def test_fit_requires_frozen_net(sched):
    net = NoiseNet(backbone=Mlp.zeros([2 + 32, 2]), d=2, T=sched.T)
    with pytest.raises(InvalidArgumentError):
        fit_sge(net, sched, np.array([[0.0, 0.0]]),
                RigidityMap(eta=1, t_lo=0, t_hi=sched.T),
                SgeFitConfig(iterations=1), RngStream(0))


def test_fit_rejects_window_above_T(sched):
    net = NoiseNet(backbone=Mlp.zeros([2 + 32, 2]), d=2, T=sched.T).freeze()
    with pytest.raises(InvalidArgumentError, match=f"window top {sched.T + 1} above T"):
        fit_sge(net, sched, np.array([[0.0, 0.0]]),
                RigidityMap(eta=1, t_lo=sched.T, t_hi=sched.T + 1),
                SgeFitConfig(iterations=1), RngStream(0))


def test_one_dimensional_brute_force_oracle():
    """With a zero net, eta=1 and fixed (t, eps) draws, gradient fitting
    must land within 1e-3 of the scalar minimizer found by brute force."""
    sched1 = linear_schedule(50, 1e-4, 0.02)
    net = _zero_net(1, sched1.T)
    x0 = np.array([1.5])
    stream = RngStream(11, "draws")
    draws = [(stream.randint(1, sched1.T), gaussian(stream, (1,)))
             for _ in range(16)]

    # independent textbook re-implementation of the loss, vectorized over g
    def total_loss(gs):
        acc = np.zeros_like(gs)
        for t, eps in draws:
            a_t = np.sqrt(1 - sched1.alpha_bar[t])
            r_t = np.sqrt(sched1.alpha_bar[t])
            a_p = np.sqrt(1 - sched1.alpha_bar[t - 1])
            r_p = np.sqrt(sched1.alpha_bar[t - 1])
            x_t = r_t * x0[0] + a_t * eps[0]
            x_prev = r_p * x0[0] + a_p * eps[0]
            eps_hat = 0.0 - a_t * gs
            x0_hat = (x_t - a_t * eps_hat) / r_t
            xp_hat = r_p * x0_hat + a_p * eps_hat
            acc += (x0_hat - x0[0]) ** 2 + (xp_hat - x_prev) ** 2
        return acc

    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
    g_star = grid[np.argmin(total_loss(grid))]

    g, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
    for step in range(600):
        grad = np.zeros(1)
        for t, eps in draws:
            x_t = noise_to(sched1, x0, t, eps)
            eps_net = eps_theta(net, x_t, t)
            _, gi = sge_loss(eps_net, sched1, x0, t, x_t, noise_to(sched1, x0, t - 1, eps),
                             g, g, lam=0.0)
            grad += gi
        adam_step(g, grad, m, v, step + 1, lr=0.05)
    assert abs(g[0] - g_star) < 1e-3


def test_lambda_pulls_members_toward_mean(tiny_ring):
    schedule, net, _, _ = tiny_ring
    targets = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]])
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=schedule.T)

    def spread(lam):
        fitted = fit_sge(net, schedule, targets, rmap,
                         SgeFitConfig(lr=0.05, iterations=400, lam=lam),
                         RngStream(12, "fit"))
        segs = fitted.segments
        return max(np.linalg.norm(segs[i] - segs[j])
                   for i in range(3) for j in range(i + 1, 3))

    spreads = [spread(lam) for lam in (0.0, 1.0, 10.0)]
    assert spreads[0] > spreads[1] > spreads[2]


def test_fit_metadata_recorded(sched):
    net = _zero_net(2, sched.T)
    out = fit_sge(net, sched, np.array([[1.0, 0.0]]),
                  RigidityMap(eta=1, t_lo=0, t_hi=sched.T),
                  SgeFitConfig(iterations=30), RngStream(13, "fit"))
    meta = out.meta[0]
    assert meta["iterations"] == 30
    assert np.isfinite(meta["final_loss"])


def _batched_fit_reference(net, schedule, targets, rmap, config, stream):
    """fit_sge written out test-side as the reference, one iteration at a
    time: every sample's draws from its own stream, one net evaluation over
    the N noised states (time features recomputed, not read from the
    table), then one loss and one Adam step per sample on its active
    segment, with moments kept per (sample, segment)."""
    n, d = targets.shape
    streams = [stream.child(f"sample{i}") for i in range(n)]
    sqrt_ab = np.sqrt(schedule.alpha_bar)
    sqrt_1mab = np.sqrt(1.0 - schedule.alpha_bar)
    segments = np.zeros((n, rmap.eta, d))
    mean = np.zeros((rmap.eta, d))
    states, losses = {}, [0.0] * n
    for _ in range(config.iterations):
        ts, eps, eps_prev = [], [], []
        for st in streams:
            ts.append(st.randint(max(rmap.t_lo, 1), rmap.t_hi))
            eps.append(gaussian(st, (d,)))
            eps_prev.append(eps[-1] if config.coupling == "coupled" else gaussian(st, (d,)))
        ts = np.array(ts)
        x_t = sqrt_ab[ts, None] * targets + sqrt_1mab[ts, None] * np.stack(eps)
        eps_net = mlp_forward(net.backbone,
                              np.concatenate([x_t, time_features(ts, net.T)], axis=-1))
        for i, t in enumerate(ts.tolist()):
            seg = segment_for(rmap, t)
            losses[i], grad = sge_loss(eps_net[i], schedule, targets[i], t, x_t[i],
                                       noise_to(schedule, targets[i], t - 1, eps_prev[i]),
                                       segments[i, seg], mean[seg], config.lam)
            m, v, t = states.get((i, seg), (np.zeros(d), np.zeros(d), 0))
            adam_step(segments[i, seg], grad, m, v, t + 1, config.lr)
            states[i, seg] = m, v, t + 1
        mean = segments.mean(axis=0)
    return segments, losses


@pytest.mark.parametrize("coupling", ["coupled", "independent"])
def test_fit_matches_batched_reference(tiny_ring, coupling):
    # fit_sge draws each stream in blocks of iterations; 120 and 45 iterations
    # end on a partial block, and d = 3 drops the last Box-Muller normal
    schedule, net, _, _ = tiny_ring
    targets = np.array([[1.8, 0.4], [-0.6, 1.5], [0.2, -1.9], [0.0, 0.7]])
    odd_net = NoiseNet.init(3, schedule.T, [16, 16], RngStream(19, "net")).freeze()
    odd_targets = np.concatenate([targets, [[0.3], [-1.1], [0.8], [1.4]]], axis=1)
    rmap = RigidityMap(eta=4, t_lo=0, t_hi=schedule.T)
    for fit_net, fit_targets, iterations in ((net, targets, 120), (odd_net, odd_targets, 45)):
        assert iterations % _FIT_BLOCK != 0
        config = SgeFitConfig(lr=0.05, iterations=iterations, lam=0.5, coupling=coupling)
        fitted = fit_sge(fit_net, schedule, fit_targets, rmap, config, RngStream(18, "fit"))
        segments, losses = _batched_fit_reference(fit_net, schedule, fit_targets, rmap, config,
                                                  RngStream(18, "fit"))
        assert fitted.segments.tobytes() == segments.tobytes()
        assert [m["final_loss"] for m in fitted.meta] == losses


# ---------------------------------------------------------------- file IO

def test_sge_round_trip(tmp_path, sched):
    net = _zero_net(2, sched.T)
    targets = np.array([[1.0, 0.5], [-0.5, 0.25]])
    out = fit_sge(net, sched, targets, RigidityMap(eta=4, t_lo=0, t_hi=sched.T),
                  SgeFitConfig(iterations=40), RngStream(14, "fit"))
    path = tmp_path / "set.crds"
    save_sge(path, out)
    loaded = load_sge(path)
    assert len(loaded) == 2
    assert loaded.rmap == out.rmap
    for a, b, meta_a, meta_b in zip(loaded.segments, out.segments, loaded.meta, out.meta):
        np.testing.assert_array_equal(a, b)
        assert meta_a == meta_b
    np.testing.assert_array_equal(loaded.mean_segments, out.mean_segments)


def test_sge_bad_magic(tmp_path):
    path = tmp_path / "bad.crds"
    path.write_bytes(b"XXXX" + b"\0" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_sge(path)


def test_sge_truncated_payload(tmp_path, sched):
    net = _zero_net(2, sched.T)
    out = fit_sge(net, sched, np.array([[1.0, 0.0]]),
                  RigidityMap(eta=2, t_lo=0, t_hi=sched.T),
                  SgeFitConfig(iterations=5), RngStream(15, "fit"))
    path = tmp_path / "set.crds"
    save_sge(path, out)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(FormatError):
        load_sge(path)


def test_sge_empty_set_rejected(tmp_path):
    path = tmp_path / "empty.crds"
    path.write_bytes(b"CRDS" + struct.pack("<IIIIII", 1, 0, 2, 2, 0, 50) + b"[]")
    with pytest.raises(FormatError, match="no samples"):
        load_sge(path)


def test_sge_metadata_count_must_match(tmp_path, sched):
    net = _zero_net(2, sched.T)
    out = fit_sge(net, sched, np.array([[1.0, 0.0], [0.0, 1.0]]),
                  RigidityMap(eta=2, t_lo=0, t_hi=sched.T),
                  SgeFitConfig(iterations=5), RngStream(16, "fit"))
    path = tmp_path / "set.crds"
    save_sge(path, out)
    blob = path.read_bytes()
    payload = blob[:4 + 24 + 8 * 2 * 2 * 2]
    for metas in ([{}], [{}, {}, {}], {"0": {}}):
        path.write_bytes(payload + json.dumps(metas).encode("utf-8"))
        with pytest.raises(FormatError, match="2 entries"):
            load_sge(path)


def test_sge_file_layout(tmp_path):
    # a round trip cannot see a consistent transposition; the bytes can
    n, eta, d, t_lo, t_hi = 3, 2, 4, 5, 40
    segments = np.arange(n * eta * d).reshape(n, eta, d)
    meta = [{"final_loss": 0.5 * i} for i in range(n)]
    path = tmp_path / "layout.crds"
    save_sge(path, SgeSet(segments, RigidityMap(eta=eta, t_lo=t_lo, t_hi=t_hi), meta))
    expected = (b"CRDS" + struct.pack("<IIIIII", 1, n, eta, d, t_lo, t_hi)
                + segments.astype("<f8").tobytes(order="C")
                + json.dumps(meta).encode("utf-8"))
    assert path.read_bytes() == expected
