"""Generation machinery: perturbed guidance, reduction to the plain
sampler, reconstruction determinism, diversity ordering."""
import numpy as np
import pytest

from crdi.diffusion import ddim_step, eps_theta, noise_to
from crdi.errors import InvalidArgumentError
from crdi.numerics import RngStream, gaussian
from crdi.sampler import generate, perturb_guidance, reconstruct, start_step
from crdi.schedules import (PerturbationSchedule, RigidityMap, linear_schedule,
                            make_plan, segment_for)
from crdi.sge import SgeFitConfig, SgeSet, fit_sge, guided_noise


# ------------------------------------------------------------ perturb_guidance

def test_perturb_clean_region_returns_g():
    sched = PerturbationSchedule(alpha_t=20, beta_t=10, s=0.5)
    g = np.array([1.0, -2.0])
    stream = RngStream(0, "p")
    np.testing.assert_array_equal(perturb_guidance(g, 5, sched, stream), g)
    assert stream.counter == 0  # no noise spent in the clean region


def test_perturb_noise_region_zero_scale():
    sched = PerturbationSchedule(alpha_t=20, beta_t=10, s=0.0)
    g = np.array([1.0, -2.0])
    out = perturb_guidance(g, 25, sched, RngStream(1, "p"))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_perturb_noise_region_pure_noise():
    sched = PerturbationSchedule(alpha_t=20, beta_t=10, s=0.3)
    g = np.array([4.0, 4.0])
    out = perturb_guidance(g, 30, sched, RngStream(2, "p"))
    eps = gaussian(RngStream(2, "p"), (2,))
    np.testing.assert_array_equal(out, 0.3 * eps)


def test_perturb_ramp_replay_oracle():
    # gamma = 0.5 at the midpoint: g + s * sqrt(0.5) * eps with recorded eps
    sched = PerturbationSchedule(alpha_t=20, beta_t=10, s=0.1)
    g = np.array([1.0, 0.0, -1.0])
    out = perturb_guidance(g, 15, sched, RngStream(3, "p"))
    eps = gaussian(RngStream(3, "p"), (3,))
    np.testing.assert_allclose(out, g + 0.1 * np.sqrt(0.5) * eps, atol=1e-15)


# ------------------------------------------------------------ reduction

def test_zero_sge_prior_start_equals_unconditional_chain(tiny_ring):
    schedule, net, _, _ = tiny_ring
    plan = make_plan(schedule, 15)
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=schedule.T)
    sched = PerturbationSchedule(alpha_t=schedule.T, beta_t=1, s=0.0)
    stream = RngStream(4, "gen")
    samples = generate(net, schedule, SgeSet.zeros(2, 2, rmap), guidance="per-sample",
                       start="prior", perturb=sched, plan=plan, count=3, stream=stream)

    x = []
    for j in range(3):
        st = RngStream(4, "gen").child(f"out{j}")
        st.randint(0, 1)  # generate() consumed one draw choosing the sge
        x.append(gaussian(st, (2,)))
    x = np.stack(x)  # the plain chains, advanced as one (3, 2) batch
    for t, t_prev in plan.steps_down():
        x = ddim_step(schedule, x, int(t), int(t_prev),
                      eps_theta(net, x, int(t)))
    np.testing.assert_array_equal(samples, x)


def test_generate_requires_frozen_net(tiny_ring):
    schedule, _, _, _ = tiny_ring
    from crdi.diffusion import NoiseNet
    from crdi.numerics import Mlp
    net = NoiseNet(backbone=Mlp.zeros([34, 2]), d=2, T=schedule.T)
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=schedule.T)
    with pytest.raises(InvalidArgumentError):
        generate(net, schedule, SgeSet.zeros(1, 2, rmap),
                 start="prior", perturb=PerturbationSchedule(alpha_t=50, beta_t=1, s=0.0),
                 plan=make_plan(schedule, 5), count=1, stream=RngStream(0))


def test_window_must_cover_guided_steps(tiny_ring):
    schedule, net, _, _ = tiny_ring
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=10)  # far below the start step
    with pytest.raises(InvalidArgumentError):
        generate(net, schedule, SgeSet.zeros(1, 2, rmap),
                 start="prior",
                 perturb=PerturbationSchedule(alpha_t=schedule.T, beta_t=1, s=0.0),
                 plan=make_plan(schedule, 10), count=1, stream=RngStream(5, "gen"))


def test_request_validation():
    required = dict(perturb=PerturbationSchedule(alpha_t=50, beta_t=1, s=0.0),
                    plan=make_plan(linear_schedule(50, 1e-4, 0.02), 5), stream=RngStream(0))
    for bad, message in ((dict(count=0), "count"), (dict(guidance="Mean"), "guidance 'Mean'"),
                         (dict(start="nosied"), "start 'nosied'")):
        with pytest.raises(InvalidArgumentError, match=message):
            generate(None, None, None, **required, **bad)


# ------------------------------------------------------------ reconstruct

@pytest.fixture(scope="module")
def fitted_tiny(tiny_ring):
    schedule, net, _, _ = tiny_ring
    targets = np.array([[1.8, 0.4], [-0.6, 1.5], [0.2, -1.9]])
    rmap = RigidityMap(eta=4, t_lo=0, t_hi=schedule.T)
    sge_set = fit_sge(net, schedule, targets, rmap,
                      SgeFitConfig(lr=0.05, iterations=600, lam=0.1),
                      RngStream(6, "fit"))
    return schedule, net, sge_set


@pytest.mark.parametrize("guidance", ["per-sample", "mean"])
@pytest.mark.parametrize("start_sample", [5, -1])
def test_generate_rejects_unknown_start_sample(fitted_tiny, guidance, start_sample):
    schedule, net, sge_set = fitted_tiny  # three samples
    with pytest.raises(InvalidArgumentError, match="unknown sample id"):
        generate(net, schedule, sge_set,
                 guidance=guidance, start="noised", start_sample=start_sample,
                 perturb=PerturbationSchedule(alpha_t=40, beta_t=20, s=0.1),
                 plan=make_plan(schedule, 10), count=2, stream=RngStream(11, "gen"))


def test_reconstruct_deterministic(fitted_tiny):
    schedule, net, sge_set = fitted_tiny
    plan = make_plan(schedule, 15)
    a = reconstruct(net, schedule, sge_set, 1, RngStream(7, "r"), plan, alpha_t=40)
    b = reconstruct(net, schedule, sge_set, 1, RngStream(7, "r"), plan, alpha_t=40)
    np.testing.assert_array_equal(a, b)


def test_reconstruct_tracks_target(fitted_tiny):
    # guided reconstruction must beat the unguided chain on its own target
    schedule, net, sge_set = fitted_tiny
    plan = make_plan(schedule, 15)
    rmap = sge_set.rmap
    zero = SgeSet.zeros(3, 2, rmap, targets=sge_set.targets)
    guided_err, unguided_err = [], []
    for i in range(3):
        target = sge_set.targets[i]
        g = reconstruct(net, schedule, sge_set, i, RngStream(8, f"r{i}"), plan,
                        alpha_t=40)
        u = reconstruct(net, schedule, zero, i, RngStream(8, f"r{i}"), plan,
                        alpha_t=40)
        guided_err.append(np.linalg.norm(g - target))
        unguided_err.append(np.linalg.norm(u - target))
    assert np.mean(guided_err) < np.mean(unguided_err)


def test_reconstruct_unknown_sample(fitted_tiny):
    schedule, net, sge_set = fitted_tiny
    with pytest.raises(InvalidArgumentError):
        reconstruct(net, schedule, sge_set, 7, RngStream(0), make_plan(schedule, 5),
                    alpha_t=40)


def test_reconstruct_guides_every_step_from_alpha_t(fitted_tiny, monkeypatch):
    # plan steps 0, 6, 11, 17, 22, 28, 33, 39, ...: alpha_t = 38 starts at 33,
    # and every step, the first included, gets the fitted segment
    import crdi.sampler

    schedule, net, sge_set = fitted_tiny
    calls = []

    def recording(net, schedule, x_t, t, g):
        calls.append((t, g.copy()))
        return guided_noise(net, schedule, x_t, t, g)

    monkeypatch.setattr(crdi.sampler, "guided_noise", recording)
    reconstruct(net, schedule, sge_set, 1, RngStream(7, "r"), make_plan(schedule, 10),
                alpha_t=38)
    assert [t for t, _ in calls] == [33, 28, 22, 17, 11, 6]
    for t, g in calls:
        np.testing.assert_array_equal(g, sge_set.segments[[1], segment_for(sge_set.rmap, t)])


def test_one_dimensional_closed_form_guidance_reconstructs_exactly():
    """Zero net in 1-D with one segment per timestep: the closed-form
    guidance g_t = -eps/sqrt(1 - ab_t) keeps the chain on the forward
    noising ray, so reconstruction lands on the target."""
    from crdi.diffusion import NoiseNet
    from crdi.numerics import Mlp

    sched1 = linear_schedule(50, 1e-4, 0.02)
    net = NoiseNet(backbone=Mlp.zeros([1 + 32, 1]), d=1, T=50).freeze()
    target = np.array([1.5])
    alpha_t = 24
    # replicate the noise reconstruct() will draw for the start state
    eps = gaussian(RngStream(9, "r").child("out0"), (1,))

    rmap = RigidityMap(eta=50, t_lo=1, t_hi=50)  # one segment per timestep
    segments = np.array([-eps / sched1.sqrt_one_minus_ab(t)
                         for t in range(1, 51)])
    sge_set = SgeSet(segments[None], rmap, [{}], targets=target[None, :])
    plan = make_plan(sched1, 26)  # even timesteps only, so the chain
    out = reconstruct(net, sched1, sge_set, 0, RngStream(9, "r"), plan,
                      alpha_t=alpha_t)  # starts right at t = 24, fully guided
    assert abs(out[0] - target[0]) < 1e-10


@pytest.mark.parametrize("guidance, start, start_sample", [
    pytest.param("per-sample", "noised", None, id="per-sample"),
    pytest.param("mean", "noised", None, id="mean"),
    pytest.param("mean", "prior", None, id="mean-prior"),
    pytest.param("per-sample", "noised", 1, id="per-sample-start_sample"),
])
def test_generate_draw_order_per_chain(fitted_tiny, guidance, start, start_sample):
    # chain j draws from its own stream: the embedding choice (per-sample) or
    # the start target choice (mean), unless start_sample fixes it or mean
    # guidance from the prior needs none, the start noise, then one
    # perturbation per perturbed step; the chains then advance as one batch
    schedule, net, sge_set = fitted_tiny
    plan = make_plan(schedule, 15)
    sched = PerturbationSchedule(alpha_t=40, beta_t=20, s=0.3)
    samples = generate(net, schedule, sge_set, guidance=guidance, start=start,
                       start_sample=start_sample, perturb=sched, plan=plan, count=5,
                       stream=RngStream(12, "gen"))

    t_start = start_step(plan, sge_set.rmap, start, sched.alpha_t)
    streams = [RngStream(12, "gen").child(f"out{j}") for j in range(5)]
    if start_sample is not None:
        choice = [start_sample] * 5
    elif guidance == "mean" and start == "prior":
        choice = [None] * 5
    else:
        choice = [st.randint(0, 2) for st in streams]
    x = np.stack([gaussian(st, (2,)) for st in streams])
    if start == "noised":
        x = np.stack([noise_to(schedule, sge_set.targets[i], t_start, xj)
                      for i, xj in zip(choice, x)])
    own = [sge_set.mean_segments if guidance == "mean" else sge_set.segments[i]
           for i in choice]
    perturbed = 0
    for t, t_prev in plan.steps_down():
        t, t_prev = int(t), int(t_prev)
        if t > t_start:
            continue
        seg = segment_for(sge_set.rmap, t)
        g = np.stack([perturb_guidance(segs[seg], t, sched, st)
                      for segs, st in zip(own, streams)])
        perturbed += t > sched.beta_t
        x = ddim_step(schedule, x, t, t_prev, guided_noise(net, schedule, x, t, g))
    assert perturbed >= 2
    np.testing.assert_array_equal(samples, x)


# ------------------------------------------------------------ diversity

def _mean_pairwise(samples: np.ndarray) -> float:
    d = np.linalg.norm(samples[:, None, :] - samples[None, :, :], axis=-1)
    iu = np.triu_indices(samples.shape[0], k=1)
    return float(d[iu].mean())


def test_perturbation_scale_orders_diversity(fitted_tiny):
    schedule, net, sge_set = fitted_tiny
    plan = make_plan(schedule, 15)

    def spread(s):
        # one shared start target isolates the perturbation's contribution
        sched = PerturbationSchedule(alpha_t=schedule.T, beta_t=30, s=s)
        return _mean_pairwise(generate(net, schedule, sge_set, guidance="per-sample",
                                       start="noised", start_sample=0, perturb=sched,
                                       plan=plan, count=64, stream=RngStream(10, "gen")))

    spreads = [spread(s) for s in (0.0, 0.05, 0.1, 0.25)]
    assert all(a <= b + 1e-12 for a, b in zip(spreads, spreads[1:]))
    assert spreads[2] > spreads[0]  # strict at s = 0.1 vs s = 0
