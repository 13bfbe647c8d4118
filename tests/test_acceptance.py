"""Acceptance battery: one test per criterion, tolerances pinned.

The quality criteria run on fixed seeds with the tuned default-scale
configurations; the two source models come from session-scoped fixtures
so they are trained exactly once.
"""
import json
import time

import numpy as np
import pytest

from crdi.diffusion import ddim_step, eps_theta, noise_to, predict_x0, \
    noise_from_score, score_from_noise
from crdi.metrics import frechet, mc_ssim, ssim
from crdi.numerics import Mlp, RngStream, gaussian, layer_views, mlp_backward, mlp_forward
from crdi.sampler import generate, reconstruct
from crdi.schedules import (PerturbationSchedule, RigidityMap, gamma,
                            linear_schedule, make_plan)
from crdi.sge import SgeFitConfig, SgeSet, fit_sge, sge_loss
from crdi.workbench import ExperimentConfig
from crdi.workbench.domains import flatten, synth_domain
from crdi.workbench.experiment import run_experiment


def _ring_config(ckpt: str, **overrides) -> ExperimentConfig:
    base = dict(schedule__T=400, train__checkpoint=ckpt,
                sge__lr=0.05, sge__iterations=1500, sge__eta=8)
    base.update(overrides)
    return ExperimentConfig.defaults(**base)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_suite():
    """sge_loss and mlp_backward match central finite differences to 1e-4
    relative error on >= 100 random probes each, in under 30 s."""
    t0 = time.monotonic()
    h = 1e-4

    def rel_ok(analytic, fd):
        scale = max(abs(analytic), abs(fd), 1e-6)
        return abs(analytic - fd) / scale < 1e-4

    # --- mlp_backward: 100 probes, each checking one random weight entry
    # and one random input entry
    stream = RngStream(100, "mlp-probes")
    net = Mlp.init([4, 8, 6, 3], RngStream(100, "net"))
    out = np.empty_like(net.params)
    grads = layer_views(net.widths, out)
    for _ in range(100):
        x = gaussian(stream, (4,))
        up = gaussian(stream, (3,))
        tape = []
        mlp_forward(net, x, tape=tape)
        mlp_backward(net, x, up, tape, out)
        # one row: the input gradient delta0 W0^T is W0 db0
        input_grad = net.weights[0] @ grads[1]
        layer = stream.randint(0, 2)
        w = net.weights[layer]
        i = stream.randint(0, w.shape[0] - 1)
        j = stream.randint(0, w.shape[1] - 1)
        orig = w[i, j]
        w[i, j] = orig + h
        f_plus = float(up @ mlp_forward(net, x))
        w[i, j] = orig - h
        f_minus = float(up @ mlp_forward(net, x))
        w[i, j] = orig
        assert rel_ok(grads[2 * layer][i, j], (f_plus - f_minus) / (2 * h))
        k = stream.randint(0, 3)
        e = np.zeros(4)
        e[k] = h
        fd_in = (up @ mlp_forward(net, x + e) - up @ mlp_forward(net, x - e)) / (2 * h)
        assert rel_ok(input_grad[k], fd_in)

    # --- sge_loss: 100 probes over random draws and penalty weights
    schedule = linear_schedule(80, 1e-4, 0.02)
    from crdi.diffusion import NoiseNet
    dnet = NoiseNet.init(3, 80, [16, 16], RngStream(101, "net")).freeze()
    stream = RngStream(101, "loss-probes")
    for probe in range(100):
        x0 = gaussian(stream, (3,))
        t = stream.randint(1, 80)
        eps = gaussian(stream, (3,))
        eps_prev = gaussian(stream, (3,))
        g = gaussian(stream, (3,))
        g_mean = gaussian(stream, (3,))
        lam = [0.0, 1.0, 10.0][probe % 3]
        x_t = noise_to(schedule, x0, t, eps)
        x_prev = noise_to(schedule, x0, t - 1, eps_prev)
        eps_net = eps_theta(dnet, x_t, t)
        _, grad = sge_loss(eps_net, schedule, x0, t, x_t, x_prev, g, g_mean, lam)
        k = stream.randint(0, 2)
        e = np.zeros(3)
        e[k] = h
        lp, _ = sge_loss(eps_net, schedule, x0, t, x_t, x_prev, g + e, g_mean, lam)
        lm, _ = sge_loss(eps_net, schedule, x0, t, x_t, x_prev, g - e, g_mean, lam)
        assert rel_ok(grad[k], (lp - lm) / (2 * h))

    assert time.monotonic() - t0 < 30.0


# --------------------------------------------------------------- criterion 2

def test_criterion_2_algebraic_suite():
    """Noising round trip <= 1e-10; score round trip <= 1e-12; annealing
    boundary values exact; variance-preserving identity exact."""
    schedule = linear_schedule(1000, 1e-4, 0.02)
    stream = RngStream(200, "alg")
    for t in (1, 10, 250, 500, 999, 1000):
        x0 = gaussian(stream, (4,))
        eps = gaussian(stream, (4,))
        x_t = noise_to(schedule, x0, t, eps)
        assert np.max(np.abs(predict_x0(schedule, x_t, t, eps) - x0)) <= 1e-10
        back = noise_from_score(schedule, score_from_noise(schedule, eps, t), t)
        assert np.max(np.abs(back - eps)) <= 1e-12

    sched = PerturbationSchedule(alpha_t=20, beta_t=10, s=0.1)
    assert gamma(sched, 10) == 1.0
    assert gamma(sched, 20) == 0.0
    assert gamma(sched, 15) == 0.5

    for t in range(schedule.T + 1):
        ab = schedule.alpha_bar[t]
        assert ab + (1.0 - ab) == 1.0


# --------------------------------------------------------------- criterion 3

def test_criterion_3_reduction_suite(tiny_ring):
    """Zero SGE + s=0 generation is bit-identical to the plain chain;
    fitting never touches the frozen model."""
    schedule, net, _, _ = tiny_ring
    plan = make_plan(schedule, 15)
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=schedule.T)
    samples = generate(
        net, schedule, SgeSet.zeros(2, 2, rmap),
        guidance="per-sample", start="prior",
        perturb=PerturbationSchedule(alpha_t=schedule.T, beta_t=1, s=0.0),
        plan=plan, count=4, stream=RngStream(300, "gen"))
    x = []
    for j in range(4):
        st = RngStream(300, "gen").child(f"out{j}")
        st.randint(0, 1)  # the embedding choice generate() made
        x.append(gaussian(st, (2,)))
    x = np.stack(x)  # the plain chains, advanced as one (4, 2) batch
    for t, t_prev in plan.steps_down():
        x = ddim_step(schedule, x, int(t), int(t_prev),
                      eps_theta(net, x, int(t)))
    np.testing.assert_array_equal(samples, x)

    before = net.param_checksum()
    fit_sge(net, schedule, np.array([[1.0, -0.5], [0.3, 0.9]]),
            RigidityMap(eta=4, t_lo=0, t_hi=schedule.T),
            SgeFitConfig(lr=0.05, iterations=200), RngStream(301, "fit"))
    assert net.param_checksum() == before


# --------------------------------------------------------------- criterion 4

def test_criterion_4_reconstruction_rigidity_trend(sprite_model):
    """Sprite reconstruction SSIM is non-decreasing across eta in
    {1, 8, 25} and gains at least 0.05 from eta=1 to eta=25."""
    schedule, net, _ = sprite_model
    cfg = ExperimentConfig.defaults(
        schedule__T=400, source__kind="sprite-images",
        target__kind="sprite-images", run__k=10)
    targets = flatten(synth_domain(cfg.domain_spec("target"), 10))
    plan = make_plan(schedule, 25)
    alpha_t = 320

    mean_ssim = {}
    for eta in (1, 8, 25):
        rmap = RigidityMap(eta=eta, t_lo=0, t_hi=alpha_t)
        sge_set = fit_sge(net, schedule, targets, rmap,
                          SgeFitConfig(lr=0.05, lam=0.1, iterations=8000),
                          RngStream(0, "fit"))
        recon = [reconstruct(net, schedule, sge_set, i, RngStream(0, f"r{i}"),
                             plan, alpha_t=alpha_t) for i in range(10)]
        mean_ssim[eta] = float(np.mean(
            [ssim(r.reshape(16, 16), t.reshape(16, 16))
             for r, t in zip(recon, targets)]))

    assert mean_ssim[1] <= mean_ssim[8] <= mean_ssim[25], mean_ssim
    assert mean_ssim[25] - mean_ssim[1] >= 0.05, mean_ssim


# --------------------------------------------------------------- criterion 5

def test_criterion_5_component_ablation(ring_model, tmp_path):
    """Full pipeline beats the no-guidance ablation on Frechet distance by
    >= 30% and the no-perturbation run is strictly less diverse."""
    _, _, ckpt = ring_model
    reports = {}
    for ablation in ("none", "no-sge", "no-perturbation"):
        cfg = _ring_config(ckpt, run__ablation=ablation)
        run_experiment(cfg, tmp_path / ablation)
        reports[ablation] = json.loads(
            (tmp_path / ablation / "report.json").read_text())

    full = reports["none"]
    assert full["frechet"] <= 0.7 * reports["no-sge"]["frechet"], \
        (full["frechet"], reports["no-sge"]["frechet"])
    assert reports["no-perturbation"]["intra_diversity"] < \
        full["intra_diversity"], \
        (reports["no-perturbation"]["intra_diversity"], full["intra_diversity"])


# --------------------------------------------------------------- criterion 6

def test_criterion_6_rigidity_diversity_curve(ring_model, tmp_path):
    """Across eta in {1, 4, 8, 16, 25}, diversity at eta=25 does not
    exceed the best interior value (rise-then-decline shape)."""
    _, _, ckpt = ring_model
    div = {}
    for eta in (1, 4, 8, 16, 25):
        cfg = _ring_config(ckpt, sge__eta=eta)
        run_experiment(cfg, tmp_path / f"eta{eta}")
        div[eta] = json.loads(
            (tmp_path / f"eta{eta}" / "report.json").read_text())["intra_diversity"]
    assert div[25] <= max(div[4], div[8], div[16]), div


# --------------------------------------------------------------- criterion 7

def test_criterion_7_shot_count_trend(ring_model, tmp_path):
    """Frechet distance to the target domain is non-increasing across
    k in {1, 5, 10} shots at the pinned seed."""
    _, _, ckpt = ring_model
    fd = []
    for k in (1, 5, 10):
        cfg = _ring_config(ckpt, run__k=k, run__count=128,
                           run__eval_count=1024)
        run_experiment(cfg, tmp_path / f"k{k}")
        fd.append(json.loads(
            (tmp_path / f"k{k}" / "report.json").read_text())["frechet"])
    assert fd[0] >= fd[1] >= fd[2], fd


# --------------------------------------------------------------- criterion 8

def test_criterion_8_metric_oracles():
    """Frechet matches the fitted-moment closed form within 5% on 1-D
    Gaussians; self mc_ssim is 1; ssim identity and symmetry hold."""
    stream = RngStream(800, "fd")
    a = gaussian(stream, (10_000, 1))
    b = 1.0 + gaussian(stream, (10_000, 1))
    fd = frechet(a, b)
    ref = (a.mean() - b.mean()) ** 2 + (a.std(ddof=1) - b.std(ddof=1)) ** 2
    assert abs(fd - ref) / ref < 0.05
    assert abs(fd - 1.0) < 0.15

    imgs = [np.clip(0.5 + 0.2 * gaussian(RngStream(801, f"i{i}"), (16, 16)), 0, 1)
            for i in range(4)]
    assert mc_ssim(imgs, imgs, n=1) == pytest.approx(1.0, abs=1e-12)
    assert ssim(imgs[0], imgs[0]) == pytest.approx(1.0, abs=1e-12)
    assert ssim(imgs[0], imgs[1]) == pytest.approx(ssim(imgs[1], imgs[0]),
                                                   abs=1e-12)


# --------------------------------------------------------------- criterion 9

def test_criterion_9_pipeline_determinism(tmp_path):
    """run_experiment repeated on one config and seed produces bit-identical
    artifacts and reports (timestamps excluded)."""
    cfg_kwargs = dict(schedule__T=60, inference__steps=10, train__steps=150,
                      train__batch=32, train__hidden="24,24",
                      sge__iterations=80, sge__lr=0.05,
                      run__count=12, run__eval_count=48, run__k=3)
    for name in ("a", "b"):
        run_experiment(ExperimentConfig.defaults(**cfg_kwargs), tmp_path / name)
    for artifact in ("model.crdn", "loss_trace.crdt", "sge.crds",
                     "targets.crdt", "samples.crdt", "report.json",
                     "report.csv", "config.toml"):
        assert (tmp_path / "a" / artifact).read_bytes() == \
            (tmp_path / "b" / artifact).read_bytes(), artifact
    manifests = [json.loads((tmp_path / n / "manifest.json").read_text())
                 for n in ("a", "b")]
    for m in manifests:
        m.pop("timestamps")
        m["artifacts"] = {k: v.rsplit("/", 1)[-1]
                          for k, v in m["artifacts"].items()}
    assert manifests[0] == manifests[1]
