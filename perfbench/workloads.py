"""The benchmark's workloads: configs, set-up, one timed pass, output checks,
quality guards and the closed-form call counts of a traced pass.

Every workload drives crdi through its public API the way a user would:
``run_experiment`` (the path behind ``crdi report``), ``sweep`` and
``prepare_source_model`` (behind ``crdi train-source``). The workload seed
feeds ``run.seed``; everything else is pinned here.
"""
from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crdi.workbench as wb
from crdi.diffusion import TIME_EMBED_DIM, load_checkpoint
from crdi.numerics import RngStream
from crdi.sampler import reconstruct
from crdi.schedules import linear_schedule, make_plan
from crdi.sge import load_sge
from crdi.workbench import ExperimentConfig, read_tensor
from crdi.workbench.domains import sample_shape

# The ROADMAP's pinned ring pipeline.
RING = dict(schedule__T=400, train__steps=2500, train__batch=128,
            train__hidden="96,96", sge__iterations=1500, sge__eta=8,
            sge__lr=0.05, run__k=10, run__count=64)

SPRITES = dict(source__kind="sprite-images", target__kind="sprite-images")

# Sprite source model, trained to a checkpoint during set-up.
SPRITE_SOURCE = dict(schedule__T=400, train__steps=1000, train__batch=128,
                     train__hidden="256,256", train__lr=8e-4, **SPRITES)

# Adaptation without fine-tuning: the frozen sprite model plus SGE.
SPRITE_ADAPT = dict(schedule__T=400, train__hidden="256,256",
                    sge__iterations=1500, sge__eta=25, sge__lam=0.1,
                    sge__lr=0.05, sge__window_hi_frac=0.8,
                    perturb__alpha_frac=0.8, perturb__beta_frac=0.5,
                    run__count=256, **SPRITES)

# Ring sweep: every cell retrains the same source model.
SWEEP_BASE = dict(schedule__T=400, train__steps=1000, train__batch=128,
                  train__hidden="96,96", sge__iterations=600, sge__lr=0.05,
                  run__k=10, run__count=64)
SWEEP_PARAM = "sge.eta"
SWEEP_VALUES = [1, 8, 25]

# A short pipeline run at the workload's shapes, made during set-up so that
# one-off process costs (allocator growth, BLAS thread start) land there.
WARM_UP = dict(train__steps=100, sge__iterations=20, run__k=2, run__count=8)

# Stage calls that count as one attempted operation each.
OPS = ("source", "fit", "generate", "evaluate")


@dataclass
class PassCheck:
    """Outcome of the output checks on one pass."""

    failures: dict = field(default_factory=dict)     # op -> [message]
    fingerprint: dict = field(default_factory=dict)  # artifact -> sha256 of its bytes
    quality: dict = field(default_factory=dict)

    def fail(self, op: str, message: str):
        self.failures.setdefault(op, []).append(message)


def _sha(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _finite_shape(check: PassCheck, op: str, arr, shape, what: str):
    arr = np.asarray(arr)
    if arr.shape != tuple(shape):
        check.fail(op, f"{what} has shape {arr.shape}, expected {tuple(shape)}")
    elif not np.all(np.isfinite(arr)):
        check.fail(op, f"{what} holds non-finite values")


def check_run_dir(cfg: ExperimentConfig, run_dir: Path, check: PassCheck,
                  prefix: str = ""):
    """Checks the artifacts of one run_experiment call, attributing each
    failure to the stage that wrote the artifact."""
    d = int(np.prod(sample_shape(cfg.domain_spec("target"))))
    k, count = cfg["run"]["k"], cfg["run"]["count"]
    eta = cfg["sge"]["eta"]
    try:
        if not cfg["train"]["checkpoint"]:
            net = load_checkpoint(run_dir / "model.crdn")
            widths = [d + TIME_EMBED_DIM, *cfg.hidden_widths(), d]
            if net.backbone.widths != widths:
                check.fail("source", f"{prefix}model widths {net.backbone.widths} != {widths}")
            for p in net.backbone.parameters():
                if not np.all(np.isfinite(p)):
                    check.fail("source", f"{prefix}model holds non-finite weights")
                    break
            _finite_shape(check, "source", read_tensor(run_dir / "loss_trace.crdt"),
                          (cfg["train"]["steps"],), f"{prefix}loss_trace")
    except Exception as exc:  # a bad artifact fails its stage, not the run
        check.fail("source", f"{prefix}{exc!r}")
    try:
        sge_set = load_sge(run_dir / "sge.crds")
        _finite_shape(check, "fit", np.array([m.segments for m in sge_set.members]),
                      (k, eta, d), f"{prefix}sge")
        _finite_shape(check, "fit", read_tensor(run_dir / "targets.crdt"), (k, d),
                      f"{prefix}targets")
        losses = [m.meta.get("final_loss", np.nan) for m in sge_set.members]
        check.quality.setdefault("final_losses", []).extend(losses)
    except Exception as exc:
        check.fail("fit", f"{prefix}{exc!r}")
    try:
        _finite_shape(check, "generate", read_tensor(run_dir / "samples.crdt"),
                      (count, d), f"{prefix}samples")
        check.fingerprint[f"{prefix}samples"] = _sha(run_dir / "samples.crdt")
    except Exception as exc:
        check.fail("generate", f"{prefix}{exc!r}")
    try:
        report = json.loads((run_dir / "report.json").read_text())
        check.fingerprint[f"{prefix}report"] = _sha(run_dir / "report.json")
        values = [report["frechet"], report["intra_diversity"]]
        if cfg.domain_spec("target").kind == "sprite-images":
            if len(report["ssim_per_pair"]) != k:
                check.fail("evaluate", f"{prefix}expected {k} reconstruction SSIMs")
            values += [report["mc_ssim"], *report["ssim_per_pair"]]
            check.quality["recon_ssim"] = float(np.mean(report["ssim_per_pair"]))
        if not np.all(np.isfinite(np.array(values, dtype=np.float64))):
            check.fail("evaluate", f"{prefix}report holds non-finite metrics")
        if report["counts"]["generated"] != count:
            check.fail("evaluate", f"{prefix}report counts {report['counts']}")
        check.quality.setdefault("frechet", []).append(float(report["frechet"]))
    except Exception as exc:
        check.fail("evaluate", f"{prefix}{exc!r}")


def plan_steps(T: int, steps: int, top: int) -> int:
    """Number of DDIM steps a chain that starts at the highest plan step
    <= top takes down to 0."""
    tau = np.unique(np.round(np.linspace(0, T, steps)).astype(np.int64))
    return int(np.count_nonzero((tau > 0) & (tau <= tau[tau <= top].max())))


def eps_rows(cfg: ExperimentConfig) -> int:
    """Network rows one run_experiment evaluates: one per sample and fit
    iteration, one per chain step of every generated chain and, for images,
    of every reconstruction."""
    T, steps = cfg["schedule"]["T"], cfg["inference"]["steps"]
    k, count = cfg["run"]["k"], cfg["run"]["count"]
    alpha_t = int(round(cfg["perturb"]["alpha_frac"] * T))
    rows = k * cfg["sge"]["iterations"] + count * plan_steps(T, steps, alpha_t)
    if cfg.domain_spec("target").kind == "sprite-images":
        # reconstruct anneals over [alpha_t, alpha_t + 1]
        rows += k * plan_steps(T, steps, alpha_t + 1)
    return rows


def warm_up(cfg: ExperimentConfig, out: Path):
    wb.run_experiment(cfg, out)
    shutil.rmtree(out, ignore_errors=True)


def with_values(cfg: ExperimentConfig, **dotted) -> ExperimentConfig:
    """Copy of cfg with section__key overrides."""
    values = {sec: dict(kv) for sec, kv in cfg.values.items()}
    for key, val in dotted.items():
        sec, name = key.split("__")
        values[sec][name] = val
    return ExperimentConfig.from_dict(values)


def model_path(cfg: ExperimentConfig, run_dir: Path) -> Path:
    return Path(cfg["train"]["checkpoint"] or run_dir / "model.crdn")


def recon_mse(cfg: ExperimentConfig, run_dir: Path) -> float:
    """Mean squared error of the deterministic reconstructions of the fitted
    targets, made from the run's artifacts the way `crdi reconstruct` does,
    started at the annealing top as evaluate does."""
    T = cfg["schedule"]["T"]
    schedule = linear_schedule(T, cfg["schedule"]["beta_start"], cfg["schedule"]["beta_end"])
    net = load_checkpoint(model_path(cfg, run_dir))
    sge_set = load_sge(run_dir / "sge.crds")
    sge_set.targets = read_tensor(run_dir / "targets.crdt")
    plan = make_plan(schedule, cfg["inference"]["steps"])
    alpha_t = int(round(cfg["perturb"]["alpha_frac"] * T))
    seed = cfg["run"]["seed"]
    errors = [np.mean((reconstruct(net, schedule, sge_set, i, RngStream(seed, f"recon{i}"),
                                   plan, alpha_t=alpha_t) - target) ** 2)
              for i, target in enumerate(sge_set.targets)]
    return float(np.mean(errors))


class Workload:
    """One workload: ``setup`` makes ``self.runs``, the (subdirectory,
    config) of every run_experiment call one pass makes. Set-up may run
    several times per invocation; each pass writes into a fresh directory."""

    name = ""
    runs: list
    setup_train_steps = 0     # source-training steps in one set-up
    setup_batch = 0
    sweeps = 0                # sweep calls in one pass

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def config(self, overrides: dict, **extra) -> ExperimentConfig:
        return ExperimentConfig.defaults(**overrides, **extra, run__seed=self.seed)

    def warm_up(self):
        """Untraced work done before each set-up; counts toward set-up time."""

    def setup(self):
        raise NotImplementedError

    def run_pass(self, out: Path):
        raise NotImplementedError

    def check_setup(self) -> PassCheck:
        """Checks what set-up wrote; fingerprints are compared across set-ups."""
        return PassCheck()

    def check(self, out: Path) -> PassCheck:
        check = PassCheck()
        for sub, cfg in self.runs:
            check_run_dir(cfg, out / sub, check, prefix=f"{sub}/" if sub else "")
        return check

    def guard(self, out: Path, check: PassCheck) -> tuple:
        """Quality guard on a checked pass, against the no-sge ablation run on
        the same model: the fitted embeddings must reconstruct the targets
        better than no embeddings do, by SSIM for images (as evaluate scores
        them) and by squared error for points. Returns (problems, quality)."""
        sub, cfg = self.runs[0]
        ablation = with_values(cfg, train__checkpoint=str(model_path(cfg, out / sub)),
                               run__ablation="no-sge")
        abl_dir = out.parent / "ablation"
        wb.run_experiment(ablation, abl_dir)
        abl = PassCheck()
        check_run_dir(ablation, abl_dir, abl)
        problems = [f"ablation: {op}: {m}" for op, ms in abl.failures.items() for m in ms]
        mse0 = recon_mse(ablation, abl_dir)
        mse = [recon_mse(c, out / s) for s, c in self.runs]
        quality = {"recon_mse": float(np.mean(mse)), "recon_mse_no_sge": mse0,
                   "frechet_no_sge": abl.quality["frechet"][0]}
        if "recon_ssim" in abl.quality:
            s, s0 = check.quality["recon_ssim"], abl.quality["recon_ssim"]
            quality.update(recon_ssim=s, recon_ssim_no_sge=s0)
            if not s > s0:
                problems.append(f"recon_ssim {s:.4f} does not beat the no-sge ablation {s0:.4f}")
        else:
            problems += [f"{s or 'run'}: reconstruction MSE {m:.4g} does not beat the "
                         f"no-sge ablation {mse0:.4g}" for (s, _), m in zip(self.runs, mse)
                         if not m < mse0]
        return problems, quality

    def _sum(self, fn) -> int:
        return sum(fn(cfg) for _, cfg in self.runs)

    def train_work(self) -> int:
        """Source-training steps in one pass."""
        return self._sum(lambda c: 0 if c["train"]["checkpoint"] else c["train"]["steps"])

    def fit_work(self) -> int:
        """SGE sample-iterations (k x iterations) in one pass."""
        return self._sum(lambda c: c["run"]["k"] * c["sge"]["iterations"])

    def chains(self) -> int:
        """Guided chains generated in one pass, reconstructions excluded."""
        return self._sum(lambda c: c["run"]["count"])

    def expected_counts(self) -> dict:
        """Closed-form counts of one traced set-up plus one traced pass."""
        images = [c for _, c in self.runs if c.domain_spec("target").kind == "sprite-images"]
        trained = [c for _, c in self.runs if not c["train"]["checkpoint"]]
        steps = self.setup_train_steps + self.train_work()
        rows = self._sum(eps_rows)
        fit = self.fit_work()
        return {
            "numerics.mlp_backward.calls": steps,
            "numerics.mlp_forward.rows": self.setup_train_steps * self.setup_batch
            + sum(c["train"]["steps"] * c["train"]["batch"] for c in trained) + rows,
            "numerics.adam_step.calls": steps + fit,
            "diffusion.eps_theta.rows": rows,
            "diffusion.train_source.calls": len(trained) + bool(self.setup_train_steps),
            "sge.sge_loss.calls": fit,
            # per-target mc_ssim, SSIM cluster assignment, reconstructions
            "metrics.ssim.calls": sum(2 * c["run"]["count"] * c["run"]["k"] + c["run"]["k"]
                                      for c in images),
            "sampler.reconstruct.calls": sum(c["run"]["k"] for c in images),
            "workbench.run_experiment.calls": len(self.runs),
            "workbench.sweep.calls": self.sweeps,
        }


class RingReport(Workload):
    name = "ring_report"

    def warm_up(self):
        warm_up(self.config({**RING, **WARM_UP}), self.work / "warm-up")

    def setup(self):
        self.runs = [("", self.config(RING))]

    def run_pass(self, out: Path):
        wb.run_experiment(self.runs[0][1], out)


class SpriteAdapt(Workload):
    name = "sprite_adapt"

    def setup(self):
        src = self.config(SPRITE_SOURCE)
        model_dir = self.work / "source"
        shutil.rmtree(model_dir, ignore_errors=True)
        model_dir.mkdir(parents=True)
        wb.experiment.prepare_source_model(src, model_dir)
        self.setup_train_steps = src["train"]["steps"]
        self.setup_batch = src["train"]["batch"]
        self.checkpoint = model_dir / "model.crdn"
        self.runs = [("", self.config(SPRITE_ADAPT, train__checkpoint=str(self.checkpoint)))]

    def check_setup(self) -> PassCheck:
        check = PassCheck()
        try:
            net = load_checkpoint(self.checkpoint)
            if not all(np.all(np.isfinite(p)) for p in net.backbone.parameters()):
                check.fail("source", "checkpoint holds non-finite weights")
            check.fingerprint["checkpoint"] = _sha(self.checkpoint)
        except Exception as exc:
            check.fail("source", repr(exc))
        return check

    def run_pass(self, out: Path):
        wb.run_experiment(self.runs[0][1], out)


class RingSweep(Workload):
    name = "ring_sweep"
    sweeps = 1

    def setup(self):
        self.base = self.config(SWEEP_BASE)
        sec, key = SWEEP_PARAM.split(".")
        self.runs = [(f"{sec}.{key}={val}", with_values(self.base, **{f"{sec}__{key}": val}))
                     for val in SWEEP_VALUES]

    def warm_up(self):
        warm_up(self.config({**SWEEP_BASE, **WARM_UP}), self.work / "warm-up")

    def run_pass(self, out: Path):
        wb.sweep(self.base, SWEEP_PARAM, SWEEP_VALUES, out)

    def check(self, out: Path) -> PassCheck:
        check = super().check(out)
        try:
            lines = (out / "sweep.csv").read_text().splitlines()
            got = [row.split(",")[0] for row in lines[1:]]
            if lines[0].split(",")[0] != SWEEP_PARAM or got != [str(v) for v in SWEEP_VALUES]:
                check.fail("sweep", f"sweep.csv rows {got}")
            check.fingerprint["sweep.csv"] = _sha(out / "sweep.csv")
        except Exception as exc:
            check.fail("sweep", repr(exc))
        return check


WORKLOADS = {w.name: w for w in (RingReport, SpriteAdapt, RingSweep)}
