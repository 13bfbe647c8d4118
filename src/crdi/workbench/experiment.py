"""Experiment orchestration: train -> fit -> generate -> evaluate, plus
parameter sweeps over disjoint output directories. Each stage has one function,
shared by ``run_experiment`` and the staged CLI; it writes its own artifacts."""
from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .. import __version__
from ..diffusion import (NoiseNet, TrainConfig, load_checkpoint, save_checkpoint,
                         train_source)
from ..errors import ConfigError
from ..metrics import (FeatureExtractor, MetricsReport, frechet, intra_diversity,
                       mc_ssim, ssim)
from ..numerics import RngStream
from ..sampler import GenerationRequest, generate, reconstruct
from ..schedules import (PerturbationSchedule, RigidityMap, linear_schedule,
                         make_plan)
from ..sge import SgeFitConfig, SgeSet, fit_sge, load_sge, save_sge
from .config import ExperimentConfig
from .domains import flatten, sample_shape, synth_domain
from .tensor_io import read_tensor, write_grid, write_tensor


# Manifest key -> file name in out_dir, in manifest order.
_ARTIFACTS = {"config": "config.toml", "model": "model.crdn", "loss_trace": "loss_trace.crdt",
              "sge": "sge.crds", "targets": "targets.crdt", "samples": "samples.crdt",
              "grid": "samples.pgm", "report": "report.json", "report_csv": "report.csv"}


@dataclass
class RunManifest:
    config_hash: str
    artifacts: dict
    timestamps: dict
    version: str = __version__

    def to_dict(self) -> dict:
        return asdict(self)


def _rigidity_map(config: ExperimentConfig) -> RigidityMap:
    T = config["schedule"]["T"]
    t_lo = int(round(config["sge"]["window_lo_frac"] * T))
    t_hi = int(round(config["sge"]["window_hi_frac"] * T))
    return RigidityMap(eta=config["sge"]["eta"], t_lo=t_lo, t_hi=max(t_hi, t_lo + 1))


def _perturb_schedule(config: ExperimentConfig) -> PerturbationSchedule:
    T = config["schedule"]["T"]
    s = config["perturb"]["s"]
    if config["run"]["ablation"] == "no-perturbation":
        s = 0.0
    alpha_t = int(round(config["perturb"]["alpha_frac"] * T))
    beta_t = int(round(config["perturb"]["beta_frac"] * T))
    return PerturbationSchedule(alpha_t=alpha_t, beta_t=beta_t, s=s)


def _extractor(config: ExperimentConfig) -> FeatureExtractor:
    m = config["metrics"]
    return FeatureExtractor(kind=m["feature"], dim=m["feature_dim"],
                            seed=config["run"]["seed"])


def _schedule(config: ExperimentConfig):
    return linear_schedule(config["schedule"]["T"], config["schedule"]["beta_start"],
                           config["schedule"]["beta_end"])


def _source_net(config: ExperimentConfig, path) -> NoiseNet:
    """The checkpoint at path; its T and d must be the ones config trains."""
    net = load_checkpoint(path)
    T = config["schedule"]["T"]
    d = int(np.prod(sample_shape(config.domain_spec("source"))))
    if (net.T, net.d) != (T, d):
        raise ConfigError(f"checkpoint {path} has T={net.T}, d={net.d}; config has T={T}, d={d}")
    return net


def _input(out_dir, name: str) -> Path:
    path = Path(out_dir) / name
    if not path.is_file():
        raise ConfigError(f"missing input {path}: run the stage that writes it first")
    return path


def prepare_source_model(config: ExperimentConfig, out_dir: Path):
    """Source stage: train the model from config, writing model.crdn and
    loss_trace.crdt, or load the configured checkpoint (trace None)."""
    schedule = _schedule(config)
    ckpt = config["train"]["checkpoint"]
    if ckpt:
        return schedule, _source_net(config, ckpt), None
    seed = config["run"]["seed"]
    src_spec = config.domain_spec("source")
    d = int(np.prod(sample_shape(src_spec)))
    dataset = flatten(synth_domain(src_spec, max(2000, config["train"]["batch"] * 4)))
    net = NoiseNet.init(d, schedule.T, config.hidden_widths(),
                        RngStream(seed, "init"))
    tc = TrainConfig(steps=config["train"]["steps"], batch=config["train"]["batch"],
                     lr=config["train"]["lr"])
    net, trace = train_source(net, schedule, dataset, tc, RngStream(seed, "train"))
    save_checkpoint(out_dir / "model.crdn", net)
    write_tensor(out_dir / "loss_trace.crdt", trace)
    return schedule, net, trace


def load_source_model(config: ExperimentConfig, out_dir):
    """Source net for a later stage: train.checkpoint if set, else out_dir/model.crdn."""
    ckpt = config["train"]["checkpoint"] or _input(out_dir, "model.crdn")
    return _schedule(config), _source_net(config, ckpt)


def load_fitted(config: ExperimentConfig, out_dir):
    """Inputs of the stages after fit-sge: schedule, net, SgeSet with targets, plan."""
    schedule, net = load_source_model(config, out_dir)
    sge_path, targets_path = _input(out_dir, "sge.crds"), _input(out_dir, "targets.crdt")
    sge_set = load_sge(sge_path)
    if sge_set.segments.shape[2] != net.d:
        raise ConfigError(f"{sge_path} holds embeddings of width {sge_set.segments.shape[2]}; "
                          f"the checkpoint has d={net.d}: rerun fit-sge")
    if sge_set.rmap != _rigidity_map(config):
        raise ConfigError(f"{sge_path} was fitted with {sge_set.rmap}; config has "
                          f"{_rigidity_map(config)}: rerun fit-sge")
    sge_set.targets = read_tensor(targets_path)
    if sge_set.targets.shape != (len(sge_set), net.d):
        raise ConfigError(f"{targets_path} has shape {sge_set.targets.shape}, not "
                          f"({len(sge_set)}, {net.d}) for the embeddings in {sge_path}")
    return schedule, net, sge_set, make_plan(schedule, config["inference"]["steps"])


def load_samples(out_dir) -> np.ndarray:
    return read_tensor(_input(out_dir, "samples.crdt"))


def fit_stage(config: ExperimentConfig, schedule, net, out_dir: Path) -> SgeSet:
    """Fit stage: one SGE per target shot (all zero under the no-sge
    ablation); writes sge.crds and targets.crdt."""
    targets = flatten(synth_domain(config.domain_spec("target"), config["run"]["k"]))
    rmap = _rigidity_map(config)
    if config["run"]["ablation"] == "no-sge":
        sge_set = SgeSet.zeros(*targets.shape, rmap, targets=targets)
    else:
        fc = SgeFitConfig(lr=config["sge"]["lr"], lam=config["sge"]["lam"],
                          iterations=config["sge"]["iterations"],
                          coupling=config["sge"]["coupling"])
        sge_set = fit_sge(net, schedule, targets, rmap, fc,
                          RngStream(config["run"]["seed"], "fit"))
    save_sge(out_dir / "sge.crds", sge_set)
    write_tensor(out_dir / "targets.crdt", targets)
    return sge_set


def generate_stage(config: ExperimentConfig, schedule, net, sge_set: SgeSet,
                   plan, out_dir: Path) -> np.ndarray:
    """Generate stage: run.count guided samples, written to samples.crdt and,
    for image domains, a samples.pgm contact sheet."""
    run = config["run"]
    request = GenerationRequest(guidance=run["guidance"], start=run["start"],
                                perturb=_perturb_schedule(config), plan=plan,
                                count=run["count"], stream=RngStream(run["seed"], "generate"))
    samples = generate(net, schedule, sge_set, request)
    write_tensor(out_dir / "samples.crdt", samples)
    tgt_spec = config.domain_spec("target")
    if tgt_spec.kind == "sprite-images":
        write_grid(out_dir / "samples.pgm",
                   list(samples[:16].reshape(-1, *sample_shape(tgt_spec))), columns=4)
    return samples


def evaluate_stage(config: ExperimentConfig, schedule, net, sge_set: SgeSet,
                   samples: np.ndarray, plan, out_dir: Path) -> MetricsReport:
    """Evaluate stage: the metric battery, written to report.json and report.csv."""
    report = evaluate(config, schedule, net, sge_set, samples, plan)
    (out_dir / "report.json").write_text(
        json.dumps({"config_hash": config.hash(), **report.to_dict()}, indent=2))
    _write_csv(out_dir / "report.csv", [{"config_hash": config.hash(), **report.to_csv_row()}])
    return report


def reconstruct_target(config: ExperimentConfig, schedule, net, sge_set: SgeSet,
                       plan, sample_id: int) -> np.ndarray:
    """Deterministic reconstruction of one fitted target, started at the
    annealing start alpha_t as evaluate scores it."""
    return reconstruct(net, schedule, sge_set, sample_id,
                       RngStream(config["run"]["seed"], f"recon{sample_id}"),
                       plan, alpha_t=_perturb_schedule(config).alpha_t)


def reconstruct_stage(config: ExperimentConfig, out_dir, sample_id: int) -> Path:
    """One target reconstructed from the fitted artifacts in out_dir, to recon<id>.crdt."""
    x = reconstruct_target(config, *load_fitted(config, out_dir), sample_id)
    path = Path(out_dir) / f"recon{sample_id}.crdt"
    write_tensor(path, x[None, :])
    return path


def run_experiment(config: ExperimentConfig, out_dir) -> RunManifest:
    """Full pipeline for one configuration; writes all artifacts under
    out_dir and returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timestamps = {"started": time.time()}
    stage = "setup"
    try:
        config.write(out_dir / "config.toml")
        stage = "train-source"
        schedule, net, _ = prepare_source_model(config, out_dir)
        stage = "fit-sge"
        sge_set = fit_stage(config, schedule, net, out_dir)
        stage = "generate"
        plan = make_plan(schedule, config["inference"]["steps"])
        samples = generate_stage(config, schedule, net, sge_set, plan, out_dir)
        stage = "evaluate"
        evaluate_stage(config, schedule, net, sge_set, samples, plan, out_dir)
    except Exception as exc:
        (out_dir / "failed").write_text(f"stage: {stage}\ncause: {exc}\n")
        raise
    timestamps["finished"] = time.time()
    artifacts = {key: str(out_dir / name) for key, name in _ARTIFACTS.items()
                 if (out_dir / name).exists()}
    manifest = RunManifest(config.hash(), artifacts, timestamps)
    (out_dir / "manifest.json").write_text(json.dumps(manifest.to_dict(), indent=2))
    return manifest


def evaluate(config: ExperimentConfig, schedule, net, sge_set: SgeSet,
             samples: np.ndarray, plan) -> MetricsReport:
    """Metric battery for one generated set."""
    tgt_spec = config.domain_spec("target")
    is_images = tgt_spec.kind == "sprite-images"
    eval_targets = flatten(synth_domain(tgt_spec, config["run"]["eval_count"],
                                        RngStream(config["run"]["seed"], "eval-targets")))
    extractor = _extractor(config)
    targets = sge_set.targets
    # One row per sample, each in its domain shape (a view of the flat rows).
    gen, tgt = (a.reshape(-1, *sample_shape(tgt_spec)) for a in (samples, targets))

    ssim_pairs = []
    mc = None
    if is_images:
        recon = [reconstruct_target(config, schedule, net, sge_set, plan, i)
                 for i in range(len(sge_set))]
        ssim_pairs = [ssim(r.reshape(t.shape), t) for r, t in zip(recon, tgt)]
        mc = mc_ssim(gen, tgt, n=config["metrics"]["n"],
                     direction=config["metrics"]["direction"])

    fd = frechet(extractor(samples), extractor(eval_targets))
    div, degenerate = intra_diversity(gen, tgt, extractor, images=is_images)
    return MetricsReport(
        ssim_per_pair=[float(v) for v in ssim_pairs],
        mc_ssim=mc, frechet=fd, intra_diversity=div,
        degenerate_clusters=degenerate,
        config={"n": config["metrics"]["n"],
                "direction": config["metrics"]["direction"],
                "feature": config["metrics"]["feature"],
                "cluster_rule": "max-ssim-target" if is_images
                else "nearest-target-feature"},
        counts={"generated": int(samples.shape[0]),
                "targets": int(targets.shape[0]),
                "eval_targets": int(eval_targets.shape[0])})


def sweep(config: ExperimentConfig, param: str, values, out_dir) -> Path:
    """Run one experiment per parameter value, in order, each in its own
    subdirectory, and aggregate the per-run CSV rows. Every cell config is
    validated before the first cell runs."""
    cells = [(val, config.with_value(param, val)) for val in values]
    if not cells:
        raise ConfigError(f"sweep over {param} needs at least one value")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for val, cell_cfg in cells:
        cell_dir = out_dir / f"{param}={val}"
        run_experiment(cell_cfg, cell_dir)
        with open(cell_dir / "report.csv") as f:
            rows.append({param: val, **next(csv.DictReader(f))})
    _write_csv(out_dir / "sweep.csv", rows)
    return out_dir / "sweep.csv"


def _write_csv(path: Path, rows: list):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
