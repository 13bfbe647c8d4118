"""Experiment orchestration: train -> fit -> generate -> evaluate, plus
parameter sweeps over disjoint output directories."""
from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import __version__
from ..diffusion import (NoiseNet, TrainConfig, load_checkpoint, save_checkpoint,
                         train_source)
from ..metrics import (FeatureExtractor, MetricsReport, frechet, intra_diversity,
                       mc_ssim, ssim)
from ..numerics import RngStream
from ..sampler import GenerationRequest, generate, reconstruct
from ..schedules import (PerturbationSchedule, RigidityMap, linear_schedule,
                         make_plan)
from ..sge import SgeFitConfig, SgeSet, fit_sge, save_sge
from .config import ExperimentConfig
from .domains import flatten, sample_shape, synth_domain
from .tensor_io import write_grid, write_tensor


@dataclass
class RunManifest:
    config_hash: str
    artifacts: dict
    timestamps: dict
    version: str = __version__

    def to_dict(self) -> dict:
        return {"config_hash": self.config_hash, "artifacts": self.artifacts,
                "timestamps": self.timestamps, "version": self.version}


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


def prepare_source_model(config: ExperimentConfig, out_dir: Path):
    """Train the source model from config, or load the configured checkpoint."""
    schedule = linear_schedule(config["schedule"]["T"],
                               config["schedule"]["beta_start"],
                               config["schedule"]["beta_end"])
    ckpt = config["train"]["checkpoint"]
    if ckpt:
        return schedule, load_checkpoint(ckpt), None
    seed = config["run"]["seed"]
    src_spec = config.domain_spec("source")
    d = int(np.prod(sample_shape(src_spec)))
    dataset = flatten(synth_domain(src_spec, max(2000, config["train"]["batch"] * 4)))
    net = NoiseNet.init(d, schedule.T, config.hidden_widths(),
                        RngStream(seed, "init"))
    tc = TrainConfig(steps=config["train"]["steps"], batch=config["train"]["batch"],
                     lr=config["train"]["lr"])
    net, trace = train_source(net, schedule, dataset, tc, RngStream(seed, "train"))
    path = out_dir / "model.crdn"
    save_checkpoint(path, net)
    return schedule, net, trace


def run_experiment(config: ExperimentConfig, out_dir) -> RunManifest:
    """Full pipeline for one configuration; writes all artifacts under
    out_dir and returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timestamps = {"started": time.time()}
    artifacts = {}
    stage = "setup"
    try:
        config.write(out_dir / "config.toml")
        artifacts["config"] = str(out_dir / "config.toml")
        seed = config["run"]["seed"]
        is_images = config.domain_spec("target").kind == "sprite-images"
        shape = sample_shape(config.domain_spec("target"))

        stage = "train-source"
        schedule, net, trace = prepare_source_model(config, out_dir)
        if (out_dir / "model.crdn").exists():
            artifacts["model"] = str(out_dir / "model.crdn")
        if trace is not None:
            write_tensor(out_dir / "loss_trace.crdt", trace)
            artifacts["loss_trace"] = str(out_dir / "loss_trace.crdt")

        stage = "fit-sge"
        tgt_spec = config.domain_spec("target")
        targets = flatten(synth_domain(tgt_spec, config["run"]["k"]))
        rmap = _rigidity_map(config)
        if config["run"]["ablation"] == "no-sge":
            sge_set = SgeSet.zeros(targets.shape[0], targets.shape[1], rmap,
                                   targets=targets)
        else:
            fc = SgeFitConfig(lr=config["sge"]["lr"], lam=config["sge"]["lam"],
                              iterations=config["sge"]["iterations"],
                              coupling=config["sge"]["coupling"])
            sge_set = fit_sge(net, schedule, targets, rmap, fc,
                              RngStream(seed, "fit"))
        save_sge(out_dir / "sge.crds", sge_set)
        artifacts["sge"] = str(out_dir / "sge.crds")
        write_tensor(out_dir / "targets.crdt", targets)
        artifacts["targets"] = str(out_dir / "targets.crdt")

        stage = "generate"
        plan = make_plan(schedule, config["inference"]["steps"])
        request = GenerationRequest(mode="generate",
                                    guidance=config["run"]["guidance"],
                                    start=config["run"]["start"],
                                    perturb=_perturb_schedule(config),
                                    plan=plan, count=config["run"]["count"],
                                    stream=RngStream(seed, "generate"))
        samples = generate(net, schedule, sge_set, request)
        write_tensor(out_dir / "samples.crdt", samples)
        artifacts["samples"] = str(out_dir / "samples.crdt")
        if is_images:
            imgs = samples[:16].reshape(-1, *shape)
            write_grid(out_dir / "samples.pgm", list(imgs), columns=4)
            artifacts["grid"] = str(out_dir / "samples.pgm")

        stage = "evaluate"
        report = evaluate(config, schedule, net, sge_set, samples, plan)
        (out_dir / "report.json").write_text(
            json.dumps({"config_hash": config.hash(), **report.to_dict()}, indent=2))
        artifacts["report"] = str(out_dir / "report.json")
        row = {"config_hash": config.hash(), **report.to_csv_row()}
        with open(out_dir / "report.csv", "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(row))
            w.writeheader()
            w.writerow(row)
        artifacts["report_csv"] = str(out_dir / "report.csv")
    except Exception as exc:
        (out_dir / "failed").write_text(f"stage: {stage}\ncause: {exc}\n")
        raise
    timestamps["finished"] = time.time()
    manifest = RunManifest(config.hash(), artifacts, timestamps)
    (out_dir / "manifest.json").write_text(json.dumps(manifest.to_dict(), indent=2))
    return manifest


def evaluate(config: ExperimentConfig, schedule, net, sge_set: SgeSet,
             samples: np.ndarray, plan) -> MetricsReport:
    """Metric battery for one generated set."""
    seed = config["run"]["seed"]
    tgt_spec = config.domain_spec("target")
    shape = sample_shape(tgt_spec)
    is_images = tgt_spec.kind == "sprite-images"
    eval_targets = flatten(synth_domain(tgt_spec, config["run"]["eval_count"],
                                        RngStream(seed, "eval-targets")))
    extractor = _extractor(config)
    targets = sge_set.targets

    ssim_pairs = []
    mc = None
    if is_images:
        alpha_t = int(round(config["perturb"]["alpha_frac"] * schedule.T))
        recon = [reconstruct(net, schedule, sge_set, i,
                             RngStream(seed, f"recon{i}"), plan, alpha_t=alpha_t)
                 for i in range(len(sge_set.members))]
        ssim_pairs = [ssim(r.reshape(shape), t.reshape(shape))
                      for r, t in zip(recon, targets)]
        gen_imgs = [s.reshape(shape) for s in samples]
        tgt_imgs = [t.reshape(shape) for t in targets]
        mc = mc_ssim(gen_imgs, tgt_imgs, n=config["metrics"]["n"],
                     direction=config["metrics"]["direction"])

    fd = frechet(extractor(samples), extractor(eval_targets))
    if is_images:
        div, degenerate = intra_diversity(samples.reshape(-1, *shape),
                                          targets.reshape(-1, *shape),
                                          extractor, images=True)
    else:
        div, degenerate = intra_diversity(samples, targets, extractor)
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


def _max_workers() -> int:
    env = os.environ.get("CRDI_THREADS", "")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def sweep(config: ExperimentConfig, param: str, values, out_dir) -> Path:
    """Run one experiment per parameter value in its own subdirectory and
    aggregate the per-run CSV rows."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sec, key = param.split(".")

    def run_cell(val):
        cell_cfg = ExperimentConfig.from_dict(
            {s: dict(kv) for s, kv in config.values.items()})
        cell_cfg.values[sec][key] = val
        cell_dir = out_dir / f"{sec}.{key}={val}"
        run_experiment(cell_cfg, cell_dir)
        return val, cell_dir

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        cells = list(pool.map(run_cell, values))

    rows = []
    for val, cell_dir in cells:
        with open(cell_dir / "report.csv") as f:
            row = next(csv.DictReader(f))
        rows.append({param: val, **row})
    table = out_dir / "sweep.csv"
    with open(table, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    return table
