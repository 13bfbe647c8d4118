"""Experiment orchestration: train -> fit -> generate -> evaluate, plus
parameter sweeps over disjoint output directories. Each stage is one function
``stage(config, out_dir)``, shared by ``run_experiment`` and the staged CLI: it
reads its inputs from the files earlier stages wrote to out_dir and writes its own."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .. import __version__, binfmt
from ..diffusion import NoiseNet, load_checkpoint, save_checkpoint, train_source
from ..errors import ConfigError
from ..metrics import MetricsReport, frechet, intra_diversity, mc_ssim, ssim
from ..numerics import RngStream
from ..sampler import generate, reconstruct
from ..sge import SgeSet, fit_sge, load_sge, save_sge
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
    sha256: dict          # artifact key -> hex digest of its bytes after the last stage
    timestamps: dict      # start, finish and each stage's wall time in seconds
    environment: dict     # the build and threads a run's bytes reproduce under
    version: str = __version__


def _environment() -> dict:
    """NumPy and BLAS versions, CPU count and the BLAS thread variables as set."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # NumPy before 1.25 has no mode="dicts"
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "cpu_count": os.cpu_count(),
            "threads": {var: os.environ.get(var)
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _input(out_dir, name: str) -> Path:
    path = Path(out_dir) / name
    if not path.is_file():
        raise ConfigError(f"missing input {path}: run the stage that writes it first")
    return path


def prepare_source_model(config: ExperimentConfig, out_dir: Path):
    """Source stage: train the model from config, writing model.crdn and
    loss_trace.crdt, or load the configured checkpoint (trace None).
    Returns (net, trace)."""
    if config["train"]["checkpoint"]:
        return load_source_model(config, out_dir), None
    seed = config["run"]["seed"]
    src_spec = config.domain_spec("source")
    d = int(np.prod(sample_shape(src_spec)))
    dataset = flatten(synth_domain(src_spec, max(2000, config["train"]["batch"] * 4)))
    schedule = config.schedule()
    net = NoiseNet.init(d, schedule.T, config.hidden_widths(),
                        RngStream(seed, "init"))
    net, trace = train_source(net, schedule, dataset, config.train_config(),
                              RngStream(seed, "train"))
    save_checkpoint(out_dir / "model.crdn", net)
    write_tensor(out_dir / "loss_trace.crdt", trace)
    return net, trace


def load_source_model(config: ExperimentConfig, out_dir) -> NoiseNet:
    """Source net for a later stage: train.checkpoint if set, else
    out_dir/model.crdn; its T and d must be the ones config trains."""
    path = config["train"]["checkpoint"] or _input(out_dir, "model.crdn")
    net = load_checkpoint(path)
    T = config["schedule"]["T"]
    d = int(np.prod(sample_shape(config.domain_spec("source"))))
    if (net.T, net.d) != (T, d):
        raise ConfigError(f"checkpoint {path} has T={net.T}, d={net.d}; config has T={T}, d={d}")
    return net


def load_fitted(config: ExperimentConfig, out_dir):
    """Inputs of the stages after fit-sge: the net and the SgeSet with its targets."""
    net = load_source_model(config, out_dir)
    sge_path, targets_path = _input(out_dir, "sge.crds"), _input(out_dir, "targets.crdt")
    sge_set = load_sge(sge_path)
    if sge_set.segments.shape[2] != net.d:
        raise ConfigError(f"{sge_path} holds embeddings of width {sge_set.segments.shape[2]}; "
                          f"the checkpoint has d={net.d}: rerun fit-sge")
    if len(sge_set) != config["run"]["k"]:
        raise ConfigError(f"{sge_path} holds {len(sge_set)} embeddings; config has "
                          f"run.k={config['run']['k']}: rerun fit-sge")
    if sge_set.rmap != config.rigidity_map():
        raise ConfigError(f"{sge_path} was fitted with {sge_set.rmap}; config has "
                          f"{config.rigidity_map()}: rerun fit-sge")
    sge_set.targets = read_tensor(targets_path)
    if sge_set.targets.shape != (len(sge_set), net.d):
        raise ConfigError(f"{targets_path} has shape {sge_set.targets.shape}, not "
                          f"({len(sge_set)}, {net.d}) for the embeddings in {sge_path}")
    return net, sge_set


def fit_stage(config: ExperimentConfig, out_dir: Path) -> SgeSet:
    """Fit stage: one SGE per target shot (all zero under the no-sge
    ablation); writes sge.crds and targets.crdt."""
    net = load_source_model(config, out_dir)
    targets = flatten(synth_domain(config.domain_spec("target"), config["run"]["k"]))
    rmap = config.rigidity_map()
    if config["run"]["ablation"] == "no-sge":
        sge_set = SgeSet.zeros(*targets.shape, rmap, targets=targets)
    else:
        sge_set = fit_sge(net, config.schedule(), targets, rmap, config.fit_config(),
                          RngStream(config["run"]["seed"], "fit"))
    save_sge(out_dir / "sge.crds", sge_set)
    write_tensor(out_dir / "targets.crdt", targets)
    return sge_set


def generate_stage(config: ExperimentConfig, out_dir: Path) -> np.ndarray:
    """Generate stage: run.count guided samples, written to samples.crdt and,
    for image domains, a samples.pgm contact sheet."""
    net, sge_set = load_fitted(config, out_dir)
    run = config["run"]
    samples = generate(net, config.schedule(), sge_set, perturb=config.perturb_schedule(),
                       plan=config.plan(), stream=RngStream(run["seed"], "generate"),
                       count=run["count"], guidance=run["guidance"], start=run["start"])
    write_tensor(out_dir / "samples.crdt", samples)
    tgt_spec = config.domain_spec("target")
    if tgt_spec.kind == "sprite-images":
        write_grid(out_dir / "samples.pgm",
                   list(samples[:16].reshape(-1, *sample_shape(tgt_spec))), columns=4)
    return samples


def evaluate_stage(config: ExperimentConfig, out_dir: Path) -> MetricsReport:
    """Evaluate stage: the metric battery on samples.crdt, which must hold
    run.count samples, written to report.json and report.csv."""
    net, sge_set = load_fitted(config, out_dir)
    samples_path, count = _input(out_dir, "samples.crdt"), config["run"]["count"]
    samples = read_tensor(samples_path)
    if samples.shape != (count, net.d):
        raise ConfigError(f"{samples_path} has shape {samples.shape}, not ({count}, {net.d}) "
                          f"for run.count={count} and the checkpoint's d: rerun generate")
    report = evaluate(config, net, sge_set, samples)
    binfmt.write_file(out_dir / "report.json", json.dumps(
        {"config_hash": config.hash(), **report.to_dict()}, indent=2).encode())
    _write_csv(out_dir / "report.csv", [{"config_hash": config.hash(), **report.to_csv_row()}])
    return report


def reconstruct_target(config: ExperimentConfig, net, sge_set: SgeSet,
                       sample_id: int) -> np.ndarray:
    """Deterministic reconstruction of one fitted target, started at the
    annealing start alpha_t as evaluate scores it."""
    return reconstruct(net, config.schedule(), sge_set, sample_id,
                       RngStream(config["run"]["seed"], f"recon{sample_id}"),
                       config.plan(), alpha_t=config.perturb_schedule().alpha_t)


def reconstruct_stage(config: ExperimentConfig, out_dir, sample_id: int) -> Path:
    """One target reconstructed from the fitted artifacts in out_dir, to recon<id>.crdt."""
    x = reconstruct_target(config, *load_fitted(config, out_dir), sample_id)
    path = Path(out_dir) / f"recon{sample_id}.crdt"
    write_tensor(path, x[None, :])
    return path


def run_experiment(config: ExperimentConfig, out_dir) -> RunManifest:
    """Full pipeline for one configuration: the four stages in order, each
    reading only the files the stages before it wrote to out_dir. Writes a
    ``failed`` marker naming the stage that raised, or manifest.json once all
    four succeed; an earlier run's marker and manifest go first. Returns the
    manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in ("failed", "manifest.json"):
        (out_dir / stale).unlink(missing_ok=True)
    timestamps = {"started": time.time(), "stage_s": {}}
    stage = "setup"
    try:
        config.write(out_dir / "config.toml")
        # looked up at each call, so that wrappers bound to these names see the calls
        for stage, run_stage in (("train-source", prepare_source_model),
                                 ("fit-sge", fit_stage), ("generate", generate_stage),
                                 ("evaluate", evaluate_stage)):
            t0 = time.perf_counter()
            run_stage(config, out_dir)
            timestamps["stage_s"][stage] = time.perf_counter() - t0
    except Exception as exc:
        binfmt.write_file(out_dir / "failed", f"stage: {stage}\ncause: {exc}\n".encode())
        raise
    timestamps["finished"] = time.time()
    artifacts = {key: str(out_dir / name) for key, name in _ARTIFACTS.items()
                 if (out_dir / name).exists()}
    sha256 = {k: hashlib.sha256(Path(p).read_bytes()).hexdigest() for k, p in artifacts.items()}
    manifest = RunManifest(config.hash(), artifacts, sha256, timestamps, _environment())
    binfmt.write_file(out_dir / "manifest.json", json.dumps(asdict(manifest), indent=2).encode())
    return manifest


def evaluate(config: ExperimentConfig, net, sge_set: SgeSet,
             samples: np.ndarray) -> MetricsReport:
    """Metric battery for one generated set."""
    tgt_spec = config.domain_spec("target")
    is_images = tgt_spec.kind == "sprite-images"
    eval_targets = flatten(synth_domain(tgt_spec, config["run"]["eval_count"],
                                        RngStream(config["run"]["seed"], "eval-targets")))
    extractor = config.feature_extractor()
    targets = sge_set.targets
    # One row per sample, each in its domain shape (a view of the flat rows).
    gen, tgt = (a.reshape(-1, *sample_shape(tgt_spec)) for a in (samples, targets))

    ssim_pairs = []
    mc = None
    if is_images:
        recon = [reconstruct_target(config, net, sge_set, i) for i in range(len(sge_set))]
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
    text = io.StringIO(newline="")
    w = csv.DictWriter(text, fieldnames=list(rows[0]))
    w.writeheader()
    w.writerows(rows)
    binfmt.write_file(path, text.getvalue().encode())
