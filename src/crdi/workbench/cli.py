"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 numeric error.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from ..errors import ConfigError, CrdiError, NumericError
from .config import ExperimentConfig, parse_param_value
from .experiment import (drop_run_record, evaluate_stage, fit_stage, generate_stage,
                         prepare_source_model, reconstruct_stage, run_experiment, sweep)


def _load(config_path, seed):
    cfg = ExperimentConfig.from_file(config_path)
    return cfg if seed is None else cfg.with_value("run.seed", seed)


def common_options(f, staged=False):
    """--config, --seed and --out: the command gets the loaded config and the
    output directory, and crdi and OS errors become exit codes. A staged
    command first drops the run record of an earlier report from --out."""
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False), help="experiment config file")
    @click.option("--seed", type=int, default=None, help="override run.seed")
    @click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path),
                  help="output directory")
    @functools.wraps(f)
    def wrapper(config_path, seed, out_dir, **kwargs):
        try:
            cfg = _load(config_path, seed)
            if staged:
                drop_run_record(out_dir, keep=config_path)
            return f(cfg, out_dir, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo(f"numeric error: {exc}", err=True)
            sys.exit(3)
        except (CrdiError, OSError) as exc:  # an OSError's text names its path
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


staged_options = functools.partial(common_options, staged=True)


@click.group()
def main():
    """Conditional relaxing diffusion inversion workbench."""


@main.command("train-source")
@staged_options
def cli_train_source(cfg, out):
    """Train the source diffusion model and write model.crdn."""
    out.mkdir(parents=True, exist_ok=True)
    _, trace = prepare_source_model(cfg, out)
    if trace is not None:
        click.echo(f"final loss {trace[-100:].mean():.4f} -> {out / 'model.crdn'}")


@main.command("fit-sge")
@staged_options
def cli_fit_sge(cfg, out):
    """Fit per-sample guidance embeddings against the k-shot target set."""
    out.mkdir(parents=True, exist_ok=True)
    sge_set = fit_stage(cfg, out)
    click.echo(f"fitted {len(sge_set)} embeddings -> {out / 'sge.crds'}")


@main.command("generate")
@staged_options
def cli_generate(cfg, out):
    """Generate diversity-enhanced samples from fitted artifacts in --out."""
    samples = generate_stage(cfg, out)
    click.echo(f"wrote {samples.shape[0]} samples -> {out / 'samples.crdt'}")


@main.command("reconstruct")
@common_options
@click.option("--sample", "sample_id", type=int, default=0, show_default=True)
def cli_reconstruct(cfg, out, sample_id):
    """Deterministically reconstruct one fitted target sample."""
    click.echo(f"wrote reconstruction -> {reconstruct_stage(cfg, out, sample_id)}")


@main.command("evaluate")
@staged_options
def cli_evaluate(cfg, out):
    """Score samples.crdt in --out against fresh target draws."""
    report = evaluate_stage(cfg, out)
    click.echo(json.dumps(report.to_csv_row()))


@main.command("sweep")
@common_options
@click.option("--param", required=True, help="dotted key, e.g. sge.eta")
@click.option("--values", "values_csv", required=True,
              help="comma-separated values, e.g. 1,8,25")
def cli_sweep(cfg, out, param, values_csv):
    """Run one experiment per value, in order, and aggregate a sweep.csv table."""
    values = [parse_param_value(param, raw) for raw in values_csv.split(",")]
    click.echo(f"wrote {sweep(cfg, param, values, out)}")


@main.command("report")
@common_options
def cli_report(cfg, out):
    """Run the full pipeline and print the metric summary."""
    manifest = run_experiment(cfg, out)
    report = json.loads(Path(manifest.artifacts["report"]).read_text())
    click.echo(json.dumps({k: report[k] for k in
                           ("mc_ssim", "frechet", "intra_diversity")}))


if __name__ == "__main__":
    main()
