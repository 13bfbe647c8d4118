"""Byte-identity check of the working tree against a parent revision.

    python3 tools/identity.py --parent HEAD
    python3 tools/identity.py --parent HEAD~1 --expect 'sprite/report.*'

Exports ``src/`` of the parent revision with ``git archive`` into a temporary
directory, then runs a fixed set of pipeline configs with the parent's
``src/`` and with the working tree's, each under the default BLAS threads and
under ``OPENBLAS_NUM_THREADS=1``: four child processes, one after another.
The set is eight ``run_experiment`` configs and one ``sge.eta`` sweep:

- ``crit9``: the acceptance battery's criterion-9 config;
- ``moons``: ``crit9`` with ``two-moons`` on both sides and
  ``target.noise_std = 0.2``;
- ``ring``: the pinned ring config (T=400, 2500 train steps, hidden 96,96);
- ``ring-mean-prior``: ``ring`` with ``run.guidance = "mean"`` and
  ``run.start = "prior"``;
- ``ring-no-perturbation``: ``ring`` with ``run.ablation = "no-perturbation"``;
- ``sprite``: 300 train steps of a 128-wide sprite net, then a 200-iteration fit;
- ``sprite-window-lo``: ``sprite`` with ``sge.window_lo_frac = 0.2``, so that
  sampling looks up segments below the guidance window (80, 320);
- ``sprite-12px``: ``sprite`` with ``size = 12`` on both sides: images under
  16 px, so ``ssim`` takes its global-statistics branch;
- ``sweep``: ``sge.eta`` over 1, 8 and 25 on a 400-step ring config.

Every file a run writes is compared by its SHA-256 digest, except
``manifest.json``, whose stage times differ from run to run: this covers
every artifact of each manifest's ``sha256`` map and also ``sweep.csv``.
Each child process also reads every run's ``config.toml`` back with its own
tree's ``ExperimentConfig.from_file`` and fails unless it hashes to the
config that ran, so both trees' config readers are checked.
The script prints one table row per tree pair (parent against working tree,
same threads) and per thread pair (default against one thread, same tree),
and exits 1 when a tree pair differs in a file that no ``--expect`` pattern
(an ``fnmatch`` pattern over ``config/relative/path``) names. A difference
between thread settings is printed but does not fail the check: ``frechet``
goes through LAPACK, whose last bits depend on the thread count.

A second table says how far the floats of each differing file moved: the
largest absolute and relative difference of a ``.crdt`` tensor or of a
``.crds`` set's segments and of its ``final_loss`` entries, and each
``report.json`` metric's relative change. Relative differences are taken
against the first run of the pair.
"""
from __future__ import annotations

import argparse
import fnmatch
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

CRIT9 = dict(schedule__T=60, inference__steps=10, train__steps=150, train__batch=32,
             train__hidden="24,24", sge__iterations=80, sge__lr=0.05,
             run__count=12, run__eval_count=48, run__k=3)
RING = dict(schedule__T=400, train__steps=2500, train__batch=128, train__hidden="96,96",
            sge__iterations=1500, sge__eta=8, sge__lr=0.05, run__k=10, run__count=64)
SPRITE = dict(source__kind="sprite-images", target__kind="sprite-images",
              schedule__T=400, train__steps=300, train__batch=64, train__hidden="128,128",
              train__lr=8e-4, sge__iterations=200, sge__eta=8, sge__lr=0.05,
              sge__window_hi_frac=0.8, perturb__alpha_frac=0.8, perturb__beta_frac=0.5,
              run__k=4, run__count=16, run__eval_count=16)
RUNS = {
    "crit9": CRIT9,
    "moons": dict(CRIT9, source__kind="two-moons", target__kind="two-moons",
                  target__noise_std=0.2),
    "ring": RING,
    "ring-mean-prior": dict(RING, run__guidance="mean", run__start="prior"),
    "ring-no-perturbation": dict(RING, run__ablation="no-perturbation"),
    "sprite": SPRITE,
    "sprite-window-lo": dict(SPRITE, sge__window_lo_frac=0.2),
    "sprite-12px": dict(SPRITE, source__size=12, target__size=12),
}
SWEEP = ("sweep", dict(RING, train__steps=400, sge__iterations=300), "sge.eta", [1, 8, 25])

THREADS = {"default": None, "1-thread": "1"}
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_all(out: Path):
    """Child mode: run every config with the crdi found on sys.path, then exit
    1 unless each run's config.toml reads back as the config that ran."""
    from crdi.workbench import ExperimentConfig
    from crdi.workbench.experiment import run_experiment, sweep
    ran = {name: ExperimentConfig.defaults(**kwargs) for name, kwargs in RUNS.items()}
    for name, cfg in ran.items():
        run_experiment(cfg, out / name)
    name, kwargs, param, values = SWEEP
    base = ExperimentConfig.defaults(**kwargs)
    sweep(base, param, values, out / name)
    ran.update({f"{name}/{param}={val}": base.with_value(param, val) for val in values})
    for name, cfg in ran.items():
        if ExperimentConfig.from_file(out / name / "config.toml").hash() != cfg.hash():
            sys.exit(f"{name}/config.toml does not read back as the config that ran")


def digests(out: Path) -> dict:
    """relative path -> SHA-256 of every file under ``out`` but manifest.json."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def differing(a: dict, b: dict) -> list:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _largest(a, b) -> tuple:
    """(largest absolute, largest relative) difference of two float arrays;
    a relative difference is taken against a, and is inf where a is 0 alone."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    diff = np.abs(b - a)
    if not diff.size or not diff.any():
        return 0.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff > 0, diff / np.abs(a), 0.0)
    return float(diff.max()), float(rel.max())


def float_moves(a: Path, b: Path) -> list:
    """How far the floats of one file moved from run a to run b, one text
    entry per quantity; empty for a file this reads no floats from."""
    from crdi.sge import load_sge
    from crdi.workbench.tensor_io import read_tensor

    def moved(what, x, y):
        if np.shape(x) != np.shape(y):
            return f"{what} shape {np.shape(x)} -> {np.shape(y)}"
        absolute, relative = _largest(x, y)
        return f"{what} max abs {absolute:.3g}, max rel {relative:.3g}"

    if a.suffix == ".crdt":
        return [moved("values", read_tensor(a), read_tensor(b))]
    if a.suffix == ".crds":
        sa, sb = load_sge(a), load_sge(b)
        loss = [[m.get("final_loss", np.nan) for m in s.meta] for s in (sa, sb)]
        return [moved("segments", sa.segments, sb.segments), moved("final_loss", *loss)]
    if a.name == "report.json":
        ra, rb = (json.loads(p.read_text()) for p in (a, b))
        out = []
        for key, x in ra.items():
            y = rb.get(key)
            if isinstance(x, float) and isinstance(y, float):
                if x != y:
                    out.append(f"{key} {x!r} -> {y!r} (rel {_largest(x, y)[1]:.3g})")
            elif isinstance(x, list) and isinstance(y, list) and x != y and \
                    all(isinstance(v, float) for v in x + y):
                out.append(moved(key, x, y))
        return out
    return []


def export_src(rev: str, dest: Path) -> Path:
    """``src/`` of ``rev``, extracted under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def run_tree(src: Path, threads: str | None, out: Path):
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(src)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(out)],
                   env=env, check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git revision to compare the working tree against")
    ap.add_argument("--expect", action="append", default=[],
                    help="fnmatch pattern of a file allowed to differ between the trees "
                         "(config/relative/path); repeatable")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        run_all(Path(args.child))
        return 0
    if not args.parent:
        ap.error("--parent is required")

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))   # float_moves' readers: the formats match across trees
    # (name, run x, run y, whether a difference fails the check)
    pairs = [(f"parent vs tree, {label}", ("parent", label), ("tree", label), True)
             for label in THREADS]
    pairs += [(f"default vs 1-thread, {tree}", (tree, "default"), (tree, "1-thread"), False)
              for tree in ("parent", "tree")]
    with tempfile.TemporaryDirectory(prefix="crdi-identity-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": export_src(args.parent, tmp / "parent"), "tree": ROOT / "src"}
        outs, sums = {}, {}
        for tree, src in trees.items():
            for label, threads in THREADS.items():
                outs[tree, label] = tmp / "runs" / f"{tree}-{label}"
                run_tree(src, threads, outs[tree, label])
                sums[tree, label] = digests(outs[tree, label])
        rows, moves, unexpected = [], [], []
        for what, x, y, checked in pairs:
            diff = differing(sums[x], sums[y])
            rows.append((what, diff))
            moves += [(what, k, m) for k in diff if k in sums[x] and k in sums[y]
                      for m in float_moves(outs[x] / k, outs[y] / k)]
            if checked:
                unexpected += [f"{x[1]}: {k}" for k in diff
                               if not any(fnmatch.fnmatch(k, pat) for pat in args.expect)]

    print(f"parent {args.parent}; {len(sums['tree', 'default'])} files per run; "
          f"expected: {', '.join(args.expect) or 'none'}")
    print("| comparison | differing files |")
    print("| --- | --- |")
    for what, diff in rows:
        print(f"| {what} | {', '.join(diff) or 'none'} |")
    if moves:
        print("\n| comparison | file | how far its floats moved |")
        print("| --- | --- | --- |")
        for what, k, m in moves:
            print(f"| {what} | {k} | {m} |")
    print(json.dumps({"seconds": round(time.perf_counter() - t0, 1),
                      "unexpected": unexpected}))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
