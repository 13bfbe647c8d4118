"""One workload in one process: set-up, timed passes, output checks,
quality guard and, in a traced run, the per-module metrics.

Imported by run.py only after it has stripped the thread variables from the
environment, because NumPy's BLAS reads them when it loads.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import crdi.workbench.experiment as wbx
from report import PER_LAYER_UNITS, QUALITY, count_mismatches, layer_metrics
from tracing import StageTimer, Tracer
from workloads import OPS, WORKLOADS, PassCheck

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
MIN_PASSES = 2

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# Pipeline-stage throughput. Printed for every run; too noisy from seed to
# seed to carry a bound (see README.md), so the traced run reports it among
# the per-layer metrics as stage.<name>.
STAGE_UNITS = {"train_steps_per_s": "1/s", "fit_iters_per_s": "1/s",
               "gen_chains_per_s": "1/s", "eval_s": "s"}
DIRECTION = {"setup_s": "lower", "run_s": "lower", "peak_rss_mb": "lower",
             "train_steps_per_s": "higher", "fit_iters_per_s": "higher",
             "gen_chains_per_s": "higher", "eval_s": "lower"}


def tail_percentile(values):
    """(p, value): the highest percentile with at least ten samples beyond
    it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def cpu_times():
    """(steal, total) jiffies of all CPUs, read from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def machine_record(seed, start_cpu, stripped_env):
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except Exception:  # older NumPy has no dict mode
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    pool = getattr(wbx, "_max_workers", None)
    end_cpu = cpu_times()
    steal = None
    if start_cpu and end_cpu and end_cpu[1] > start_cpu[1]:
        steal = (end_cpu[0] - start_cpu[0]) / (end_cpu[1] - start_cpu[1])
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": blas,
            "sweep_pool": pool() if pool else None, "commit": commit,
            "cpu_steal_share": steal, "seed": seed,
            "stripped_env": list(stripped_env)}


class Accounting:
    """Attempted and failed stage operations, plus every failure message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, records, check, raised=None):
        """A stage call fails when it raises or its artifacts fail a check.
        A failed check on no stage call (the sweep table) and a pass that
        raised outside every stage count as one failed operation each."""
        ops = [r for r in records if r[0] in OPS]
        self.attempted += len(ops)
        self.failed += sum(1 for stage, _, _, ok in ops if not ok or stage in check.failures)
        orphans = [op for op in check.failures if op not in {r[0] for r in ops}]
        if raised is not None and all(r[3] for r in ops):
            orphans.append("pass")
        self.attempted += len(orphans)
        self.failed += len(orphans)
        for op, msgs in check.failures.items():
            self.messages.extend(f"{op}: {m}" for m in msgs)
        if raised is not None:
            self.messages.append(f"pass raised {raised!r}")

    def check(self, ok: bool, message: str):
        """A run-level check (guard, counts, declared metrics) that is no stage."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def stage_time(records, stage):
    return sum(end - start for st, start, end, _ in records if st == stage)


def pass_metrics(wl, records, run_s):
    m = {"run_s": run_s}
    train = stage_time(records, "train")
    if wl.train_work() and train > 0:
        m["train_steps_per_s"] = wl.train_work() / train
    fit, gen = stage_time(records, "fit"), stage_time(records, "generate")
    if fit > 0:
        m["fit_iters_per_s"] = wl.fit_work() / fit
    if gen > 0:
        m["gen_chains_per_s"] = wl.chains() / gen
    n_eval = sum(1 for r in records if r[0] == "evaluate")
    if n_eval:
        m["eval_s"] = stage_time(records, "evaluate") / n_eval
    return m


class Runner:
    """One workload in one process: set-up, timed passes, checks."""

    def __init__(self, name, seed, seconds, acct):
        self.work = WORK / f"{name}-{os.getpid()}"
        self.wl = WORKLOADS[name](self.work, seed)
        self.seconds = seconds
        self.acct = acct
        self.timer = StageTimer()
        self.first = None            # directory and check of the first pass
        self.samples = {}            # metric -> per-pass values
        self.setup_s = []
        self.train_rates = []        # per set-up, where set-up trains
        self.setup_fp = None

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.timer.install()
        return self

    def __exit__(self, *exc):
        self.timer.uninstall()
        shutil.rmtree(self.work, ignore_errors=True)

    def setup(self, tracer=None):
        t0 = time.perf_counter()
        raised = None
        try:
            self.wl.warm_up()
            if tracer is not None:
                tracer.phase = "setup"
                tracer.install()
            try:
                self.wl.setup()
            finally:
                if tracer is not None:
                    tracer.uninstall()
        except Exception as exc:
            raised = exc
        if tracer is None:
            self.setup_s.append(time.perf_counter() - t0)
        records = self.timer.take()
        check = self.wl.check_setup() if raised is None else PassCheck()
        self.acct.add(records, check, raised)
        if raised is not None:
            raise raised
        train = [r for r in records if r[0] == "train"]
        if self.wl.setup_train_steps and train and tracer is None:
            # the last training call is set-up's own; warm-up runs first
            self.train_rates.append(self.wl.setup_train_steps / (train[-1][2] - train[-1][1]))
        if self.setup_fp is None:
            self.setup_fp = check.fingerprint
        elif check.fingerprint != self.setup_fp:
            self.acct.check(False, "set-up artifacts differ between repeats")

    def one_pass(self, index, tracer=None, phase=None):
        out = self.work / f"pass{index}"
        raised = None
        if tracer is not None:
            tracer.phase = phase
            tracer.install()
        t0 = time.perf_counter()
        try:
            self.wl.run_pass(out)
        except Exception as exc:
            raised = exc
        run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        records = self.timer.take()
        if raised is None:
            check = self.wl.check(out)
        else:
            check = PassCheck()
        if raised is None and not check.failures:
            if self.first is None:
                self.first = (out, check)
            else:
                for key, fp in check.fingerprint.items():
                    if self.first[1].fingerprint.get(key) != fp:
                        op = "generate" if key.endswith("samples") else "evaluate"
                        check.fail(op, f"{key} differs from the first pass")
        self.acct.add(records, check, raised)
        if self.first is None or out != self.first[0]:
            shutil.rmtree(out, ignore_errors=True)
        if raised is None and tracer is None:
            for key, value in pass_metrics(self.wl, records, run_s).items():
                self.samples.setdefault(key, []).append(value)
        return run_s

    def guard(self):
        """Applies the workload's quality guard to the first good pass and
        returns the quality figures."""
        if self.first is None:
            self.acct.check(False, "no pass succeeded; quality guard not run")
            return {}
        out, check = self.first
        try:
            problems, quality = self.wl.guard(out, check)
        except Exception as exc:
            problems, quality = [f"guard raised {exc!r}"], {}
        self.acct.add(self.timer.take(), PassCheck())
        self.acct.check(not problems, "; ".join(f"quality guard: {p}" for p in problems))
        quality["frechet"] = statistics.fmean(check.quality["frechet"])
        quality["final_loss_mean"] = statistics.fmean(check.quality["final_losses"])
        return quality


def more_passes(start, times, seconds) -> bool:
    """Whether another pass fits in the run: at least MIN_PASSES, then only
    while a pass of median length still ends within the measuring time."""
    if len(times) < MIN_PASSES:
        return True
    return time.perf_counter() - start + statistics.median(times) <= seconds


def summarize(samples) -> dict:
    return {k: {"median": statistics.median(v), "n": len(v), "tail": tail_percentile(v)}
            for k, v in samples.items() if v}


def measure_passes(runner, tracer=None) -> list:
    """Passes until the measuring time is used up. With a tracer, untraced
    and traced passes alternate; returns the traced passes' phase labels
    and wall times."""
    start = time.perf_counter()
    times, traced = [], []
    while more_passes(start, times, runner.seconds) or (tracer and not traced):
        i = len(times)
        if tracer is not None and i % 2:
            times.append(runner.one_pass(i, tracer, f"pass{i}"))
            traced.append((f"pass{i}", times[-1]))
        else:
            times.append(runner.one_pass(i))
    return traced


def stage_samples(runner) -> dict:
    s = {k: runner.samples.get(k, []) for k in STAGE_UNITS}
    if runner.train_rates:
        s["train_steps_per_s"] = runner.train_rates
    return s


def run_untraced(runner, import_s):
    # Three set-ups, or two when those two alone took a third of the measuring
    # time (the sprite set-up trains a model), which keeps a run near its length.
    while len(runner.setup_s) < SETUP_REPEATS and not (
            len(runner.setup_s) >= 2 and sum(runner.setup_s) > runner.seconds / 3):
        runner.setup()
    measure_passes(runner)
    quality = runner.guard()
    samples = {"setup_s": [import_s + v for v in runner.setup_s],
               "run_s": runner.samples.get("run_s", []), **stage_samples(runner)}
    stats = summarize(samples)
    metrics = {k: stats[k]["median"] for k in ("setup_s", "run_s") if k in stats}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, {"samples": samples, "stats": stats, "quality": quality}


def run_traced(runner, name, seed):
    """One untraced set-up (for the stage rates), one traced set-up, then
    alternating untraced and traced passes."""
    tracer = Tracer()
    runner.setup()
    runner.setup(tracer)
    traced = measure_passes(runner, tracer)
    quality = runner.guard()
    phases = [p for p, _ in traced]
    metrics = layer_metrics(tracer.spans, dict(traced))
    expected = runner.wl.expected_counts()
    bad = count_mismatches(tracer.spans, phases, expected)
    runner.acct.check(not bad, "; ".join(f"closed-form count: {m}" for m in bad))
    # runner.samples holds the untraced passes only: traced ones are not sampled
    untraced_s = runner.samples["run_s"]
    metrics["trace.overhead_s"] = (statistics.median(t for _, t in traced)
                                   - statistics.median(untraced_s))
    metrics["trace.count_mismatches"] = len(bad)
    for key in QUALITY:
        metrics[f"quality.{key}"] = quality.get(key, 0.0)
    metrics["sge.final_loss_mean"] = quality.get("final_loss_mean", 0.0)
    stats = summarize(stage_samples(runner))
    for key in STAGE_UNITS:
        metrics[f"stage.{key}"] = stats[key]["median"] if key in stats else 0.0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace_{name}_seed{seed}.npz")
    return metrics, {"expected_counts": expected, "untraced_run_s": untraced_s,
                     "traced": traced, "stats": stats, "quality": quality}


def declared_metrics(trace: bool):
    """Metric names and units BENCHMARK.json declares for this mode, or None
    when the file is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name, seed, seconds, trace, import_s, stripped_env):
    """Runs one workload and returns the result object run.py prints."""
    start_cpu = cpu_times()
    acct = Accounting()
    detail = {}
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    try:
        with Runner(name, seed, seconds, acct) as runner:
            if trace:
                values, detail = run_traced(runner, name, seed)
            else:
                values, detail = run_untraced(runner, import_s)
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    except Exception as exc:  # the run reports its failure instead of a traceback
        acct.check(False, f"workload aborted: {exc!r}")
        metrics = {}
    declared = declared_metrics(trace)
    if declared is not None:
        acct.check(declared == units, "metrics differ from those BENCHMARK.json declares")
    record = machine_record(seed, start_cpu, stripped_env)
    result = {"correct": acct.failed == 0 and bool(metrics),
              "attempted": max(acct.attempted, 1), "failed": acct.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(
        {"workload": name, "machine": record, "result": result,
         "failures": acct.messages, "detail": detail}, indent=1, default=str))
    print(f"machine: {json.dumps(record)}")
    for msg in acct.messages:
        print(f"FAILED {msg}")
    for key, stat in detail.get("stats", {}).items():
        tail = stat["tail"]
        tail_txt = f"p{tail[0]:.0f}={tail[1]:.6g}" if tail else "tail n/a (n<11)"
        unit = {**E2E_UNITS, **STAGE_UNITS}[key]
        print(f"{key}: median={stat['median']:.6g} {unit} ({DIRECTION[key]} is better) "
              f"{tail_txt} n={stat['n']}")
    if not trace and "peak_rss_mb" in metrics:
        print(f"peak_rss_mb: {metrics['peak_rss_mb']['value']:.6g} MB (lower is better)")
    for key, value in detail.get("quality", {}).items():
        print(f"quality.{key}: {value:.6g}")
    print(f"error_rate: {acct.failed}/{max(acct.attempted, 1)} stage operations failed")
    return result
