"""Per-module metrics from the spans of a traced run.

A traced run traces one set-up and one or more passes; each traced pass has
its own phase label. Every metric is taken over the set-up plus one traced
pass and averaged over the traced passes. Call and row counts must be the
same for every traced pass and equal their closed forms.
"""
from __future__ import annotations

from collections import defaultdict

from tracing import (END, KEY, MODULES, NBYTES, OK, PHASE, ROWS, FLOP, SELF,
                     START, TAG, THREAD)

_COUNT, _SECONDS, _SHARE = "count", "s", "1"

PER_LAYER_UNITS = {}
for _key, _fields in [
        ("numerics.mlp_forward", "calls rows self_s gflop"),
        ("numerics.mlp_backward", "calls rows self_s gflop"),
        ("numerics.adam_step", "calls self_s"),
        ("numerics.gaussian", "calls self_s"),
        ("schedules.segment_for", "calls self_s"),
        ("schedules.gamma", "calls self_s"),
        ("diffusion.eps_theta", "calls rows self_s"),
        ("diffusion.time_features", "calls self_s"),
        ("diffusion.ddim_step", "calls self_s"),
        ("diffusion.noise_to", "calls self_s"),
        ("diffusion.train_source", "calls s self_s"),
        ("diffusion.checkpoint", "s bytes"),
        ("sge.sge_loss", "calls self_s"),
        ("sge.guided_noise", "calls self_s"),
        ("sge.fit_sge", "s self_s"),
        ("sge.io", "s bytes"),
        ("sampler.generate", "calls s self_s"),
        ("sampler.reconstruct", "calls share"),
        ("sampler.perturb_guidance", "calls self_s"),
        ("metrics.ssim", "calls self_share"),
        ("metrics.mc_ssim", "share"),
        ("metrics.intra_diversity", "s"),
        ("metrics.frechet", "s"),
        ("workbench.run_experiment", "calls s"),
        ("workbench.prepare_source_model", "calls s"),
        ("workbench.evaluate", "s"),
        ("workbench.synth_domain", "calls self_s"),
        ("workbench.tensor_io", "s bytes"),
        ("workbench.sweep", "calls cell_wait_share train_reuse_ratio")]:
    for _field in _fields.split():
        PER_LAYER_UNITS[f"{_key}.{_field}"] = {
            "calls": _COUNT, "rows": _COUNT, "bytes": "B", "gflop": "GFLOP",
            "s": _SECONDS, "self_s": _SECONDS}.get(_field, _SHARE)
for _module in MODULES:
    PER_LAYER_UNITS[f"{_module}.errors"] = _COUNT
PER_LAYER_UNITS.update({
    "sge.final_loss_mean": _SHARE,
    "trace.overhead_s": _SECONDS,
    "trace.spans": _COUNT,
    "trace.count_mismatches": _COUNT,
    "stage.train_steps_per_s": "1/s",
    "stage.fit_iters_per_s": "1/s",
    "stage.gen_chains_per_s": "1/s",
    "stage.eval_s": _SECONDS,
})
# Output quality of the first pass and of its no-sge ablation; the SSIM
# figures exist for image domains only and read 0 elsewhere.
QUALITY = ("frechet", "frechet_no_sge", "recon_mse", "recon_mse_no_sge",
           "recon_ssim", "recon_ssim_no_sge")
PER_LAYER_UNITS.update({f"quality.{q}": _SHARE for q in QUALITY})


def _sweep_wait_share(spans) -> float:
    """Share of each sweep cell's turnaround spent waiting for a pool
    worker: the time from the sweep's start to the cell's start."""
    wait = total = 0.0
    for sw in (s for s in spans if s[KEY] == "workbench.sweep"):
        for cell in spans:
            if (cell[KEY] == "workbench.run_experiment" and cell[THREAD] != sw[THREAD]
                    and sw[START] <= cell[START] <= sw[END]):
                wait += cell[START] - sw[START]
                total += cell[END] - sw[START]
    return wait / total if total else 0.0


def _group_metrics(spans, run_s: float) -> dict:
    """Metrics over one group of spans (a set-up plus one traced pass)."""
    agg = defaultdict(lambda: defaultdict(float))
    tags = set()
    errors = defaultdict(int)
    for s in spans:
        a = agg[s[KEY]]
        a["calls"] += 1
        a["rows"] += s[ROWS]
        a["gflop"] += s[FLOP] / 1e9
        a["s"] += s[END] - s[START]
        a["self_s"] += s[SELF]
        a["bytes"] += s[NBYTES]
        if not s[OK]:
            errors[s[KEY].split(".")[0]] += 1
        if s[KEY] == "diffusion.train_source":
            tags.add(s[TAG])
    timed = [s for s in spans if s[PHASE] != "setup"]
    out = {}
    for name in PER_LAYER_UNITS:
        key, _, field = name.rpartition(".")
        if field in ("calls", "rows", "gflop", "s", "self_s", "bytes"):
            out[name] = agg[key][field]
    out["sampler.reconstruct.share"] = agg["sampler.reconstruct"]["s"] / run_s
    out["metrics.ssim.self_share"] = agg["metrics.ssim"]["self_s"] / run_s
    out["metrics.mc_ssim.share"] = agg["metrics.mc_ssim"]["s"] / run_s
    out["workbench.sweep.cell_wait_share"] = _sweep_wait_share(timed)
    trains = agg["diffusion.train_source"]["calls"]
    out["workbench.sweep.train_reuse_ratio"] = len(tags) / trains if trains else 0.0
    for module in MODULES:
        out[f"{module}.errors"] = errors[module]
    out["trace.spans"] = len(spans)
    return out


def _groups(spans, phases):
    by_phase = defaultdict(list)
    for s in spans:
        by_phase[s[PHASE]].append(s)
    return {p: by_phase["setup"] + by_phase[p] for p in phases}


def layer_metrics(spans, run_s: dict) -> dict:
    """Per-module metrics averaged over the traced passes; run_s maps each
    traced pass's phase label to its wall time."""
    groups = [_group_metrics(g, run_s[p]) for p, g in _groups(spans, list(run_s)).items()]
    return {k: sum(g[k] for g in groups) / len(groups) for k in groups[0]}


def count_mismatches(spans, phases, expected: dict) -> list:
    """Closed-form count check: every count in `expected` matches in every
    traced pass, and every call and row count is the same in all of them."""
    problems = []
    seen = None
    for phase, group in _groups(spans, phases).items():
        got = _group_metrics(group, 1.0)
        for name, want in expected.items():
            if got[name] != want:
                problems.append(f"{phase}: {name} = {got[name]:g}, expected {want}")
        counts = {k: v for k, v in got.items() if k.endswith((".calls", ".rows"))}
        if seen is not None and counts != seen:
            diff = sorted(k for k in counts if counts[k] != seen.get(k))
            problems.append(f"{phase}: counts differ from the first traced pass: {diff}")
        seen = seen or counts
    return problems
