"""Generation-time machinery: deterministic reconstruction and
diversity-enhanced sampling with the annealed perturbed SGE."""
from __future__ import annotations

import numpy as np

from .diffusion import NoiseNet, ddim_step, noise_to
from .errors import InvalidArgumentError, ShapeError, check_choice
from .numerics import RngStream, box_muller, box_muller_uniforms
from .schedules import (InferencePlan, NoiseSchedule, PerturbationSchedule,
                        RigidityMap, gamma, segment_for)
from .sge import SgeSet, guided_noise

GUIDANCE = ("per-sample", "mean")
STARTS = ("noised", "prior")


def _stream_normals(streams: list, d: int) -> np.ndarray:
    """(len(streams), d) standard normals, row j drawn from ``streams[j]``:
    row by row the bits of ``gaussian(streams[j], (d,))``, in one Box-Muller
    call over the stacked uniforms."""
    return box_muller(np.stack([st.uniform(box_muller_uniforms(d)) for st in streams]), d)


def perturb_guidance(g: np.ndarray, t: int, sched: PerturbationSchedule,
                     streams: list) -> np.ndarray:
    """Annealed perturbation of one step's (m, d) guidance rows; row j draws
    its noise from ``streams[j]``.

    Returns g + s * sqrt(1 - gamma) * eps for gamma in (0, 1): g untouched
    at gamma >= 1, and s * eps alone, g dropped, at gamma <= 0.
    """
    if g.ndim != 2 or g.shape[0] != len(streams):
        raise ShapeError(f"guidance of shape {g.shape} is not one row per stream of {len(streams)}")
    gm = gamma(sched, t)
    if gm >= 1.0:
        return g
    eps = _stream_normals(streams, g.shape[1])
    if gm <= 0.0:
        return sched.s * eps
    return g + sched.s * np.sqrt(1.0 - gm) * eps


def start_step(plan: InferencePlan, rmap: RigidityMap, start: str, alpha_t: int) -> int:
    """The plan step a chain starts from: for a "noised" start the highest
    plan step at or below the annealing start alpha_t, for "prior" the plan's
    top. It must leave a step to run and lie inside the guidance window."""
    t = alpha_t if start == "noised" else plan.tau[-1]
    t_start = int(max(s for s in plan.tau if s <= t))
    if t_start < 1:
        raise InvalidArgumentError("annealing start below the first inference step")
    if rmap.t_hi < t_start:
        raise InvalidArgumentError(
            f"guidance window top {rmap.t_hi} below start step {t_start}")
    return t_start


def _run_chains(net: NoiseNet, schedule: NoiseSchedule, segments: np.ndarray,
                rows: np.ndarray, rmap: RigidityMap, targets: np.ndarray | None,
                t_start: int, plan: InferencePlan, sched: PerturbationSchedule | None,
                streams: list) -> np.ndarray:
    """Reverse chains, one per stream, advanced together as one (m, d) state
    from plan step t_start, as ``start_step`` gives it, down to 0.

    Chain j is guided by ``segments[rows[j]]`` out of an (N, eta, d) array.
    Its start state is ``targets[j]`` noised to t_start, or pure noise when
    targets is None; that noise is the first draw from ``streams[j]``, and
    the chain's perturbations follow on the same stream, one per step.
    sched None guides every step with the fitted segments, unperturbed. The
    chains draw independently of their states, so one net call per step
    serves them all.
    """
    if not net.frozen:
        raise InvalidArgumentError("generation requires a frozen net")
    x = _stream_normals(streams, net.d)
    if targets is not None:
        x = noise_to(schedule, targets, t_start, x)
    for t, t_prev in plan.steps_down():
        t, t_prev = int(t), int(t_prev)
        if t > t_start:
            continue
        g = segments[rows, segment_for(rmap, t)]
        if sched is not None:
            g = perturb_guidance(g, t, sched, streams)
        x = ddim_step(schedule, x, t, t_prev, guided_noise(net, schedule, x, t, g))
    return x


def generate(net: NoiseNet, schedule: NoiseSchedule, sge_set: SgeSet, *,
             perturb: PerturbationSchedule, plan: InferencePlan, stream: RngStream,
             count: int = 1, guidance: str = "per-sample", start: str = "noised") -> np.ndarray:
    """Run `count` independent guided reverse chains; returns (count, d).

    ``guidance`` guides each chain by one per-sample embedding or by the
    set-wise mean; ``start`` is "noised" (a target noised to the annealing
    start) or "prior" (pure noise at the plan's top). Chain j draws from
    ``stream.child(f"out{j}")``: a sample index, uniform over the set, which
    picks its embedding under per-sample guidance and its start target under
    a noised start (none is drawn under mean guidance from the prior); then
    its start noise, then one perturbation per perturbed step.
    """
    check_choice("guidance", guidance, GUIDANCE)
    check_choice("start", start, STARTS)
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    if start == "noised" and sge_set.targets is None:
        raise InvalidArgumentError("noised start requires targets on the SgeSet")
    t_start = start_step(plan, sge_set.rmap, start, perturb.alpha_t)

    streams = [stream.child(f"out{j}") for j in range(count)]
    if guidance == "per-sample" or start == "noised":
        picks = np.array([st.randint(0, len(sge_set) - 1) for st in streams])
    else:   # mean guidance from the prior uses no sample
        picks = np.zeros(count, dtype=np.int64)
    if guidance == "mean":
        segments, rows = sge_set.mean_segments[None], np.zeros(count, dtype=np.int64)
    else:
        segments, rows = sge_set.segments, picks
    targets = sge_set.targets[picks] if start == "noised" else None
    return _run_chains(net, schedule, segments, rows, sge_set.rmap, targets, t_start,
                       plan, perturb, streams)


def reconstruct(net: NoiseNet, schedule: NoiseSchedule, sge_set: SgeSet,
                sample_id: int, stream: RngStream, plan: InferencePlan,
                alpha_t: int) -> np.ndarray:
    """Deterministic reconstruction of one fitted target.

    The chain starts from the target noised to the highest plan step at or
    below `alpha_t`, with noise drawn from ``stream.child("out0")``, and is
    guided by the fitted segments, unperturbed, on every step.
    """
    if not (0 <= sample_id < len(sge_set)):
        raise InvalidArgumentError(f"unknown sample id {sample_id}")
    if sge_set.targets is None:
        raise InvalidArgumentError("reconstruct requires targets on the SgeSet")
    t_start = start_step(plan, sge_set.rmap, "noised", alpha_t)
    x = _run_chains(net, schedule, sge_set.segments, np.array([sample_id]), sge_set.rmap,
                    sge_set.targets[sample_id:sample_id + 1], t_start, plan, None,
                    [stream.child("out0")])
    return x[0]
