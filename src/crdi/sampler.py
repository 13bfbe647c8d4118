"""Generation-time machinery: deterministic reconstruction and
diversity-enhanced sampling with the annealed perturbed SGE."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseNet, ddim_step, noise_to
from .errors import InvalidArgumentError, check_choice
from .numerics import RngStream, gaussian
from .schedules import (InferencePlan, NoiseSchedule, PerturbationSchedule,
                        RigidityMap, gamma, segment_for)
from .sge import SgeSet, guided_noise

GUIDANCE = ("per-sample", "mean")
STARTS = ("noised", "prior")


@dataclass
class GenerationRequest:
    """One generation task.

    ``guidance`` selects per-sample embeddings (uniform random choice per
    output) or the set-wise mean; ``start`` is "noised" (a target noised
    to the annealing start) or "prior" (pure noise at the plan's top).
    """

    perturb: PerturbationSchedule
    plan: InferencePlan
    stream: RngStream
    guidance: str = "per-sample"
    start: str = "noised"
    start_sample: int | None = None   # forced reference sample for "noised"
    count: int = 1

    def __post_init__(self):
        check_choice("guidance", self.guidance, GUIDANCE)
        check_choice("start", self.start, STARTS)
        if self.count < 1:
            raise InvalidArgumentError("count must be >= 1")


def perturb_guidance(g: np.ndarray, t: int, sched: PerturbationSchedule,
                     stream: RngStream) -> np.ndarray:
    """Annealed perturbation of one guidance vector.

    gamma=1 returns g untouched; gamma=0 replaces it by s*eps entirely;
    in between the ceiling of sqrt(gamma) keeps g and adds scaled noise.
    """
    gm = gamma(sched, t)
    if gm >= 1.0:
        return g
    if sched.s == 0.0:
        return np.zeros_like(g) if gm <= 0.0 else g
    eps = gaussian(stream, g.shape)
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
                rows: np.ndarray | None, rmap: RigidityMap, targets: np.ndarray | None,
                t_start: int, plan: InferencePlan, sched: PerturbationSchedule | None,
                streams: list) -> np.ndarray:
    """Reverse chains, one per stream, advanced together as one (m, d) state
    from plan step t_start, as ``start_step`` gives it, down to 0.

    Chain j is guided by ``segments[rows[j]]`` out of an (N, eta, d) array,
    or, when rows is None, every chain by the one (eta, d) ``segments``. Its
    start state is ``targets[j]`` noised to t_start, or pure noise when
    targets is None; that noise is the first draw from ``streams[j]``, and
    the chain's perturbations follow on the same stream, one per step.
    sched None guides every step with the fitted segments, unperturbed. The
    chains draw independently of their states, so one net call per step
    serves them all.
    """
    if not net.frozen:
        raise InvalidArgumentError("generation requires a frozen net")
    x = np.stack([gaussian(st, (net.d,)) for st in streams])
    if targets is not None:
        x = noise_to(schedule, targets, t_start, x)
    for t, t_prev in plan.steps_down():
        t, t_prev = int(t), int(t_prev)
        if t > t_start:
            continue
        seg = segment_for(rmap, t)
        g = segments[seg] if rows is None else segments[rows, seg]
        if sched is not None:
            g = np.stack([perturb_guidance(gj, t, sched, st)
                          for gj, st in zip(np.broadcast_to(g, x.shape), streams)])
        x = ddim_step(schedule, x, t, t_prev, guided_noise(net, schedule, x, t, g))
    return x


def generate(net: NoiseNet, schedule: NoiseSchedule, sge_set: SgeSet,
             request: GenerationRequest) -> np.ndarray:
    """Run `count` independent guided reverse chains; returns (count, d).

    Chain j draws from ``request.stream.child(f"out{j}")``: its embedding
    choice (per-sample guidance without ``start_sample``), its start target
    choice (a "noised" start under mean guidance without ``start_sample``),
    its start noise, then one perturbation per perturbed step.
    """
    plan = request.plan
    n = len(sge_set)
    if request.start_sample is not None and not (0 <= request.start_sample < n):
        raise InvalidArgumentError(f"unknown sample id {request.start_sample}")
    if request.start == "noised" and sge_set.targets is None:
        raise InvalidArgumentError("noised start requires targets on the SgeSet")
    t_start = start_step(plan, sge_set.rmap, request.start, request.perturb.alpha_t)

    mean = request.guidance == "mean"
    streams = [request.stream.child(f"out{j}") for j in range(request.count)]
    choices, starts = [], []
    for st in streams:
        i = request.start_sample
        if i is None and not mean:
            i = st.randint(0, n - 1)
            choices.append(i)
        if request.start == "noised":
            starts.append(i if i is not None else st.randint(0, n - 1))
    if mean:
        segments, rows = sge_set.mean_segments, None
    elif choices:
        segments, rows = sge_set.segments, np.array(choices)
    else:
        segments, rows = sge_set.segments[request.start_sample], None
    targets = sge_set.targets[starts] if request.start == "noised" else None
    return _run_chains(net, schedule, segments, rows, sge_set.rmap, targets, t_start,
                       plan, request.perturb, streams)


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
    x = _run_chains(net, schedule, sge_set.segments[sample_id], None, sge_set.rmap,
                    sge_set.targets[sample_id:sample_id + 1], t_start, plan, None,
                    [stream.child("out0")])
    return x[0]
