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


def _run_chain(net: NoiseNet, schedule: NoiseSchedule, segments: np.ndarray,
               rmap: RigidityMap, target: np.ndarray | None, t_start: int,
               plan: InferencePlan, sched: PerturbationSchedule | None,
               stream: RngStream) -> np.ndarray:
    """One reverse chain from plan step t_start, as ``start_step`` gives it,
    down to 0, guided by the (eta, d) segments. The start state is the target
    noised to t_start, or pure noise when target is None; its noise is the
    chain's first draw from stream. sched None guides every step with the
    fitted segments, unperturbed."""
    if not net.frozen:
        raise InvalidArgumentError("generation requires a frozen net")
    x = gaussian(stream, (net.d,))
    if target is not None:
        x = noise_to(schedule, target, t_start, x)
    for t, t_prev in plan.steps_down():
        if t > t_start:
            continue
        g = segments[segment_for(rmap, int(t))]
        if sched is not None:
            g = perturb_guidance(g, int(t), sched, stream)
        eps_hat = guided_noise(net, schedule, x, int(t), g)
        x = ddim_step(schedule, x, int(t), int(t_prev), eps_hat)
    return x


def generate(net: NoiseNet, schedule: NoiseSchedule, sge_set: SgeSet,
             request: GenerationRequest) -> np.ndarray:
    """Run `count` independent guided reverse chains; returns (count, d)."""
    plan = request.plan
    n = len(sge_set)
    if request.start_sample is not None and not (0 <= request.start_sample < n):
        raise InvalidArgumentError(f"unknown sample id {request.start_sample}")
    if request.start == "noised" and sge_set.targets is None:
        raise InvalidArgumentError("noised start requires targets on the SgeSet")
    t_start = start_step(plan, sge_set.rmap, request.start, request.perturb.alpha_t)

    mean = sge_set.mean_segments if request.guidance == "mean" else None
    out = np.zeros((request.count, net.d))
    for j in range(request.count):
        st = request.stream.child(f"out{j}")
        i = request.start_sample
        if i is None and mean is None:
            i = st.randint(0, n - 1)
        target = None
        if request.start == "noised":
            target = sge_set.targets[i if i is not None else st.randint(0, n - 1)]
        segments = mean if mean is not None else sge_set.segments[i]
        out[j] = _run_chain(net, schedule, segments, sge_set.rmap, target, t_start,
                            plan, request.perturb, st)
    return out


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
    return _run_chain(net, schedule, sge_set.segments[sample_id], sge_set.rmap,
                      sge_set.targets[sample_id], t_start, plan, None, stream.child("out0"))
