"""Time-indexed coefficient machinery: diffusion noise schedules, the
inference sub-sequence, the rigidity segmentation map, and the annealing
function gamma(t)."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, OutOfRangeError


@dataclass(frozen=True)
class NoiseSchedule:
    """Discrete diffusion coefficients.

    ``alpha_bar`` is indexed 0..T with alpha_bar[0] == 1 exactly, so
    t = 0 is the clean-data endpoint.
    """

    T: int
    beta: np.ndarray        # beta[1..T] stored as length-T array
    alpha: np.ndarray       # 1 - beta_t
    alpha_bar: np.ndarray   # length T+1, cumulative products, alpha_bar[0] = 1
    _sqrt_ab: np.ndarray = field(init=False, repr=False, compare=False)
    _sqrt_one_minus_ab: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # sqrt is correctly rounded, so a table entry equals the sqrt of one entry
        object.__setattr__(self, "_sqrt_ab", np.sqrt(self.alpha_bar))
        object.__setattr__(self, "_sqrt_one_minus_ab", np.sqrt(1.0 - self.alpha_bar))

    def sqrt_ab(self, t) -> np.ndarray:
        return self._sqrt_ab[t]

    def sqrt_one_minus_ab(self, t) -> np.ndarray:
        return self._sqrt_one_minus_ab[t]


def linear_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linearly spaced betas with cumulative-product alpha_bar."""
    if T < 2:
        raise InvalidArgumentError(f"T must be >= 2, got {T}")
    if not (0.0 < beta_start < beta_end < 1.0):
        raise InvalidArgumentError(
            f"need 0 < beta_start < beta_end < 1, got ({beta_start}, {beta_end})")
    beta = np.linspace(beta_start, beta_end, T)
    alpha = 1.0 - beta
    alpha_bar = np.concatenate([[1.0], np.cumprod(alpha)])
    return NoiseSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=alpha_bar)


@dataclass(frozen=True)
class InferencePlan:
    """Strictly increasing timestep sub-sequence tau with tau[0] = 0."""

    tau: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.int64)
        object.__setattr__(self, "tau", tau)
        if tau[0] != 0 or np.any(np.diff(tau) <= 0):
            raise InvalidArgumentError("tau must start at 0 and be strictly increasing")

    def steps_down(self):
        """(t, t_prev) pairs walking the plan from its top down to 0."""
        return list(zip(self.tau[:0:-1], self.tau[-2::-1]))


def make_plan(schedule: NoiseSchedule, steps: int) -> InferencePlan:
    """Evenly spaced tau of the given length covering [0, T]."""
    if steps < 2 or steps > schedule.T + 1:
        raise InvalidArgumentError(f"steps must be in [2, T+1], got {steps}")
    tau = np.unique(np.round(np.linspace(0, schedule.T, steps)).astype(np.int64))
    return InferencePlan(tau=tau)


@dataclass(frozen=True)
class RigidityMap:
    """Equal division of the guided window into eta time segments."""

    eta: int
    t_lo: int
    t_hi: int

    def __post_init__(self):
        if self.eta < 1:
            raise InvalidArgumentError(f"eta must be >= 1, got {self.eta}")
        if not (0 <= self.t_lo < self.t_hi):
            raise InvalidArgumentError(f"bad window ({self.t_lo}, {self.t_hi})")


def segment_for(rmap: RigidityMap, t: int) -> int:
    """Segment index for timestep t; clamps below the window to 0."""
    if t > rmap.t_hi:
        raise OutOfRangeError(f"t={t} above window top {rmap.t_hi}")
    if t < 0:
        raise OutOfRangeError(f"t={t} negative")
    if t < rmap.t_lo:
        return 0
    span = rmap.t_hi - rmap.t_lo + 1
    return min((t - rmap.t_lo) * rmap.eta // span, rmap.eta - 1)


@dataclass(frozen=True)
class PerturbationSchedule:
    """Annealed condition-perturbation configuration.

    ``alpha_t`` / ``beta_t`` bound the noise-scaling interval on the
    timestep axis; ``s`` is the initial noise scale.
    """

    alpha_t: int
    beta_t: int
    s: float

    def __post_init__(self):
        if not (0 <= self.beta_t < self.alpha_t):
            raise InvalidArgumentError(
                f"need 0 <= beta_t < alpha_t, got ({self.alpha_t}, {self.beta_t})")
        if self.s < 0:
            raise InvalidArgumentError(f"noise scale s must be >= 0, got {self.s}")


def gamma(sched: PerturbationSchedule, t: int) -> float:
    """Piecewise-linear annealing weight: 1 below beta, 0 above alpha."""
    if t <= sched.beta_t:
        return 1.0
    if t >= sched.alpha_t:
        return 0.0
    return (sched.alpha_t - t) / (sched.alpha_t - sched.beta_t)
