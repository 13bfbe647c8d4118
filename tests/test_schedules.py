"""Noise schedules, inference plans, rigidity segmentation, annealing."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdi.errors import InvalidArgumentError, OutOfRangeError
from crdi.schedules import (ALPHA_BAR_FLOOR, InferencePlan, PerturbationSchedule,
                            RigidityMap, gamma, linear_schedule, make_plan, segment_for)


# ---------------------------------------------------------------- schedule

def test_default_schedule_terminal_alpha_bar():
    sched = linear_schedule(1000, 1e-4, 0.02)
    # independent oracle: recompute the cumulative product directly
    betas = 1e-4 + (0.02 - 1e-4) * np.arange(1000) / 999
    prod = 1.0
    for b in betas:
        prod *= 1.0 - b
    assert sched.alpha_bar[1000] == pytest.approx(prod, rel=1e-12)
    assert sched.alpha_bar[1000] == pytest.approx(4.0e-5, rel=0.05)
    assert sched.alpha_bar[1000] < 0.01


def test_alpha_bar_zero_is_one_exactly():
    assert linear_schedule(10, 1e-3, 0.1).alpha_bar[0] == 1.0


def test_alpha_bar_strictly_decreasing():
    sched = linear_schedule(200, 1e-4, 0.02)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert np.all(np.diff(sched.beta) > 0)


def test_variance_preserving_split():
    sched = linear_schedule(100, 1e-4, 0.02)
    for t in range(sched.T + 1):
        ab = sched.alpha_bar[t]
        assert ab + (1.0 - ab) == 1.0  # exact in IEEE for ab in [0, 1]
        assert sched.sqrt_ab(t) ** 2 + sched.sqrt_one_minus_ab(t) ** 2 == \
            pytest.approx(1.0, abs=1e-12)


def test_schedule_argument_validation():
    with pytest.raises(InvalidArgumentError):
        linear_schedule(1, 1e-4, 0.02)
    with pytest.raises(InvalidArgumentError):
        linear_schedule(100, 0.02, 0.02)
    with pytest.raises(InvalidArgumentError):
        linear_schedule(100, 0.0, 0.02)
    with pytest.raises(InvalidArgumentError):
        linear_schedule(100, 0.5, 1.0)


def test_schedule_rejects_alpha_bar_underflow():
    # x0 predictions divide by sqrt(alpha_bar[t]); at T = 2000 these betas drive
    # it to 0, and at T = 100,000 the default betas to a subnormal 1.2e-322
    with pytest.raises(InvalidArgumentError, match=r"alpha_bar\[T\] = 0 is below 1e-100"):
        linear_schedule(2000, 0.3, 0.99)
    with pytest.raises(InvalidArgumentError, match=r"alpha_bar\[T\] = 1.19e-322 is below"):
        linear_schedule(100_000, 1e-4, 0.02)
    assert linear_schedule(22_000, 1e-4, 0.02).alpha_bar[-1] >= ALPHA_BAR_FLOOR


# ---------------------------------------------------------------- plan

def test_make_plan_covers_range():
    sched = linear_schedule(1000, 1e-4, 0.02)
    plan = make_plan(sched, 25)
    assert plan.tau[0] == 0 and plan.tau[-1] == sched.T
    assert len(plan.tau) == 25
    assert np.all(np.diff(plan.tau) > 0)


def test_steps_down_walks_top_to_bottom():
    plan = InferencePlan(tau=np.array([0, 3, 7, 10]))
    assert plan.steps_down() == [(10, 7), (7, 3), (3, 0)]


def test_plan_validation():
    with pytest.raises(InvalidArgumentError):
        InferencePlan(tau=np.array([1, 5]))
    with pytest.raises(InvalidArgumentError):
        InferencePlan(tau=np.array([0, 5, 5]))
    sched = linear_schedule(10, 1e-3, 0.1)
    with pytest.raises(InvalidArgumentError):
        make_plan(sched, 1)
    with pytest.raises(InvalidArgumentError):
        make_plan(sched, 12)


def test_full_plan_has_every_step():
    sched = linear_schedule(10, 1e-3, 0.1)
    plan = make_plan(sched, 11)
    np.testing.assert_array_equal(plan.tau, np.arange(11))


# ---------------------------------------------------------------- rigidity

def test_single_segment_everything_maps_to_zero():
    rmap = RigidityMap(eta=1, t_lo=0, t_hi=999)
    assert all(segment_for(rmap, t) == 0 for t in (0, 1, 500, 999))


def test_one_segment_per_timestep():
    rmap = RigidityMap(eta=10, t_lo=0, t_hi=9)
    assert [segment_for(rmap, t) for t in range(10)] == list(range(10))


def test_segment_hand_evaluations():
    rmap = RigidityMap(eta=8, t_lo=0, t_hi=999)
    # floor(t * 8 / 1000)
    assert segment_for(rmap, 500) == 4
    assert segment_for(rmap, 0) == 0
    assert segment_for(rmap, 999) == 7
    assert segment_for(rmap, 124) == 0
    assert segment_for(rmap, 125) == 1


def test_segment_clamps_below_window():
    rmap = RigidityMap(eta=4, t_lo=100, t_hi=199)
    assert segment_for(rmap, 50) == 0
    assert segment_for(rmap, 100) == 0
    assert segment_for(rmap, 199) == 3


def test_segment_out_of_range():
    rmap = RigidityMap(eta=4, t_lo=0, t_hi=99)
    with pytest.raises(OutOfRangeError):
        segment_for(rmap, 100)
    with pytest.raises(OutOfRangeError):
        segment_for(rmap, -1)


def test_rigidity_validation():
    with pytest.raises(InvalidArgumentError):
        RigidityMap(eta=0, t_lo=0, t_hi=10)
    with pytest.raises(InvalidArgumentError):
        RigidityMap(eta=2, t_lo=10, t_hi=10)


@settings(deadline=None, max_examples=50)
@given(eta=st.integers(1, 32), hi=st.integers(1, 500))
def test_segment_monotone_and_surjective(eta, hi):
    eta = min(eta, hi + 1)
    rmap = RigidityMap(eta=eta, t_lo=0, t_hi=hi)
    segs = [segment_for(rmap, t) for t in range(hi + 1)]
    assert segs == sorted(segs)
    assert set(segs) == set(range(eta))


# ---------------------------------------------------------------- annealing

def test_gamma_boundaries_and_midpoint():
    sched = PerturbationSchedule(alpha_t=20, beta_t=10, s=0.1)
    assert gamma(sched, 10) == 1.0
    assert gamma(sched, 20) == 0.0
    assert gamma(sched, 15) == 0.5
    assert gamma(sched, 0) == 1.0
    assert gamma(sched, 25) == 0.0


def test_gamma_monotone_and_continuous():
    sched = PerturbationSchedule(alpha_t=300, beta_t=120, s=0.1)
    vals = [gamma(sched, t) for t in range(0, 400)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # continuity at the knots: one-step jumps stay at ramp slope
    slope = 1.0 / (300 - 120)
    diffs = np.abs(np.diff(vals))
    assert diffs.max() <= slope + 1e-12


def test_gamma_levels_characterize_knots():
    sched = PerturbationSchedule(alpha_t=30, beta_t=10, s=0.0)
    for t in range(0, 40):
        g = gamma(sched, t)
        assert (g == 1.0) == (t <= 10)
        assert (g == 0.0) == (t >= 30)
        assert 0.0 <= g <= 1.0


def test_perturbation_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        PerturbationSchedule(alpha_t=10, beta_t=10, s=0.1)
    with pytest.raises(InvalidArgumentError):
        PerturbationSchedule(alpha_t=10, beta_t=-1, s=0.1)
    with pytest.raises(InvalidArgumentError):
        PerturbationSchedule(alpha_t=10, beta_t=5, s=-0.1)
