"""Closed-form solvers against the RK4 oracle and analytic identities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from resdyn import (
    ConstantImpacts,
    DomainError,
    LinearImpacts,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    UndefinedSteadyStateError,
    erf,
    integrate_reference,
    solve_constant,
    solve_linear,
    solve_piecewise_constant,
    solve_piecewise_linear,
    steady_state,
)
from conftest import reference_piecewise


class TestSolveConstant:
    def test_no_agents_hold_initial_value(self):
        grid = np.linspace(0.0, 10.0, 11)
        trace = solve_constant(ConstantImpacts(0.0, 0.0), 0.6, 1.0, grid)
        assert np.array_equal(trace.values, np.full(11, 0.6))

    def test_pure_decay(self):
        grid = np.linspace(0.0, 10.0, 11)
        trace = solve_constant(ConstantImpacts(0.1, 0.0), 1.0, 1.0, grid)
        assert trace.values[-1] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_matches_rk4_oracle(self):
        grid = np.arange(0.0, 200.0001, 0.1)
        closed = solve_constant(ConstantImpacts(0.05, 0.15), 0.5, 1.0, grid)
        oracle = integrate_reference(lambda t: 0.15, lambda t: 0.05,
                                     0.5, 1.0, grid)
        assert np.abs(closed.values - oracle.values).max() <= 1e-8

    def test_monotone_with_exact_gap_decay(self):
        # |F(t) - F_inf| = |f_init - F_inf| * exp(-q t), exactly.
        grid = np.linspace(0.0, 80.0, 161)
        impacts = ConstantImpacts(0.03, 0.07)
        level = steady_state(impacts, 1.0).f_infinity
        for f_init in (0.1, level, 0.95):
            trace = solve_constant(impacts, f_init, 1.0, grid)
            gap = np.abs(trace.values - level)
            expected = abs(f_init - level) * np.exp(-0.1 * grid)
            assert gap == pytest.approx(expected, abs=1e-13)
            diffs = np.diff(trace.values)
            assert (diffs <= 1e-15).all() or (diffs >= -1e-15).all()

    def test_stronger_combined_rate_converges_faster(self):
        # Same steady level, doubled q: the gap is smaller at every t > 0.
        grid = np.linspace(0.0, 50.0, 101)
        slow = solve_constant(ConstantImpacts(0.04, 0.06), 1.0, 1.0, grid)
        fast = solve_constant(ConstantImpacts(0.08, 0.12), 1.0, 1.0, grid)
        level = 0.6
        assert (
            np.abs(fast.values[1:] - level) < np.abs(slow.values[1:] - level)
        ).all()


class TestSteadyState:
    def test_no_malware_keeps_normal_level(self):
        ss = steady_state(ConstantImpacts(0.0, 0.1), 1.0)
        assert ss.f_infinity == pytest.approx(1.0)
        assert ss.relative_decrease == pytest.approx(0.0)

    def test_balanced_agents_halve_functionality(self):
        ss = steady_state(ConstantImpacts(0.07, 0.07), 2.0)
        assert ss.f_infinity == pytest.approx(1.0)
        assert ss.relative_decrease == pytest.approx(0.5)

    def test_matches_long_horizon_integration(self):
        ss = steady_state(ConstantImpacts(0.025, 0.005), 1.0)
        grid = np.arange(0.0, 2000.0001, 1.0)
        oracle = integrate_reference(lambda t: 0.005, lambda t: 0.025,
                                     1.0, 1.0, grid)
        assert ss.f_infinity == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert oracle.values[-1] == pytest.approx(ss.f_infinity, abs=1e-9)

    def test_undefined_without_agents(self):
        with pytest.raises(UndefinedSteadyStateError):
            steady_state(ConstantImpacts(0.0, 0.0), 1.0)


INCIDENT_SCHEDULE = PiecewiseConstantSchedule(
    breakpoints=np.array([0.0, 69.5, 125.0]),
    segments=(ConstantImpacts(0.025, 0.005), ConstantImpacts(0.005, 0.088)),
)


class TestSolvePiecewiseConstant:
    def test_single_segment_reduces_to_constant(self):
        grid = np.linspace(0.0, 30.0, 61)
        sched = PiecewiseConstantSchedule(
            breakpoints=np.array([0.0, 30.0]),
            segments=(ConstantImpacts(0.02, 0.05),),
        )
        chained = solve_piecewise_constant(sched, 0.8, 1.0, grid)
        direct = solve_constant(ConstantImpacts(0.02, 0.05), 0.8, 1.0, grid)
        assert np.array_equal(chained.values, direct.values)

    def test_continuous_at_breakpoints(self):
        grid = np.arange(0.0, 125.0001, 0.5)
        trace = solve_piecewise_constant(INCIDENT_SCHEDULE, 1.0, 1.0, grid)
        i = int(np.where(grid == 69.5)[0][0])
        # Left-limit via the first segment's formula vs the chained start.
        left = solve_constant(
            ConstantImpacts(0.025, 0.005), 1.0, 1.0, np.array([0.0, 69.5])
        ).values[-1]
        assert abs(trace.values[i] - left) <= 1e-12

    def test_two_phase_incident_bottoms_at_reference_level(self):
        grid = np.arange(0.0, 125.0001, 0.5)
        trace = solve_piecewise_constant(INCIDENT_SCHEDULE, 1.0, 1.0, grid)
        i = int(np.argmin(trace.values))
        assert trace.values[i] == pytest.approx(0.27, abs=0.01)
        # The bottom sits exactly at the switching breakpoint.
        assert trace.times[i] == 69.5

    def test_grid_outside_schedule_rejected(self):
        grid = np.linspace(0.0, 130.0, 27)
        with pytest.raises(DomainError, match="outside"):
            solve_piecewise_constant(INCIDENT_SCHEDULE, 1.0, 1.0, grid)


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_odd_symmetry_exact(self):
        rng = np.random.default_rng(13)
        for x in rng.uniform(0.0, 6.0, 200):
            assert erf(-x) == -erf(x)

    def test_matches_defining_integral(self):
        oracle, err = quad(lambda u: 2.0 / math.sqrt(math.pi)
                           * math.exp(-u * u), 0.0, 1.0, epsabs=1e-15)
        assert err < 1e-13
        assert abs(erf(1.0) - oracle) <= 1e-12
        assert erf(1.0) == pytest.approx(0.842700792949715, abs=1e-12)


LINEAR_EXAMPLE = LinearImpacts(bonware_intercept=0.02, bonware_slope=1e-4,
                               malware_intercept=0.05, malware_slope=5e-4)


class TestSolveLinear:
    def test_zero_slopes_reduce_to_constant(self):
        grid = np.linspace(0.0, 60.0, 121)
        li = LinearImpacts(bonware_intercept=0.03, bonware_slope=0.0,
                           malware_intercept=0.06, malware_slope=0.0)
        linear = solve_linear(li, 1.0, 1.0, grid)
        constant = solve_constant(ConstantImpacts(0.06, 0.03), 1.0, 1.0, grid)
        assert np.array_equal(linear.values, constant.values)

    def test_pure_constant_malware_decay(self):
        grid = np.linspace(0.0, 40.0, 81)
        li = LinearImpacts(bonware_intercept=0.0, bonware_slope=0.0,
                           malware_intercept=0.05, malware_slope=0.0)
        trace = solve_linear(li, 1.0, 1.0, grid)
        assert trace.values == pytest.approx(np.exp(-0.05 * grid), abs=1e-12)

    def test_matches_rk4_oracle(self):
        grid = np.arange(0.0, 80.0001, 0.1)
        closed = solve_linear(LINEAR_EXAMPLE, 1.0, 1.0, grid)
        oracle = integrate_reference(
            lambda t: 0.02 - 1e-4 * t, lambda t: 0.05 - 5e-4 * t,
            1.0, 1.0, grid,
        )
        assert np.abs(closed.values - oracle.values).max() <= 1e-6

    def test_negative_rate_on_span_rejected(self):
        grid = np.linspace(0.0, 120.0, 25)  # malware hits zero at t=100
        with pytest.raises(DomainError, match="malware"):
            solve_linear(LINEAR_EXAMPLE, 1.0, 1.0, grid)

    def test_growing_rates_rejected(self):
        li = LinearImpacts(bonware_intercept=0.02, bonware_slope=-1e-3,
                           malware_intercept=0.05, malware_slope=0.0)
        grid = np.linspace(0.0, 50.0, 11)
        with pytest.raises(DomainError, match="slope"):
            solve_linear(li, 1.0, 1.0, grid)


class TestSolvePiecewiseLinear:
    def test_single_segment_reduces_to_linear(self):
        grid = np.linspace(0.0, 80.0, 161)
        sched = PiecewiseLinearSchedule(
            breakpoints=np.array([0.0, 80.0]), segments=(LINEAR_EXAMPLE,)
        )
        chained = solve_piecewise_linear(sched, 1.0, 1.0, grid)
        direct = solve_linear(LINEAR_EXAMPLE, 1.0, 1.0, grid)
        assert np.array_equal(chained.values, direct.values)

    def test_continuous_at_breakpoints(self):
        sched = PiecewiseLinearSchedule(
            breakpoints=np.array([0.0, 50.0, 100.0]),
            segments=(
                LINEAR_EXAMPLE,
                LinearImpacts(bonware_intercept=0.08, bonware_slope=0.0,
                              malware_intercept=0.0, malware_slope=0.0),
            ),
        )
        grid = np.arange(0.0, 100.0001, 0.5)
        trace = solve_piecewise_linear(sched, 1.0, 1.0, grid)
        i = int(np.where(grid == 50.0)[0][0])
        left = solve_linear(
            LINEAR_EXAMPLE, 1.0, 1.0, np.array([0.0, 50.0])
        ).values[-1]
        assert abs(trace.values[i] - left) <= 1e-10

    def test_decay_then_recovery_matches_rk4(self):
        # Fading malware first, then pure bonware.
        sched = PiecewiseLinearSchedule(
            breakpoints=np.array([0.0, 60.0, 120.0]),
            segments=(
                LinearImpacts(bonware_intercept=0.005, bonware_slope=0.0,
                              malware_intercept=0.06, malware_slope=1e-3),
                LinearImpacts(bonware_intercept=0.07, bonware_slope=2e-4,
                              malware_intercept=0.0, malware_slope=0.0),
            ),
        )
        grid = np.arange(0.0, 120.0001, 0.1)
        closed = solve_piecewise_linear(sched, 1.0, 1.0, grid)
        oracle = reference_piecewise(sched, 1.0, 1.0, grid)
        assert np.abs(closed.values - oracle).max() <= 1e-6


@pytest.mark.parametrize("solver, schedule, expected", [
    (solve_piecewise_constant, PiecewiseLinearSchedule(
        breakpoints=np.array([0.0, 80.0]), segments=(LINEAR_EXAMPLE,)),
     "PiecewiseConstantSchedule"),
    (solve_piecewise_linear, INCIDENT_SCHEDULE, "PiecewiseLinearSchedule"),
])
def test_wrong_schedule_type_rejected(solver, schedule, expected):
    with pytest.raises(DomainError, match=expected):
        solver(schedule, 1.0, 1.0, np.linspace(0.0, 60.0, 7))
