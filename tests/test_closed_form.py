"""Closed-form solvers against the RK4 oracle and analytic identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from resdyn import (
    ConstantImpacts,
    DomainError,
    LinearImpacts,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    SdeParams,
    UndefinedSteadyStateError,
    accomplishment,
    auc_resilience,
    ensemble_average,
    erf,
    expectation_recursion,
    integrate_reference,
    simulate,
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


@st.composite
def constant_rate_problems(draw):
    """Impacts, f_init and f0 with f0 log-uniform in [1e-3, 1e12] and no
    malware half the time."""
    f0 = 10.0 ** draw(st.floats(-3.0, 12.0))
    malware = draw(st.just(0.0) if draw(st.booleans())
                   else st.floats(0.0, 0.05))
    bonware = draw(st.floats(1e-3, 0.2))
    return ConstantImpacts(malware, bonware), draw(st.floats(0.0, f0)), f0


@given(problem=constant_rate_problems())
def test_constant_rate_producers_stay_within_f0(problem):
    # Each producer refuses a value outside [0, f0], so returning a trace
    # is the check; the steady level must not round above f0 either.
    impacts, f_init, f0 = problem
    assert steady_state(impacts, f0).f_infinity <= f0
    solve_constant(impacts, f_init, f0, np.linspace(0.0, 2000.0, 2001))
    expectation_recursion(impacts.malware_impact, impacts.bonware_impact,
                          f_init, f0, steps=2000)


@st.composite
def scaled_problems(draw):
    """Constant, linear and stochastic rates, f_init, f0 in [2**-20, 2**20]
    and a scale 2**k, k in [-60, 60].  f_init / f0 is 0 or at least
    2**-100, so no scaled level is subnormal."""
    f0 = 2.0 ** draw(st.floats(-20.0, 20.0))
    f_init = f0 * draw(st.just(0.0) | st.floats(2.0**-100, 1.0))
    rate, fade = st.floats(0.0, 0.5), st.floats(0.0, 0.999)
    impacts = ConstantImpacts(draw(rate), draw(rate))
    bonware, malware = draw(rate), draw(rate)
    linear = LinearImpacts(bonware, draw(fade) * bonware / 20.0,
                           malware, draw(fade) * malware / 20.0)
    params = SdeParams(*(draw(st.floats(0.0, 1.0)) for _ in range(2)),
                       *(draw(st.floats(0.01, 1.0)) for _ in range(2)))
    scale = 2.0 ** draw(st.integers(-60, 60))
    seed = draw(st.integers(0, 2**64 - 1))
    return impacts, linear, params, f_init, f0, scale, seed


@settings(max_examples=40)
@given(problem=scaled_problems())
def test_power_of_two_scale_is_exact(problem):
    # Scaling f_init and f0 by a power of two scales every level and the
    # accomplishment bit for bit, and leaves the AUC resilience as it is.
    impacts, linear, params, f_init, f0, scale, seed = problem
    grid, pts = np.linspace(0.0, 20.0, 21), np.array([0.0, 10.0, 20.0])
    swapped = ConstantImpacts(impacts.bonware_impact, impacts.malware_impact)

    def produce(f_init, f0):
        ensemble = ensemble_average(params, f_init, f0, 30, n=3,
                                    master_seed=seed)
        traces = [
            solve_constant(impacts, f_init, f0, grid),
            solve_linear(linear, f_init, f0, grid),
            solve_piecewise_constant(PiecewiseConstantSchedule(
                pts, (impacts, swapped)), f_init, f0, grid),
            solve_piecewise_linear(PiecewiseLinearSchedule(
                pts, (linear, linear)), f_init, f0, grid),
            simulate(params, f_init, f0, 30, seed=seed),
            ensemble.mean_trace,
            expectation_recursion(impacts.malware_impact,
                                  impacts.bonware_impact, f_init, f0, 30),
        ]
        return traces, ensemble.per_step_stderr

    traces, stderr = produce(f_init, f0)
    scaled, scaled_stderr = produce(f_init * scale, f0 * scale)
    assert (stderr * scale).tobytes() == scaled_stderr.tobytes()
    for trace, big in zip(traces, scaled):
        assert (trace.values * scale).tobytes() == big.values.tobytes()
        assert accomplishment(trace) * scale == accomplishment(big)
        assert auc_resilience(trace) == auc_resilience(big)


# Finite rates whose sum overflows are refused by their record, which
# names the fields; before, the sum gave a wrong steady state or a NaN
# curve.  A closed form that is not finite, from finite sums, is refused
# by the solver as a DomainError.
@pytest.mark.parametrize("call, message", [
    (lambda: steady_state(ConstantImpacts(1e308, 1e308), 1.0),
     "total_impact = malware_impact + bonware_impact must be finite, got inf"),
    (lambda: solve_constant(ConstantImpacts(1e308, 1e308), 0.5, 1.0,
                            np.linspace(0.0, 1.0, 5)),
     "total_impact = malware_impact + bonware_impact must be finite, got inf"),
    (lambda: solve_linear(LinearImpacts(1e308, 0.0, 1e308, 0.0), 0.5, 1.0,
                          np.linspace(0.0, 1.0, 5)),
     "total_intercept = bonware_intercept + malware_intercept must be "
     "finite, got inf"),
    (lambda: LinearImpacts(0.0, 1e308, 0.0, 1e308),
     "total_slope = bonware_slope + malware_slope must be finite, got inf"),
    # Finite sums, but alpha*om - beta*lam is inf - inf.
    (lambda: solve_linear(LinearImpacts(1e200, 5e199, 1e200, 5e199), 0.5,
                          1.0, np.linspace(0.0, 1.0, 5)),
     "solution left [0, f0] by more than 1e-12: range [nan, nan]"),
], ids=["steady_state", "solve_constant", "solve_linear-intercepts",
        "linear-slopes", "solve_linear-nan"])
def test_closed_form_that_is_not_finite_refused(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert type(caught.value) is DomainError
    assert str(caught.value) == message


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
        with pytest.raises(DomainError, match="^segment 0: malware"):
            solve_linear(LINEAR_EXAMPLE, 1.0, 1.0, grid)
        # A negative rate names its segment, as a negative slope does.
        sched = PiecewiseLinearSchedule(
            breakpoints=np.array([0.0, 20.0, 40.0, 60.0]),
            segments=(LINEAR_EXAMPLE, LinearImpacts(0.1, 0.01, 0.1, 0.0),
                      LINEAR_EXAMPLE))
        with pytest.raises(DomainError, match=(
                r"^segment 1: bonware impact goes negative within 20\.0 s "
                r"\(reaches -0\.1\)$")):
            solve_piecewise_linear(sched, 1.0, 1.0, np.linspace(0.0, 60.0, 13))

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


# The combined rate is constant while each rate varies, so neither the
# error-function form nor the constant fallback applies.
CANCELLING = LinearImpacts(bonware_intercept=0.02, bonware_slope=1e-3,
                           malware_intercept=0.05, malware_slope=-1e-3)


@pytest.mark.parametrize("solve, impacts, segment", [
    (solve_linear, CANCELLING, 0),
    (solve_piecewise_linear, PiecewiseLinearSchedule(
        breakpoints=np.array([0.0, 50.0, 60.0]),
        segments=(LINEAR_EXAMPLE, CANCELLING)), 1),
])
def test_cancelling_slopes_name_their_segment(solve, impacts, segment):
    grid = np.linspace(0.0, 10.0 if segment == 0 else 60.0, 11)
    with pytest.raises(DomainError, match=f"^segment {segment}: .*cancels"):
        solve(impacts, 1.0, 1.0, grid)


@st.composite
def chained_problems(draw):
    """A schedule of one to four windows of either kind, with f_init, f0
    and a grid that holds every breakpoint.  Linear slopes are
    nonnegative and fade each rate to at least zero by its window's end."""
    n = draw(st.integers(1, 4))
    widths = [draw(st.floats(0.5, 200.0)) for _ in range(n)]
    pts = draw(st.floats(-100.0, 100.0)) + np.cumsum([0.0] + widths)
    rate, fade = st.floats(0.0, 0.5), st.floats(0.0, 0.999)
    if draw(st.booleans()):
        segments = []
        for w in widths:
            bonware, malware = draw(rate), draw(rate)
            segments.append(LinearImpacts(bonware, draw(fade) * bonware / w,
                                          malware, draw(fade) * malware / w))
        schedule = PiecewiseLinearSchedule(pts, tuple(segments))
    else:
        schedule = PiecewiseConstantSchedule(
            pts, tuple(ConstantImpacts(draw(rate), draw(rate)) for _ in widths))
    f0 = draw(st.floats(1e-3, 1e3))
    f_init = f0 * draw(st.floats(0.0, 1.0))
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    grid = np.union1d(pts, pts[0] + (pts[-1] - pts[0]) * np.array(inner))
    return schedule, f_init, f0, grid


SOLVERS = {
    PiecewiseConstantSchedule: (solve_constant, solve_piecewise_constant),
    PiecewiseLinearSchedule: (solve_linear, solve_piecewise_linear),
}


@given(problem=chained_problems())
def test_solvers_bounded_and_continuous_at_breakpoints(problem):
    # Each breakpoint's value is the end value of the schedule cut off
    # there; the first window alone goes to the single-window solver.
    schedule, f_init, f0, grid = problem
    single, chained = SOLVERS[type(schedule)]
    values = chained(schedule, f_init, f0, grid).values
    assert ((values >= 0.0) & (values <= f0)).all()
    pts, segments = schedule.breakpoints, schedule.segments
    for k in range(1, pts.size):
        head = grid[grid <= pts[k]]
        if k == 1:
            cut = single(segments[0], f_init, f0, head).values
        else:
            cut = chained(type(schedule)(pts[:k + 1], segments[:k]),
                          f_init, f0, head).values
        assert ((cut >= 0.0) & (cut <= f0)).all()
        assert abs(cut[-1] - values[head.size - 1]) <= 1e-12 * f0


class FadedToZero(LinearImpacts):
    """Rates that read 0 past the window end.  RK4 samples a rate a
    rounding error past the end of its window, where the linear form of a
    rate that fades to exactly 0 there dips below 0."""

    def bonware_at(self, tau: float) -> float:
        return max(0.0, super().bonware_at(tau))

    def malware_at(self, tau: float) -> float:
        return max(0.0, super().malware_at(tau))


@st.composite
def zero_end_schedules(draw):
    """One or two linear windows whose two rates both fade to exactly 0 at
    the window's end (intercept = slope * width), with f_init, f0 and a
    grid that holds every breakpoint.  On such a window the argument of
    the scaled complementary error function ends at 0 in exact arithmetic,
    and in floats may end just below it."""
    pts = np.cumsum([0.0] + [draw(st.floats(0.5, 20.0))
                             for _ in range(draw(st.integers(1, 2)))])
    segments = []
    for width in np.diff(pts):
        bonware, malware = (draw(st.floats(1e-3, 0.5)) / width
                            for _ in range(2))
        segments.append(LinearImpacts(bonware * width, bonware,
                                      malware * width, malware))
    f0 = draw(st.floats(1e-3, 1e3))
    f_init = f0 * draw(st.floats(0.0, 1.0))
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=10))
    grid = np.union1d(pts, pts[-1] * np.array(inner))
    return PiecewiseLinearSchedule(pts, tuple(segments)), f_init, f0, grid


@given(problem=zero_end_schedules())
def test_rates_ending_at_zero_match_oracle(problem):
    schedule, f_init, f0, grid = problem
    oracle = reference_piecewise(PiecewiseLinearSchedule(
        schedule.breakpoints,
        tuple(FadedToZero(s.bonware_intercept, s.bonware_slope,
                          s.malware_intercept, s.malware_slope)
              for s in schedule.segments)), f_init, f0, grid)
    solved = [solve_piecewise_linear(schedule, f_init, f0, grid)]
    if len(schedule.segments) == 1:
        solved.append(solve_linear(schedule.segments[0], f_init, f0, grid))
    for trace in solved:
        values = trace.values
        assert np.isfinite(values).all()
        assert ((values >= 0.0) & (values <= f0)).all()
        assert np.abs(values - oracle).max() <= 1e-6 * f0
