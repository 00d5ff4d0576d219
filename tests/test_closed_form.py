"""Closed-form solvers against the RK4 oracle and analytic identities."""

import math
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from scipy import special
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
from conftest import (reference_constant_rates, reference_linear_rates,
                      reference_piecewise, units_off)
from resdyn.core import _sample_axis


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


def test_solve_constant_peak_memory():
    # A solve holds at most three arrays of a point's size at once: the
    # window's local times, their exponentials or the window's levels, and
    # the levels it returns, which the trace shares, as it shares the
    # caller's checked axis.  That is 24 bytes a point and growth slack.
    n = 200_001
    grid = _sample_axis(np.linspace(0.0, 1000.0, n), "grid")
    impacts = ConstantImpacts(0.02, 0.05)
    solve_constant(impacts, 0.3, 1.0, grid)
    tracemalloc.start()
    try:
        solve_constant(impacts, 0.3, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * n


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


# Bound on a constant-rate producer's distance from the 40-digit decimal
# reference, in units of 2**-52 * f0: at most four times the worst
# distance over the 2000 derandomized examples of each property below
# (1.21 for the solvers and steady_state; 0.96 for expectation_recursion,
# which solves at rates mapped to its per-step decay; the same with
# numpy's AVX-512 kernels on and off).
CONSTANT_FORM_BOUND = 3.5


@st.composite
def constant_rate_schedules(draw):
    """One to four windows of constant rates in [0, 2] (0 and subnormal
    rates included), f0 log-uniform in [1e-3, 1e12], f_init in [0, f0],
    and a grid inside the span that holds every breakpoint."""
    t0 = draw(st.floats(-100.0, 100.0))
    widths = draw(st.lists(st.floats(0.05, 40.0), min_size=1, max_size=4))
    pts = np.cumsum([t0, *widths])
    rate = st.floats(0.0, 2.0)
    schedule = PiecewiseConstantSchedule(pts, tuple(
        ConstantImpacts(draw(rate), draw(rate)) for _ in widths))
    f0 = 10.0 ** draw(st.floats(-3.0, 12.0))
    f_init = f0 * draw(st.floats(0.0, 1.0))
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=8))
    grid = np.unique([*pts, *(pts[0] + u * (pts[-1] - pts[0]) for u in inner)])
    return schedule, f_init, f0, grid


@settings(max_examples=2000)
@given(problem=constant_rate_schedules())
def test_constant_forms_within_bound_of_decimal_reference(problem):
    schedule, f_init, f0, grid = problem
    segments = schedule.segments
    windows = [(start, s.malware_impact, s.bonware_impact)
               for start, s in zip(schedule.breakpoints, segments)]
    want = reference_constant_rates(f0, windows, f_init, grid)
    traces = [solve_piecewise_constant(schedule, f_init, f0, grid)]
    if len(segments) == 1:
        traces.append(solve_constant(segments[0], f_init, f0, grid))
    for trace in traces:
        assert units_off(trace.values, want, f0) <= CONSTANT_FORM_BOUND
    for _, malware, bonware in windows:
        if malware + bonware > 0.0:
            # The level is the solution at t = inf, from any start.
            level = steady_state(ConstantImpacts(malware, bonware), f0)
            assert units_off([level.f_infinity], reference_constant_rates(
                f0, [(0.0, malware, bonware)], 0.0, [math.inf]),
                f0) <= CONSTANT_FORM_BOUND


@st.composite
def recursion_problems(draw):
    """Per-step impacts in [0, 0.5) (0 and subnormal impacts included), f0
    log-uniform in [1e-3, 1e12], f_init in [0, f0], and up to 2000 steps."""
    rate = st.floats(0.0, 0.5, exclude_max=True)
    malware, bonware = draw(rate), draw(rate)
    f0 = 10.0 ** draw(st.floats(-3.0, 12.0))
    f_init = f0 * draw(st.floats(0.0, 1.0))
    steps = draw(st.integers(1, 2000))
    return malware, bonware, f_init, f0, steps


@settings(max_examples=2000)
@example(problem=(0.28125, 0.1171875, 56234132519.034904, 56234132519.034904,
                  1))  # the sum rounded one unit past f0
@given(problem=recursion_problems())
def test_recursion_within_bound_of_decimal_reference(problem):
    malware, bonware, f_init, f0, steps = problem
    values = expectation_recursion(malware, bonware, f_init, f0, steps).values
    looks = sorted({*range(0, steps, max(1, steps // 16)), steps})
    want = reference_constant_rates(f0, [(0.0, malware, bonware)], f_init,
                                    looks, per_step=True)
    assert units_off(values[looks], want, f0) <= CONSTANT_FORM_BOUND


# Bound on a linear-rate solver's distance from the 40-digit decimal
# reference, in units of 2**-52 * f0: at most four times the worst
# distance over the 2000 derandomized examples below (3.51, the same
# with numpy's AVX-512 kernels on and off).
LINEAR_FORM_BOUND = 14.0


@st.composite
def linear_rate_schedules(draw):
    """One to three windows of linearly fading rates, f0 log-uniform in
    [1e-3, 1e12], f_init in [0, f0], and a grid inside the span that holds
    every breakpoint and up to three times between.  The intercepts lie in
    [0, 2] (0 and subnormal ones included) and each slope is a share in
    [0, 1], log-uniform down to 1e-200 as well, of its intercept over the
    window's width, so both rates stay >= 0 and the combined slopes reach
    below OMEGA_MIN and on to where the solvers take constant rates."""
    t0 = draw(st.floats(-100.0, 100.0))
    widths = draw(st.lists(st.floats(0.05, 40.0), min_size=1, max_size=3))
    pts = np.cumsum([t0, *widths])
    rate = st.floats(0.0, 2.0)
    share = (st.just(0.0) | st.floats(0.0, 1.0)
             | st.floats(-200.0, 0.0).map(lambda e: 10.0 ** e))
    segments = []
    for width in np.diff(pts):
        bonware, malware = draw(rate), draw(rate)
        segment = LinearImpacts(bonware, draw(share) * bonware / width,
                                malware, draw(share) * malware / width)
        assume(segment.bonware_at(width) >= 0.0
               and segment.malware_at(width) >= 0.0)
        segments.append(segment)
    f0 = 10.0 ** draw(st.floats(-3.0, 12.0))
    f_init = f0 * draw(st.floats(0.0, 1.0))
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    grid = np.unique([*pts, *(pts[0] + u * (pts[-1] - pts[0]) for u in inner)])
    return PiecewiseLinearSchedule(pts, tuple(segments)), f_init, f0, grid


@settings(max_examples=2000)
@given(problem=linear_rate_schedules())
def test_linear_forms_within_bound_of_decimal_reference(problem):
    schedule, f_init, f0, grid = problem
    want = reference_linear_rates(
        f0, list(zip(schedule.breakpoints, schedule.segments)), f_init, grid)
    traces = [solve_piecewise_linear(schedule, f_init, f0, grid)]
    if len(schedule.segments) == 1:
        traces.append(solve_linear(schedule.segments[0], f_init, f0, grid))
    for trace in traces:
        assert units_off(trace.values, want, f0) <= LINEAR_FORM_BOUND


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

    @pytest.mark.parametrize("impacts", [
        LinearImpacts(0.3, 5e-11, 0.5, 5e-11),  # at OMEGA_MIN
        LinearImpacts(0.3, 8e-201, 0.5, 1.2e-200),
    ], ids=["omega=1e-10", "omega=2e-200"])
    def test_tiny_fades_solved_exactly(self, impacts):
        grid = [0.0, 10.0, 40.0]
        trace = solve_linear(impacts, 0.7, 1.0, grid)
        want = reference_linear_rates(1.0, [(0.0, impacts)], 0.7, grid)
        assert units_off(trace.values, want, 1.0) <= LINEAR_FORM_BOUND

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
# error-function form nor the constant-rate branch applies; slopes that
# nearly cancel are refused alike, however small.
CANCELLING = LinearImpacts(bonware_intercept=0.02, bonware_slope=1e-3,
                           malware_intercept=0.05, malware_slope=-1e-3)


@pytest.mark.parametrize("solve, impacts, segment", [
    (solve_linear, CANCELLING, 0),
    (solve_linear, LinearImpacts(0.3, 5e-11, 0.5, -4e-11), 0),
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


# The numpy formulation of the closed forms, as the solvers computed them
# before they moved to builtins with numpy's exp as their only numpy
# operation.  scipy's erfcx stands in for the vectorized replay they called,
# which matched it bit for bit (tests/test_faddeeva.py).  The range check of
# the clamp is left out: the property draws only solvable problems.
def reference_constant(impacts, f_start, f0, tau):
    q = impacts.total_impact
    if q == 0.0:
        return np.full(tau.shape, f_start)
    level = f0 * (impacts.bonware_impact / q)
    return (f_start - level) * np.exp(-q * tau) + level


def reference_linear(impacts, f_start, f0, tau):
    lam = impacts.total_intercept
    om = impacts.total_slope
    alpha = impacts.bonware_intercept
    beta = impacts.bonware_slope
    if om ** 1.5 < sys.float_info.min:
        fallback = ConstantImpacts(impacts.malware_intercept,
                                   impacts.bonware_intercept)
        return reference_constant(fallback, f_start, f0, tau)
    big_lam = lam / math.sqrt(2.0 * om)
    x = math.sqrt(om / 2.0) * tau
    inv_omega = np.exp(-(lam * tau - 0.5 * om * tau * tau))
    coef = (alpha * om - beta * lam) * math.sqrt(math.pi / 2.0) / om ** 1.5
    bracket = (special.erfcx(np.maximum(big_lam - x, 0.0))
               - special.erfcx(big_lam) * inv_omega)
    ratio = (
        (f_start / f0) * inv_omega
        + (beta / om) * (1.0 - inv_omega)
        + coef * bracket
    )
    return f0 * ratio


def reference_solve(schedule, f_init, f0, grid):
    g = np.asarray(grid, dtype=float)
    pts = schedule.breakpoints
    window_values = (reference_constant
                     if isinstance(schedule, PiecewiseConstantSchedule)
                     else reference_linear)
    cuts = np.concatenate(([0], np.searchsorted(g, pts[1:-1]), [g.size]))
    values = np.empty(g.size)
    f_start = float(f_init)
    for j, seg in enumerate(schedule.segments):
        lo, hi = cuts[j], cuts[j + 1]
        tau = np.append(np.maximum(g[lo:hi] - pts[j], 0.0),
                        pts[j + 1] - pts[j])
        window = window_values(seg, f_start, f0, tau)
        values[lo:hi] = window[:-1]
        f_start = float(window[-1])
    return np.clip(values, 0.0, f0)


@st.composite
def schedule_problems(draw):
    """A piecewise-constant or piecewise-linear schedule of one to four
    windows, some with zero rates, f0 from 1e-3 to 1e12, f_init in
    [0, f0], and a grid inside the span that may hold breakpoints exactly
    and may reach up to 0.9 of the 1e-9 * span tolerance past either end."""
    t0 = draw(st.just(0.0) | st.floats(-100.0, 100.0))
    widths = draw(st.lists(st.floats(0.05, 40.0), min_size=1, max_size=4))
    pts = np.cumsum([t0, *widths])
    rate = st.just(0.0) | st.floats(0.0, 2.0)
    if draw(st.booleans()):
        schedule = PiecewiseConstantSchedule(pts, tuple(
            ConstantImpacts(draw(rate), draw(rate)) for _ in widths))
    else:
        fade = st.just(0.0) | st.floats(0.0, 0.999)
        segments = []
        for width in np.diff(pts):
            bonware, malware = draw(rate), draw(rate)
            segments.append(LinearImpacts(
                bonware, draw(fade) * bonware / width,
                malware, draw(fade) * malware / width))
        schedule = PiecewiseLinearSchedule(pts, tuple(segments))
    f0 = 10.0 ** draw(st.floats(-3.0, 12.0))
    f_init = f0 * draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    start, end = pts[0], pts[-1]
    tol = 1e-9 * max(1.0, abs(start), abs(end))
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=30))
    ends = [start - draw(st.floats(0.0, 0.9)) * tol,
            end + draw(st.floats(0.0, 0.9)) * tol]
    hits = [p for p in pts if draw(st.booleans())]
    grid = np.unique([*ends, *hits, *(start + u * (end - start) for u in inner)])
    return schedule, f_init, f0, grid


@example(problem=(PiecewiseConstantSchedule([0.0, 2.0], (ConstantImpacts(
    0.0, 0.0),)), -0.0, 1.0, array("d", [0.0, 1.0, 2.0])))
@example(problem=(PiecewiseLinearSchedule([0.0, 2.0], (LinearImpacts(
    0.0, 0.0, 0.0, 0.0),)), -0.0, 1.0, array("d", [-0.0, 1.0, 2.0])))
@example(problem=(PiecewiseConstantSchedule([0.0, 1.0, 2.0], (
    ConstantImpacts(0.0, 0.0), ConstantImpacts(0.3, 0.0))), -0.0, 2.0,
    array("d", [-0.0, 0.5, 1.0, 2.0])))
@given(problem=schedule_problems())
def test_solvers_match_numpy_formulation_byte_for_byte(problem):
    # Every value is computed with the operations of the numpy formulation,
    # in its order, so the bytes are the same, signed zeros included.
    schedule, f_init, f0, grid = problem
    piecewise = (solve_piecewise_constant
                 if isinstance(schedule, PiecewiseConstantSchedule)
                 else solve_piecewise_linear)
    single = (solve_constant if isinstance(schedule, PiecewiseConstantSchedule)
              else solve_linear)
    try:
        trace = piecewise(schedule, f_init, f0, grid)
    except DomainError:
        reject()
    assert trace.values.tobytes() == reference_solve(
        schedule, f_init, f0, grid).tobytes()
    if len(schedule.segments) == 1:
        # The one-window solvers take the grid's span as the window.
        g = np.asarray(grid, dtype=float)
        spanned = type(schedule)([g[0], g[-1]], schedule.segments)
        try:
            trace = single(schedule.segments[0], f_init, f0, grid)
        except DomainError:
            return
        assert trace.values.tobytes() == reference_solve(
            spanned, f_init, f0, grid).tobytes()

