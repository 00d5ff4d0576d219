"""Switch detection, activity counting, phase fits, and the likelihood."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import reference_grid_mle, reference_transition_log_density
from resdyn import (
    ConstantImpacts,
    DomainError,
    FitConfig,
    FitFailureError,
    FunctionalityTrace,
    GridAxis,
    MleGrid,
    NoSwitchError,
    PiecewiseConstantSchedule,
    SdeParams,
    auc_resilience,
    count_activities,
    detect_switch_time,
    fit_phase1,
    fit_phase2,
    fit_piecewise,
    fit_result_to_dict,
    grid_mle,
    read_trace_csv,
    simulate,
    solve_piecewise_constant,
    step_log_density,
    stochastic,
    write_fit_result_json,
    write_trace_csv,
)
from resdyn import likelihood
from resdyn.core import MAX_GRID_POINTS
from resdyn.likelihood import (
    ATOM_TOL,
    _check_spacing,
    _separable_surface,
    _transition_log_density,
    _transitions,
)

ALPHA1 = 1.0 - 1.0 / math.e
ALPHA2 = 1.0 - math.exp(-4.0)


class TestDetectSwitchTime:
    def test_v_shape_unique_minimum(self):
        times = np.arange(0.0, 101.0)
        values = np.abs(times - 50.0) / 100.0 + 0.1
        trace = FunctionalityTrace(times, values, 1.0)
        assert detect_switch_time(trace) == 50.0

    def test_plateau_midpoint(self):
        times = np.arange(0.0, 31.0)
        values = np.where(times < 10, 1.0 - times * 0.05,
                          np.where(times <= 20, 0.5, 0.5 + (times - 20) * 0.02))
        trace = FunctionalityTrace(times, values, 1.0)
        assert detect_switch_time(trace) == 15.0

    def test_plateau_extends_left_of_first_minimum(self):
        # Samples within MIN_WINDOW_TOL of the minimum join its plateau on
        # either side.
        values = [1.0, 0.5 + 5e-10, 0.5, 0.5, 0.5 + 2e-10, 0.9]
        trace = FunctionalityTrace(np.arange(6.0), values, 1.0)
        assert detect_switch_time(trace) == 2.5

    def test_plateau_tolerance_is_one_part_in_1e9(self):
        # Samples within 1e-9 * f0 of the minimum join its plateau, those
        # 5e-8 and 5e-7 * f0 above it do not; a plateau tolerance of 1e-7
        # would take sample 13 in and give 11.5.
        f0, m = 2.0, 0.75
        times = np.arange(0.0, 21.0)
        values = np.abs(times - 11.0) * 0.01 + m
        values[10:13] = [m, m + 5e-10 * f0, m]
        values[13] = m + 5e-8 * f0
        values[9] = m + 5e-7 * f0
        trace = FunctionalityTrace(times, values, f0)
        assert detect_switch_time(trace) == 11.0

    def test_boundary_minimum_rejected(self):
        times = np.arange(0.0, 20.0)
        trace = FunctionalityTrace(times, 1.0 - times * 0.04, 1.0)
        with pytest.raises(NoSwitchError):
            detect_switch_time(trace)

    def test_notional_fixture(self, notional_trace):
        assert detect_switch_time(notional_trace) == 69.5


class TestCountActivities:
    def test_hand_built_counts(self):
        times = np.arange(0.0, 11.0)
        values = np.array([1.0, 0.8, 0.8, 0.6, 0.7, 0.4, 0.4, 0.5, 0.45, 0.6, 0.9])
        trace = FunctionalityTrace(times, values, 1.0)
        rates = count_activities(trace, switch_time=5.0, count_end=10.0)
        # Drops end at t=1, 3, 5 (phase 1) and t=8 (phase 2); rises at
        # t=4 (phase 1) and t=7, 9, 10 (phase 2).
        assert rates.malware_phase1 == pytest.approx(3 / 5.0)
        assert rates.bonware_phase1 == pytest.approx(1 / 5.0)
        assert rates.malware_phase2 == pytest.approx(1 / 5.0)
        assert rates.bonware_phase2 == pytest.approx(3 / 5.0)

    def test_sub_tolerance_moves_are_not_events(self):
        times = np.arange(0.0, 5.0)
        values = np.array([0.5, 0.5 + 1e-12, 0.4, 0.4 - 1e-12, 0.6])
        trace = FunctionalityTrace(times, values, 1.0)
        rates = count_activities(trace, switch_time=3.0, count_end=4.0)
        assert rates.malware_phase1 == pytest.approx(1 / 3.0)
        assert rates.bonware_phase1 == 0.0
        assert rates.bonware_phase2 == pytest.approx(1.0)

    def test_notional_fixture_rates(self, notional_trace):
        # The notional incident has 7 drops and 2 rises before the switch,
        # then 1 drop and 4 rises through 100 s.  Note the reference
        # parameter set quotes the phase-1 bonware rate as ~0.014, which
        # its own two counted rises over 69.5 s cannot produce (2/69.5 is
        # ~0.029); the counts are authoritative here.
        rates = count_activities(notional_trace, 69.5, count_end=100.0)
        assert rates.malware_phase1 == pytest.approx(7 / 69.5, abs=1e-12)
        assert rates.bonware_phase1 == pytest.approx(2 / 69.5, abs=1e-12)
        assert rates.malware_phase2 == pytest.approx(1 / 30.5, abs=1e-12)
        assert rates.bonware_phase2 == pytest.approx(4 / 30.5, abs=1e-12)
        assert rates.malware_phase1 == pytest.approx(0.101, abs=1e-3)
        assert rates.malware_phase2 == pytest.approx(0.033, abs=1e-3)
        assert rates.bonware_phase2 == pytest.approx(0.131, abs=1e-3)

    def test_switch_outside_trace_rejected(self):
        times = np.arange(0.0, 10.0)
        trace = FunctionalityTrace(times, np.linspace(1.0, 0.5, 10), 1.0)
        with pytest.raises(DomainError):
            count_activities(trace, switch_time=20.0, count_end=30.0)

    @pytest.mark.parametrize("count_end", [math.nan, math.inf])
    def test_non_finite_count_end_names_field(self, notional_trace,
                                              count_end):
        with pytest.raises(DomainError, match=(
                rf"^count_end must be finite, got {count_end}$")):
            count_activities(notional_trace, 69.5, count_end)

    def test_moves_are_counted_without_a_list(self):
        # Each phase's moves are counted as they are formed; a list of them
        # would hold a float object per move (about 19% of the steps here).
        steps = 200_000
        trace = simulate(SdeParams(0.1, 0.1, 0.3, 0.3), 0.5, 1.0, steps,
                         seed=3)
        count_activities(trace, steps / 2 + 0.5, steps - 0.5)
        tracemalloc.start()
        try:
            count_activities(trace, steps / 2 + 0.5, steps - 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_count_end_past_trace_end_names_field(self, notional_trace):
        # Phase 2 would be divided by seconds the trace never covers.
        end = notional_trace.end_time
        with pytest.raises(DomainError, match=(
                rf"^count_end 1000000\.0 lies past the trace end {end}$")):
            count_activities(notional_trace, 69.5, 1e6)
        rates = count_activities(notional_trace, 69.5, end)
        assert rates.malware_phase2 == pytest.approx(1 / (end - 69.5))


class TestFitPhase1:
    def test_reference_incident_values(self):
        impacts, residual = fit_phase1(0.27, 69.5, 1.0, 1.0)
        assert impacts.malware_impact == pytest.approx(0.025, abs=0.002)
        assert impacts.bonware_impact == pytest.approx(0.005, abs=0.002)
        assert residual <= 1e-10

    def test_asymptote_equation_holds(self):
        impacts, _ = fit_phase1(0.27, 69.5, 1.0, 1.0)
        level = impacts.bonware_impact / impacts.total_impact
        assert level == pytest.approx(ALPHA1 * 0.27, abs=1e-9)

    def test_against_scalar_bracketing_oracle(self):
        # Independent route: pin the asymptote and bracket the remaining
        # monotone scalar equation in q.
        m_min, horizon, f_init = 0.27, 69.5, 1.0
        level = ALPHA1 * m_min
        q_oracle = brentq(
            lambda q: (f_init - level) * math.exp(-q * horizon) + level - m_min,
            1e-12, 5.0, xtol=1e-15,
        )
        impacts, _ = fit_phase1(m_min, horizon, f_init, 1.0)
        assert impacts.total_impact == pytest.approx(q_oracle, abs=1e-12)

    def test_trajectory_passes_through_minimum(self):
        impacts, _ = fit_phase1(0.27, 69.5, 1.0, 1.0)
        q = impacts.total_impact
        level = impacts.bonware_impact / q
        value = (1.0 - level) * math.exp(-q * 69.5) + level
        assert value == pytest.approx(0.27, abs=1e-12)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(DomainError):
            fit_phase1(0.8, 69.5, 0.7, 1.0)  # minimum above start
        with pytest.raises(DomainError):
            fit_phase1(0.0, 69.5, 1.0, 1.0)
        for horizon in (math.inf, math.nan):
            with pytest.raises(DomainError, match="switch_elapsed"):
                fit_phase1(0.27, horizon, 1.0, 1.0)

    def test_unsolved_system_carries_residual_array(self):
        # A subnormal horizon makes the combined rate infinite, so the
        # system is refused with both residuals as a float array.
        with pytest.raises(FitFailureError, match="^decay-phase system "
                           r"unsolved \(residual nan") as caught:
            fit_phase1(0.3, 5e-324, 0.9, 1.0)
        residuals = caught.value.residuals
        assert type(residuals) is np.ndarray
        assert residuals.dtype == np.float64 and residuals.shape == (2,)
        assert np.isnan(residuals).all()


class TestFitPhase2:
    def test_asymptote_identity(self):
        impacts, residual = fit_phase2(0.27, 69.5, 1.0)
        level = impacts.bonware_impact / impacts.total_impact
        assert level == pytest.approx(0.95, abs=1e-9)
        assert residual <= 1e-10

    def test_against_scalar_bracketing_oracle(self):
        cfg = FitConfig()
        horizon = cfg.recovery_fit_end - 69.5
        q_oracle = brentq(
            lambda q: (0.27 - 0.95) * math.exp(-q * horizon) + 0.95
            - ALPHA2 * 0.95,
            1e-12, 5.0, xtol=1e-15,
        )
        impacts, _ = fit_phase2(0.27, 69.5, 1.0)
        assert impacts.total_impact == pytest.approx(q_oracle, abs=1e-12)

    def test_reach_level_at_fit_end(self):
        impacts, _ = fit_phase2(0.27, 69.5, 1.0)
        q = impacts.total_impact
        value = (0.27 - 0.95) * math.exp(-q * 55.5) + 0.95
        assert value == pytest.approx(ALPHA2 * 0.95, abs=1e-12)

    def test_minimum_above_asymptote_rejected(self):
        cfg = FitConfig(recovery_asymptote=0.3)
        from resdyn import FitFailureError
        with pytest.raises(FitFailureError):
            fit_phase2(0.4, 69.5, 1.0, cfg)

    def test_minimum_above_reach_target_rejected(self):
        # The asymptote 0.95 exceeds the minimum, but half of it does not.
        cfg = FitConfig(recovery_level_fraction=0.5)
        with pytest.raises(FitFailureError, match=(
                r"^recovery target at recovery_fit_end \(0\.475\) does not "
                r"exceed the data minimum 0\.5$")):
            fit_phase2(0.5, 69.5, 1.0, cfg)

    @pytest.mark.parametrize("min_value", [0.0, 1.0, -0.1])
    def test_minimum_outside_open_range_rejected(self, min_value):
        with pytest.raises(DomainError, match=(
                rf"^min_value must lie in \(0, f0\), got {min_value}$")):
            fit_phase2(min_value, 69.5, 1.0)

    @pytest.mark.parametrize("switch_time", [125.0, 130.0])
    def test_fit_end_not_after_switch_rejected(self, switch_time):
        with pytest.raises(DomainError, match=(
                rf"^recovery_fit_end 125\.0 must exceed the switch time "
                rf"{switch_time}$")):
            fit_phase2(0.27, switch_time, 1.0)

    def test_non_finite_horizon_rejected(self):
        for switch_time in (-math.inf, math.nan):
            with pytest.raises(DomainError,
                               match="recovery_fit_end - switch_time"):
                fit_phase2(0.27, switch_time, 1.0)


class TestFitPiecewise:
    def test_notional_fixture_full_chain(self, notional_trace):
        result = fit_piecewise(notional_trace)
        assert result.switch_time == 69.5
        p1, p2 = result.phase1, result.phase2
        assert p1.impacts.malware_impact == pytest.approx(0.025, abs=0.002)
        assert p1.impacts.bonware_impact == pytest.approx(0.005, abs=0.002)
        assert p1.malware_effectiveness == pytest.approx(0.503, abs=0.01)
        assert p1.bonware_effectiveness == pytest.approx(0.362, abs=0.01)
        # Recovery-phase impacts follow from its two equations; the
        # quoted effectiveness pair (0.201, 0.957) pins them at about
        # (0.0033, 0.0627) through the event counts.
        assert p2.impacts.malware_impact == pytest.approx(0.0033, abs=0.0005)
        assert p2.impacts.bonware_impact == pytest.approx(0.0627, abs=0.0005)
        assert p2.malware_effectiveness == pytest.approx(0.201, abs=0.05)
        assert p2.bonware_effectiveness == pytest.approx(0.957, abs=0.05)
        assert result.phase1_residual <= 1e-10
        assert result.phase2_residual <= 1e-10

    def test_decomposition_identity(self, notional_trace):
        # impact = activity * effectiveness / 2, exactly, in every phase
        # with counted events (an event averages half its bound).
        result = fit_piecewise(notional_trace)
        for phase in (result.phase1, result.phase2):
            assert phase.impacts.malware_impact == pytest.approx(
                phase.malware_activity * phase.malware_effectiveness / 2.0,
                rel=1e-12,
            )
            assert phase.impacts.bonware_impact == pytest.approx(
                phase.bonware_activity * phase.bonware_effectiveness / 2.0,
                rel=1e-12,
            )

    def test_schedule_spans_trace(self, notional_trace):
        result = fit_piecewise(notional_trace)
        assert result.schedule.breakpoints[0] == notional_trace.start_time
        assert result.schedule.breakpoints[1] == 69.5
        assert result.schedule.breakpoints[-1] == notional_trace.end_time

    def test_endpoints_past_trace_end_rejected(self, notional_trace):
        # Cut at 89 s, the default endpoints (100 s, 125 s) would count
        # events over 30.5 s of which only 19.5 s exist.
        keep = notional_trace.times <= 89.0
        cut = FunctionalityTrace(notional_trace.times[keep],
                                 notional_trace.values[keep],
                                 notional_trace.f0)
        with pytest.raises(DomainError, match="activity_count_end"):
            fit_piecewise(cut)
        with pytest.raises(DomainError, match="recovery_fit_end"):
            fit_piecewise(cut, FitConfig(activity_count_end=89.0))
        result = fit_piecewise(
            cut, FitConfig(activity_count_end=89.0, recovery_fit_end=89.0)
        )
        assert result.switch_time == 69.5

    def test_count_end_before_switch_names_field(self, notional_trace):
        with pytest.raises(DomainError, match=r"^activity_count_end 12\.0 "
                           r"must exceed switch_time 69\.5$"):
            fit_piecewise(notional_trace, FitConfig(activity_count_end=12.0))
        # The library function keeps the name of its own argument.
        with pytest.raises(DomainError, match=r"^count_end 12\.0 must exceed"):
            count_activities(notional_trace, 69.5, count_end=12.0)

    def test_recovery_only_trace_has_no_switch(self):
        times = np.arange(0.0, 50.0)
        trace = FunctionalityTrace(times, 0.3 + times * 0.01, 1.0)
        with pytest.raises(NoSwitchError):
            fit_piecewise(trace)

    def test_round_trip_consistent_scenario(self):
        # A scenario built to satisfy the recipe's own assumptions: the
        # decay asymptote sits at ALPHA1 times the curve minimum, the
        # recovery asymptote at 0.95, and the fit endpoint where the
        # recovery covers the ALPHA2 fraction.  The recipe must then give
        # the generating impacts back.
        m1, b1 = 0.04, 0.01
        q1 = m1 + b1
        level1 = b1 / q1  # 0.2
        m_min = level1 / ALPHA1
        t_star = -math.log((m_min - level1) / (1.0 - level1)) / q1
        m2, b2 = 0.004, 0.076
        q2 = m2 + b2
        ratio = (ALPHA2 * 0.95 - 0.95) / (m_min - 0.95)
        fit_end = t_star - math.log(ratio) / q2

        schedule = PiecewiseConstantSchedule(
            breakpoints=np.array([0.0, t_star, 125.0]),
            segments=(ConstantImpacts(m1, b1), ConstantImpacts(m2, b2)),
        )
        grid = np.union1d(np.linspace(0.0, 125.0, 1251), [t_star])
        trace = solve_piecewise_constant(schedule, 1.0, 1.0, grid)
        cfg = FitConfig(activity_count_end=100.0, recovery_fit_end=fit_end)
        result = fit_piecewise(trace, cfg)

        assert result.switch_time == pytest.approx(t_star, abs=1e-9)
        assert result.phase1.impacts.malware_impact == pytest.approx(m1, rel=0.1)
        assert result.phase1.impacts.bonware_impact == pytest.approx(b1, rel=0.1)
        assert result.phase2.impacts.malware_impact == pytest.approx(m2, rel=0.1)
        assert result.phase2.impacts.bonware_impact == pytest.approx(b2, rel=0.1)


def total_measure(params, f_now, f0=1.0):
    """Quadrature of the continuous density plus the zero atom."""
    a = params.malware_effectiveness * f_now
    b = params.bonware_effectiveness * (f0 - f_now)
    density = lambda d: math.exp(step_log_density(f_now, f_now + d, params, f0))
    kinks = sorted({x for x in (0.0, b - a) if -a < x < b})
    total, err = quad(density, -a, b, points=kinks, limit=400)
    assert err < 1e-9
    atom = math.exp(step_log_density(f_now, f_now, params, f0))
    return total + atom


class TestStepLogDensity:
    def test_certain_atom(self):
        p = SdeParams(0.0, 0.0, 0.5, 0.5)
        assert step_log_density(0.6, 0.6, p, 1.0) == 0.0

    def test_increase_impossible_without_bonware(self):
        p = SdeParams(0.5, 0.0, 0.5, 0.5)
        assert step_log_density(0.6, 0.7, p, 1.0) == -math.inf

    def test_outside_support(self):
        p = SdeParams(0.5, 0.5, 0.2, 0.2)
        # Largest possible drop is 0.2*0.5 = 0.1.
        assert step_log_density(0.5, 0.35, p, 1.0) == -math.inf

    def test_atom_mass_with_both_agents(self):
        p = SdeParams(0.3, 0.4, 0.5, 0.5)
        assert step_log_density(0.5, 0.5, p, 1.0) == pytest.approx(
            math.log(0.7 * 0.6)
        )

    def test_boundary_state_collapses_malware(self):
        # At zero functionality malware cannot act, so its mass joins the
        # atom and any strict decrease is impossible.
        p = SdeParams(0.3, 0.0, 0.5, 0.5)
        assert step_log_density(0.0, 0.0, p, 1.0) == pytest.approx(0.0)

    def test_total_measure_is_one(self):
        rng = np.random.default_rng(314)
        for _ in range(5):
            tm, tb = rng.uniform(0.05, 0.95, 2)
            gm, gb = rng.uniform(0.1, 1.0, 2)
            f_now = rng.uniform(0.05, 0.95)
            p = SdeParams(tm, tb, gm, gb)
            assert total_measure(p, f_now) == pytest.approx(1.0, abs=1e-6)

    # Widths are 0 (F at a bound, where components join the atom) or at
    # least 1e-4 f0, far above ATOM_TOL * f0, so the quadrature's nodes
    # stay clear of the increments within ATOM_TOL * f0 of 0, which score
    # the atom's mass.
    @given(st.tuples(*[st.floats(0.0, 1.0)] * 2,
                     *[st.floats(0.01, 1.0)] * 2),
           st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
           st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99))
    def test_unit_mass(self, rates, f0, fraction):
        f_now = fraction * f0
        total = total_measure(SdeParams(*rates), f_now, f0)
        assert abs(total - 1.0) <= 1e-9

    def test_out_of_range_state_rejected(self):
        p = SdeParams(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            step_log_density(1.2, 0.5, p, 1.0)


TRUTH = (0.08, 0.12, 0.34, 0.71)


def log_likelihood(trace, tm, tb, gm, gb):
    p = SdeParams(tm, tb, gm, gb)
    return sum(
        step_log_density(float(a), float(b), p, trace.f0)
        for a, b in zip(trace.values[:-1], trace.values[1:])
    )


class TestGridMle:
    def test_flat_trace_prefers_least_activity(self):
        trace = FunctionalityTrace(np.arange(0.0, 200.0),
                                   np.full(200, 0.5), 1.0)
        grid = MleGrid(
            malware_activity=GridAxis(0.05, 0.15, 0.05),
            bonware_activity=GridAxis(0.05, 0.15, 0.05),
            malware_effectiveness=GridAxis(0.2, 0.4, 0.1),
            bonware_effectiveness=GridAxis(0.2, 0.4, 0.1),
        )
        result, scored = grid_mle_scoring(trace, grid)
        assert result.params.malware_activity == pytest.approx(0.05)
        assert result.params.bonware_activity == pytest.approx(0.05)
        # Effectiveness is irrelevant on a flat trace: all 3 x 3 pairs tie
        # at the least activities, each is scored exactly, and the tie
        # breaks to the lexicographically smallest cell.
        assert scored == 9
        assert result.params.malware_effectiveness == pytest.approx(0.2)
        assert result.params.bonware_effectiveness == pytest.approx(0.2)
        # Only atoms: every cell is feasible, and the estimate sits on the
        # first value of each axis.
        assert result.n_infeasible_cells == 0
        assert result.on_grid_edge == (True, True, True, True)

    def test_truth_beats_halved_effectiveness(self):
        trace = simulate(SdeParams(*TRUTH), 1.0, 1.0, steps=3000, seed=8088)
        ll_truth = log_likelihood(trace, *TRUTH)
        ll_halved = log_likelihood(trace, 0.08, 0.12, 0.17, 0.355)
        assert ll_truth >= ll_halved

    def test_recovers_generating_parameters(self):
        trace = simulate(SdeParams(*TRUTH), 1.0, 1.0, steps=2000, seed=1618)
        grid = MleGrid(
            malware_activity=GridAxis(0.04, 0.12, 0.04),
            bonware_activity=GridAxis(0.08, 0.16, 0.04),
            malware_effectiveness=GridAxis(0.26, 0.42, 0.08),
            bonware_effectiveness=GridAxis(0.63, 0.79, 0.08),
        )
        result = grid_mle(trace, grid)
        assert result.n_cells == 3 * 3 * 3 * 3
        assert abs(result.params.malware_activity - 0.08) <= 0.04 + 1e-12
        assert abs(result.params.bonware_activity - 0.12) <= 0.04 + 1e-12
        # The generator sits inside the grid; low effectivenesses cannot
        # reach the trace's largest steps.
        assert result.on_grid_edge == (False, False, False, False)
        assert result.n_infeasible_cells == infeasible_cells(
            reference_grid_mle(trace, grid)) == 45

    def test_scores_only_the_cells_that_can_win(self):
        # On a trace of the generator and the acceptance grid, one cell
        # lies within twice the surface's rounding bound of its maximum;
        # only that one is scored exactly.
        trace = simulate(SdeParams(*TRUTH), 1.0, 1.0, steps=5000, seed=31415)
        grid = MleGrid(
            malware_activity=GridAxis(0.04, 0.12, 0.02),
            bonware_activity=GridAxis(0.08, 0.16, 0.02),
            malware_effectiveness=GridAxis(0.28, 0.40, 0.02),
            bonware_effectiveness=GridAxis(0.65, 0.77, 0.02),
        )
        result, scored = grid_mle_scoring(trace, grid)
        assert result.n_cells == 1225
        assert scored == 1

    def test_invalid_axis_rejected(self):
        with pytest.raises(DomainError):
            GridAxis(0.1, 0.05, 0.01)
        with pytest.raises(DomainError):
            GridAxis(0.1, 0.2, 0.0)
        with pytest.raises(DomainError):
            MleGrid(
                malware_activity=GridAxis(0.0, 0.1, 0.05),
                bonware_activity=GridAxis(0.0, 0.1, 0.05),
                malware_effectiveness=GridAxis(0.0, 0.4, 0.1),  # gamma = 0
                bonware_effectiveness=GridAxis(0.2, 0.4, 0.1),
            )

    @pytest.mark.parametrize("field", ["start", "stop", "step"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_axis_names_field(self, field, value):
        bounds = {"start": 0.1, "stop": 0.2, "step": 0.1, field: value}
        with pytest.raises(DomainError,
                           match=f"^{field} must be finite, got {value}$"):
            GridAxis(**bounds)

    def test_axis_size_limited(self):
        GridAxis(0.0, float(MAX_GRID_POINTS - 1), 1.0)  # builds no array
        for start, stop in ((0.0, float(MAX_GRID_POINTS)), (0.0, 1e300),
                            (-1e308, 1e308)):
            with pytest.raises(DomainError, match="grid of more than"):
                GridAxis(start, stop, 1.0)

    def test_axis_range_checked_before_building(self, monkeypatch):
        wide = GridAxis(0.0, float(MAX_GRID_POINTS - 1), 1.0)
        unit = GridAxis(0.1, 0.2, 0.1)

        def refuse(axis):
            raise AssertionError("axis built before its range was checked")

        monkeypatch.setattr(GridAxis, "values", refuse)
        with pytest.raises(DomainError, match="bonware_activity must lie in"):
            MleGrid(malware_activity=unit, bonware_activity=wide,
                    malware_effectiveness=unit, bonware_effectiveness=unit)

    def test_cell_count_checked_before_building(self, monkeypatch):
        activity = GridAxis(0.0, 0.99, 0.01)
        effectiveness = GridAxis(0.005, 0.995, 0.01)

        def refuse(axis):
            raise AssertionError("axis built before the cell count was checked")

        monkeypatch.setattr(GridAxis, "values", refuse)
        with pytest.raises(DomainError, match=(
                f"^grid of more than {MAX_GRID_POINTS} cells: "
                "100 x 100 x 100 x 100$")):
            MleGrid(activity, activity, effectiveness, effectiveness)


# 0.09 + 13 * 0.07 rounds to 1.0000000000000002, past the stop.
@example(start=0.09, stop=1.0, step=0.07)
@given(start=st.floats(0.0, 1.0), stop=st.floats(0.0, 1.0),
       step=st.floats(1e-3, 1.0))
def test_grid_axis_ends_at_its_stop(start, stop, step):
    start, stop = sorted((start, stop))
    axis = GridAxis(start, stop, step)
    values = axis.values().tolist()
    count = math.floor((stop - start) / step + 1e-9) + 1
    assert len(values) == count
    assert all(start <= v <= stop for v in values)
    assert values[:-1] == [start + step * k for k in range(count - 1)]
    assert values[-1] == axis._last() == min(start + step * (count - 1), stop)
    # An axis whose ends lie in a parameter's range is an axis of the grid.
    fixed = GridAxis(0.5, 0.5, 0.1)
    MleGrid(axis, fixed, fixed, fixed)
    if start > 0.0:
        MleGrid(fixed, fixed, axis, fixed)


# Activity axes may hold 0 and 1 exactly; binary steps land on them.
ACTIVITY_STARTS = [0.0, 0.25, 0.5, 0.75, 1.0]
EFFECTIVENESS_STARTS = [0.05, 0.25, 0.5, 1.0]


@st.composite
def grid_axes(draw, starts):
    start = draw(st.sampled_from(starts) | st.floats(starts[1] / 8, 1.0))
    step = draw(st.sampled_from([0.125, 0.25, 0.1]) | st.floats(0.01, 0.5))
    n = draw(st.integers(1, 1 + min(4, int((1.0 - start) / step))))
    axis = GridAxis(start, start + step * (n - 1), step)
    assume(axis._last() <= 1.0)
    return axis


@st.composite
def mle_traces(draw):
    """Simulated traces, or walks over f0/32 levels that may sit at 0 or f0."""
    f0 = draw(st.sampled_from([1.0, 0.75, 3.0]))
    if draw(st.booleans()):
        params = SdeParams(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)),
                           draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0)))
        f_init = draw(st.sampled_from([0.0, f0]) | st.floats(0.0, f0))
        return simulate(params, f_init, f0, draw(st.integers(1, 60)),
                        seed=draw(st.integers(0, 2**32)))
    level = draw(st.sampled_from([0, 32]) | st.integers(0, 32))
    levels = [level]
    for move in draw(st.lists(st.sampled_from([-2, -1, 0, 0, 1, 2]),
                              min_size=1, max_size=60)):
        levels.append(min(32, max(0, levels[-1] + move)))
    return FunctionalityTrace(np.arange(float(len(levels))),
                              f0 * np.array(levels) / 32, f0)


MLE_GRIDS = st.builds(MleGrid, grid_axes(ACTIVITY_STARTS),
                      grid_axes(ACTIVITY_STARTS),
                      grid_axes(EFFECTIVENESS_STARTS),
                      grid_axes(EFFECTIVENESS_STARTS))


def infeasible_cells(scored):
    """Cells of :func:`reference_grid_mle`'s result that score -inf."""
    return sum(ll == -math.inf for ll, _, _ in scored)


def grid_mle_scoring(trace, grid):
    """``grid_mle``'s result and the number of cells it scored exactly."""
    calls = []
    original = likelihood._transition_log_density

    def counting(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(likelihood, "_transition_log_density", counting)
        result = grid_mle(trace, grid)
    blocks = math.ceil((trace.values.size - 1) / likelihood._EXACT_BLOCK)
    assert len(calls) % blocks == 0
    return result, len(calls) // blocks


def assert_matches_reference(trace, grid, exact_block=None):
    with pytest.MonkeyPatch.context() as mp:
        if exact_block is not None:
            mp.setattr(likelihood, "_EXACT_BLOCK", exact_block)
        result = grid_mle(trace, grid)
    scored = reference_grid_mle(trace, grid)
    best_ll, _, best = scored[0]
    on_edge = tuple(value in (axis[0], axis[-1]) for value, axis in zip(
        (best.malware_activity, best.bonware_activity,
         best.malware_effectiveness, best.bonware_effectiveness),
        grid.axes()))
    assert (result.params, result.log_likelihood, result.n_cells,
            result.n_infeasible_cells, result.on_grid_edge) == (
        best, best_ll, len(scored), infeasible_cells(scored), on_edge)
    return result


@given(trace=mle_traces(), grid=MLE_GRIDS, data=st.data())
def test_grid_mle_matches_exhaustive_search(trace, grid, data):
    # Small blocks split the exact re-score of a trace into many calls.
    exact_block = data.draw(st.integers(1, 8))
    assert_matches_reference(trace, grid, exact_block)


@given(trace=mle_traces(), grid=MLE_GRIDS)
def test_separable_surface_within_its_margin(trace, grid):
    axes = grid.axes()
    steps = _transitions(trace.values[:-1], trace.values[1:], trace.f0)
    ranked = _separable_surface(steps, axes)
    assume(ranked is not None)
    surface, margin = ranked
    exact = np.array([
        _transition_log_density(steps, *cell).sum()
        for cell in itertools.product(*axes)
    ]).reshape(surface.shape)
    assert np.array_equal(surface == -np.inf, exact == -np.inf)
    feasible = exact > -np.inf
    assert np.all(np.abs(surface[feasible] - exact[feasible]) <= margin)


@pytest.mark.parametrize("log_block", [1, 7])
def test_separable_surface_blocks_do_not_move_bits(monkeypatch, log_block):
    # The trace has 2 decreases and 4 increases, none from 0 or f0, so a
    # block of 7 logs holds 3 of the 5 bonware activities and 1 malware
    # activity, and a block of 1 holds one activity on each side; the
    # default holds a whole axis.
    trace = simulate(SdeParams(0.08, 0.12, 0.34, 0.71), 0.9, 1.0, 40, seed=0)
    steps = _transitions(trace.values[:-1], trace.values[1:], trace.f0)
    f_now, gap, _, _, dec, inc = steps
    assert (int((dec & (gap > 0.0)).sum()),
            int((inc & (f_now > 0.0)).sum())) == (2, 4)
    axes = MleGrid(GridAxis(0.04, 0.12, 0.02), GridAxis(0.08, 0.16, 0.02),
                   GridAxis(0.28, 0.40, 0.04),
                   GridAxis(0.65, 0.77, 0.04)).axes()
    surface, margin = _separable_surface(steps, axes)
    assert np.isfinite(surface).all()
    monkeypatch.setattr(likelihood, "_LOG_BLOCK", log_block)
    blocked, blocked_margin = _separable_surface(steps, axes)
    assert (blocked.tobytes(), blocked_margin) == (surface.tobytes(), margin)


def test_separable_margin_covers_mixture_logs():
    # Just below f0 the bonware widths are about 1e-6, so the mixture logs
    # of the increases, near log(1e6) each, make up most of W, the largest
    # sum of |log term| of the exact scorer over the feasible cells.  The
    # margin must cover the bound its comment derives from that W.
    values = np.where(np.arange(301) % 2 == 0, 1.0 - 2e-6, 1.0 - 1e-6)
    steps = _transitions(values[:-1], values[1:], 1.0)
    grid = MleGrid(GridAxis(0.2, 0.6, 0.2), GridAxis(0.2, 0.6, 0.2),
                   GridAxis(0.9, 1.0, 0.1), GridAxis(0.9, 1.0, 0.1))
    _, margin = _separable_surface(steps, grid.axes())
    terms = (_transition_log_density(steps, *cell)
             for cell in itertools.product(*grid.axes()))
    w = max(np.abs(logs).sum() for logs in terms if np.isfinite(logs).all())
    n = values.size - 1
    assert margin >= (2 * n + 16) * np.finfo(float).eps * (w + n)


@st.composite
def scored_transitions(draw):
    """Levels at 0, at f0, subnormal or anywhere in [0, f0], each followed
    by another such level or by a move of a few ``ATOM_TOL * f0`` at most."""
    f0 = draw(st.sampled_from([1.0, 0.75, 3.0]))
    level = st.sampled_from([0.0, f0, 5e-324, 1e-310]) | st.floats(0.0, f0)
    move = st.sampled_from([0.0, ATOM_TOL, -ATOM_TOL, ATOM_TOL / 2,
                            -ATOM_TOL / 2, 2 * ATOM_TOL, -2 * ATOM_TOL]
                           ).map(lambda m: m * f0)
    n = draw(st.integers(1, 16))
    f_now = np.array(draw(st.lists(level, min_size=n, max_size=n)))
    f_next = np.array([
        draw(level) if draw(st.booleans()) else min(f0, max(0.0, f + draw(move)))
        for f in f_now])
    activity = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    effectiveness = (st.sampled_from([1.0, 5e-324])
                     | st.floats(0.0, 1.0, exclude_min=True))
    return (f_now, f_next, draw(activity), draw(activity),
            draw(effectiveness), draw(effectiveness), f0)


@given(args=scored_transitions())
def test_transition_log_density_matches_reference(args):
    f_now, f_next, *rates, f0 = args
    logs = _transition_log_density(_transitions(f_now, f_next, f0), *rates)
    assert logs.tobytes() == reference_transition_log_density(*args).tobytes()
    # One transition at a time, through step_log_density's one-row table.
    one_by_one = [step_log_density(a, b, SdeParams(*rates), f0)
                  for a, b in zip(f_now, f_next)]
    assert np.array(one_by_one).tobytes() == logs.tobytes()


PINNED_GRID = MleGrid(
    malware_activity=GridAxis(0.0, 1.0, 0.25),
    bonware_activity=GridAxis(0.0, 1.0, 0.5),
    malware_effectiveness=GridAxis(0.1, 0.5, 0.2),
    bonware_effectiveness=GridAxis(0.25, 1.0, 0.25),
)


ALL_INFEASIBLE = [1.0, 0.2, 0.2]     # a drop no effectiveness reaches


@pytest.mark.parametrize("values", [
    ALL_INFEASIBLE,
    [0.0, 0.0, 0.05, 0.1, 0.1, 0.12],   # no decreases, from F = 0
    [1.0, 1.0, 0.9, 0.85, 0.85, 0.8],   # no increases, from F = f0
    [0.5, 0.45, 0.5, 0.46, 0.49],       # no atoms
    [0.5, 0.45],                        # a single transition
    [0.5, 0.5],                         # a single atom
], ids=["all-infeasible", "no-decrease", "no-increase", "no-atom",
        "one-step", "one-atom"])
# Exact re-scoring one transition at a time, in blocks that split or hold
# the whole trace, and with a numpy-integer block size.
@pytest.mark.parametrize("exact_block", [1, 5, 200, pytest.param(
    np.int64(2), id="numpy-2")])
def test_grid_mle_pinned_cases(values, exact_block):
    trace = FunctionalityTrace(np.arange(float(len(values))),
                               np.array(values), 1.0)
    result = assert_matches_reference(trace, PINNED_GRID, exact_block)
    if values == ALL_INFEASIBLE:
        # Every cell scores -inf: the estimate is the first cell.
        assert result.n_infeasible_cells == result.n_cells
        assert result.params == SdeParams(0.0, 0.0, 0.1, 0.25)
        assert result.log_likelihood == -math.inf


def test_grid_mle_refuses_uneven_spacing():
    # One 0.5 s interval among 1 s intervals.
    trace = FunctionalityTrace(np.array([0.0, 1.0, 2.0, 2.5, 3.5]),
                               np.array([0.5, 0.45, 0.5, 0.46, 0.49]), 1.0)
    with pytest.raises(DomainError, match=re.escape(
            "sample spacing must be uniform, one simulator step per "
            "transition, but it runs from 0.5 to 1.0")):
        grid_mle(trace, PINNED_GRID)


@pytest.mark.parametrize("shift, uniform", [
    (0.25, True), (-0.25, True), (1.0, False), (-1.0, False)])
def test_spacing_tolerance_scale(shift, uniform):
    # Moving one time by d changes its two spacings by d and -d, a spread
    # of 2|d|: 2**-43 T is refused, 2**-45 T accepted, T the last time.
    times = np.arange(1001.0) * 0.1
    times[500] += shift * 2.0**-44 * times[-1]
    if uniform:
        _check_spacing(times)
    else:
        with pytest.raises(DomainError, match="sample spacing must be uniform"):
            _check_spacing(times)


@pytest.mark.parametrize("dt", [0.1, 1 / 3, 7.77e-4, 1e290])
def test_spacing_of_longest_clock_accepted(dt):
    # simulate's times are the products dt * k, as numpy computes them,
    # here up to the step cap.
    assert np.array_equal(np.arange(1001.0) * dt, stochastic._clock(dt, 1000))
    times = np.arange(float(MAX_GRID_POINTS))
    times *= dt
    _check_spacing(times)


@given(dt=st.sampled_from([5e-324, 1e-310, 1.0]) | st.floats(1e-300, 1e300),
       offset=st.sampled_from([0.0]) | st.floats(-1e6, 1e6),
       steps=st.integers(1, 300))
def test_spacing_of_simulated_and_written_traces_accepted(
        tmp_path_factory, dt, offset, steps):
    trace = simulate(SdeParams(0.08, 0.12, 0.34, 0.71), 1.0, 1.0, steps, dt,
                     seed=steps)
    path = tmp_path_factory.mktemp("spacing") / "trace.csv"
    write_trace_csv(trace, path)
    assert read_trace_csv(path).times.tobytes() == trace.times.tobytes()
    # The grid moved to start at offset, summed one step at a time from
    # there, and the moved grid written with 15 significant digits.
    grids = [trace.times, offset + trace.times,
             np.add.accumulate(np.r_[offset, np.full(steps, dt)])]
    grids.append(np.array([float(f"{t:.15g}") for t in grids[1]]))
    for times in grids:
        if np.all(np.diff(times) > 0.0):  # a sample axis
            _check_spacing(times)


def test_outside_separable_range_scored_exhaustively():
    # A level below 2**-100 leaves the range the rounding margin assumes.
    values = np.array([1e-40, 0.1, 0.1, 0.08])
    trace = FunctionalityTrace(np.arange(4.0), values, 1.0)
    axes = PINNED_GRID.axes()
    assert _separable_surface(_transitions(values[:-1], values[1:], 1.0),
                              axes) is None
    result = assert_matches_reference(trace, PINNED_GRID)
    assert result.log_likelihood > -math.inf
    assert 0 < result.n_infeasible_cells < result.n_cells


@pytest.mark.filterwarnings("error")
def test_subnormal_level_scored_without_warnings():
    # From F = 5e-324 malware's width is the smallest subnormal, and the
    # evaluator's 1/width, formed for every transition, overflows.  With
    # both effectivenesses above 1/2 the product of the two widths stays
    # nonzero; test_tiny_level_increase_density covers smaller ones.
    params = SdeParams(0.3, 0.4, 0.75, 0.75)
    trace = simulate(params, 5e-324, 1.0, 40, seed=3)
    f_now, f_next = trace.values[:-1], trace.values[1:]
    assert f_now[0] == 5e-324
    assert step_log_density(5e-324, 5e-324, params, 1.0) == math.log(
        (1.0 - 0.3) * (1.0 - 0.4))
    exact = _transition_log_density(_transitions(f_now, f_next, 1.0),
                                    0.3, 0.4, 0.75, 0.75)
    assert [step_log_density(a, b, params, 1.0)
            for a, b in zip(f_now, f_next)] == exact.tolist()
    grid = MleGrid(GridAxis(0.0, 1.0, 0.25), GridAxis(0.0, 1.0, 0.5),
                   GridAxis(0.75, 1.0, 0.25), GridAxis(0.75, 1.0, 0.25))
    assert_matches_reference(trace, grid)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f_now", [5e-324, 1e-310])
def test_tiny_level_increase_density(f_now):
    # As F -> 0 the both-fired trapezoid tends to Uniform(0, b), so an
    # increase scores (bon_only + both) / b = tb / b; here log(0.4 / 0.4).
    params = SdeParams(0.3, 0.4, 1.0, 0.4)
    assert step_log_density(f_now, 0.3, params, 1.0) == pytest.approx(
        0.0, abs=1e-2)
    # Steps to F and to 0 are atoms, scored by the atom's mass.  From
    # F = 5e-324 the widths' product a * b underflows to 0, which the
    # trapezoid must not divide by.
    for f_next in (f_now, 0.0):
        assert step_log_density(f_now, f_next, params, 1.0) == math.log(
            (1.0 - 0.3) * (1.0 - 0.4))


def scaled(trace, c):
    """``trace`` with its levels and f0 multiplied by ``c``."""
    return FunctionalityTrace(trace.times, trace.values * c, trace.f0 * c)


# The model is homogeneous in f0: c F solves it with c f0 and the same
# rates, and every level, gap, width and move scales by c.  So the fit,
# the AUC resilience and the MLE cell do not move; each scored move's
# density divides by c, which shifts the log likelihood by -N_moves log c.
@example(exponent=-9.0)
@example(exponent=3.0)
@example(exponent=6.0)
@example(exponent=7.0)
@example(exponent=9.0)
@given(exponent=st.floats(-9.0, 9.0))
def test_estimates_are_invariant_to_f0_scale(notional_trace, exponent):
    c = 10.0 ** exponent
    base, got = fit_piecewise(notional_trace), fit_piecewise(
        scaled(notional_trace, c))
    assert got.switch_time == base.switch_time
    for phase, want in ((got.phase1, base.phase1), (got.phase2, base.phase2)):
        assert (phase.malware_activity, phase.bonware_activity) == (
            want.malware_activity, want.bonware_activity)
        assert phase.impacts.malware_impact == pytest.approx(
            want.impacts.malware_impact, rel=1e-12)
        assert phase.impacts.bonware_impact == pytest.approx(
            want.impacts.bonware_impact, rel=1e-12)

    trace = simulate(SdeParams(*TRUTH), 1.0, 1.0, steps=2000, seed=1618)
    grid = MleGrid(GridAxis(0.04, 0.12, 0.04), GridAxis(0.08, 0.16, 0.04),
                   GridAxis(0.26, 0.42, 0.08), GridAxis(0.63, 0.79, 0.08))
    for t in (notional_trace, trace):
        assert auc_resilience(scaled(t, c)) == pytest.approx(
            auc_resilience(t), rel=1e-12)
    rescaled = scaled(trace, c)
    base, got = grid_mle(trace, grid), grid_mle(rescaled, grid)
    assert got.params == base.params
    n_moves = np.count_nonzero(np.abs(np.diff(trace.values)) > ATOM_TOL)
    steps = _transitions(rescaled.values[:-1], rescaled.values[1:],
                         rescaled.f0)
    _, margin = _separable_surface(steps, grid.axes())
    assert abs(got.log_likelihood + n_moves * math.log(c)
               - base.log_likelihood) <= margin


class TestFitResultSerialization:
    def test_schema_and_round_trip(self, notional_trace, tmp_path):
        result = fit_piecewise(notional_trace)
        doc = fit_result_to_dict(result)
        assert set(doc) == {"switch_time", "phase1", "phase2", "schedule",
                            "diagnostics"}
        assert set(doc["phase1"]) == {
            "malware_impact", "bonware_impact", "malware_activity",
            "bonware_activity", "malware_effectiveness",
            "bonware_effectiveness",
        }
        assert len(doc["schedule"]["segments"]) == 2
        path = tmp_path / "fit.json"
        write_fit_result_json(result, path)
        loaded = json.loads(path.read_text())
        assert loaded["switch_time"] == 69.5

    def test_mle_block_goes_last(self, notional_trace):
        result = fit_piecewise(notional_trace)
        mle = grid_mle(notional_trace, PINNED_GRID)
        doc = fit_result_to_dict(result, mle)
        assert list(doc) == ["switch_time", "phase1", "phase2", "schedule",
                             "diagnostics", "mle"]
        assert doc["mle"] == {
            "malware_activity": mle.params.malware_activity,
            "bonware_activity": mle.params.bonware_activity,
            "malware_effectiveness": mle.params.malware_effectiveness,
            "bonware_effectiveness": mle.params.bonware_effectiveness,
            "log_likelihood": mle.log_likelihood,
            "n_cells": mle.n_cells,
        }

    def test_undefined_effectiveness_serializes_as_null(self):
        # A smooth synthetic curve has no rises before the switch, so the
        # phase-1 bonware decomposition is undefined.
        schedule = PiecewiseConstantSchedule(
            breakpoints=np.array([0.0, 40.0, 125.0]),
            segments=(ConstantImpacts(0.04, 0.01), ConstantImpacts(0.004, 0.076)),
        )
        grid = np.linspace(0.0, 125.0, 1251)
        trace = solve_piecewise_constant(schedule, 1.0, 1.0, grid)
        result = fit_piecewise(trace, FitConfig(activity_count_end=100.0))
        assert math.isnan(result.phase1.bonware_effectiveness)
        doc = fit_result_to_dict(result)
        assert doc["phase1"]["bonware_effectiveness"] is None
        json.dumps(doc)  # must be valid JSON without NaN
