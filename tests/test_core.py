"""Domain types, metrics, reference integrator, and trace CSV I/O."""

import math

import numpy as np
import pytest

from resdyn import (
    ConstantImpacts,
    DomainError,
    FunctionalityTrace,
    InvalidTraceError,
    LinearImpacts,
    PiecewiseConstantSchedule,
    accomplishment,
    auc_resilience,
    integrate_reference,
    read_trace_csv,
    solve_piecewise_constant,
    write_trace_csv,
)


def flat_trace(level, f0=1.0, end=10.0, n=11):
    times = np.linspace(0.0, end, n)
    return FunctionalityTrace(times, np.full(n, level), f0)


class TestFunctionalityTrace:
    def test_requires_two_samples(self):
        with pytest.raises(InvalidTraceError):
            FunctionalityTrace(np.array([0.0]), np.array([1.0]), 1.0)

    def test_times_strictly_increasing(self):
        with pytest.raises(InvalidTraceError):
            FunctionalityTrace(np.array([0.0, 0.0, 1.0]),
                               np.array([1.0, 1.0, 1.0]), 1.0)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidTraceError):
            FunctionalityTrace(np.array([0.0, 1.0]),
                               np.array([1.0, np.nan]), 1.0)
        with pytest.raises(InvalidTraceError):
            FunctionalityTrace(np.array([0.0, np.inf]),
                               np.array([1.0, 1.0]), 1.0)

    def test_values_bounded_by_f0(self):
        with pytest.raises(InvalidTraceError):
            FunctionalityTrace(np.array([0.0, 1.0]),
                               np.array([0.5, 1.5]), 1.0)
        with pytest.raises(InvalidTraceError):
            FunctionalityTrace(np.array([0.0, 1.0]),
                               np.array([-0.1, 0.5]), 1.0)

    def test_f0_positive(self):
        with pytest.raises(InvalidTraceError):
            FunctionalityTrace(np.array([0.0, 1.0]),
                               np.array([0.0, 0.0]), 0.0)

    def test_arrays_are_readonly(self):
        trace = flat_trace(0.5)
        with pytest.raises(ValueError):
            trace.values[0] = 0.9
        with pytest.raises(ValueError):
            trace.times[0] = -1.0


class TestImpactTypes:
    def test_negative_impact_rejected(self):
        with pytest.raises(DomainError, match="malware_impact"):
            ConstantImpacts(malware_impact=-0.1, bonware_impact=0.0)
        with pytest.raises(DomainError, match="bonware_impact"):
            ConstantImpacts(malware_impact=0.1, bonware_impact=-1e-9)

    def test_total_impact(self):
        assert ConstantImpacts(0.025, 0.005).total_impact == pytest.approx(0.03)

    def test_schedule_needs_matching_segments(self):
        with pytest.raises(DomainError):
            PiecewiseConstantSchedule(
                breakpoints=np.array([0.0, 1.0, 2.0]),
                segments=(ConstantImpacts(0.1, 0.0),),
            )
        with pytest.raises(DomainError):
            PiecewiseConstantSchedule(
                breakpoints=np.array([0.0, 0.0]),
                segments=(ConstantImpacts(0.1, 0.0),),
            )

    def test_segment_index_convention(self):
        sched = PiecewiseConstantSchedule(
            breakpoints=np.array([0.0, 5.0, 10.0]),
            segments=(ConstantImpacts(0.1, 0.0), ConstantImpacts(0.0, 0.1)),
        )
        assert sched.segment_index(0.0) == 0
        assert sched.segment_index(4.999) == 0
        assert sched.segment_index(5.0) == 1
        assert sched.segment_index(10.0) == 1  # right edge owned by last window

    def test_linear_impacts_accessors(self):
        li = LinearImpacts(bonware_intercept=0.02, bonware_slope=1e-4,
                           malware_intercept=0.05, malware_slope=5e-4)
        assert li.total_intercept == pytest.approx(0.07)
        assert li.total_slope == pytest.approx(6e-4)
        assert li.bonware_at(100.0) == pytest.approx(0.01)
        assert li.malware_at(100.0) == pytest.approx(0.0)

    def test_linear_window_validation(self):
        li = LinearImpacts(bonware_intercept=0.02, bonware_slope=1e-3,
                           malware_intercept=0.05, malware_slope=0.0)
        li.validate_window(20.0)
        with pytest.raises(DomainError, match="bonware"):
            li.validate_window(21.0)


class TestAccomplishment:
    def test_constant_level(self):
        # Constant integrand: area is level * span.
        assert accomplishment(flat_trace(1.0)) == pytest.approx(10.0)

    def test_linear_drop_triangle(self):
        times = np.linspace(0.0, 10.0, 21)
        values = 1.0 - times / 10.0
        trace = FunctionalityTrace(times, values, 1.0)
        assert accomplishment(trace) == pytest.approx(5.0)

    def test_matches_finer_quadrature_on_model_trace(self):
        # Trapezoid sums on a curved trace must agree with a 10x finer
        # quadrature of the same curve to 1e-6.
        sched = PiecewiseConstantSchedule(
            breakpoints=np.array([0.0, 69.5, 125.0]),
            segments=(ConstantImpacts(0.025, 0.005),
                      ConstantImpacts(0.005, 0.088)),
        )
        coarse = solve_piecewise_constant(
            sched, 1.0, 1.0, np.linspace(0.0, 125.0, 31251)  # 4 ms steps
        )
        fine = solve_piecewise_constant(
            sched, 1.0, 1.0, np.linspace(0.0, 125.0, 312501)
        )
        assert accomplishment(coarse) == pytest.approx(
            accomplishment(fine), abs=1e-6
        )

    def test_additive_over_shared_endpoint(self):
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0.0, 30.0, 40))
        times[0], times[-1] = 0.0, 30.0
        times = np.unique(times)
        values = rng.uniform(0.0, 1.0, times.size)
        whole = FunctionalityTrace(times, values, 1.0)
        k = times.size // 2
        left = FunctionalityTrace(times[: k + 1], values[: k + 1], 1.0)
        right = FunctionalityTrace(times[k:], values[k:], 1.0)
        assert accomplishment(left) + accomplishment(right) == pytest.approx(
            accomplishment(whole), rel=1e-12
        )


class TestAucResilience:
    def test_flat_at_normal(self):
        assert auc_resilience(flat_trace(1.0)) == pytest.approx(1.0)

    def test_flat_at_zero(self):
        assert auc_resilience(flat_trace(0.0)) == pytest.approx(0.0)

    def test_half_mission_lost(self):
        times = np.array([0.0, 5.0, 5.0 + 1e-9, 10.0])
        values = np.array([1.0, 1.0, 0.0, 0.0])
        trace = FunctionalityTrace(times, values, 1.0)
        assert auc_resilience(trace) == pytest.approx(0.5, abs=1e-9)

    def test_invariant_under_joint_rescaling(self):
        rng = np.random.default_rng(11)
        times = np.linspace(0.0, 20.0, 50)
        values = rng.uniform(0.0, 2.0, 50)
        base = FunctionalityTrace(times, values, 2.0)
        for factor in (0.5, 3.0, 17.0):
            scaled = FunctionalityTrace(times, values * factor, 2.0 * factor)
            assert auc_resilience(scaled) == pytest.approx(
                auc_resilience(base), rel=1e-12
            )


class TestIntegrateReference:
    def test_zero_rates_hold_initial_value(self):
        grid = np.linspace(0.0, 10.0, 11)
        trace = integrate_reference(lambda t: 0.0, lambda t: 0.0,
                                    0.7, 1.0, grid)
        assert np.array_equal(trace.values, np.full(11, 0.7))

    def test_pure_decay(self):
        grid = np.linspace(0.0, 10.0, 101)
        trace = integrate_reference(lambda t: 0.0, lambda t: 0.1,
                                    1.0, 1.0, grid)
        assert trace.values[-1] == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_reaches_steady_state(self):
        # b/(m+b) = 0.75; by t=500 the transient is long gone.
        grid = np.arange(0.0, 500.0001, 0.5)
        trace = integrate_reference(lambda t: 0.15, lambda t: 0.05,
                                    0.5, 1.0, grid)
        assert trace.values[-1] == pytest.approx(0.75, abs=1e-6)

    def test_negative_rate_rejected(self):
        grid = np.linspace(0.0, 10.0, 11)
        with pytest.raises(DomainError, match="malware"):
            integrate_reference(lambda t: 0.0, lambda t: 0.01 - 0.1 * t,
                                1.0, 1.0, grid)

    def test_monotone_without_opponent(self):
        grid = np.linspace(0.0, 50.0, 501)
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = rng.uniform(0.001, 0.2)
            down = integrate_reference(lambda t: 0.0, lambda t, m=m: m,
                                       1.0, 1.0, grid)
            assert (np.diff(down.values) <= 0).all()
            b = rng.uniform(0.001, 0.2)
            upward = integrate_reference(lambda t, b=b: b, lambda t: 0.0,
                                         0.2, 1.0, grid)
            assert (np.diff(upward.values) >= 0).all()

    def test_stays_within_bounds(self):
        grid = np.linspace(0.0, 100.0, 2001)
        trace = integrate_reference(
            lambda t: 0.3 + 0.2 * math.sin(0.1 * t) ** 2,
            lambda t: 0.4 + 0.1 * math.cos(0.07 * t) ** 2,
            1.0, 1.0, grid,
        )
        assert trace.values.min() >= 0.0
        assert trace.values.max() <= 1.0


class TestTraceCsv:
    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.uniform(0.1, 1.0, 40))
        values = rng.uniform(0.0, 2.5, 40)
        trace = FunctionalityTrace(times, values, 2.5)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert np.array_equal(back.times, trace.times)
        assert np.array_equal(back.values, trace.values)
        assert back.f0 == trace.f0

    def test_f0_metadata_parsed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# f0=2.0\ntime,functionality\n0,1\n1,2\n")
        trace = read_trace_csv(path)
        assert trace.f0 == 2.0
        assert trace.values[-1] == 2.0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,0.5\n")
        with pytest.raises(InvalidTraceError, match="header"):
            read_trace_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        # float() alone would read all but the first: 1_0 as 10, a
        # fullwidth digit as its ASCII value, a no-break space as a space.
        path = tmp_path / "bad.csv"
        for text, where in [
            ("time,functionality\n0,1\noops\n", ":3: "),
            ("time,functionality\n0,1\n1_0,0.5\n", ":3: non-numeric sample"),
            ("time,functionality\n0,1\n\uff11,0.5\n", ":3: non-numeric sample"),
            ("time,functionality\n0,1\n1,\u00a00.5\n", ":3: non-numeric sample"),
            ("time,functionality\n0,1\n1,0.5\u00a0\n", ":3: non-numeric sample"),
            ("# f0=1_0\ntime,functionality\n0,1\n1,0.5\n",
             ":1: bad f0 metadata"),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(InvalidTraceError, match=f"bad.csv{where}"):
                read_trace_csv(path)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(flat_trace(0.5), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
