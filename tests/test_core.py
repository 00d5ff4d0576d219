"""Domain types, metrics, reference integrator, and trace CSV I/O."""

import dataclasses
import math
import re
import subprocess
import sys
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import resdyn._trace_read
from conftest import NOTIONAL_CSV, reference_read_trace_csv
from resdyn import (
    ConstantImpacts,
    DomainError,
    FitConfig,
    FunctionalityTrace,
    GridAxis,
    InvalidTraceError,
    LinearImpacts,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    SdeParams,
    accomplishment,
    auc_resilience,
    ensemble_average,
    integrate_reference,
    read_trace_csv,
    solve_piecewise_constant,
    write_trace_csv,
)
from resdyn.closed_form import BOUND_SLACK, _clamp_to_bounds
from resdyn.core import _sample_axis, _SampleAxis
from resdyn.metrics import _pairwise_sum


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
        # Each array is read-only, is the same object on every access, and
        # cannot be rebound, however the samples were given.
        schedule = PiecewiseConstantSchedule([0.0, 1.0],
                                             (ConstantImpacts(0.1, 0.2),))
        for trace in (flat_trace(0.5),
                      FunctionalityTrace([0.0, 1.0, 2.0], [1.0, 0.5, 1.0])):
            for record, name in [(trace, "times"), (trace, "values"),
                                 (schedule, "breakpoints")]:
                arr = getattr(record, name)
                assert type(arr) is np.ndarray and arr.dtype == np.float64
                assert getattr(record, name) is arr
                with pytest.raises(ValueError):
                    arr[0] = 0.25
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, np.zeros(2))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)
                assert getattr(record, name) is arr

    @pytest.mark.parametrize("record", [
        ConstantImpacts(0.1, 0.2), SdeParams(0.1, 0.2, 0.3, 0.4),
        FitConfig(), GridAxis(0.1, 0.3, 0.1),
    ], ids=lambda record: type(record).__name__)
    def test_scalar_records_are_frozen(self, record):
        # No field of a scalar record can be rebound or deleted either.
        for name in type(record)._fields:
            value = getattr(record, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 0.5)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
            assert getattr(record, name) is value

    def test_axis_handed_over_still_checks_values(self):
        # A checked sample axis is shared, not copied or checked again;
        # the values and f0 still are checked.
        axis = _sample_axis([0.0, 1.0], "times")
        trace = FunctionalityTrace(axis, [1.0, 0.5], 2.0)
        assert trace._times is axis and list(trace.values) == [1.0, 0.5]
        for values, f0 in [([0.5, 1.5], 1.0), ([0.5], 1.0), ([0.5, 0.5], 0.0)]:
            with pytest.raises(InvalidTraceError):
                FunctionalityTrace(axis, values, f0)

    # A slice or a concatenation of a checked axis is a plain array('d'),
    # so it is checked as any other input is.
    @pytest.mark.parametrize("part", [
        lambda t: t[:1], lambda t: t[::-1], lambda t: t + t,
    ], ids=["slice", "reversed", "concatenated"])
    def test_part_of_an_axis_is_checked_again(self, part):
        times = part(flat_trace(0.5)._times)
        assert type(times) is array
        with pytest.raises(InvalidTraceError, match="^times must"):
            FunctionalityTrace(times, [0.5] * len(times))

    # An axis or values are read to the bits np.asarray(x, float) gives,
    # whatever the container, stride or byte order; only an axis carries
    # the mark of its check.
    @pytest.mark.parametrize("make", [
        list, lambda x: array("d", x), np.array,
        lambda x: np.repeat(x, 2)[::2], lambda x: np.array(x[::-1])[::-1],
        lambda x: np.array(x, dtype=">f8"),
    ], ids=["list", "array", "ndarray", "strided", "reversed-stride",
            "big-endian"])
    def test_samples_read_bit_for_bit(self, make):
        times = [-1e300, -2.5e-300, -0.0, 0.1, 1 / 3, 7.0, 1e300]
        values = [0.0, 5e-324, 0.1, 1 / 3, 0.5, 2 / 3, 1.0]
        axis = _sample_axis(make(times), "times")
        trace = FunctionalityTrace(make(times), make(values))
        for got, want, kind in ((axis, times, _SampleAxis),
                                (trace._times, times, _SampleAxis),
                                (trace._values, values, array)):
            assert type(got) is kind
            assert got.tobytes() == np.asarray(want, dtype=float).tobytes()

    def test_inputs_are_copied(self):
        times, values = array("d", [0.0, 1.0]), np.array([1.0, 0.5])
        trace = FunctionalityTrace(times, values)
        times[0], values[0] = -1.0, 0.0
        assert list(trace.times) == [0.0, 1.0]
        assert list(trace.values) == [1.0, 0.5]

    # Wherever a NaN sits, and whatever infinities share the trace with it,
    # it is the level reported, as numpy's min reports it.
    @pytest.mark.parametrize("values, got", [
        ([math.nan, 0.5, 0.5], "nan"),
        ([0.5, math.nan, 0.5], "nan"),
        ([0.5, 0.5, math.nan], "nan"),
        ([-math.inf, math.nan, math.inf], "nan"),
        ([math.inf, 0.5, math.nan], "nan"),
        ([0.5, -math.inf, 0.5], "-inf"),
        ([0.5, 0.5, math.inf], "inf"),
        ([-0.5, 0.5, 1.5], "-0.5"),
        ([0.5, 1.5, 0.5], "1.5"),
    ])
    @pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
    def test_level_refusal_names_nan_first(self, make, values, got):
        with pytest.raises(InvalidTraceError,
                           match=rf"^values must lie in \[0, f0\], got {got}$"):
            FunctionalityTrace(make([0.0, 1.0, 2.0]), make(values))

    @pytest.mark.parametrize("values, shape", [
        ([[0.5], [0.5]], "(2, 1)"), (0.5, "()"), ([0.5], "(1,)")])
    @pytest.mark.parametrize("make", [lambda x: x, np.array],
                             ids=["python", "array"])
    def test_values_shape_refused(self, make, values, shape):
        with pytest.raises(InvalidTraceError, match=(
                rf"^times and values differ in shape: \(2,\) vs "
                rf"{re.escape(shape)}$")):
            FunctionalityTrace(make([0.0, 1.0]), make(values))


def test_array_records_compare_and_hash_by_identity():
    # An array has no one truth value, so records holding arrays compare and
    # hash as objects; records of scalars keep value equality.
    def schedules():
        return (PiecewiseConstantSchedule(
                    [0.0, 1.0], (ConstantImpacts(0.1, 0.2),)),
                PiecewiseLinearSchedule(
                    [0.0, 1.0], (LinearImpacts(0.1, 0.0, 0.2, 0.0),)))

    def ensemble():
        return ensemble_average(SdeParams(0.3, 0.4, 1.0, 0.4), 0.5, 1.0, 4,
                                n=2, master_seed=1)

    for record, twin in [(read_trace_csv(NOTIONAL_CSV),
                          read_trace_csv(NOTIONAL_CSV)),
                         *zip(schedules(), schedules()),
                         (ensemble(), ensemble())]:
        assert record == record and record != twin
        assert record in [twin, record] and record not in [twin]
        assert hash(record) == hash(record)
        assert len({record, twin}) == 2
    for make in (lambda: ConstantImpacts(0.1, 0.2),
                 lambda: SdeParams(0.3, 0.4, 1.0, 0.4),
                 lambda: GridAxis(0.0, 1.0, 0.5)):
        assert make() == make() and hash(make()) == hash(make())


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

    def test_schedule_refuses_other_segment_type(self):
        with pytest.raises(DomainError, match=(
                "^segments must be ConstantImpacts instances$")):
            PiecewiseConstantSchedule(
                breakpoints=np.array([0.0, 1.0]),
                segments=(LinearImpacts(0.1, 0.0, 0.1, 0.0),),
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

    def test_overflowing_integral_refused(self):
        trace = flat_trace(1e300, f0=1e300, end=1e10, n=2)
        with pytest.raises(DomainError,
                           match=r"^accomplishment must be finite, got inf$"):
            accomplishment(trace)

    @pytest.mark.parametrize("trace", [
        flat_trace(1e300, f0=1e300, end=1e10, n=300),
        # Every term is finite; their sum is not.
        flat_trace(8e307, f0=1e308, end=3.0, n=4),
        flat_trace(8e307, f0=1e308, end=299.0, n=300),
    ], ids=["terms", "sum-of-3", "pairwise-sum"])
    def test_overflowing_sum_refused(self, trace):
        with pytest.raises(DomainError,
                           match=r"^accomplishment must be finite, got inf$"):
            accomplishment(trace)

    @pytest.mark.parametrize("n", [2, 8, 9, 129, 1000])
    def test_negative_zero_trace_accomplishes_positive_zero(self, n):
        # numpy's reduction adds the pairwise sum to 0.0, so a trace held
        # at -0.0 accomplishes +0.0 (a sum kept apart from that 0.0 would
        # give -0.0 from 8 terms on).
        trace = FunctionalityTrace(np.arange(n, dtype=float), np.full(n, -0.0))
        assert math.copysign(1.0, accomplishment(trace)) == 1.0
        assert math.copysign(1.0, auc_resilience(trace)) == 1.0


def float_bits(x):
    return np.float64(x).tobytes()


# Terms sized below 8 (a plain loop), 8 to 128 (eight running sums) and
# above 128 (split in two), drawn by a seeded generator across many binary
# orders of magnitude, with drawn values overwriting some of them: signed
# zeros, subnormals, and any finite float.
SUM_SIZES = st.one_of(st.integers(1, 7), st.integers(8, 128),
                      st.integers(129, 3000))
SPECIAL_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -1.5e-310, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False))


def assert_pairwise_sum_is_add_reduce(terms):
    got = 0.0 + _pairwise_sum(array("d", terms.tobytes()), 0, terms.size)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.add.reduce(terms)
    assert (math.isnan(got) and math.isnan(want)) or (
        float_bits(got) == float_bits(want))


@given(n=SUM_SIZES, seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.tuples(st.integers(0, 10**6), SPECIAL_TERMS),
                         max_size=12),
       low=st.sampled_from([-1074, -60, 0]), high=st.sampled_from([1, 60, 1000]))
def test_pairwise_sum_is_numpy_add_reduce(n, seed, specials, low, high):
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        terms = rng.standard_normal(n) * np.exp2(rng.integers(low, high, n))
    for i, v in specials:
        terms[i % n] = v
    assert_pairwise_sum_is_add_reduce(terms)


@pytest.mark.parametrize("n", [4095, 8192, 20000, 100001])
def test_pairwise_sum_is_numpy_add_reduce_at_volume(n):
    rng = np.random.default_rng(n)
    assert_pairwise_sum_is_add_reduce(rng.standard_normal(n))
    assert_pairwise_sum_is_add_reduce(rng.uniform(0.0, 1.0, n) * 1e-310)


@given(n=SUM_SIZES, seed=st.integers(0, 2**32 - 1),
       zeros=st.lists(st.tuples(st.integers(0, 10**6),
                                st.sampled_from([0.0, -0.0, 5e-324,
                                                 1e-310])), max_size=12),
       scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e5, 1e300]),
       f0=st.sampled_from([1.0, 1e-300, 1e300]))
def test_accomplishment_is_numpy_trapezoid(n, seed, zeros, scale, f0):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 2.0, n + 1) * scale)
    values = rng.uniform(0.0, 1.0, n + 1) * f0
    for i, v in zeros:
        values[i % (n + 1)] = v
    trace = FunctionalityTrace(times, values, f0)
    with np.errstate(over="ignore"):
        want = float(np.trapezoid(values, times))
    if not math.isfinite(want):
        with pytest.raises(DomainError):
            accomplishment(trace)
    else:
        assert float_bits(accomplishment(trace)) == float_bits(want)


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

    def test_held_at_normal_reads_at_most_one(self):
        # The trapezoid sum of this grid rounds above f0 * duration.
        trace = FunctionalityTrace([0.82, 0.95, 1.01, 3.45, 6.19],
                                   [1.0] * 5, 1.0)
        assert accomplishment(trace) > trace.f0 * trace.duration
        assert auc_resilience(trace) == 1.0

    @given(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=30,
                    unique=True),
           st.floats(1e-3, 1e3))
    def test_never_above_one(self, times, f0):
        times = sorted(times)
        trace = FunctionalityTrace(times, [f0] * len(times), f0)
        assert auc_resilience(trace) <= 1.0

    # f0 * duration overflows (the quotient was a silent 0.0) or
    # underflows to 0 (a ZeroDivisionError).
    @pytest.mark.parametrize("f0, end, scale", [(1e300, 1e10, "inf"),
                                                (0.5, 5e-324, "0.0")])
    def test_unrepresentable_scale_refused(self, f0, end, scale):
        trace = flat_trace(0.0, f0=f0, end=end, n=2)
        with pytest.raises(DomainError, match=(
                rf"^f0 \* duration must be positive and finite, got {scale}$")):
            auc_resilience(trace)


@pytest.mark.parametrize("excursion", [-2 * BOUND_SLACK,
                                       1.0 + 2 * BOUND_SLACK, math.nan])
def test_clamp_refuses_excursion_beyond_slack(excursion):
    # The slack is relative to f0; scaling by a power of two is exact.
    for f0 in (1.0, 2.0**40, 2.0**-40):
        inside = [-0.5 * BOUND_SLACK, 0.5, 1.0 + 0.5 * BOUND_SLACK]
        clamped = _clamp_to_bounds(array("d", [v * f0 for v in inside]), f0)
        assert clamped.tolist() == [0.0, 0.5 * f0, f0]
        with pytest.raises(DomainError, match=(
                r"^solution left \[0, f0\] by more than 1e-12")):
            _clamp_to_bounds(array("d", [0.5 * f0, excursion * f0]), f0)


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
        with pytest.raises(DomainError, match=(
                r"^bonware impact is negative at t=0\.0: -0\.1$")):
            integrate_reference(lambda t: -0.1, lambda t: 0.0,
                                0.5, 1.0, grid)

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
        # A block's comma count alone would pass the last: its lines hold
        # two numbers each, but not one comma each.
        path = tmp_path / "bad.csv"
        for text, where in [
            ("time,functionality\n0,1\noops\n", ":3: "),
            ("time,functionality\n0,1\n1_0,0.5\n", ":3: non-numeric sample"),
            ("time,functionality\n0,1\n\uff11,0.5\n", ":3: non-numeric sample"),
            ("time,functionality\n0,1\n1,\u00a00.5\n", ":3: non-numeric sample"),
            ("time,functionality\n0,1\n1,0.5\u00a0\n", ":3: non-numeric sample"),
            ("# f0=1_0\ntime,functionality\n0,1\n1,0.5\n",
             ":1: bad f0 metadata"),
            ("time,functionality\n0,1\n1,0.5,2\n0.5\n",
             ":3: expected two fields"),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(InvalidTraceError, match=f"bad.csv{where}"):
                read_trace_csv(path)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(flat_trace(0.5), path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_round_trip_at_bench_size(self, tmp_path):
        rng = np.random.default_rng(11)
        times = np.cumsum(rng.uniform(1e-3, 2.0, 20001))
        values = rng.uniform(0.0, 1.0, 20001)
        values[::97] = 5e-324
        trace = FunctionalityTrace(times, values, 1.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.times.tobytes() == trace.times.tobytes()
        assert back.values.tobytes() == trace.values.tobytes()
        assert read_outcome(read_trace_csv, path) == read_outcome(
            reference_read_trace_csv, path)

    def test_errors_deep_in_a_long_file_name_their_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        rows = [f"{i},0.5\n" for i in range(20001)]
        for line, want in [("1,0.5 # late\n", ":15003: non-numeric sample"),
                           ("1,0.5,0\n", ":15003: expected two fields"),
                           ("# f0=1_0\n", ":15003: bad f0 metadata")]:
            body = rows[:15000] + [line] + rows[15000:]
            path.write_text("# f0=1\ntime,functionality\n" + "".join(body))
            with pytest.raises(InvalidTraceError, match=f"trace.csv{want}"):
                read_trace_csv(path)

    def test_last_f0_wins_after_many_blocks(self, tmp_path):
        path = tmp_path / "trace.csv"
        rows = "".join(f"{i},{i % 3}\n" for i in range(20001))
        path.write_text("# f0=1\ntime,functionality\n" + rows
                        + "\n  # f0=2\n# note\n# f0=2.5\n")
        trace = read_trace_csv(path)
        assert trace.f0 == 2.5
        assert trace.times.size == 20001

    def test_compressed_name_reads_as_text(self, tmp_path):
        path = tmp_path / "trace.csv.gz"
        path.write_text("# f0=2\ntime,functionality\n0,1\n1,2\n")
        trace = read_trace_csv(path)
        assert trace.f0 == 2.0
        assert list(trace.values) == [1.0, 2.0]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheet CSV exports often start with a UTF-8 byte-order mark.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + NOTIONAL_CSV.read_bytes())
        assert read_outcome(read_trace_csv, path) == read_outcome(
            read_trace_csv, NOTIONAL_CSV)
        assert read_outcome(reference_read_trace_csv, path) == read_outcome(
            read_trace_csv, NOTIONAL_CSV)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# f0=1\ntime,functionality\n")
        with pytest.raises(InvalidTraceError, match=(
                "trace.csv: times must be one-dimensional with at least two "
                "points$")):
            read_trace_csv(path)
        assert read_outcome(read_trace_csv, path) == read_outcome(
            reference_read_trace_csv, path)


def read_outcome(read, path):
    """What ``read`` makes of ``path``: the trace's bits, or the error."""
    try:
        trace = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (trace.times.tobytes(), trace.values.tobytes(),
            np.float64(trace.f0).tobytes())


# Pieces of generated trace files.  Sample times increase by construction,
# and each file draws how irregular it is, so that a good share of files
# is accepted and the rest are refused for one reason or another.  Each
# number is written in one of the forms float() reads.
NUMBER_FORMS = [repr, "{:.17g}".format, "{:+.17g}".format, "{:.6E}".format]
SPECIAL_NUMBERS = ["1e-300", "+1E-300", "-0", "-0.0", "5e-324", "inf",
                   "-inf", "nan", "-Infinity", "1e400"]
FIELD_SPACES = [[""], [""], ["", " ", "\t", " \t "],
                ["", " ", "\x0c", "\x1f"]]
GOOD_F0 = st.sampled_from(["1", "2.5", " 1.5 ", "1e300", "+1"])
BAD_F0 = st.sampled_from(["0.5", "inf", "-1", "1_0", "\uff12", "1\u00a0",
                          "", "x"])
COMMENTS = st.sampled_from(["", "   ", "\t", "#", "# a comment",
                            "  # indented", "#f0", "# f0 = 2"])
BAD_ROWS = st.sampled_from(["oops", ",", "1,", "1 2,0.5", "0x10,0.5",
                            "time,functionality"])
HEADERS = st.sampled_from(["time,functionality"] * 16
                          + [" time,functionality\t", "time,functionalty",
                             "Time,functionality", "time, functionality",
                             None])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def other_lines(draw, bad):
    """Comment, blank and ``# f0=`` lines, and malformed rows if ``bad``."""
    kind = draw(st.integers(0, 3 if bad else 2))
    if kind == 0:
        return draw(COMMENTS)
    if kind == 1:
        value = draw(BAD_F0 if bad and draw(st.booleans()) else GOOD_F0)
        return draw(st.sampled_from(["# f0=", "#f0=", "  # f0="])) + value
    if kind == 2:
        return ""
    return draw(BAD_ROWS)


def spoiled(draw, row):
    """``row`` with one fault that float() alone would not notice, or that
    only the field count shows."""
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return row + draw(st.sampled_from([" # note", "#", "\t#x"]))
    if kind == 1:
        return row + ",0"
    if kind == 2:
        return row.split(",")[0]
    digits = [i for i, c in enumerate(row) if c.isdigit()]
    i = draw(st.sampled_from(digits))
    if kind == 3:
        return row[:i] + "_" + row[i:] if i and row[i - 1].isdigit() \
            else row[:i + 1] + "_0" + row[i + 1:]
    if kind == 4:
        return row[:i] + chr(0xFF10 + int(row[i])) + row[i + 1:]
    comma = row.index(",")
    at = draw(st.sampled_from([0, comma, comma + 1, len(row)]))
    return row[:at] + "\u00a0" + row[at:]


@st.composite
def trace_files(draw):
    """Text of a trace CSV mixing valid rows with comment, blank, metadata
    and malformed lines, and LF, CRLF and CR endings."""
    bad = draw(st.booleans())
    spaces = st.sampled_from(draw(st.sampled_from(FIELD_SPACES)))
    special = draw(st.integers(0, 4)) == 0
    lines = draw(st.lists(other_lines(bad), max_size=3))
    header = draw(HEADERS)
    if header is not None:
        lines.append(header)
    first_row = len(lines)
    t = draw(st.floats(-1e3, 1e3))
    for _ in range(draw(st.integers(0, 30))):
        t += draw(st.floats(1e-3, 10.0))
        fields = [draw(st.sampled_from(NUMBER_FORMS))(t),
                  draw(st.sampled_from(NUMBER_FORMS))(
                      draw(st.floats(0.0, 1.0)))]
        if special and draw(st.integers(0, 9)) == 0:
            fields[draw(st.integers(0, 1))] = draw(
                st.sampled_from(SPECIAL_NUMBERS))
        lines.append(",".join(draw(spaces) + f + draw(spaces)
                              for f in fields))
    if bad and len(lines) > first_row:
        i = draw(st.integers(first_row, len(lines) - 1))
        lines[i] = spoiled(draw, lines[i])
    for line in draw(st.lists(other_lines(bad), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    ending = draw(ENDINGS)
    mixed = draw(st.integers(0, 4)) == 0
    text = "".join(line + (draw(ENDINGS) if mixed else ending)
                   for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


# One block holds the whole of most generated files; blocks of 24
# characters hold a line or two each, so plain blocks, parsed in one pass,
# alternate with blocks read line by line.
@pytest.mark.parametrize("block_chars", [None, 24])
@settings(max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=trace_files())
def test_read_matches_line_reference(tmp_path, block_chars, text):
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8", newline="")
    chunk = block_chars or resdyn._trace_read._BLOCK_CHARS
    with mock.patch.object(resdyn._trace_read, "_BLOCK_CHARS", chunk):
        got = read_outcome(read_trace_csv, path)
    assert got == read_outcome(reference_read_trace_csv, path)


@st.composite
def round_trip_traces(draw):
    """A trace whose times start anywhere in [-1e9, 1e9], some steps to the
    next float, and whose values include -0.0, 5e-324 and f0."""
    f0 = draw(st.sampled_from([1.0, 5e-324]) | st.floats(1e-300, 1e300))
    times = [draw(st.floats(-1e9, 1e9))]
    for _ in range(draw(st.integers(1, 40))):
        t = times[-1]
        times.append(math.nextafter(t, math.inf) if draw(st.booleans())
                     else t + draw(st.floats(1e-3, 1e3)))
    values = st.sampled_from([-0.0, 5e-324, f0]) | st.floats(0.0, f0)
    return FunctionalityTrace(times, [draw(values) for _ in times], f0)


# Blocks of a few lines at most, so a trace spans many of them.
@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=round_trip_traces(), block_chars=st.integers(1, 120))
def test_csv_round_trip_is_exact(tmp_path, trace, block_chars):
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with mock.patch.object(resdyn._trace_read, "_BLOCK_CHARS", block_chars):
        back = read_trace_csv(path)
    assert back._times.tobytes() == trace._times.tobytes()
    assert back._values.tobytes() == trace._values.tobytes()
    assert np.float64(back.f0).tobytes() == np.float64(trace.f0).tobytes()


def sample_rows(chars):
    """Sample lines of increasing times and varied number forms, exactly
    ``chars`` characters long (at least 60)."""
    rng = np.random.default_rng(chars)
    rows, size, t = [], 0, 0.0
    while True:
        t += float(rng.uniform(0.001, 2.0))
        row = f"{t!r},{float(rng.uniform(0.0, 1.0)):.{rng.integers(1, 18)}g}\n"
        if size + len(row) > chars - 30:
            break
        rows.append(row)
        size += len(row)
    last = f"{t + 1.0!r},0.5"
    return "".join(rows) + last + " " * (chars - size - len(last) - 1) + "\n"


def test_reader_past_one_block_loads_no_numpy(tmp_path):
    # Samples one character longer than a _BLOCK_CHARS block are read with
    # the line reference's bits, and without loading numpy.
    path = tmp_path / "trace.csv"
    body = sample_rows(resdyn._trace_read._BLOCK_CHARS + 1)
    assert len(body) == resdyn._trace_read._BLOCK_CHARS + 1
    path.write_text("# f0=1\ntime,functionality\n" + body, newline="")
    got = read_outcome(read_trace_csv, path)
    assert got == read_outcome(reference_read_trace_csv, path)
    assert isinstance(got[0], bytes)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, resdyn; resdyn.read_trace_csv(sys.argv[1]); "
         "print('numpy' in sys.modules)", str(path)],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
