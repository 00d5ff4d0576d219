"""Stochastic step model: reproducibility, bounds, onsets, and the mean law."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_ensemble
from resdyn import (
    DomainError,
    SdeParams,
    effective_impact,
    ensemble_average,
    expectation_recursion,
    simulate,
    solve_constant,
    split_seed,
    stochastic,
    write_ensemble_csv,
)
from resdyn.core import ConstantImpacts

BASE = SdeParams(malware_activity=0.08, bonware_activity=0.12,
                 malware_effectiveness=0.34, bonware_effectiveness=0.71)


class TestSdeParams:
    def test_activity_range(self):
        with pytest.raises(DomainError, match="malware_activity"):
            SdeParams(1.2, 0.1, 0.5, 0.5)
        with pytest.raises(DomainError, match="bonware_activity"):
            SdeParams(0.1, -0.1, 0.5, 0.5)

    def test_effectiveness_range(self):
        with pytest.raises(DomainError, match="malware_effectiveness"):
            SdeParams(0.1, 0.1, 0.0, 0.5)
        with pytest.raises(DomainError, match="bonware_effectiveness"):
            SdeParams(0.1, 0.1, 0.5, 1.5)


class TestSplitSeed:
    def test_deterministic_and_distinct(self):
        seeds = [split_seed(42, i) for i in range(100)]
        assert seeds == [split_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2**64 for s in seeds)
        assert split_seed(1, 0) != split_seed(2, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            split_seed(42, -1)


class TestSimulate:
    def test_no_activity_is_flat(self):
        p = SdeParams(0.0, 0.0, 0.5, 0.5)
        trace = simulate(p, 0.4, 1.0, steps=50, seed=1)
        assert np.array_equal(trace.values, np.full(51, 0.4))

    def test_full_functionality_cannot_rise(self):
        p = SdeParams(0.0, 0.9, 0.5, 0.9)
        trace = simulate(p, 1.0, 1.0, steps=50, seed=2)
        assert np.array_equal(trace.values, np.full(51, 1.0))

    def test_bit_identical_reruns(self):
        a = simulate(BASE, 1.0, 1.0, steps=200, seed=99)
        b = simulate(BASE, 1.0, 1.0, steps=200, seed=99)
        assert np.array_equal(a.values, b.values)

    def test_pinned_stream(self):
        # Frozen regression pinning the generator and per-step draw order.
        trace = simulate(BASE, 0.8, 1.0, steps=8, dt=1.0, seed=12345)
        expected = np.array([
            0.8, 0.8, 0.8, 0.9369113967739505, 0.9369113967739505,
            0.9369113967739505, 0.9369113967739505, 0.9697448853994035,
            0.9697448853994035,
        ])
        assert trace.values == pytest.approx(expected, abs=0.0)

    def test_unused_effect_draws_keep_stream_aligned(self):
        # With bonware silent, its effectiveness bound must not matter:
        # the effect draw is consumed either way.
        p_lo = SdeParams(0.08, 0.0, 0.34, 0.01)
        p_hi = SdeParams(0.08, 0.0, 0.34, 0.99)
        a = simulate(p_lo, 1.0, 1.0, steps=300, seed=31)
        b = simulate(p_hi, 1.0, 1.0, steps=300, seed=31)
        assert np.array_equal(a.values, b.values)

    def test_bounded_by_construction(self):
        p = SdeParams(0.9, 0.9, 1.0, 1.0)
        trace = simulate(p, 0.5, 2.0, steps=2000, seed=44)
        assert trace.values.min() >= 0.0
        assert trace.values.max() <= 2.0

    def test_onsets(self):
        p = SdeParams(0.5, 0.5, 0.3, 0.5,
                      malware_onset=40.0, bonware_onset=15.0)
        trace = simulate(p, 0.6, 1.0, steps=60, seed=5)
        diffs = np.diff(trace.values)
        assert (diffs[:15] == 0.0).all()          # nobody active yet
        assert (diffs[15:40] >= 0.0).all()        # bonware-only stretch
        assert (diffs[15:40] > 0.0).any()

    def test_interaction_cutoff_stops_losses(self):
        p = SdeParams(0.08, 0.12, 0.34, 0.71, interaction_cutoff=60.0)
        saw_drop = False
        for i in range(100):
            trace = simulate(p, 1.0, 1.0, steps=125, seed=split_seed(77, i))
            diffs = np.diff(trace.values)
            after = trace.times[:-1] >= 60.0
            assert (diffs[after] >= 0.0).all()
            saw_drop = saw_drop or (diffs[~after] < 0.0).any()
        assert saw_drop

    def test_per_step_event_frequencies(self):
        # One transition from a fixed mid-level across many seeds: strict
        # drops happen at the malware activity rate, strict rises at the
        # bonware rate (3-sigma binomial bands; seeded).
        n = 4000
        mal = SdeParams(0.08, 0.0, 0.34, 0.5)
        bon = SdeParams(0.0, 0.12, 0.34, 0.71)
        drops = rises = 0
        for i in range(n):
            t1 = simulate(mal, 0.5, 1.0, steps=1, seed=split_seed(901, i))
            drops += t1.values[1] < t1.values[0]
            t2 = simulate(bon, 0.5, 1.0, steps=1, seed=split_seed(902, i))
            rises += t2.values[1] > t2.values[0]
        assert abs(drops / n - 0.08) <= 3 * math.sqrt(0.08 * 0.92 / n)
        assert abs(rises / n - 0.12) <= 3 * math.sqrt(0.12 * 0.88 / n)

    def test_invalid_steps_rejected(self):
        with pytest.raises(DomainError):
            simulate(BASE, 1.0, 1.0, steps=0, seed=1)
        with pytest.raises(DomainError):
            simulate(BASE, 1.0, 1.0, steps=10, dt=0.0, seed=1)


class TestEnsembleAverage:
    def test_single_realization_equals_simulate(self):
        ens = ensemble_average(BASE, 1.0, 1.0, steps=80, n=1, master_seed=7)
        direct = simulate(BASE, 1.0, 1.0, steps=80, seed=split_seed(7, 0))
        assert np.array_equal(ens.mean_trace.values, direct.values)
        assert np.array_equal(ens.per_step_stderr, np.zeros(81))

    def test_no_activity_zero_stderr(self):
        p = SdeParams(0.0, 0.0, 0.5, 0.5)
        ens = ensemble_average(p, 0.6, 1.0, steps=40, n=20, master_seed=3)
        assert np.array_equal(ens.per_step_stderr, np.zeros(41))
        assert np.array_equal(ens.mean_trace.values, np.full(41, 0.6))

    def test_empty_ensemble_rejected(self):
        with pytest.raises(DomainError):
            ensemble_average(BASE, 1.0, 1.0, steps=10, n=0, master_seed=1)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_bad_steps_rejected(self, steps):
        with pytest.raises(DomainError, match="steps must be >= 1"):
            ensemble_average(BASE, 1.0, 1.0, steps=steps, n=4, master_seed=1)

    def test_mean_approaches_expectation(self):
        m = effective_impact(BASE.malware_activity, BASE.malware_effectiveness)
        b = effective_impact(BASE.bonware_activity, BASE.bonware_effectiveness)
        expected = expectation_recursion(m, b, 1.0, 1.0, steps=125)
        sups = []
        for n in (5, 50, 500):
            ens = ensemble_average(BASE, 1.0, 1.0, steps=125, n=n,
                                   master_seed=2024)
            sups.append(
                float(np.abs(ens.mean_trace.values - expected.values).max())
            )
        assert sups[0] > sups[1] > sups[2]

    def test_csv_format(self, tmp_path):
        ens = ensemble_average(BASE, 1.0, 1.0, steps=5, n=3, master_seed=11)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# n=3, master_seed=11"
        assert lines[1] == "step,mean,stderr"
        assert len(lines) == 2 + 6
        step, mean, stderr = lines[2].split(",")
        assert step == "0"
        assert float(mean) == 1.0
        assert float(stderr) == 0.0


PROBABILITY = st.floats(0.0, 1.0)
EFFECTIVENESS = st.floats(0.0, 1.0, exclude_min=True)
# Whole-second times and binary dt put onsets and cutoffs exactly on steps.
CLOCK = st.integers(-2, 70).map(float) | st.floats(-5.0, 250.0)
DT = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 4.0)


@given(
    params=st.builds(SdeParams, PROBABILITY, PROBABILITY, EFFECTIVENESS,
                     EFFECTIVENESS, CLOCK, CLOCK, st.none() | CLOCK),
    f0=st.floats(1e-3, 1e3),
    fraction=st.floats(0.0, 1.0),
    dt=DT,
    n=st.integers(1, 40),
    steps=st.integers(1, 60),
    master_seed=st.integers(0, 2**64 - 1),
    block_rows=st.integers(0, 8),
)
def test_block_engine_matches_per_realization_loop(params, f0, fraction, dt,
                                                   n, steps, master_seed,
                                                   block_rows):
    f_init = fraction * f0
    # A budget of block_rows rows (at least one) splits n into many blocks.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stochastic, "_BLOCK_BYTES", block_rows * steps * 32)
        result = ensemble_average(params, f_init, f0, steps, dt, n=n,
                                  master_seed=master_seed)
    mean, stderr = reference_ensemble(params, f_init, f0, steps, dt, n=n,
                                      master_seed=master_seed)
    assert np.array_equal(result.mean_trace.values, mean)
    assert np.array_equal(result.per_step_stderr, stderr)


class TestExpectationRecursion:
    def test_starts_at_initial_value(self):
        trace = expectation_recursion(0.01, 0.02, 0.7, 1.0, steps=5)
        assert trace.values[0] == 0.7

    def test_pure_recovery_geometric(self):
        # With no malware the mean is f0 - (f0 - f_init) * (1 - b)^k.
        b = 0.05
        trace = expectation_recursion(0.0, b, 0.2, 1.0, steps=100)
        k = np.arange(101)
        assert trace.values == pytest.approx(
            1.0 - 0.8 * (1.0 - b) ** k, rel=1e-13
        )

    def test_rejects_saturated_rates(self):
        with pytest.raises(DomainError):
            expectation_recursion(0.6, 0.5, 1.0, 1.0, steps=10)

    def test_small_q_tracks_continuous_model(self):
        # (1-q)^k vs exp(-q*t) differ at O(q^2 k) for q = 0.01.
        trace = expectation_recursion(0.004, 0.006, 1.0, 1.0, steps=500)
        continuous = solve_constant(
            ConstantImpacts(0.004, 0.006), 1.0, 1.0, np.arange(501.0)
        )
        assert np.abs(trace.values - continuous.values).max() <= 1e-3


class TestEffectiveImpact:
    def test_zero_activity(self):
        assert effective_impact(0.0, 0.9) == 0.0

    def test_saturated(self):
        assert effective_impact(1.0, 1.0) == 0.5

    def test_matches_monte_carlo(self):
        target = effective_impact(0.12, 0.71)
        assert target == pytest.approx(0.0426)
        rng = np.random.Generator(np.random.Philox(key=424242))
        n = 10**6
        fired = rng.random(n) < 0.12
        effect = rng.random(n) * 0.71
        sample = fired * effect
        stderr = float(sample.std(ddof=1)) / math.sqrt(n)
        assert abs(float(sample.mean()) - target) <= 3 * stderr

    def test_range_validation(self):
        with pytest.raises(DomainError):
            effective_impact(1.5, 0.5)
        with pytest.raises(DomainError):
            effective_impact(0.5, 0.0)
