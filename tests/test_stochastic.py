"""Stochastic step model: reproducibility, bounds, onsets, and the mean law."""

import itertools
import math
import re
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import reference_ensemble
from resdyn import (
    DomainError,
    SdeParams,
    effective_impact,
    ensemble,
    ensemble_average,
    expectation_recursion,
    simulate,
    solve_constant,
    split_seed,
    stochastic,
    write_ensemble_csv,
)
from resdyn import _philox
from resdyn._philox import _CHUNK, words
from resdyn.core import MAX_GRID_POINTS, _sample_axis, _SampleAxis
from resdyn.impacts import ConstantImpacts

BASE = SdeParams(malware_activity=0.08, bonware_activity=0.12,
                 malware_effectiveness=0.34, bonware_effectiveness=0.71)
# The cutoff falls in the second chunk of simulate's draws.
ONSET_CUTOFF = SdeParams(0.08, 0.12, 0.34, 0.71, malware_onset=5.0,
                         bonware_onset=3.0, interaction_cutoff=1.5 * _CHUNK)


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

    def test_published_splitmix64_outputs(self):
        # The first outputs of splitmix64 started from state 0.
        assert [split_seed(0, i) for i in range(4)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
            0x06C45D188009454F, 0xF88BB8A8724C81EC]

    def test_last_uint64_index(self):
        assert split_seed(5, 2**64 - 1) == 0xB6BF613DBEBB45DC

    @pytest.mark.parametrize("master_seed", [-7, 0, 12345, 2**64 - 1, 2**70 + 3])
    def test_block_seeds_match_split_seed(self, master_seed):
        for lo, hi in ((0, 1100), (2**40 - 3, 2**40 + 3), (2**63 - 2, 2**63 + 2),
                       (2**64 - 1, 2**64 + 3)):
            seeds = ensemble._split_seeds(master_seed, lo, hi)
            assert seeds.dtype == np.uint64
            assert seeds.tolist() == [split_seed(master_seed, i)
                                      for i in range(lo, hi)]


@pytest.mark.parametrize("seed, key", [
    (2.7, None), (2.0, None), (True, None), ("3", None), (None, None),
    (np.float64(3.0), None), (7, 7), (np.int64(7), 7), (np.uint8(7), 7),
    (np.uint64(2**64 - 1), 2**64 - 1), (-3, 2**64 - 3),
    (np.int32(-3), 2**64 - 3), (2**64 + 5, 5), (2**70 + 3, 3),
    (np.True_, None),
])
def test_seeds_follow_one_integer_rule(seed, key):
    # A seed, master seed or index that is not an int or numpy integer is
    # refused, naming its argument; any integer keys its stream mod 2**64.
    run = (BASE, 0.5, 1.0, 6)
    if key is None:
        for name, call in (
                ("seed", lambda: simulate(*run, seed=seed)),
                ("master_seed", lambda: ensemble_average(*run, n=3,
                                                         master_seed=seed)),
                ("master_seed", lambda: split_seed(seed, 1)),
                ("index", lambda: split_seed(11, seed))):
            match = f"^{name} must be an integer, got {re.escape(repr(seed))}$"
            with pytest.raises(DomainError, match=match):
                call()
        return
    assert (simulate(*run, seed=seed).values.tobytes()
            == simulate(*run, seed=key).values.tobytes())
    ensemble = ensemble_average(*run, n=3, master_seed=seed)
    assert type(ensemble.master_seed) is int and ensemble.master_seed == key
    assert (ensemble.mean_trace.values.tobytes()
            == ensemble_average(*run, n=3, master_seed=key).mean_trace.values.tobytes())
    assert split_seed(seed, 1) == split_seed(key, 1)
    if seed >= 0:
        assert split_seed(11, seed) == split_seed(11, key)


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

    @given(data=st.data())
    def test_roll_word_hits_as_its_double(self, data):
        # simulate compares an activity roll's word with _roll_bound; the
        # roll hits when the word's double (w >> 11) * 2**-53 is below the
        # activity.  Activities on and next to the k * 2**-53 boundaries,
        # words on either side of the bound.
        k = data.draw(st.integers(0, 2**53))
        activity = min(1.0, max(0.0, math.nextafter(
            k * 2.0**-53, data.draw(st.sampled_from([0.0, 1.0, k * 2.0**-53])))))
        bound = stochastic._roll_bound(activity)
        word = data.draw(st.integers(max(0, bound - 2**12),
                                     min(2**64 - 1, bound + 2**12)))
        assert (word < bound) == ((word >> 11) * 2.0**-53 < activity)

    def test_roll_bound_at_no_and_full_activity(self):
        # No word hits at activity 0 and every word hits at 1.
        assert stochastic._roll_bound(0.0) == 0
        assert stochastic._roll_bound(1.0) == 2**64

    def test_roll_word_at_its_bound_misses(self, monkeypatch):
        # Fed words at and just below each agent's bound, simulate moves
        # only on the steps whose roll word is below it; a word of 0 hits
        # no agent of activity 0.
        p = SdeParams(0.25, 0.0, 1.0, 1.0)
        m = stochastic._roll_bound(0.25)
        half = 1 << 63  # an effect word drawing 0.5
        rows = [(m, half, 0, half), (m - 1, half, 0, half)]
        monkeypatch.setattr(_philox, "words",
                            lambda key, steps: iter(rows[:steps]))
        assert simulate(p, 0.5, 1.0, 2).values.tolist() == [0.5, 0.5, 0.25]
        p = SdeParams(0.0, 0.5, 1.0, 1.0)
        b = stochastic._roll_bound(0.5)
        rows = [(0, half, b, half), (0, half, b - 1, half)]
        assert simulate(p, 0.5, 1.0, 2).values.tolist() == [0.5, 0.5, 0.75]

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

    def test_overflowing_horizon_names_dt(self):
        # Ten steps of 1e308 s end past the largest float.
        match = (r"^dt must keep the horizon dt \* steps finite, "
                 r"got 1e\+308 \* 10$")
        with pytest.raises(DomainError, match=match):
            simulate(BASE, 1.0, 1.0, steps=10, dt=1e308)
        with pytest.raises(DomainError, match=match):
            ensemble_average(BASE, 1.0, 1.0, steps=10, dt=1e308, n=4)


def list_gated_simulate(params, f_init, f0, steps, dt, seed):
    """``simulate``'s times and levels as it computed them when it wrote
    each agent's live window out as a per-step list of roll bounds, from a
    list of every sample time."""
    times = [float(dt) * k for k in range(steps + 1)]
    # Per step, the bound under which each agent's roll word hits; 0, which
    # no word is under, where the agent is off.
    m_bounds, b_bounds = (
        [0] * live.start + [stochastic._roll_bound(activity)] * len(live)
        + [0] * (steps - live.stop)
        for live, activity in zip(stochastic._live(params, times[:-1]),
                                  (params.malware_activity,
                                   params.bonware_activity)))
    e_m, e_b = params.malware_effectiveness, params.bonware_effectiveness
    f = float(f_init)
    values = [f]
    for m_bound, b_bound, (m_roll, m_effect, b_roll, b_effect) in zip(
            m_bounds, b_bounds, words(seed % 2**64, steps)):
        delta = 0.0
        if m_roll < m_bound:
            delta -= (m_effect >> 11) * 2.0**-53 * e_m * f
        if b_roll < b_bound:
            delta += (b_effect >> 11) * 2.0**-53 * e_b * (f0 - f)
        f += delta
        values.append(f)
    return array("d", times), array("d", values)


@st.composite
def gated_runs(draw):
    """A run whose onsets and cutoff lie before, inside or past its clock,
    on a step or between steps, with a cutoff that may come at or before
    the malware onset, so that a live range may be empty."""
    steps = draw(st.integers(1, 300))
    dt = draw(st.floats(3e-7, 10.0))
    clock = (st.integers(-3, steps + 3).map(lambda k: k * dt)
             | st.floats(-0.5, 1.5).map(lambda x: x * dt * steps))
    activity = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    effectiveness = st.floats(0.0, 1.0, exclude_min=True)
    malware_onset = draw(clock)
    cutoff = draw(st.none() | clock | st.floats(0.0, 2.0).map(
        lambda back: malware_onset - back * dt))
    params = SdeParams(draw(activity), draw(activity), draw(effectiveness),
                       draw(effectiveness), malware_onset, draw(clock), cutoff)
    f0 = draw(st.floats(1e-3, 1e3))
    return (params, draw(st.floats(0.0, 1.0)) * f0, f0, steps, dt,
            draw(st.integers(0, 2**64 - 1)))


@given(run=gated_runs())
@example(run=(SdeParams(1.0, 1.0, 0.5, 0.5, 4.0, 2.0, 4.0), 0.5, 1.0, 9,
              1.0, 3))  # the cutoff at the onset: malware never acts
@example(run=(SdeParams(1.0, 1.0, 0.5, 0.5, 12.0, 10.0, 3.0), 0.5, 1.0, 9,
              1.0, 3))  # both agents start past the run
@example(run=(SdeParams(1.0, 0.0, 1.0, 1.0, -1.0, 0.0, 9.0), 1.0, 1.0, 9,
              1.0, 3))  # malware live throughout, the cutoff at the end
def test_range_gate_matches_list_gate(run):
    # Gating each roll by its agent's live range gives the bytes of the
    # per-step bound lists it replaced.
    times, values = list_gated_simulate(*run)
    params, f_init, f0, steps, dt, seed = run
    trace = simulate(params, f_init, f0, steps, dt, seed=seed)
    assert trace.times.tobytes() == times.tobytes()
    assert trace.values.tobytes() == values.tobytes()


def test_simulate_peak_memory():
    # A run holds its clock and its levels, 8 bytes a step each, and their
    # growth slack; the trace shares both: 16 bytes a step and slack.
    steps = 200_000
    params = SdeParams(0.08, 0.12, 0.34, 0.71, malware_onset=0.1 * steps,
                       bonware_onset=0.05 * steps,
                       interaction_cutoff=0.8 * steps)
    # A first call loads what simulate imports on first use.
    simulate(params, 1.0, 1.0, 10, seed=1)
    tracemalloc.start()
    try:
        simulate(params, 1.0, 1.0, steps, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * steps


def largest_dt(steps):
    """The largest dt whose horizon dt * steps is a finite float."""
    dt = sys.float_info.max / steps
    while not math.isfinite(dt * steps):
        dt = math.nextafter(dt, 0.0)
    while math.isfinite(math.nextafter(dt, math.inf) * steps):
        dt = math.nextafter(dt, math.inf)
    return dt


# At _check_run's extremes, from the least subnormal dt to horizons at the
# largest float, the clock that simulate and ensemble_average build is a
# sample axis, as a trace takes it on trust (a plain copy of it passes the
# full check), and has the bits of the numpy grid dt * arange(steps + 1).
@pytest.mark.parametrize("dt, steps", [
    (5e-324, 1),
    (5e-324, 2**16),
    (2.0**-1035, 2**16),  # from subnormal products to normal ones
    (sys.float_info.max, 1),
    (largest_dt(3), 3),
    (largest_dt(2**20), 2**20),
])
def test_clock_is_a_sample_axis(dt, steps):
    assert stochastic._check_run(steps, dt) == (steps, 1)
    times = stochastic._clock(dt, steps)
    assert type(times) is _SampleAxis
    assert _sample_axis(array("d", times), "times") == times
    assert times.tobytes() == (dt * np.arange(steps + 1)).tobytes()


class TestEnsembleAverage:
    def test_integer_dt_is_a_float_step(self):
        # dt * k is taken in floats, so an integer dt whose horizon passes
        # 2**63 neither wraps the grid nor moves an onset.
        params = SdeParams(0.5, 0.5, 0.5, 0.5, malware_onset=3e18)
        result = ensemble_average(params, 1.0, 1.0, steps=10, dt=2 * 10**18,
                                  n=1, master_seed=4)
        want = simulate(params, 1.0, 1.0, steps=10, dt=2e18,
                        seed=split_seed(4, 0))
        assert result.mean_trace.times.tolist() == want.times.tolist()
        assert result.mean_trace.values.tolist() == want.values.tolist()

    def test_single_realization_equals_simulate(self):
        # Bit for bit, so a level of -0.0 keeps its sign.  simulate computes
        # its draws a chunk of steps at a time and the ensemble takes them
        # from numpy.random, so at one chunk, and at two and a step, the
        # chunked loop meets an independent stream.
        for (params, steps), f_init in itertools.product(
                [(BASE, 80), (ONSET_CUTOFF, _CHUNK),
                 (ONSET_CUTOFF, 2 * _CHUNK + 1)], (1.0, -0.0)):
            ens = ensemble_average(params, f_init, 1.0, steps=steps, n=1,
                                   master_seed=7)
            direct = simulate(params, f_init, 1.0, steps=steps,
                              seed=split_seed(7, 0))
            assert ens.mean_trace.values.tobytes() == direct.values.tobytes()
            assert np.array_equal(ens.per_step_stderr, np.zeros(steps + 1))

    def test_no_activity_zero_stderr(self):
        p = SdeParams(0.0, 0.0, 0.5, 0.5)
        ens = ensemble_average(p, 0.6, 1.0, steps=40, n=20, master_seed=3)
        assert np.array_equal(ens.per_step_stderr, np.zeros(41))
        assert np.array_equal(ens.mean_trace.values, np.full(41, 0.6))

    def test_size_capped_before_allocation(self):
        # 10**6 realizations of 10**4 steps would need an 80 GB stack, and
        # one realization of 10**22 steps could not be allocated at all.
        too_many = (rf"^n must keep n \* \(steps \+ 1\) <= {MAX_GRID_POINTS}, "
                    r"got 1000000 \* 10001$")
        too_long = (rf"^steps must be <= {MAX_GRID_POINTS - 1}, "
                    r"got 10000000000000000000000$")
        for run, match in [
            (lambda: ensemble_average(BASE, 1.0, 1.0, steps=10**4, n=10**6),
             too_many),
            (lambda: ensemble_average(BASE, 1.0, 1.0, steps=10**22, n=1),
             too_long),
            (lambda: simulate(BASE, 1.0, 1.0, steps=10**22), too_long),
        ]:
            tracemalloc.start()
            try:
                with pytest.raises(DomainError, match=match):
                    run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_empty_ensemble_rejected(self):
        with pytest.raises(DomainError):
            ensemble_average(BASE, 1.0, 1.0, steps=10, n=0, master_seed=1)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_bad_steps_rejected(self, steps):
        with pytest.raises(DomainError,
                           match=f"^steps must be >= 1, got {steps}$"):
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


@pytest.mark.parametrize("key", [0, 1, 2**63 - 1, 2**63, 2**64 - 1])
def test_rekey_restarts_philox_stream(key):
    # The ensemble's reset, after draws that leave the generator inside a
    # block with a spare 32-bit word, draws Philox(key=key) from its start.
    bitgen, state, keys = ensemble._rekeyable()
    rng = np.random.Generator(bitgen)
    rng.integers(0, 10, dtype=np.uint32)
    rng.random(2)
    drawn = bitgen.state
    assert (drawn["buffer_pos"], drawn["has_uint32"]) == (3, 1)
    keys[0] = key
    bitgen.state = state
    want = np.random.Generator(np.random.Philox(key=key)).random((5, 4))
    assert rng.random((5, 4)).tobytes() == want.tobytes()


# Default sizes: 600 rows of 250 steps are two full blocks of 262 rows and
# a partial one of 76.  Each block is drawn and reduced 64 rows at a time,
# so the full blocks end on 6 rows and the partial one on 12.
@pytest.mark.parametrize("params, f_init, master_seed", [
    (SdeParams(0.08, 0.12, 0.34, 0.71, malware_onset=5.0,
               interaction_cutoff=200.0), 1.0, 2024),
    (SdeParams(1.0, 1.0, 1.0, 1.0), 0.5, -7),
    (SdeParams(0.0, 0.0, 1.0, 1.0), 0.5, 2**64 - 1),
    (SdeParams(1.0, 0.0, 1.0, 1.0), 1.0, -7),
    (SdeParams(0.3, 0.4, 1.0, 0.5), 0.0, 2**64 - 1),
    (SdeParams(0.3, 0.4, 1.0, 1.0), 5e-324, -7),
    (SdeParams(0.3, 0.4, 0.5, 0.5, malware_onset=1e3,
               interaction_cutoff=1e4), 0.6, 2**64 - 1),
    (SdeParams(0.3, 0.4, 0.5, 0.5, bonware_onset=250.0,
               interaction_cutoff=250.0), 0.6, -7),
    (SdeParams(0.3, 0.4, 1.0, 0.5), -0.0, 2024),
], ids=["onset-cutoff", "certain-hits", "no-activity", "malware-only",
        "from-zero", "subnormal", "late-malware", "late-bonware-and-cutoff",
        "negative-zero"])
def test_block_engine_pinned_cases(params, f_init, master_seed):
    n, steps = 600, 250
    rows = ensemble._BLOCK_BYTES // (steps * 16)
    draw = ensemble._DRAW_ROWS
    assert (n // rows, n % rows, rows % draw, n % rows % draw) == (
        2, 76, 6, 12)
    result = ensemble_average(params, f_init, 1.0, steps, n=n,
                              master_seed=master_seed)
    mean, stderr = reference_ensemble(params, f_init, 1.0, steps, n=n,
                                      master_seed=master_seed)
    # Bytes, not values, so that -0.0 and 0.0 differ.
    assert result.mean_trace.values.tobytes() == mean.tobytes()
    assert result.per_step_stderr.tobytes() == stderr.tobytes()


@pytest.mark.parametrize("params", [
    # The bench input, on which about 1 entry in 6 changes.
    SdeParams(0.08, 0.12, 0.34, 0.71, malware_onset=5.0,
              interaction_cutoff=200.0),
    # Every entry changes, so the store is a dense stack and 1/64 more.
    SdeParams(1.0, 1.0, 1.0, 1.0),
], ids=["bench", "certain-hits"])
def test_ensemble_peak_memory(params):
    # Peak memory is the store of changes and the documented fixed scratch
    # of at most about 2.6 MiB, whatever the store's size.
    n, steps = 10_000, 250
    store, take = [], ensemble._changes

    def changes(block):
        changed, values = take(block)
        store.append(changed.nbytes + values.nbytes)
        return changed, values

    # A first call loads what the engine imports on first use.
    ensemble_average(params, 1.0, 1.0, 2, n=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "_changes", changes)
        tracemalloc.start()
        try:
            ensemble_average(params, 1.0, 1.0, steps, n=n, master_seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= sum(store) + 2.6 * 2**20


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
    draw_rows=st.integers(1, 3),
)
def test_block_engine_matches_per_realization_loop(params, f0, fraction, dt,
                                                   n, steps, master_seed,
                                                   block_rows, draw_rows):
    f_init = fraction * f0
    # A budget of block_rows rows (at least one) splits n into many blocks,
    # and draw_rows splits a block's draws and its reduce.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "_BLOCK_BYTES", block_rows * steps * 16)
        mp.setattr(ensemble, "_DRAW_ROWS", draw_rows)
        result = ensemble_average(params, f_init, f0, steps, dt, n=n,
                                  master_seed=master_seed)
    mean, stderr = reference_ensemble(params, f_init, f0, steps, dt, n=n,
                                      master_seed=master_seed)
    assert np.array_equal(result.mean_trace.values, mean)
    assert np.array_equal(result.per_step_stderr, stderr)


def test_ensemble_at_f0_below_one_stays_in_range():
    # Recovered realizations sit at f0 = 0.7, and the sum of 100 of them
    # over 100 rounds above it.
    result = ensemble_average(SdeParams(0.05, 0.5, 0.5, 0.9,
                                        interaction_cutoff=50.0),
                              0.7, 0.7, 200, n=100, master_seed=1)
    assert result.mean_trace.values.max() == 0.7
    assert result.per_step_stderr[-1] == 0.0


def step_scalar(f, f0, kicks):
    """One step of ``simulate`` from level ``f``: ``kicks`` holds each
    agent's (effect word, effectiveness, hit) in draw order."""
    (m_word, e_m, m_hit), (b_word, e_b, b_hit) = kicks
    delta = 0.0
    if m_hit:
        delta -= (m_word >> 11) * stochastic._UNIT * e_m * f
    if b_hit:
        delta += (b_word >> 11) * stochastic._UNIT * e_b * (f0 - f)
    return f + delta


def step_block(f, f0, kicks):
    """The same step in ``_step_blocks``' order, on length-1 vectors."""
    # Each effect factor times its hit mask, 1.0 or 0.0.
    km, kb = (np.array([(word >> 11) * stochastic._UNIT * effectiveness])
              * np.array([hit]) for word, effectiveness, hit in kicks)
    f = np.array([f])
    y = np.subtract(f0, f)
    y *= kb
    x = np.multiply(km, f)
    y -= x
    return float(np.add(f, y)[0])


# An odd 53-bit mantissa, often next to a power of two: a sum half an ulp
# above such an f0 is a tie, which rounds up to the even neighbour.
MANTISSA = (st.integers(0, 7).map(lambda j: 2**52 + 2 * j + 1)
            | st.integers(0, 7).map(lambda j: 2**53 - 2 * j - 1)
            | st.integers(2**51, 2**52 - 1).map(lambda k: 2 * k + 1))
# An effect word whose draw is among the largest, or any word.
EFFECT_WORD = st.builds(lambda top, low: top << 11 | low,
                        st.integers(0, 7).map(lambda j: 2**53 - 1 - j)
                        | st.integers(0, 2**53 - 1),
                        st.integers(0, 2**11 - 1))
KICK = st.tuples(EFFECT_WORD, st.just(1.0) | EFFECTIVENESS, st.booleans())


@st.composite
def step_levels(draw):
    """f0, from subnormal to 1e308, and a level in [0, f0]: a few half ulps
    of f0, a few ulps below f0, or any."""
    f0 = draw(st.builds(math.ldexp, MANTISSA, st.integers(-1126, 970))
              | st.floats(5e-324, 1e308))
    ulp = math.ulp(f0)
    f = draw(st.integers(0, 8).map(lambda k: min(k * ulp / 2, f0))
             | st.integers(0, 8).map(lambda k: max(f0 - k * ulp, 0.0))
             | st.floats(0.0, f0))
    return f0, f


# A bonware effect draw of 1.0, which no word gives, would step this level
# to 1.8179523415634315e-100, above f0.
@example(levels=(1.8179523415634312e-100, 3.806912755973474e-116),
         kicks=((0, 1.0, False), ((2**53 - 1) << 11, 1.0, True)))
@given(levels=step_levels(), kicks=st.tuples(KICK, KICK))
def test_one_step_stays_within_f0(levels, kicks):
    # Each effect factor is at most 1 - 2**-53, so the bonware term never
    # exceeds f0 - f and the malware term never exceeds f; from a level in
    # [0, f0] a step of either engine stays there, with the same bits.
    # ensemble_average makes no range check of its own because of this.
    f0, f = levels
    stepped = step_scalar(f, f0, kicks)
    assert 0.0 <= stepped <= f0
    assert stepped.hex() == step_block(f, f0, kicks).hex()


@given(
    params=st.builds(SdeParams, PROBABILITY, st.floats(0.3, 1.0),
                     EFFECTIVENESS, st.floats(0.5, 1.0),
                     interaction_cutoff=st.floats(0.0, 20.0)),
    f0=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    fraction=st.floats(0.0, 1.0),
    n=st.integers(50, 200),
    steps=st.integers(60, 150),
    master_seed=st.integers(0, 2**64 - 1),
)
def test_ensemble_mean_within_realizations(params, f0, fraction, n, steps,
                                           master_seed):
    # Malware is cut off well before the last step, so by then most
    # realizations sit at f0 or a few ulps below it, where the roundoff
    # of a sum of many of them can leave their range.
    f_init = fraction * f0
    result = ensemble_average(params, f_init, f0, steps, n=n,
                              master_seed=master_seed)
    stack = np.array([simulate(params, f_init, f0, steps,
                               seed=split_seed(master_seed, i)).values
                      for i in range(n)])
    mean = result.mean_trace.values
    assert (stack.min(axis=0) <= mean).all()
    assert (mean <= stack.max(axis=0)).all()
    assert 0.0 <= mean.min() and mean.max() <= f0


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

    def test_no_impact_stays_at_initial_value(self):
        trace = expectation_recursion(0.0, 0.0, 0.3, 1.0, steps=4)
        assert np.array_equal(trace.values, np.full(5, 0.3))

    @pytest.mark.parametrize("impacts, message", [
        ((math.nan, 0.2), "malware_impact must be finite and >= 0, got nan"),
        ((0.1, -0.2), "bonware_impact must be finite and >= 0, got -0.2"),
        ((0.1, math.inf), "bonware_impact must be finite and >= 0, got inf"),
    ])
    def test_impacts_checked_first(self, impacts, message):
        # The impacts are refused as ConstantImpacts refuses them, before
        # the bad steps and f_init that follow them.
        with pytest.raises(DomainError, match=f"^{message}$"):
            expectation_recursion(*impacts, 2.0, 1.0, steps=0)

    def test_steps_capped_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=(
                    rf"^steps must be <= {MAX_GRID_POINTS - 1}, "
                    rf"got {MAX_GRID_POINTS}$")):
                expectation_recursion(0.01, 0.02, 1.0, 1.0, MAX_GRID_POINTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_peak_memory(self):
        # At most four arrays of 8 bytes a step, and their growth slack, are
        # held at once: the clock, the solve's local times, its decays and
        # its levels.
        steps = 200_000
        # A first call loads what the recursion imports on first use.
        expectation_recursion(0.01, 0.02, 0.5, 1.0, 10)
        tracemalloc.start()
        try:
            expectation_recursion(0.01, 0.02, 0.5, 1.0, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * steps

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
