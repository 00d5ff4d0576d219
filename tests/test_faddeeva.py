"""The builtin erfcx against scipy's, bit for bit.

``resdyn._faddeeva.erfcx`` replays the Faddeeva Package code that scipy
compiles for x >= 0, operation for operation, on Python floats, so every
comparison here is of the float64 bit patterns, with no tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from resdyn._faddeeva import erfcx


def assert_same_bits(x):
    got = np.array([erfcx(v) for v in x.tolist()])
    want = special.erfcx(x)
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ.size == 0, (
        f"{differ.size} of {x.size} differ, first at x={x[differ[0]]!r}: "
        f"{got[differ[0]]!r} != {want[differ[0]]!r}")


def around(points):
    """``points`` and their neighbours one ulp either side, those >= 0."""
    points = np.asarray(points, dtype=float)
    near = np.concatenate((points, np.nextafter(points, np.inf),
                           np.nextafter(points, -np.inf)))
    return near[near >= 0.0]


# 400/(4 + x) crosses interval k's lower end y = k at x = 400/k - 4.
EDGES = 400.0 / np.arange(1, 101) - 4.0

SAMPLES = {
    "uniform-0-60": lambda rng: rng.uniform(0.0, 60.0, 2_000_000),
    "log-uniform-to-1e300":
        lambda rng: 10.0 ** rng.uniform(-300.0, 300.0, 2_000_000),
    "interval-edges": lambda rng: around(EDGES),
    "branch-ends": lambda rng: around([0.0, 50.0, 5e7]),
    "zeros-and-extremes": lambda rng: np.array(
        [0.0, -0.0, 5e-324, np.finfo(float).max, np.inf]),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_matches_scipy_bits_on_seeded_sample(name):
    assert_same_bits(SAMPLES[name](np.random.default_rng(20121017)))


@given(st.lists(st.floats(min_value=0.0, max_value=1.7e308,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_matches_scipy_bits(values):
    x = np.array(values)
    assert_same_bits(x)
    scalar = erfcx(values[0])
    assert type(scalar) is float
    assert (np.float64(scalar).view(np.uint64)
            == special.erfcx(values[0]).view(np.uint64))


def test_nan_stays_nan():
    assert math.isnan(erfcx(math.nan))


def test_negative_arguments_give_nan():
    for x in (-5e-324, -4.4e-16, -1.0, -30.0, -math.inf, -1e-300):
        assert math.isnan(erfcx(x)), x
    assert erfcx(0.5) == special.erfcx(0.5)
