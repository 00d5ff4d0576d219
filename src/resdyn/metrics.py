"""Resilience metrics of a functionality trace."""

from __future__ import annotations

import math
import operator
from array import array
from functools import reduce
from itertools import islice, repeat
from typing import TYPE_CHECKING

from .core import DomainError

if TYPE_CHECKING:
    from .core import FunctionalityTrace


def _pairwise_sum(terms, lo: int, n: int) -> float:
    """The sum of ``terms[lo:lo + n]`` as numpy's pairwise summation adds
    float64s: a plain loop below 8 terms; up to 128, eight strided running
    sums combined as a tree, then the rest in order; above 128, the sums of
    two halves split at a multiple of 8."""
    if n < 8:
        return reduce(operator.add, terms[lo:lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(operator.add, terms[i:end:8]) for i in range(lo, lo + 8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(operator.add, terms[end:lo + n], res)
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(terms, lo, half)
            + _pairwise_sum(terms, lo + half, n - half))


def accomplishment(trace: FunctionalityTrace) -> float:
    """Cumulative accomplishment: the integral of functionality over time.

    Uses trapezoidal quadrature on the trace's own grid, so the metric is
    first-order correct on irregular grids.  An integral that overflows
    a float raises DomainError.

    The terms (t[i+1] - t[i]) * (v[i+1] + v[i]) / 2 and their pairwise sum,
    added to 0.0 as numpy's reduction adds it, are those of
    ``np.trapezoid(values, times)``, so the result has its bits.
    """
    t, v = trace._times, trace._values
    terms = array("d", map(operator.truediv,
                           map(operator.mul,
                               map(operator.sub, islice(t, 1, None), t),
                               map(operator.add, islice(v, 1, None), v)),
                           repeat(2.0)))
    total = 0.0 + _pairwise_sum(terms, 0, len(terms))
    if not math.isfinite(total):
        raise DomainError(f"accomplishment must be finite, got {total}")
    return total


def auc_resilience(trace: FunctionalityTrace) -> float:
    """Average functionality over the mission divided by the normal level.

    Dimensionless, in [0, 1]; 1.0 means no functionality was lost.  Values
    at most f0 bound the exact ratio by 1, so a quadrature roundoff above
    it reads 1.0.  A product ``f0 * duration`` that underflows to 0 or
    overflows raises DomainError.
    """
    scale = trace.f0 * trace.duration
    if not (0.0 < scale < math.inf):
        raise DomainError(
            f"f0 * duration must be positive and finite, got {scale}")
    return min(1.0, accomplishment(trace) / scale)
