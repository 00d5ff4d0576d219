"""Impact rates and their piecewise schedules.

The rates b(t) and m(t) of the balance in :mod:`resdyn.core`: constant or
linearly changing over one window, and schedules of consecutive windows,
one set of rates each.  The closed-form solvers, the two-phase fit and the
ensemble's exact mean take and return them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

from .core import (
    DomainError,
    _check_fields,
    _readonly,
    _Record,
    _sample_axis,
    _SampleAxis,
)

if TYPE_CHECKING:
    import numpy as np


def _check_sum(obj, total: str, fields: str) -> None:
    """Refuse a record whose property ``total``, the sum ``fields`` of its
    finite fields, overflows: ``"<total> = <fields> must be finite, got
    <value>"``."""
    v = getattr(obj, total)
    if not math.isfinite(v):
        raise DomainError(f"{total} = {fields} must be finite, got {v}")


class ConstantImpacts(_Record):
    """Constant per-second impact rates of malware and bonware."""

    malware_impact: float
    bonware_impact: float

    def __post_init__(self):
        _check_fields(self, ("malware_impact", "bonware_impact"),
                      lambda v: math.isfinite(v) and v >= 0.0,
                      "be finite and >= 0")
        _check_sum(self, "total_impact", "malware_impact + bonware_impact")

    @property
    def total_impact(self) -> float:
        """Combined rate m + b, which sets the approach speed to steady state."""
        return self.malware_impact + self.bonware_impact


class _PiecewiseSchedule(_Record, eq=False):
    """Impacts on consecutive windows [t_j, t_{j+1}), one segment each.

    Subclasses set ``_segment_type``, the impacts type every segment must
    be an instance of.  They inherit the record's frozen attributes, so
    none of their attributes can be rebound.  ``breakpoints`` is a read-only
    view, as a trace's arrays are.  Schedules compare and hash by
    identity, as traces do.
    """

    _breakpoints: _SampleAxis
    segments: tuple

    _segment_type: ClassVar[type]

    def __init__(self, breakpoints, segments):
        segments = tuple(segments)
        kind = self._segment_type
        for seg in segments:
            if not isinstance(seg, kind):
                raise DomainError(f"segments must be {kind.__name__} instances")
        pts = _sample_axis(breakpoints, "breakpoints")
        if len(pts) != len(segments) + 1:
            raise DomainError(
                f"expected {len(pts) - 1} segments for {len(pts)} breakpoints, "
                f"got {len(segments)}"
            )
        object.__setattr__(self, "_breakpoints", pts)
        object.__setattr__(self, "segments", segments)

    @cached_property
    def breakpoints(self) -> np.ndarray:
        return _readonly(self._breakpoints)

    @property
    def start_time(self) -> float:
        return self._breakpoints[0]

    @property
    def end_time(self) -> float:
        return self._breakpoints[-1]

    def segment_index(self, t: float) -> int:
        """Index of the window owning time t; the final right endpoint
        belongs to the last window."""
        idx = bisect_right(self._breakpoints, t) - 1
        return min(max(idx, 0), len(self.segments) - 1)


class PiecewiseConstantSchedule(_PiecewiseSchedule, eq=False):
    """Constant impacts on consecutive windows [t_j, t_{j+1})."""

    _segment_type = ConstantImpacts


class LinearImpacts(_Record):
    """Impact rates that change linearly over a window.

    Rates are functions of window-local time tau (seconds since the
    window start): ``bonware(tau) = bonware_intercept - bonware_slope*tau``
    and likewise for malware, so a positive slope models an impact that
    fades.  Both rates must remain nonnegative over the window they are
    solved on.
    """

    bonware_intercept: float
    bonware_slope: float
    malware_intercept: float
    malware_slope: float

    def __post_init__(self):
        _check_fields(self, ("bonware_intercept", "bonware_slope",
                             "malware_intercept", "malware_slope"),
                      math.isfinite, "be finite")
        _check_fields(self, ("bonware_intercept", "malware_intercept"),
                      lambda v: v >= 0.0, "be >= 0")
        _check_sum(self, "total_intercept",
                   "bonware_intercept + malware_intercept")
        _check_sum(self, "total_slope", "bonware_slope + malware_slope")

    @property
    def total_intercept(self) -> float:
        """Combined starting rate (malware + bonware)."""
        return self.bonware_intercept + self.malware_intercept

    @property
    def total_slope(self) -> float:
        """Combined fade rate; positive when the overall impact decays."""
        return self.bonware_slope + self.malware_slope

    def bonware_at(self, tau: float) -> float:
        return self.bonware_intercept - self.bonware_slope * tau

    def malware_at(self, tau: float) -> float:
        return self.malware_intercept - self.malware_slope * tau

    def validate_window(self, duration: float) -> None:
        """Require both rates nonnegative on [0, duration].

        The rates are linear, so endpoint nonnegativity implies the whole
        interval.
        """
        for agent, rate in (("bonware", self.bonware_at(duration)),
                            ("malware", self.malware_at(duration))):
            if rate < 0.0:
                raise DomainError(
                    f"{agent} impact goes negative within {duration} s "
                    f"(reaches {rate:.6g})"
                )


class PiecewiseLinearSchedule(_PiecewiseSchedule, eq=False):
    """Linearly varying impacts on consecutive windows, local time per window."""

    _segment_type = LinearImpacts
