"""Domain types, resilience metrics, and the reference integrator.

The objects here model the functionality F(t) of a system under attack:
malware removes functionality in proportion to what is left, while the
defending ensemble ("bonware") restores it in proportion to the gap below
the normal level f0,

    dF/dt = (f0 - F(t)) * b(t) - F(t) * m(t),

with both impact rates nonnegative, so that 0 <= F(t) <= f0 always holds.
All times are in seconds and every value type is immutable after
construction.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

import numpy as np

from .errors import DomainError, InvalidTraceError

# Fixed step ceiling of the reference integrator; a fixed step keeps the
# oracle bit-reproducible run to run.
RK4_MAX_STEP = 0.01

# Numerical excursion outside [0, f0] tolerated before clamping.
BOUND_SLACK = 1e-12

# Most points a grid built from configured start, stop and step may have;
# the count is checked before anything is allocated.
MAX_GRID_POINTS = 10**7


def _readonly(x) -> np.ndarray:
    arr = np.array(x, dtype=float)
    arr.flags.writeable = False
    return arr


def _check_fields(obj, names, ok, requirement: str) -> None:
    """Store each named field of a frozen dataclass as a float.

    A value failing ``ok`` raises DomainError
    ``"<name> must <requirement>, got <value>"``; fields are checked in
    the order given.
    """
    for name in names:
        v = float(getattr(obj, name))
        object.__setattr__(obj, name, v)
        if not ok(v):
            raise DomainError(f"{name} must {requirement}, got {v}")


@dataclass(frozen=True)
class FunctionalityTrace:
    """A time-ordered sampling of functionality, with its normal level.

    ``times`` must be strictly increasing with at least two samples and
    ``values`` must stay within ``[0, f0]``.  Instances are immutable
    (arrays are marked read-only) and safe to share across threads.
    """

    times: np.ndarray
    values: np.ndarray
    f0: float = 1.0

    def __post_init__(self):
        times = _readonly(self.times)
        values = _readonly(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "f0", float(self.f0))
        if times.ndim != 1 or values.ndim != 1:
            raise InvalidTraceError("times and values must be one-dimensional")
        if times.size != values.size:
            raise InvalidTraceError(
                f"times and values differ in length: {times.size} vs {values.size}"
            )
        if times.size < 2:
            raise InvalidTraceError("a trace needs at least two samples")
        if not np.isfinite(times).all() or not np.isfinite(values).all():
            raise InvalidTraceError("times and values must be finite")
        if not math.isfinite(self.f0) or self.f0 <= 0.0:
            raise InvalidTraceError(f"f0 must be positive and finite, got {self.f0}")
        if not (np.diff(times) > 0.0).all():
            raise InvalidTraceError("times must be strictly increasing")
        if values.min() < 0.0 or values.max() > self.f0:
            raise InvalidTraceError("values must lie within [0, f0]")

    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class ConstantImpacts:
    """Constant per-second impact rates of malware and bonware."""

    malware_impact: float
    bonware_impact: float

    def __post_init__(self):
        _check_fields(self, ("malware_impact", "bonware_impact"),
                      lambda v: math.isfinite(v) and v >= 0.0,
                      "be finite and >= 0")

    @property
    def total_impact(self) -> float:
        """Combined rate m + b, which sets the approach speed to steady state."""
        return self.malware_impact + self.bonware_impact


@dataclass(frozen=True)
class _PiecewiseSchedule:
    """Impacts on consecutive windows [t_j, t_{j+1}), one segment each.

    Subclasses set ``_segment_type``, the impacts type every segment must
    be an instance of.
    """

    breakpoints: np.ndarray
    segments: tuple

    _segment_type: ClassVar[type]

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        kind = self._segment_type
        for seg in segments:
            if not isinstance(seg, kind):
                raise DomainError(f"segments must be {kind.__name__} instances")
        pts = _readonly(self.breakpoints)
        if pts.ndim != 1 or pts.size < 2:
            raise DomainError("a schedule needs at least two breakpoints")
        if not np.isfinite(pts).all():
            raise DomainError("breakpoints must be finite")
        if not (np.diff(pts) > 0.0).all():
            raise DomainError("breakpoints must be strictly increasing")
        if pts.size != len(segments) + 1:
            raise DomainError(
                f"expected {pts.size - 1} segments for {pts.size} breakpoints, "
                f"got {len(segments)}"
            )
        object.__setattr__(self, "breakpoints", pts)

    @property
    def start_time(self) -> float:
        return float(self.breakpoints[0])

    @property
    def end_time(self) -> float:
        return float(self.breakpoints[-1])

    def segment_index(self, t: float) -> int:
        """Index of the window owning time t; the final right endpoint
        belongs to the last window."""
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(max(idx, 0), len(self.segments) - 1)


class PiecewiseConstantSchedule(_PiecewiseSchedule):
    """Constant impacts on consecutive windows [t_j, t_{j+1})."""

    _segment_type = ConstantImpacts


@dataclass(frozen=True)
class LinearImpacts:
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
        if self.bonware_intercept < 0.0:
            raise DomainError("bonware_intercept must be >= 0")
        if self.malware_intercept < 0.0:
            raise DomainError("malware_intercept must be >= 0")

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
        if self.bonware_at(duration) < 0.0:
            raise DomainError(
                f"bonware impact goes negative within {duration} s "
                f"(reaches {self.bonware_at(duration):.6g})"
            )
        if self.malware_at(duration) < 0.0:
            raise DomainError(
                f"malware impact goes negative within {duration} s "
                f"(reaches {self.malware_at(duration):.6g})"
            )


class PiecewiseLinearSchedule(_PiecewiseSchedule):
    """Linearly varying impacts on consecutive windows, local time per window."""

    _segment_type = LinearImpacts


def accomplishment(trace: FunctionalityTrace) -> float:
    """Cumulative accomplishment: the integral of functionality over time.

    Uses trapezoidal quadrature on the trace's own grid, so the metric is
    first-order correct on irregular grids.
    """
    return float(np.trapezoid(trace.values, trace.times))


def auc_resilience(trace: FunctionalityTrace) -> float:
    """Average functionality over the mission divided by the normal level.

    Dimensionless, in [0, 1]; 1.0 means no functionality was lost.
    """
    return accomplishment(trace) / (trace.f0 * trace.duration)


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise DomainError("grid must be one-dimensional with at least two times")
    if not np.isfinite(g).all():
        raise DomainError("grid times must be finite")
    if not (np.diff(g) > 0.0).all():
        raise DomainError("grid times must be strictly increasing")
    return g


def _validate_initial(f_init: float, f0: float) -> None:
    if not math.isfinite(f0) or f0 <= 0.0:
        raise DomainError(f"f0 must be positive and finite, got {f0}")
    if not math.isfinite(f_init) or not 0.0 <= f_init <= f0:
        raise DomainError(f"f_init must lie in [0, f0], got {f_init}")


def _clamp_to_bounds(values: np.ndarray, f0: float) -> np.ndarray:
    """Clip roundoff-level excursions; anything larger is a genuine bug."""
    lo = float(values.min())
    hi = float(values.max())
    if lo < -BOUND_SLACK or hi > f0 + BOUND_SLACK:
        raise DomainError(
            f"solution left [0, f0] by more than {BOUND_SLACK}: range [{lo}, {hi}]"
        )
    return np.clip(values, 0.0, f0)


def integrate_reference(bonware_fn, malware_fn, f_init, f0, grid) -> FunctionalityTrace:
    """Integrate dF/dt = (f0 - F) b(t) - F m(t) with fixed-step RK4.

    This is the numerical oracle the closed-form solvers are checked
    against.  Each grid interval is subdivided into equal steps no longer
    than RK4_MAX_STEP, so results are bit-reproducible.  Sampling a
    negative impact rate raises DomainError.
    """
    g = _validate_grid(grid)
    _validate_initial(f_init, f0)

    def rates(t: float) -> tuple[float, float]:
        b = float(bonware_fn(t))
        m = float(malware_fn(t))
        if b < 0.0:
            raise DomainError(f"bonware impact is negative at t={t}: {b}")
        if m < 0.0:
            raise DomainError(f"malware impact is negative at t={t}: {m}")
        return b, m

    values = np.empty(g.size)
    f = float(f_init)
    values[0] = f
    for i in range(g.size - 1):
        t = g[i]
        dt = g[i + 1] - g[i]
        nsub = max(1, math.ceil(dt / RK4_MAX_STEP - 1e-12))
        h = dt / nsub
        for j in range(nsub):
            t0 = t + j * h
            b0, m0 = rates(t0)
            b1, m1 = rates(t0 + 0.5 * h)
            b2, m2 = rates(t0 + h)
            k1 = (f0 - f) * b0 - f * m0
            y2 = f + 0.5 * h * k1
            k2 = (f0 - y2) * b1 - y2 * m1
            y3 = f + 0.5 * h * k2
            k3 = (f0 - y3) * b1 - y3 * m1
            y4 = f + h * k3
            k4 = (f0 - y4) * b2 - y4 * m2
            f += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        values[i + 1] = f

    return FunctionalityTrace(g, _clamp_to_bounds(values, f0), f0)


def _write_text(path, chunks) -> None:
    """Write the strings in ``chunks`` to ``path`` as UTF-8 with LF endings.

    When ``path`` is absent or a regular file, the chunks go to a new file
    beside it, which then replaces ``path`` in one step: a failed write
    leaves an existing file untouched and no partial output behind.  The
    new file is created with ``open(..., "x")`` and so gets the usual
    umask-derived mode.  Anything else that already exists at ``path`` --
    a symlink, a device such as ``/dev/stdout``, a pipe -- is written in
    place, through the link, so it is never replaced by a regular file.
    """
    path = os.fspath(path)
    try:
        atomic = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        atomic = True
    if atomic:
        tmp, mode = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp", "x"
    else:
        tmp, mode = path, "w"
    fh = open(tmp, mode, encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(chunks)
        if atomic:
            os.replace(tmp, path)
    except BaseException:
        if atomic:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


TRACE_CSV_HEADER = "time,functionality"


def write_trace_csv(trace: FunctionalityTrace, path) -> None:
    """Write a trace as CSV: ``# f0=`` metadata, header, one sample per line.

    Numbers carry 17 significant digits so a read-back reproduces the
    exact float values.  UTF-8, LF line endings.
    """
    rows = (f"{t:.17g},{v:.17g}\n" for t, v in zip(trace.times, trace.values))
    _write_text(path, chain((f"# f0={trace.f0:.17g}\n{TRACE_CSV_HEADER}\n",),
                            rows))


def read_trace_csv(path) -> FunctionalityTrace:
    """Read a trace CSV written by :func:`write_trace_csv` (or compatible).

    Comment lines start with ``#``; a ``# f0=<value>`` comment sets the
    normal functionality (default 1.0).  The header line must be
    ``time,functionality``.
    """
    f0 = 1.0
    times: list[float] = []
    values: list[float] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("f0="):
                    try:
                        f0 = float(body[3:])
                    except ValueError as exc:
                        raise InvalidTraceError(
                            f"{path}:{lineno}: bad f0 metadata: {body!r}"
                        ) from exc
                continue
            if not saw_header:
                if line != TRACE_CSV_HEADER:
                    raise InvalidTraceError(
                        f"{path}:{lineno}: expected header "
                        f"{TRACE_CSV_HEADER!r}, got {line!r}"
                    )
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InvalidTraceError(f"{path}:{lineno}: expected two fields")
            try:
                times.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError as exc:
                raise InvalidTraceError(
                    f"{path}:{lineno}: non-numeric sample {line!r}"
                ) from exc
    if not saw_header:
        raise InvalidTraceError(f"{path}: missing {TRACE_CSV_HEADER!r} header")
    return FunctionalityTrace(np.array(times), np.array(values), f0)
