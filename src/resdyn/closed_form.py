"""Analytic solutions of the functionality balance equation.

Four model variants are solved exactly:

* constant rates: exponential approach to the level ``f0*b/(m+b)``;
* piecewise-constant rates: the constant solution chained across windows;
* linearly fading rates: an error-function closed form;
* piecewise-linear rates: the linear solution chained across windows.

Every solver returns a :class:`~resdyn.core.FunctionalityTrace` evaluated
on the caller's grid and is validated elsewhere against the fixed-step
RK4 oracle in :mod:`resdyn.oracle`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left

import numpy as np

from .core import (
    DomainError,
    FunctionalityTrace,
    UndefinedSteadyStateError,
    _check_f0,
    _check_level,
    _extremes,
    _Levels,
    _Record,
    _sample_axis,
    _steady_level,
)
from .impacts import (
    ConstantImpacts,
    LinearImpacts,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
)

# Excursion outside [0, f0], relative to f0, tolerated before clamping.
BOUND_SLACK = 1e-12

# Combined fade rate below which the linear model degenerates to constant
# rates; the error-function form divides by omega**1.5 and loses meaning
# as omega -> 0.
OMEGA_MIN = 1e-10


class SteadyState(_Record):
    """Long-run functionality level and the relative loss to malware."""

    f_infinity: float
    relative_decrease: float


def erf(x: float) -> float:
    """Error function, erf(x) = (2/sqrt(pi)) * integral_0^x exp(-u^2) du.

    Delegates to the platform libm via :func:`math.erf`, accurate to about
    one ulp with exact odd symmetry.
    """
    return math.erf(x)


def steady_state(impacts: ConstantImpacts, f0: float) -> SteadyState:
    """Limit of the constant model: F_inf = f0*b/(m+b), never above f0.

    F_inf is evaluated as f0 * (b/(m+b)), the level the constant-rate
    solutions approach; the fraction rounds to at most 1.
    ``relative_decrease`` is the fraction of normal functionality lost,
    (f0 - F_inf)/f0 = m/(m+b).  Raises if both rates are zero, in which
    case the dynamics preserve the initial value instead of forgetting it.
    """
    _check_f0(f0)
    q = impacts.total_impact
    if q == 0.0:
        raise UndefinedSteadyStateError(
            "m = b = 0 preserves the initial value; no unique steady state"
        )
    return SteadyState(
        f_infinity=_steady_level(f0, impacts.bonware_impact, q),
        relative_decrease=impacts.malware_impact / q,
    )


def _exp(x: array) -> array:
    """``x`` with each sample replaced by its exponential, in place.

    numpy's ``exp`` is the closed forms' only numpy operation: everything
    else is IEEE +, -, *, / and comparisons on Python floats, whose bits
    numpy's would match.
    """
    view = np.frombuffer(x)
    np.exp(view, out=view)
    return x


def _clamp_to_bounds(values: _Levels, f0: float) -> _Levels:
    """Clip excursions of at most ``BOUND_SLACK * f0`` outside [0, f0], with
    the bits of ``np.clip(values, 0.0, f0)`` (so -0.0 stays -0.0); anything
    larger, or a NaN, which both ends report, raises DomainError.  The
    result, ``values`` if none needs a clip, is a ``_Levels`` of ``f0``."""
    lo, hi = _extremes(values)
    slack = BOUND_SLACK * f0
    if not (-slack <= lo and hi <= f0 + slack):
        raise DomainError(
            f"solution left [0, f0] by more than {BOUND_SLACK}: range [{lo}, {hi}]"
        )
    if not (0.0 <= lo and hi <= f0):
        values = _Levels("d", (0.0 if v < 0.0 else f0 if v > f0 else v
                               for v in values))
    values.f0 = f0
    return values


def _constant_values(impacts: ConstantImpacts, f_start: float, f0: float,
                     tau: array) -> array:
    """Constant-rate solution at elapsed times tau >= 0 from value f_start."""
    q = impacts.total_impact
    if q == 0.0:
        return array("d", [f_start]) * len(tau)
    level = _steady_level(f0, impacts.bonware_impact, q)
    gap = f_start - level
    decay = _exp(array("d", (-q * t for t in tau)))
    return array("d", (gap * e + level for e in decay))


def solve_constant(impacts: ConstantImpacts, f_init: float, f0: float,
                   grid) -> FunctionalityTrace:
    """Exact solution for constant rates, evaluated on ``grid``.

    F(t) = (f_init - f0*b/q) * exp(-q*(t - t0)) + f0*b/q with q = m + b;
    when both rates are zero the value stays at ``f_init``.  This is the
    one-window case of :func:`solve_piecewise_constant`, the window being
    the grid's span.
    """
    axis = _sample_axis(grid, "grid")
    schedule = PiecewiseConstantSchedule((axis[0], axis[-1]), (impacts,))
    return solve_piecewise_constant(schedule, f_init, f0, axis)


def _solve_piecewise(schedule, window_values, f_init: float, f0: float,
                     grid) -> FunctionalityTrace:
    """Chain ``window_values`` across the windows of ``schedule``.

    ``window_values(segment, f_start, f0, tau)`` solves one window on its
    local clock tau >= 0.  Each window is evaluated at its grid times and,
    last, at its full width; that value seeds the next window, so the curve
    is continuous across breakpoints by construction.  The grid must lie
    inside the schedule's span.
    """
    axis = _sample_axis(grid, "grid")
    _check_level("f_init", f0, f_init)
    span = max(1.0, abs(schedule.start_time), abs(schedule.end_time))
    tol = 1e-9 * span
    if axis[0] < schedule.start_time - tol or axis[-1] > schedule.end_time + tol:
        raise DomainError(
            f"grid [{axis[0]}, {axis[-1]}] extends outside the schedule window "
            f"[{schedule.start_time}, {schedule.end_time}]"
        )

    pts = schedule._breakpoints
    # Window j owns the grid times in [pts[j], pts[j + 1]); the first and
    # last windows also own the times within tol outside the span.
    cuts = [0, *(bisect_left(axis, p) for p in pts[1:-1]), len(axis)]
    values = _Levels("d")
    f_start = float(f_init)
    with memoryview(axis) as view:
        for j, seg in enumerate(schedule.segments):
            start = pts[j]
            # Local times max(g - pts[j], 0), as np.maximum gives them (+0.0
            # for -0.0), then the window's width.
            tau = array("d", (d if (d := g - start) > 0.0 else 0.0
                              for g in view[cuts[j]:cuts[j + 1]]))
            tau.append(pts[j + 1] - start)
            window = window_values(seg, f_start, f0, tau)
            f_start = window.pop()
            values += window
    return FunctionalityTrace(axis, _clamp_to_bounds(values, f0), f0)


def _require_schedule(schedule, kind: type) -> None:
    if not isinstance(schedule, kind):
        raise DomainError(
            f"schedule must be a {kind.__name__}, got {type(schedule).__name__}"
        )


def solve_piecewise_constant(schedule: PiecewiseConstantSchedule, f_init: float,
                             f0: float, grid) -> FunctionalityTrace:
    """Constant-rate solution chained window by window.

    The value at each breakpoint seeds the next window, so the curve is
    continuous across breakpoints by construction.  The grid must lie
    inside the schedule's span.
    """
    _require_schedule(schedule, PiecewiseConstantSchedule)
    return _solve_piecewise(schedule, _constant_values, f_init, f0, grid)


def _linear_values(impacts: LinearImpacts, f_start: float, f0: float,
                   tau: array) -> array:
    """Error-function solution for one linearly-fading window.

    With lam = combined intercept and om = combined slope, the integrating
    factor is Omega(tau) = exp(lam*tau - om*tau^2/2).  The textbook form
    multiplies exp(Lam^2) (Lam = lam/sqrt(2*om)) into an erf difference,
    which overflows for modest lam/sqrt(om); this evaluation folds the
    exponential into scaled complementary error functions, where every
    factor stays O(1) on a window with nonnegative rates.  At om <=
    OMEGA_MIN the intercepts are solved as constant rates.
    """
    lam = impacts.total_intercept
    om = impacts.total_slope
    alpha = impacts.bonware_intercept
    beta = impacts.bonware_slope

    if om <= OMEGA_MIN:
        fallback = ConstantImpacts(
            malware_impact=impacts.malware_intercept,
            bonware_impact=impacts.bonware_intercept,
        )
        return _constant_values(fallback, f_start, f0, tau)

    # Imported only on this path, so commands that never solve a linear
    # window do not load the coefficient table.
    from ._faddeeva import erfcx

    big_lam = lam / math.sqrt(2.0 * om)
    x_scale = math.sqrt(om / 2.0)
    half_om = 0.5 * om
    # 1/Omega(tau) = exp(-(integral of the combined rate)) <= 1 on a valid
    # window, so nothing here overflows.
    inv_omega = _exp(array("d", (-(lam * t - half_om * t * t) for t in tau)))
    coef = (alpha * om - beta * lam) * math.sqrt(math.pi / 2.0) / om ** 1.5
    start = f_start / f0
    share = beta / om
    far = erfcx(big_lam)
    values = array("d")
    for t, v in zip(tau, inv_omega):
        # big_lam - x_scale * t is the combined rate at t over sqrt(2*om),
        # >= 0 on a valid window; it dips below 0 only by roundoff, or at a
        # grid time within the 1e-9 * span tolerance past the last window,
        # where the rates are extrapolated.  It is clamped at +0.0, as
        # np.maximum clamps.
        gap = big_lam - x_scale * t
        near = erfcx(gap if gap > 0.0 else 0.0)
        values.append(
            f0 * (start * v + share * (1.0 - v) + coef * (near - far * v)))
    return values


def solve_linear(impacts: LinearImpacts, f_init: float, f0: float,
                 grid) -> FunctionalityTrace:
    """Exact solution for linearly fading rates, evaluated on ``grid``.

    This is the one-window case of :func:`solve_piecewise_linear`, the
    window being the grid's span, so window-local time starts at
    ``grid[0]`` and the window's checks apply to segment 0.
    """
    axis = _sample_axis(grid, "grid")
    schedule = PiecewiseLinearSchedule((axis[0], axis[-1]), (impacts,))
    return solve_piecewise_linear(schedule, f_init, f0, axis)


def solve_piecewise_linear(schedule: PiecewiseLinearSchedule, f_init: float,
                           f0: float, grid) -> FunctionalityTrace:
    """Linear-rate solution chained window by window, continuous at breaks.

    Each window's rates run on its own local clock; the value reached at a
    breakpoint seeds the next window exactly as in
    :func:`solve_piecewise_constant`.  Both rates must stay nonnegative
    over each window, and its combined slope may be neither negative nor
    near zero while an individual slope is not (a window with a combined
    slope below OMEGA_MIN is solved as constant rates on its intercepts).
    """
    _require_schedule(schedule, PiecewiseLinearSchedule)
    pts = schedule._breakpoints
    for j, seg in enumerate(schedule.segments):
        try:
            seg.validate_window(pts[j + 1] - pts[j])
        except DomainError as exc:
            raise DomainError(f"segment {j}: {exc}") from None
        om = seg.total_slope
        if om < -OMEGA_MIN or (om <= OMEGA_MIN and max(
                abs(seg.bonware_slope), abs(seg.malware_slope)) > OMEGA_MIN):
            raise DomainError(
                f"segment {j}: combined impact slope {om:.6g} is negative or "
                "cancels nonzero individual slopes; the error-function form "
                "does not apply"
            )
    return _solve_piecewise(schedule, _linear_values, f_init, f0, grid)
