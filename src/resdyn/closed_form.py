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

import numpy as np

from .core import (
    DomainError,
    FunctionalityTrace,
    UndefinedSteadyStateError,
    _check_f0,
    _check_level,
    _clamp_to_bounds,
    _readonly,
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


def _constant_values(impacts: ConstantImpacts, f_start: float, f0: float,
                     tau: np.ndarray) -> np.ndarray:
    """Constant-rate solution at elapsed times tau >= 0 from value f_start."""
    q = impacts.total_impact
    if q == 0.0:
        return np.full(tau.shape, f_start)
    level = _steady_level(f0, impacts.bonware_impact, q)
    return (f_start - level) * np.exp(-q * tau) + level


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
    g = _readonly(axis)
    _check_level("f_init", f0, f_init)
    span = max(1.0, abs(schedule.start_time), abs(schedule.end_time))
    tol = 1e-9 * span
    if g[0] < schedule.start_time - tol or g[-1] > schedule.end_time + tol:
        raise DomainError(
            f"grid [{g[0]}, {g[-1]}] extends outside the schedule window "
            f"[{schedule.start_time}, {schedule.end_time}]"
        )

    pts = schedule.breakpoints
    # Window j owns the grid times in [pts[j], pts[j + 1]); the first and
    # last windows also own the times within tol outside the span.
    cuts = np.concatenate(([0], np.searchsorted(g, pts[1:-1]), [g.size]))
    values = np.empty(g.size)
    f_start = float(f_init)
    for j, seg in enumerate(schedule.segments):
        lo, hi = cuts[j], cuts[j + 1]
        tau = np.append(np.maximum(g[lo:hi] - pts[j], 0.0), pts[j + 1] - pts[j])
        window = window_values(seg, f_start, f0, tau)
        values[lo:hi] = window[:-1]
        f_start = float(window[-1])
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
                   tau: np.ndarray) -> np.ndarray:
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
    x = math.sqrt(om / 2.0) * tau
    # 1/Omega(tau) = exp(-(integral of the combined rate)) <= 1 on a valid
    # window, so nothing here overflows.
    inv_omega = np.exp(-(lam * tau - 0.5 * om * tau * tau))
    coef = (alpha * om - beta * lam) * math.sqrt(math.pi / 2.0) / om ** 1.5
    # big_lam - x is the combined rate at tau over sqrt(2*om), >= 0 on a
    # valid window; it dips below 0 only by roundoff, or at a grid time
    # within the 1e-9 * span tolerance past the last window, where the
    # rates are extrapolated.
    bracket = (erfcx(np.maximum(big_lam - x, 0.0))
               - erfcx(big_lam) * inv_omega)
    ratio = (
        (f_start / f0) * inv_omega
        + (beta / om) * (1.0 - inv_omega)
        + coef * bracket
    )
    return f0 * ratio


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
    pts = schedule.breakpoints
    for j, seg in enumerate(schedule.segments):
        try:
            seg.validate_window(float(pts[j + 1] - pts[j]))
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
