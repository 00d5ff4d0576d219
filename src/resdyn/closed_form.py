"""Analytic solutions of the functionality balance equation.

Four model variants are solved exactly:

* constant rates: exponential approach to the level ``f0*b/(m+b)``;
* piecewise-constant rates: the constant solution chained across windows;
* linearly fading rates: an error-function closed form;
* piecewise-linear rates: the linear solution chained across windows.

Every solver returns a :class:`~resdyn.core.FunctionalityTrace` evaluated
on the caller's grid and is validated elsewhere against the fixed-step
RK4 oracle in :mod:`resdyn.core`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConstantImpacts,
    FunctionalityTrace,
    LinearImpacts,
    PiecewiseConstantSchedule,
    PiecewiseLinearSchedule,
    _clamp_to_bounds,
    _validate_grid,
    _validate_initial,
)
from .errors import DomainError, UndefinedSteadyStateError

# Combined fade rate below which the linear model degenerates to constant
# rates; the error-function form divides by omega**1.5 and loses meaning
# as omega -> 0.
OMEGA_MIN = 1e-10


@dataclass(frozen=True)
class SteadyState:
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
    """Limit of the constant model: F_inf = f0*b/(m+b).

    ``relative_decrease`` is the fraction of normal functionality lost,
    (f0 - F_inf)/f0 = m/(m+b).  Raises if both rates are zero, in which
    case the dynamics preserve the initial value instead of forgetting it.
    """
    if not math.isfinite(f0) or f0 <= 0.0:
        raise DomainError(f"f0 must be positive and finite, got {f0}")
    q = impacts.total_impact
    if q == 0.0:
        raise UndefinedSteadyStateError(
            "m = b = 0 preserves the initial value; no unique steady state"
        )
    return SteadyState(
        f_infinity=f0 * impacts.bonware_impact / q,
        relative_decrease=impacts.malware_impact / q,
    )


def _constant_values(impacts: ConstantImpacts, f_start: float, f0: float,
                     tau: np.ndarray) -> np.ndarray:
    """Constant-rate solution at elapsed times tau >= 0 from value f_start."""
    q = impacts.total_impact
    if q == 0.0:
        return np.full(tau.shape, f_start)
    level = f0 * impacts.bonware_impact / q
    return (f_start - level) * np.exp(-q * tau) + level


def solve_constant(impacts: ConstantImpacts, f_init: float, f0: float,
                   grid) -> FunctionalityTrace:
    """Exact solution for constant rates, evaluated on ``grid``.

    F(t) = (f_init - f0*b/q) * exp(-q*(t - t0)) + f0*b/q with q = m + b;
    when both rates are zero the value stays at ``f_init``.
    """
    g = _validate_grid(grid)
    _validate_initial(f_init, f0)
    values = _constant_values(impacts, f_init, f0, g - g[0])
    return FunctionalityTrace(g, _clamp_to_bounds(values, f0), f0)


def _solve_piecewise(schedule, window_values, f_init: float, f0: float,
                     grid) -> FunctionalityTrace:
    """Chain ``window_values`` across the windows of ``schedule``.

    ``window_values(segment, f_start, f0, tau)`` solves one window on its
    local clock tau >= 0.  The value reached at each breakpoint seeds the
    next window, so the curve is continuous across breakpoints by
    construction.  The grid must lie inside the schedule's span.
    """
    g = _validate_grid(grid)
    _validate_initial(f_init, f0)
    span = max(1.0, abs(schedule.start_time), abs(schedule.end_time))
    tol = 1e-9 * span
    if g[0] < schedule.start_time - tol or g[-1] > schedule.end_time + tol:
        raise DomainError(
            f"grid [{g[0]}, {g[-1]}] extends outside the schedule window "
            f"[{schedule.start_time}, {schedule.end_time}]"
        )

    pts = schedule.breakpoints
    n_seg = len(schedule.segments)
    starts = np.empty(n_seg)
    starts[0] = f_init
    for j in range(n_seg - 1):
        width = pts[j + 1] - pts[j]
        starts[j + 1] = float(
            window_values(schedule.segments[j], starts[j], f0,
                          np.array([width]))[0]
        )

    idx = np.clip(np.searchsorted(pts, g, side="right") - 1, 0, n_seg - 1)
    values = np.empty(g.size)
    for j in range(n_seg):
        mask = idx == j
        if not mask.any():
            continue
        tau = np.maximum(g[mask] - pts[j], 0.0)
        values[mask] = window_values(schedule.segments[j], starts[j], f0, tau)
    return FunctionalityTrace(g, _clamp_to_bounds(values, f0), f0)


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
    factor stays O(1) on a window with nonnegative rates.
    """
    lam = impacts.total_intercept
    om = impacts.total_slope
    alpha = impacts.bonware_intercept
    beta = impacts.bonware_slope

    if om <= OMEGA_MIN:
        if max(abs(impacts.bonware_slope), abs(impacts.malware_slope)) > OMEGA_MIN:
            # Opposing slopes that cancel leave a constant combined rate but
            # genuinely time-varying sources; the erf form does not apply and
            # the constant fallback would be wrong.
            raise DomainError(
                "combined impact slope is zero or negative while individual "
                "slopes are not; split the window or use integrate_reference"
            )
        fallback = ConstantImpacts(
            malware_impact=impacts.malware_intercept,
            bonware_impact=impacts.bonware_intercept,
        )
        return _constant_values(fallback, f_start, f0, tau)

    # scipy is imported only on this path, so commands that never solve a
    # linear window do not pay for loading it.
    from scipy.special import erfcx

    big_lam = lam / math.sqrt(2.0 * om)
    x = math.sqrt(om / 2.0) * tau
    # 1/Omega(tau) = exp(-(integral of the combined rate)) <= 1 on a valid
    # window, so nothing here overflows.
    inv_omega = np.exp(-(lam * tau - 0.5 * om * tau * tau))
    coef = (alpha * om - beta * lam) * math.sqrt(math.pi / 2.0) / om ** 1.5
    bracket = erfcx(big_lam - x) - erfcx(big_lam) * inv_omega
    ratio = (
        (f_start / f0) * inv_omega
        + (beta / om) * (1.0 - inv_omega)
        + coef * bracket
    )
    return f0 * ratio


def solve_linear(impacts: LinearImpacts, f_init: float, f0: float,
                 grid) -> FunctionalityTrace:
    """Exact solution for linearly fading rates, evaluated on ``grid``.

    Window-local time starts at ``grid[0]``.  Both rates must stay
    nonnegative across the grid span (checked at the endpoints; linearity
    covers the interior).  When the combined slope is below OMEGA_MIN the
    model degenerates to :func:`solve_constant` on the intercepts.
    """
    g = _validate_grid(grid)
    _validate_initial(f_init, f0)
    duration = float(g[-1] - g[0])
    impacts.validate_window(duration)
    if impacts.total_slope < -OMEGA_MIN:
        raise DomainError(
            "combined impact slope is negative (rates grow over the window); "
            "the error-function form does not apply"
        )
    values = _linear_values(impacts, f_init, f0, g - g[0])
    return FunctionalityTrace(g, _clamp_to_bounds(values, f0), f0)


def solve_piecewise_linear(schedule: PiecewiseLinearSchedule, f_init: float,
                           f0: float, grid) -> FunctionalityTrace:
    """Linear-rate solution chained window by window, continuous at breaks.

    Each window's rates run on its own local clock; the value reached at a
    breakpoint seeds the next window exactly as in
    :func:`solve_piecewise_constant`.
    """
    _require_schedule(schedule, PiecewiseLinearSchedule)
    pts = schedule.breakpoints
    for j, seg in enumerate(schedule.segments):
        width = float(pts[j + 1] - pts[j])
        seg.validate_window(width)
        if seg.total_slope < -OMEGA_MIN:
            raise DomainError(
                f"segment {j}: combined impact slope is negative; "
                "the error-function form does not apply"
            )
    return _solve_piecewise(schedule, _linear_values, f_init, f0, grid)
