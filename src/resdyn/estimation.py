"""Parameter estimation from functionality traces: the two-phase recipe.

The fast two-phase recipe reads a single incident trace: locate the
switching time where decay turns into recovery (midpoint of the minimum
plateau), count up/down events in each phase to get activity rates, then
solve each phase's two equations for the impact rates in closed form:
pinning the asymptote leaves one exponential equation in the combined
rate, whose root is a logarithm.  Each impact decomposes as
impact = activity * effectiveness / 2, the effectiveness being the upper
bound of the uniform per-event effect (an event averages half its bound).

The likelihood route lives in :mod:`resdyn.likelihood`: a grid maximum
of the step-transition likelihood, ranked with a separable surface and
reported with exact values and a lexicographic tie-break.  The fit JSON
written here carries its result when one is given.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from itertools import repeat
from typing import TYPE_CHECKING

from .core import (
    DomainError,
    FitFailureError,
    FunctionalityTrace,
    NoSwitchError,
    _check_f0,
    _check_fields,
    _Record,
    _steady_level,
    _write_text,
)
from .impacts import ConstantImpacts, PiecewiseConstantSchedule

if TYPE_CHECKING:
    from .likelihood import MleResult

# Samples within this tolerance of the minimum, relative to f0, belong to
# the minimum plateau; consecutive samples closer than this do not count
# as up/down events.
MIN_WINDOW_TOL = 1e-9
EVENT_TOL = 1e-9

# Largest residual norm of a phase fit, relative to f0 (the residuals are
# levels, so they scale with f0).
RESIDUAL_TOL = 1e-10


class FitConfig(_Record):
    """Hyperparameters of the two-phase fitting recipe.

    ``decay_asymptote_fraction`` pins the phase-1 asymptote at that
    fraction of the observed minimum; ``recovery_asymptote`` is the
    normalized level the recovery approaches, and
    ``recovery_level_fraction`` is the fraction of that level the phase-2
    curve must reach at ``recovery_fit_end``.  Activities are counted up
    to ``activity_count_end``.  The two absolute endpoints default to the
    bundled notional incident (100 s and 125 s); override them for other
    missions.
    """

    decay_asymptote_fraction: float = 1.0 - 1.0 / math.e
    recovery_level_fraction: float = 1.0 - math.exp(-4.0)
    recovery_asymptote: float = 0.95
    activity_count_end: float = 100.0
    recovery_fit_end: float = 125.0

    def __post_init__(self):
        _check_fields(self, ("decay_asymptote_fraction",
                             "recovery_level_fraction", "recovery_asymptote"),
                      lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
        _check_fields(self, ("activity_count_end", "recovery_fit_end"),
                      math.isfinite, "be finite")


class ActivityRates(_Record):
    """Event counts per second in each phase (strict up/down moves)."""

    malware_phase1: float
    bonware_phase1: float
    malware_phase2: float
    bonware_phase2: float


class PhaseEstimate(_Record):
    """Fitted impacts of one phase with their activity/effectiveness split."""

    impacts: ConstantImpacts
    malware_activity: float
    bonware_activity: float
    malware_effectiveness: float
    bonware_effectiveness: float


class FitResult(_Record):
    """Two-phase fit: switching time, per-phase estimates, and residuals."""

    switch_time: float
    phase1: PhaseEstimate
    phase2: PhaseEstimate
    schedule: PiecewiseConstantSchedule
    phase1_residual: float
    phase2_residual: float


def detect_switch_time(trace: FunctionalityTrace) -> float:
    """Midpoint of the maximal contiguous window attaining the minimum.

    Samples within MIN_WINDOW_TOL * f0 of the global minimum count as
    part of the plateau.  A minimum touching either end of the trace
    means the trend never reversed, which raises :class:`NoSwitchError`.
    """
    return _switch(trace)[0]


def _switch(trace: FunctionalityTrace) -> tuple[float, float]:
    """The switching time of :func:`detect_switch_time`, and the minimum
    whose window it is the midpoint of."""
    values = trace._values
    v_min = min(values)
    i_min = values.index(v_min)
    top = v_min + MIN_WINDOW_TOL * trace.f0
    left = i_min
    while left - 1 >= 0 and values[left - 1] <= top:
        left -= 1
    right = i_min
    while right + 1 < len(values) and values[right + 1] <= top:
        right += 1
    if left == 0 or right == len(values) - 1:
        raise NoSwitchError(
            "the minimum sits on the trace boundary; no switching time exists"
        )
    return 0.5 * (trace._times[left] + trace._times[right]), v_min


def count_activities(trace: FunctionalityTrace, switch_time: float,
                     count_end: float) -> ActivityRates:
    """Strict up/down event counts per second, split at the switching time.

    An event is a consecutive-sample move larger than EVENT_TOL * f0 and is
    assigned to the time of its later sample; phase 1 covers events up to
    ``switch_time`` inclusive, phase 2 events up to ``count_end``
    inclusive.  Rates divide by the phase durations
    (switch_time - t0) and (count_end - switch_time), so ``count_end``
    may not lie past the trace end, where no event can be seen.
    """
    t0 = trace.start_time
    if not t0 < switch_time < trace.end_time:
        raise DomainError(
            f"switch_time {switch_time} is outside the trace window"
        )
    if count_end <= switch_time:
        raise DomainError(
            f"count_end {count_end} must exceed switch_time {switch_time}"
        )
    if not math.isfinite(count_end):
        raise DomainError(f"count_end must be finite, got {count_end}")
    if count_end > trace.end_time:
        raise DomainError(
            f"count_end {count_end} lies past the trace end {trace.end_time}"
        )
    # Move j ends at sample j + 1; the times are sorted, so each phase's
    # moves are one run of indices.
    values, times = trace._values, trace._times
    tol = EVENT_TOL * trace.f0
    split = bisect_right(times, switch_time) - 1
    stop = bisect_right(times, count_end) - 1

    def counts(lo: int, hi: int) -> tuple[int, int]:
        """Down and up moves among moves ``lo`` to ``hi - 1``."""
        # Most steps do not move, and a move of 0 is no event, so the
        # zeros are dropped before the moves are compared.
        moves = list(filter(None, map(operator.sub, values[lo + 1:hi + 1],
                                      values[lo:hi])))
        return (sum(map(operator.lt, moves, repeat(-tol))),
                sum(map(operator.gt, moves, repeat(tol))))

    down1, up1 = counts(0, split)
    down2, up2 = counts(split, stop)
    dur1 = switch_time - t0
    dur2 = count_end - switch_time
    return ActivityRates(
        malware_phase1=down1 / dur1,
        bonware_phase1=up1 / dur1,
        malware_phase2=down2 / dur2,
        bonware_phase2=up2 / dur2,
    )


def _solve_phase(phase: str, start: float, end: float, level: float,
                 horizon: float, f0: float) -> tuple[ConstantImpacts, float]:
    """Closed-form constant impacts of one phase, checked by its residual.

    The asymptote f0*b/(m+b) is pinned at ``level``; the constant-rate
    trajectory from ``start`` must then reach ``end`` after ``horizon``
    seconds, which fixes q = m + b = -log((end - L)/(start - L))/horizon,
    hence b = L*q/f0 and m = q - b.  Both equations are evaluated again
    at the result; a residual norm above RESIDUAL_TOL * f0 (or NaN), or a
    negative rate, raises :class:`FitFailureError`.
    """
    ratio = (end - level) / (start - level)
    q0 = -math.log(ratio) / horizon
    b = level * q0 / f0
    m = q0 - b
    # The check evaluates the rates as returned, so q is rebuilt from them.
    q = m + b
    fitted_level = _steady_level(f0, b, q)
    decay = math.exp(-q * horizon)
    residuals = (
        fitted_level - level,
        (start - fitted_level) * decay + fitted_level - end,
    )
    norm = math.hypot(*residuals)
    if not norm <= RESIDUAL_TOL * f0 or m < 0.0 or b < 0.0:
        # Only a refusal loads numpy, for its residuals array.
        import numpy as np

        raise FitFailureError(
            f"{phase}-phase system unsolved (residual {norm:.3g}, "
            f"rates m={m}, b={b})",
            residuals=np.array(residuals),
        )
    return ConstantImpacts(malware_impact=m, bonware_impact=b), norm


def fit_phase1(min_value: float, switch_elapsed: float, f_init: float,
               f0: float, config: FitConfig | None = None
               ) -> tuple[ConstantImpacts, float]:
    """Impacts of the decay phase from the data minimum and switch time.

    Solves the two-equation system: (i) the decay asymptote f0*b/(m+b)
    equals ``decay_asymptote_fraction * min_value``, and (ii) the
    constant-rate trajectory from ``f_init`` passes through ``min_value``
    after ``switch_elapsed`` seconds.  Pinning the asymptote by (i) makes
    (ii) a scalar equation in q = m + b with a closed-form root.  Returns
    the fitted impacts and the residual norm of both equations.
    """
    cfg = config or FitConfig()
    _check_f0(f0)
    if not 0.0 < min_value < f_init <= f0:
        raise DomainError(
            f"need 0 < min_value < f_init <= f0, got "
            f"min_value={min_value}, f_init={f_init}, f0={f0}"
        )
    if not (math.isfinite(switch_elapsed) and switch_elapsed > 0.0):
        raise DomainError(
            f"switch_elapsed must be finite and > 0, got {switch_elapsed}"
        )
    return _solve_phase("decay", f_init, min_value,
                        cfg.decay_asymptote_fraction * min_value,
                        switch_elapsed, f0)


def fit_phase2(min_value: float, switch_time: float, f0: float,
               config: FitConfig | None = None
               ) -> tuple[ConstantImpacts, float]:
    """Impacts of the recovery phase after the switching time.

    Solves: (i) the recovery asymptote f0*b/(m+b) equals
    ``recovery_asymptote * f0``, and (ii) the trajectory climbing from
    ``min_value`` reaches ``recovery_level_fraction`` of that asymptote at
    ``recovery_fit_end`` (an absolute mission time).  Solved in closed
    form as in :func:`fit_phase1`.
    """
    cfg = config or FitConfig()
    _check_f0(f0)
    if not 0.0 < min_value < f0:
        raise DomainError(f"min_value must lie in (0, f0), got {min_value}")
    horizon = cfg.recovery_fit_end - switch_time
    if not math.isfinite(horizon):
        raise DomainError(
            f"recovery_fit_end - switch_time must be finite, got {horizon} "
            f"(switch_time={switch_time})"
        )
    if horizon <= 0.0:
        raise DomainError(
            f"recovery_fit_end {cfg.recovery_fit_end} must exceed the "
            f"switch time {switch_time}"
        )
    level_target = cfg.recovery_asymptote * f0
    reach_target = cfg.recovery_level_fraction * level_target
    if level_target <= min_value:
        raise FitFailureError(
            f"recovery asymptote {level_target} does not exceed the data "
            f"minimum {min_value}"
        )
    if reach_target <= min_value:
        raise FitFailureError(
            f"recovery target at recovery_fit_end ({reach_target}) does not "
            f"exceed the data minimum {min_value}"
        )
    return _solve_phase("recovery", min_value, reach_target, level_target,
                        horizon, f0)


def _max_effectiveness(impact: float, activity: float) -> float:
    """Invert impact = activity * effectiveness / 2.

    The effectiveness is the uniform bound of the per-event effect, so an
    event averages half of it.  With no counted events the decomposition
    is undefined and NaN is returned.
    """
    if activity <= 0.0:
        return math.nan
    return 2.0 * impact / activity


def _phase_estimate(impacts: ConstantImpacts, malware_activity: float,
                    bonware_activity: float) -> PhaseEstimate:
    return PhaseEstimate(
        impacts, malware_activity, bonware_activity,
        _max_effectiveness(impacts.malware_impact, malware_activity),
        _max_effectiveness(impacts.bonware_impact, bonware_activity),
    )


def fit_piecewise(trace: FunctionalityTrace,
                  config: FitConfig | None = None) -> FitResult:
    """Full two-phase recipe: switch detection, counting, and both fits.

    The returned schedule has two windows split at the switching time and
    spans the trace; residual norms of both solved systems are reported in
    the result.  ``activity_count_end`` and ``recovery_fit_end`` must not
    lie past the trace end (equality is allowed), and
    ``activity_count_end`` must exceed the switching time; otherwise
    DomainError names the field.
    """
    cfg = config or FitConfig()
    switch_time, min_value = _switch(trace)
    for name in ("activity_count_end", "recovery_fit_end"):
        end = getattr(cfg, name)
        if end > trace.end_time:
            raise DomainError(
                f"{name} {end} lies past the trace end {trace.end_time}"
            )
    if cfg.activity_count_end <= switch_time:
        raise DomainError(
            f"activity_count_end {cfg.activity_count_end} must exceed "
            f"switch_time {switch_time}"
        )
    rates = count_activities(trace, switch_time, cfg.activity_count_end)
    f_init = trace._values[0]
    impacts1, res1 = fit_phase1(
        min_value, switch_time - trace.start_time, f_init, trace.f0, cfg
    )
    impacts2, res2 = fit_phase2(min_value, switch_time, trace.f0, cfg)
    phase1 = _phase_estimate(impacts1, rates.malware_phase1,
                             rates.bonware_phase1)
    phase2 = _phase_estimate(impacts2, rates.malware_phase2,
                             rates.bonware_phase2)
    schedule = PiecewiseConstantSchedule(
        breakpoints=[trace.start_time, switch_time, trace.end_time],
        segments=(impacts1, impacts2),
    )
    return FitResult(
        switch_time=switch_time,
        phase1=phase1,
        phase2=phase2,
        schedule=schedule,
        phase1_residual=res1,
        phase2_residual=res2,
    )


def _clean_float(x: float):
    return None if math.isnan(x) else x


def fit_result_to_dict(result: FitResult, mle: MleResult | None = None
                       ) -> dict:
    """JSON-ready view of a :class:`FitResult`, and of a grid MLE if given.

    The keys of a phase, a segment and the MLE's parameters are their
    records' field names, in field order, and are part of the output
    contract; undefined effectiveness values (phases with no counted
    events) serialize as null.  The MLE, when given, goes last under
    ``mle``: its parameters, log likelihood and cell count.  An MLE whose
    log likelihood is not finite, where no grid cell can produce the
    trace, raises :class:`FitFailureError`.
    """
    if mle is not None and not math.isfinite(mle.log_likelihood):
        raise FitFailureError(
            f"none of the {mle.n_cells} grid cells can produce the trace")

    def fields(record, names=None) -> dict:
        return {name: _clean_float(getattr(record, name))
                for name in names or record._fields}

    def phase(p: PhaseEstimate) -> dict:
        return {**fields(p.impacts), **fields(p, p._fields[1:])}

    doc = {
        "switch_time": result.switch_time,
        "phase1": phase(result.phase1),
        "phase2": phase(result.phase2),
        "schedule": {
            "breakpoints": result.schedule._breakpoints.tolist(),
            "segments": list(map(fields, result.schedule.segments)),
        },
        "diagnostics": {
            "phase1_residual": result.phase1_residual,
            "phase2_residual": result.phase2_residual,
        },
    }
    if mle is not None:
        doc["mle"] = {
            **fields(mle.params, mle.params._fields[:4]),
            "log_likelihood": mle.log_likelihood,
            "n_cells": mle.n_cells,
        }
    return doc


def write_fit_result_json(result: FitResult, path,
                          mle: MleResult | None = None) -> None:
    _write_text(path, (json.dumps(fit_result_to_dict(result, mle), indent=2,
                                  allow_nan=False), "\n"))
