"""Discrete stochastic model of the malware/bonware battle.

Each second, malware succeeds with probability ``malware_activity`` and,
when it does, removes a Uniform(0, malware_effectiveness) fraction of the
current functionality; bonware symmetrically restores a uniform fraction
of the gap below normal:

    F[k+1] = F[k] + y_b*e_b*(f0 - F[k]) - y_m*e_m*F[k]

Optional onset times delay either agent, and an interaction cutoff models
bonware disabling malware outright: the malware term is suppressed for
t >= interaction_cutoff.

Randomness comes from a Philox4x64-10 counter-based generator keyed
directly with a 64-bit seed, and ensembles derive per-realization seeds
from a master seed with the splitmix64 mix, so any run is reproducible bit
for bit regardless of evaluation order.  :func:`simulate` computes its
stream itself (``resdyn._philox``, in packed Python integers): step k
takes the four 64-bit words of the block at counter k + 1 as its four
draws, in the order its docstring gives, each word x as the double
(x >> 11) * 2**-53.  That is the stream ``numpy.random.Philox(key=seed)``
feeds ``Generator.random``, from which :mod:`resdyn.ensemble` draws its
realizations.  So this module never imports numpy: the ensemble engine,
``split_seed`` and ``expectation_recursion`` live in that module, which
only the code that calls them compiles.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left

from .core import (
    MAX_GRID_POINTS,
    DomainError,
    FunctionalityTrace,
    _check_fields,
    _check_level,
    _Record,
    _SampleAxis,
)

_MASK64 = (1 << 64) - 1
# A Philox word's top 53 bits times this are its uniform double.
_UNIT = 2.0**-53


def _check_range(name: str, *values: float) -> None:
    """Refuse any of ``values`` outside the range of the stochastic
    parameter ``name``: [0, 1] for an activity (a name ending in
    ``activity``), (0, 1] for an effectiveness."""
    activity = name.endswith("activity")
    for v in values:
        if not ((0.0 <= v if activity else 0.0 < v) and v <= 1.0):
            interval = "[0, 1]" if activity else "(0, 1]"
            raise DomainError(f"{name} must lie in {interval}, got {v}")


class SdeParams(_Record):
    """Parameters of the stochastic step model.

    Activities are per-step success probabilities in [0, 1]; effectiveness
    values are the upper bounds of the uniform effect fractions, in (0, 1].
    Onsets delay an agent (its activity is zero before its onset time) and
    ``interaction_cutoff``, when set, disables malware from that time on.
    """

    malware_activity: float
    bonware_activity: float
    malware_effectiveness: float
    bonware_effectiveness: float
    malware_onset: float = 0.0
    bonware_onset: float = 0.0
    interaction_cutoff: float | None = None

    def __post_init__(self):
        for name in SdeParams._fields[:4]:
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            _check_range(name, v)
        timed = ("malware_onset", "bonware_onset")
        if self.interaction_cutoff is not None:
            timed += ("interaction_cutoff",)
        _check_fields(self, timed, math.isfinite, "be finite")


def _live(params: SdeParams, times) -> tuple[range, range]:
    """The indices of the nondecreasing ``times`` at which malware and
    bonware act: malware from its onset until the interaction cutoff,
    bonware from its onset."""
    start = bisect_left(times, params.malware_onset)
    stop = len(times)
    if params.interaction_cutoff is not None:
        stop = max(start, bisect_left(times, params.interaction_cutoff))
    return range(start, stop), range(bisect_left(times, params.bonware_onset),
                                     len(times))


def _integer(name: str, value) -> int:
    """``value``, an int or another ``numbers.Integral`` such as a numpy
    integer, as a Python int; refuses any other value, a bool included
    (numpy's bool is no Integral), naming the argument ``name``."""
    if isinstance(value, int):
        ok = not isinstance(value, bool)
    else:
        # Loaded already wherever a numpy integer exists: numpy imports it.
        import numbers

        ok = isinstance(value, numbers.Integral)
    if not ok:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed_key(name: str, seed) -> int:
    """The Philox key of the integer ``seed``: ``seed`` mod 2**64, as a
    Python int; refuses any other value, naming the argument ``name``."""
    return _integer(name, seed) & _MASK64


def _check_run(steps: int, dt: float, n: int = 1) -> tuple[int, int]:
    """Refuse a run of ``n`` realizations whose traces could not be
    allocated or timed; a run steps ``n * (steps + 1)`` values and, when
    every step changes, an ensemble stores them all.  Returns ``(steps,
    n)`` as Python ints, whose arithmetic cannot wrap around."""
    steps, n = _integer("steps", steps), _integer("n", n)
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if steps + 1 > MAX_GRID_POINTS:
        raise DomainError(
            f"steps must be <= {MAX_GRID_POINTS - 1}, got {steps}")
    if not math.isfinite(dt) or dt <= 0.0:
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(float(dt) * steps):
        raise DomainError(f"dt must keep the horizon dt * steps finite, "
                          f"got {dt!r} * {steps}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n * (steps + 1) > MAX_GRID_POINTS:
        raise DomainError(f"n must keep n * (steps + 1) <= {MAX_GRID_POINTS}, "
                          f"got {n} * {steps + 1}")
    return steps, n


def _clock(dt: float, steps: int) -> _SampleAxis:
    """The sample times ``dt * k``, k = 0..steps, of a run that
    :func:`_check_run` accepts, as a ``core._SampleAxis``: they are a
    sample axis by construction, which a trace takes unchecked.

    There are steps + 1 >= 2 times, from 0 to ``dt * steps``, which
    ``_check_run`` found finite.  Each k is exact as a float, since
    steps < MAX_GRID_POINTS < 2**24, and rounding is monotone, so no time
    is past the last.  Before rounding, neighbours lie dt apart.  A product
    below 2**-1022 is a multiple of 2**-1074, the subnormal spacing, and so
    is exact; a larger one rounds by at most 2**-53 of itself, and it is
    below dt * 2**24, so by less than dt * 2**-29.  So neighbours stay more
    than dt * (1 - 2**-28) > 0 apart: the times strictly increase.
    """
    dt = float(dt)
    return _SampleAxis("d", [dt * k for k in range(steps + 1)])


def _roll_bound(activity: float) -> int:
    """The least word whose roll misses at ``activity``: a word w draws
    the double (w >> 11) * 2**-53, which is below ``activity`` exactly
    when w >> 11 is below ceil(activity * 2**53), that is, when w is below
    ceil(activity * 2**53) << 11.  Scaling by 2**53 is exact."""
    return math.ceil(activity * 2.0**53) << 11


def simulate(params: SdeParams, f_init: float, f0: float, steps: int,
             dt: float = 1.0, seed: int = 0) -> FunctionalityTrace:
    """One realization of the stochastic model, ``steps`` transitions long.

    The mission clock starts at zero, so sample k sits at time k*dt and
    the transition out of step k is governed by the indicators at time
    k*dt.  Per step the generator is consumed in a fixed order — malware
    activity, malware effect, bonware activity, bonware effect — and the
    effect draws are consumed even on steps where the agent is inactive,
    which keeps the stream aligned across parameter choices.  Uniform
    effect draws are half-open: Uniform[0, effectiveness).

    The draws of step k are the four words, in that order, of the
    Philox4x64-10 block at counter k + 1 under the key ``seed`` mod 2**64,
    each word x taken as the double (x >> 11) * 2**-53.  That is row k of
    numpy's ``Generator(Philox(key=seed)).random((steps, 4))``, the stream
    :func:`resdyn.ensemble.ensemble_average` draws; here it is computed a
    fixed chunk of steps at a time, without importing numpy.  An activity
    draw is compared as its word (see :func:`_roll_bound`), and an effect
    word becomes a double only when its agent hits.

    Identical (params, seed) give bit-identical traces.  ``steps + 1`` may
    not exceed ``MAX_GRID_POINTS``, and ``dt * steps`` must be finite.
    """
    # Imported only on this path: ensembles draw from numpy's C Philox.
    from ._philox import words

    steps, _ = _check_run(steps, dt)
    _check_level("f_init", f0, f_init)
    rows = words(_seed_key("seed", seed), steps)
    times = _clock(dt, steps)
    # Per step, the bound under which each agent's roll word hits; 0, which
    # no word is under, where the agent is off.
    m_bounds, b_bounds = (
        [0] * live.start + [_roll_bound(activity)] * len(live)
        + [0] * (steps - live.stop)
        for live, activity in zip(_live(params, times[:-1]),
                                  (params.malware_activity,
                                   params.bonware_activity)))
    e_m, e_b = params.malware_effectiveness, params.bonware_effectiveness
    f = float(f_init)
    values = array("d", [f])
    for m_bound, b_bound, (m_roll, m_effect, b_roll, b_effect) in zip(
            m_bounds, b_bounds, rows):
        delta = 0.0
        if m_roll < m_bound:
            delta -= (m_effect >> 11) * _UNIT * e_m * f
        if b_roll < b_bound:
            delta += (b_effect >> 11) * _UNIT * e_b * (f0 - f)
        f += delta
        values.append(f)

    return FunctionalityTrace(times, values, f0)


def effective_impact(activity: float, effectiveness: float) -> float:
    """Expected per-step impact of one agent: activity * effectiveness / 2.

    A success scales its target by Uniform(0, effectiveness), whose mean
    is effectiveness/2; multiplying by the success probability bridges the
    stochastic parameters to the per-step impacts of
    :func:`resdyn.ensemble.expectation_recursion`.
    """
    _check_range("activity", activity)
    _check_range("effectiveness", effectiveness)
    return activity * effectiveness / 2.0
