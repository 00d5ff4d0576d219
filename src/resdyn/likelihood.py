"""Step-transition likelihood of the stochastic model and its grid maximum.

Integrating out the per-step activity and effect draws leaves a mixture
of an atom at zero, two uniform components, and a trapezoid for the
both-agents-fired case.  ``step_log_density`` scores one transition;
``grid_mle`` maximizes the summed log density over an explicit parameter
grid.  With the effectivenesses fixed, that sum splits into a function of
the malware activity plus one of the bonware activity, so the whole grid
is ranked from one-dimensional sums; the cells that can reach its maximum
are then scored exactly, transition by transition, and the best of them
is reported, with a lexicographic tie-break.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    MAX_GRID_POINTS,
    DomainError,
    FunctionalityTrace,
    _check_fields,
    _check_level,
    _Record,
)
from .stochastic import SdeParams, _check_range

# Increments at most this close to zero, relative to f0, are scored
# against the atom of the transition mixture.
ATOM_TOL = 1e-12


def _transitions(f_now, f_next, f0):
    """Each transition F -> F' as ``(F, f0 - F, F' - F, atom, decrease,
    increase)``: an increment within ATOM_TOL * f0 of zero is an atom, any
    other a decrease or an increase by its sign."""
    f_now = np.asarray(f_now, dtype=float)
    f_next = np.asarray(f_next, dtype=float)
    delta = f_next - f_now
    atom = np.abs(delta) <= ATOM_TOL * f0
    return (f_now, f0 - f_now, delta, atom, ~atom & (delta < 0.0),
            ~atom & (delta > 0.0))


# A subnormal width overflows its density to +inf, which is its value.
@np.errstate(over="ignore")
def _transition_log_density(steps, malware_activity, bonware_activity,
                            malware_effectiveness,
                            bonware_effectiveness) -> np.ndarray:
    """Vectorized log density/mass of the :func:`_transitions` table.

    Marginalizing the four per-step draws leaves, for the increment d with
    a = malware_effectiveness * F and b = bonware_effectiveness * gap:

    * an atom at 0 with mass (1-tm)(1-tb),
    * Uniform(-a, 0) with mass tm(1-tb),
    * Uniform(0, b) with mass (1-tm)tb,
    * the difference of two uniforms (a trapezoid on (-a, b)) with mass
      tm*tb.

    Components collapse into the atom where their width is zero (F at
    either bound).  Atoms score log-mass; others score log-density, with
    -inf outside the support.
    """
    f_now, gap, delta, atom, dec, inc = steps
    a = malware_effectiveness * f_now
    b = bonware_effectiveness * gap
    tm = malware_activity
    tb = bonware_activity
    mal_only = tm * (1.0 - tb)
    bon_only = (1.0 - tm) * tb
    both = tm * tb

    a_gone = a <= 0.0
    b_gone = b <= 0.0
    mass = (
        (1.0 - tm) * (1.0 - tb)
        + np.where(a_gone, mal_only, 0.0)
        + np.where(b_gone, bon_only, 0.0)
        + np.where(a_gone & b_gone, both, 0.0)
    )

    a_safe = np.where(a_gone, 1.0, a)
    b_safe = np.where(b_gone, 1.0, b)
    # The decreases malware alone reaches and the increases bonware alone
    # reaches (none where its width is zero); the both-fired case reaches
    # them too, and nothing else off the atom.
    down = dec & (delta > -a)
    up = inc & (delta < b)
    dens = np.where(down, mal_only / a_safe, bon_only / b_safe)
    if both > 0.0:
        # With one width zero, both firing acts as the other agent alone.
        dens += np.where(a_gone, both / b_safe, np.where(
            b_gone, both / a_safe, both * _trapezoid(delta, a_safe, b_safe)))
    dens = np.where(down | up, dens, 0.0)

    with np.errstate(divide="ignore"):
        log_mass = np.log(mass)
        log_dens = np.log(dens)
    return np.where(atom, log_mass, log_dens)


def step_log_density(f_now: float, f_next: float, params: SdeParams,
                     f0: float) -> float:
    """Log density (or log mass at the zero atom) of one step transition.

    Onset times and the interaction cutoff in ``params`` are ignored: the
    density describes a step on which both agents are live.  Increments
    outside the reachable range score -inf rather than raising.
    """
    _check_level("f_now", f0, f_now)
    _check_level("f_next", f0, f_next)
    return float(_transition_log_density(
        _transitions([f_now], [f_next], f0),
        params.malware_activity,
        params.bonware_activity,
        params.malware_effectiveness,
        params.bonware_effectiveness,
    )[0])


class GridAxis(_Record):
    """Inclusive arithmetic range start, start+step, ..., stop."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        _check_fields(self, ("start", "stop", "step"), math.isfinite,
                      "be finite")
        if self.step <= 0.0:
            raise DomainError(f"grid step must be > 0, got {self.step}")
        if self.stop < self.start:
            raise DomainError(
                f"grid stop {self.stop} is below start {self.start}"
            )
        span = (self.stop - self.start) / self.step
        if not span + 1e-9 < MAX_GRID_POINTS:
            raise DomainError(
                f"grid of more than {MAX_GRID_POINTS} points: "
                f"(stop - start) / step = {span:.6g}"
            )

    def _last_index(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9))

    def _last(self) -> float:
        """The largest grid value, as :meth:`values` computes it."""
        return min(self.start + self.step * self._last_index(), self.stop)

    def values(self) -> np.ndarray:
        """start + step * k for each k, clipped to ``stop``."""
        return np.minimum(
            self.start + self.step * np.arange(self._last_index() + 1),
            self.stop)


class MleGrid(_Record):
    """Search ranges for the four stochastic parameters: each axis stays
    in its parameter's range, and the grid holds at most
    ``MAX_GRID_POINTS`` cells."""

    malware_activity: GridAxis
    bonware_activity: GridAxis
    malware_effectiveness: GridAxis
    bonware_effectiveness: GridAxis

    def __post_init__(self):
        # Each range, then the cell count, from the axes' first and last
        # values: no axis is built before the grid is known to be valid.
        for name, axis in vars(self).items():
            _check_range(name, axis.start, axis._last())
        sizes = [axis._last_index() + 1 for axis in vars(self).values()]
        if math.prod(sizes) > MAX_GRID_POINTS:
            raise DomainError(
                f"grid of more than {MAX_GRID_POINTS} cells: "
                + " x ".join(map(str, sizes))
            )

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return tuple(axis.values() for axis in vars(self).values())


class MleResult(_Record):
    """Grid maximum-likelihood estimate: the best cell and its exact
    log likelihood, over a grid of ``n_cells`` cells.

    ``n_infeasible_cells`` counts the cells scoring -inf, where some
    transition lies outside the support of the step density.
    ``on_grid_edge`` says, per parameter in (malware_activity,
    bonware_activity, malware_effectiveness, bonware_effectiveness)
    order, whether the estimate sits at the first or last value of its
    axis, where the grid may cut off a better value.
    """

    params: SdeParams
    log_likelihood: float
    n_cells: int
    n_infeasible_cells: int
    on_grid_edge: tuple[bool, bool, bool, bool]


# Positive trace levels F and gaps f0 - F, and positive activities and
# effectivenesses, within [2**-100, 2**100] keep every intermediate of the
# separable surface and of _transition_log_density a normal float, which
# the rounding margin of grid_mle assumes.  Other inputs are scored
# exhaustively.
_SEPARABLE_RANGE = (2.0**-100, 2.0**100)

# Elements of one (activity value, transition) block of logs.
_LOG_BLOCK = 1 << 16

# Transitions per call of _transition_log_density when a cell is scored
# exactly: its two dozen temporaries then stay near 32 KiB each.
_EXACT_BLOCK = 4096


def _trapezoid(delta, a, b) -> np.ndarray:
    """Both-fired (trapezoid) density of steps with a > 0 and b > 0.

    Where a is absorbed in ``delta + a`` (below half an ulp of an increase
    delta), the overlap is a itself and the density its limit 1/b; the
    quotient would lose it.  Where a * b underflows to 0 the overlap
    (at most about a) is divided by a, then by b.
    """
    reach = delta + a
    absorbed = reach == delta
    overlap = np.minimum(b, reach) - np.maximum(0.0, delta)
    num = np.where(absorbed, 1.0, np.where(overlap > 0.0, overlap, 0.0))
    den = np.where(absorbed, b, a * b)
    under = den == 0.0
    if under.any():
        np.divide(num, a, out=num, where=under)
        den = np.where(under, b, den)
    return num / den


def _side(act, n_moves, n_still, inv, trap, edge):
    """One agent's half of the separable surface, and its terms' magnitudes.

    For each activity t in ``act``: n_moves log t + n_still log(1 - t)
    + sum over j of log((1 - t) inv[j] + t trap[j]) - sum of log edge.
    A count of zero contributes 0, never 0 * log(0).
    """
    total = np.zeros(act.size)
    magnitude = np.zeros(act.size)
    with np.errstate(divide="ignore"):
        for n, x in ((n_moves, act), (n_still, 1.0 - act)):
            if n:
                term = n * np.log(x)
                total += term
                magnitude += np.abs(term)
        rows = max(1, _LOG_BLOCK // max(1, inv.size))
        for lo in range(0, act.size, rows):
            t = act[lo:lo + rows, None]
            logs = np.log((1.0 - t) * inv + t * trap)
            total[lo:lo + rows] += logs.sum(axis=1)
            magnitude[lo:lo + rows] += np.abs(logs, out=logs).sum(axis=1)
    logs = np.log(edge)
    return total - logs.sum(), magnitude + np.abs(logs).sum()


def _separable_surface(steps, axes):
    """Log-likelihood surface of the :func:`_transitions` table ``steps``
    from one-dimensional sums, and its error bound.

    With a = g_m F, b = g_b (f0 - F) and t_m, t_b the activities, each
    transition's density factors into a t_m part times a t_b part:

    * an interior atom: (1 - t_m)(1 - t_b); at F = f0 just 1 - t_m, at
      F = 0 just 1 - t_b;
    * a decrease: t_m ((1 - t_b)/a + t_b T), or t_m/a at F = f0;
    * an increase: t_b ((1 - t_m)/b + t_m T), or t_b/b at F = 0;

    T being the trapezoid density, which depends only on (g_m, g_b).
    (The trace bounds rule out a decrease from 0 and an increase from
    f0.)  So for each effectiveness pair the summed log density is
    A(t_m) + B(t_b), and that pair's block of the surface is an outer
    sum.  The table classifies the transitions; each pair then costs
    n_tm * N_increase + n_tb * N_decrease logs.  A pair under which some
    step leaves the support scores -inf throughout.

    Returns ``(surface, margin)`` with ``|surface - exact| <= margin`` on
    every cell, where exact is ``_transition_log_density(...).sum()`` and
    -inf cells agree exactly, or None outside ``_SEPARABLE_RANGE``.
    """
    f_now, gap, delta, atom, dec, inc = steps
    act_m, act_b, eff_m, eff_b = axes
    lo, hi = _SEPARABLE_RANGE
    for values in (f_now, gap, act_m, act_b, eff_m, eff_b):
        positive = values[values > 0.0]
        if positive.size and not lo <= positive.min() <= positive.max() <= hi:
            return None

    top = gap <= 0.0
    bottom = f_now <= 0.0
    dec_in, inc_in = dec & ~top, inc & ~bottom
    d_dec, f_dec, g_dec = delta[dec_in], f_now[dec_in], gap[dec_in]
    d_inc, f_inc, g_inc = delta[inc_in], f_now[inc_in], gap[inc_in]
    d_top, f_top = delta[dec & top], f_now[dec & top]
    d_bot, g_bot = delta[inc & bottom], gap[inc & bottom]

    n_dec, n_inc = int(dec.sum()), int(inc.sum())
    still_m, still_b = int((atom & ~bottom).sum()), int((atom & ~top).sum())

    surface = np.empty(tuple(axis.size for axis in axes))
    largest = 0.0
    for j, gm in enumerate(eff_m):
        a_dec, a_inc, a_top = gm * f_dec, gm * f_inc, gm * f_top
        for k, gb in enumerate(eff_b):
            b_dec, b_inc, b_bot = gb * g_dec, gb * g_inc, gb * g_bot
            if not ((d_dec > -a_dec).all() and (d_top > -a_top).all()
                    and (d_inc < b_inc).all() and (d_bot < b_bot).all()):
                surface[:, :, j, k] = -np.inf
                continue
            a_part, a_mag = _side(act_m, n_dec, still_m, 1.0 / b_inc,
                                  _trapezoid(d_inc, a_inc, b_inc), a_top)
            b_part, b_mag = _side(act_b, n_inc, still_b, 1.0 / a_dec,
                                  _trapezoid(d_dec, a_dec, b_dec), b_bot)
            surface[:, :, j, k] = a_part[:, None] + b_part[None, :]
            finite_a, finite_b = a_part > -np.inf, b_part > -np.inf
            if finite_a.any() and finite_b.any():
                largest = max(largest, a_mag[finite_a].max()
                              + b_mag[finite_b].max())

    # Rounding bound, with eps = 2**-52, unit roundoff u = eps/2, N
    # transitions and W the sum of the magnitudes of the surface's log
    # terms (W >= the sum of |log density| of the exact scorer, up to
    # rounding).  Within _SEPARABLE_RANGE nothing over- or underflows, so:
    # * each factor (surface) or density (exact) is, relative to one real
    #   value built from the same a, b, T and 1 - t bits, at most three
    #   roundings of nonnegative terms away, plus one where 1 - t and t
    #   must add up to 1: a relative error of at most 4.01u, so its log is
    #   off by at most 2.01eps per transition and side;
    # * np.log is taken to be within 4 ulp, at most 4eps|log x| per log,
    #   8eps W per side;
    # * the exact sum of N terms errs by at most N u W, and the surface's
    #   sums, count products and outer sum, at most N + 8 additions deep,
    #   by at most (N + 8) u W.
    # Together |surface - exact| <= (N + 12) eps W + 4.02 N eps, which
    # (2N + 16) eps (W + N) bounds with a factor of about two to spare.
    n = f_now.size
    margin = (2 * n + 16) * np.finfo(float).eps * (largest + n)
    return surface, margin


# Sample spacings that differ by at most this fraction of the trace's
# largest time magnitude count as one step (see _check_spacing).
_SPACING_TOL = 2.0**-44


def _check_spacing(times: np.ndarray) -> None:
    """Refuse sample ``times`` that are not uniformly spaced, since each
    transition is scored as one simulator step.

    Spacings count as one step when the largest and the smallest differ
    by at most ``_SPACING_TOL * T``, T the larger of the first and last
    times' magnitudes.  That holds for the times t0 + k*h of a uniform
    grid however they were rounded.  With u = 2**-53 the unit roundoff
    (below 2**-1022 the times are multiples of 2**-1074, and what follows
    is exact), a time is off by at most:

    * 4uT when computed as t0 + k*h, as ``simulate`` (t0 = 0) and
      ``np.arange`` compute it: |k*h| <= 2T, so the product errs by at
      most 2uT and the sum by uT more;
    * 5e-15 T + uT when written as a decimal with 15 or more significant
      digits and read back (17 digits, as ``write_trace_csv`` writes, are
      a lossless round trip);
    * the sum of these when computed and then written.

    A time summed one step at a time is instead off by uT per step, but
    each of its spacings is within uT of h.  So each spacing is within
    2 * (5e-15 + 5u) T of h, and the float difference of two neighbours
    rounds by at most 2uT more: the spread is below 2.3e-14 T, and
    2**-44 T is 5.7e-14 T.  The spread itself is exact (two nearby
    spacings subtract exactly), and so is the scaling by a power of two.
    In a trace of 2**24 steps from time 0, spacings that differ by more
    than 2**-20 of the step are refused; so is one 0.5 s interval among
    1 s intervals.
    """
    gaps = np.diff(times)
    low, high = gaps.min().item(), gaps.max().item()
    if high - low > _SPACING_TOL * max(abs(times[0]), abs(times[-1])):
        raise DomainError("sample spacing must be uniform, one simulator step "
                          f"per transition, but it runs from {low!r} to {high!r}")


def grid_mle(trace: FunctionalityTrace, grid: MleGrid) -> MleResult:
    """Grid maximum of the step-transition log likelihood.

    Cells are scored by the summed log density of consecutive-sample
    transitions, each one simulator step, so a trace whose sample spacing
    is not uniform is refused (see :func:`_check_spacing`).  The
    grid is ranked with the separable surface of
    :func:`_separable_surface`, which needs one-dimensional sums per
    effectiveness pair instead of a pass over the trace per cell.  Every
    cell whose surface value lies within twice the surface's rounding
    bound of the surface maximum is then scored exactly, one transition
    at a time (in blocks, with one sum over all terms), and the exact
    maximum is reported: no value moves by more than the bound, so every
    cell that can reach or tie it is among those scored.  Ties resolve to
    the lexicographically smallest cell in (malware_activity,
    bonware_activity, malware_effectiveness, bonware_effectiveness)
    order, so the result is independent of enumeration or scheduling
    order; when every cell scores -inf, that is the first cell.  Inputs
    outside the range the bound assumes are scored exhaustively, with the
    same result.  The grid may hold at most ``MAX_GRID_POINTS`` cells.
    """
    _check_spacing(trace.times)
    axes = grid.axes()
    shape = tuple(axis.size for axis in axes)
    n_cells = math.prod(shape)
    steps = _transitions(trace.values[:-1], trace.values[1:], trace.f0)
    terms = np.empty(trace.values.size - 1)

    def cell(i) -> tuple[float, float, float, float]:
        """(t_m, t_b, g_m, g_b) of the cell with flat index ``i``."""
        return tuple(float(axis[j]) for axis, j in
                     zip(axes, np.unravel_index(i, shape)))

    def exact(i) -> float:
        # Views of the table block by block, then one sum over all terms:
        # the same bits as _transition_log_density(steps, ...).sum().
        values = cell(i)
        for lo in range(0, terms.size, _EXACT_BLOCK):
            hi = lo + _EXACT_BLOCK
            terms[lo:hi] = _transition_log_density(
                [column[lo:hi] for column in steps], *values)
        return float(terms.sum())

    ranked = _separable_surface(steps, axes)
    if ranked is None:
        surface = np.fromiter(map(exact, range(n_cells)), float, n_cells)
        # A cell with both +inf and -inf terms (overflowing densities)
        # sums to NaN; it ranks with the infeasible cells.
        surface[np.isnan(surface)] = -np.inf
        ranked = surface, 0.0
    surface, margin = ranked
    flat = surface.ravel()
    top = flat.max()
    if top == -np.inf:
        best_ll, best = -np.inf, 0
    else:
        best_ll, best = min(
            ((exact(i), i) for i in
             np.flatnonzero(flat >= top - 2.0 * margin).tolist()),
            key=lambda item: (-item[0], item[1]))
    return MleResult(
        params=SdeParams(*cell(best)),
        log_likelihood=best_ll,
        n_cells=n_cells,
        n_infeasible_cells=int(np.count_nonzero(flat == -np.inf)),
        on_grid_edge=tuple(bool(i in (0, size - 1)) for i, size in
                           zip(np.unravel_index(best, shape), shape)),
    )
