"""Shared fixtures, reference oracles and Hypothesis settings for the tests."""

import math
import os
from decimal import Decimal, localcontext
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from resdyn import (
    ConstantImpacts,
    FunctionalityTrace,
    InvalidTraceError,
    LinearImpacts,
    SdeParams,
    integrate_reference,
    read_trace_csv,
    simulate,
    split_seed,
)
from resdyn.core import TRACE_CSV_HEADER
from resdyn.likelihood import ATOM_TOL, _trapezoid

REPO_ROOT = Path(__file__).resolve().parent.parent
NOTIONAL_CSV = REPO_ROOT / "data" / "notional.csv"

# Tests that run ``python -m resdyn`` in a subprocess import the checkout's
# package, as the test process does through pytest's ``pythonpath``.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)


# Property tests run the same examples on every run, with no time limit
# per example and no example database kept between runs.
settings.register_profile("resdyn", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("resdyn")


@pytest.fixture(scope="session")
def notional_trace():
    return read_trace_csv(NOTIONAL_CSV)


def reference_piecewise(schedule, f_init, f0, grid):
    """RK4 oracle for piecewise schedules, on window-local clocks.

    Integrates window by window so the fixed-step method never straddles
    a rate discontinuity; the grid must contain every breakpoint.  A
    constant segment runs as a linear one with zero slopes, which samples
    the same rates exactly.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.empty(grid.size)
    f = float(f_init)
    pts = schedule.breakpoints
    for j, seg in enumerate(schedule.segments):
        if isinstance(seg, ConstantImpacts):
            seg = LinearImpacts(seg.bonware_impact, 0.0, seg.malware_impact, 0.0)
        i_lo = int(np.searchsorted(grid, pts[j]))
        i_hi = int(np.searchsorted(grid, pts[j + 1]))
        assert grid[i_lo] == pts[j] and grid[i_hi] == pts[j + 1], \
            "oracle grid must contain the breakpoints"
        sub = grid[i_lo:i_hi + 1]
        t_lo = pts[j]
        piece = integrate_reference(
            lambda t, s=seg, t0=t_lo: s.bonware_at(t - t0),
            lambda t, s=seg, t0=t_lo: s.malware_at(t - t0),
            f, f0, sub,
        )
        values[i_lo:i_hi + 1] = piece.values
        f = float(piece.values[-1])
    return values


def reference_constant_rates(f0, windows, f_init, times, per_step=False):
    """The constant-rate solution at ``times``, in 40-digit ``decimal``.

    ``windows`` lists ``(start, malware, bonware)`` in time order: window j
    runs from its start to the next window's, and the last one on to the
    end of ``times``, which lie at or after the first start.  In a window
    the value is the level L = f0*b/(m+b) plus its gap f_start - L times
    exp(-r*(t - start)), and its value at the next start seeds the next
    window; with m = b = 0 it holds f_start.  The rate r is m + b, or with
    ``per_step`` -ln(1 - (m + b)), the decay of one step of the mean
    recursion.  The floats are taken exactly, and ``Decimal.exp`` and
    ``Decimal.ln`` round correctly, so each value is exact to about 1e-40
    of f0.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        solved = []
        for start, m, b in windows:
            q = Decimal(m) + Decimal(b)
            rate = -(1 - q).ln() if per_step else q
            solved.append((Decimal(start), rate,
                           Decimal(f0) * Decimal(b) / q if q else 0))

        def value(j, f_start, t):
            start, rate, level = solved[j]
            if rate == 0:
                return f_start
            return level + (f_start - level) * (-rate * (t - start)).exp()

        out, j, f = [], 0, Decimal(f_init)
        for t in map(Decimal, times):
            while j + 1 < len(windows) and t >= solved[j + 1][0]:
                f = value(j, f, solved[j + 1][0])
                j += 1
            out.append(value(j, f, t))
        return out


# pi to 60 digits, for the decimal erfc.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def reference_erfc(x, scaled=False):
    """erfc(x) for x >= 0, a float or a Decimal, in 40-digit ``decimal``,
    or with ``scaled`` erfcx(x) = exp(x**2) * erfc(x).

    Below 3 it is 1 - erf(x), from erf's Taylor series
    2/sqrt(pi) * sum (-1)**n x**(2n+1) / (n! (2n+1)), summed at 60 digits:
    its terms grow to about exp(x**2) < 1e4 before they fall, and the
    difference cancels to about 2e-5 at 3, so 40 digits survive.  From 3
    up it is Laplace's continued fraction (Abramowitz & Stegun 7.1.14),

        sqrt(pi) * exp(x**2) * erfc(x)
            = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + 2/(x + ...))))),

    evaluated from its 400th term back (200 already give 40 digits at 3,
    and fewer are needed further out), so erfcx needs no exp there.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x)
        if x < 3:
            x2, term, n, total = x * x, x, 0, x
            while abs(term) > Decimal(10) ** -70:
                n += 1
                term = -term * x2 / n
                total += term / (2 * n + 1)
            value = 1 - 2 * total / _PI.sqrt()
            if scaled:
                value *= x2.exp()
        else:
            t = x
            for n in range(400, 0, -1):
                t = x + Decimal(n) / 2 / t
            value = 1 / (t * _PI.sqrt())
            if not scaled:
                value *= (-x * x).exp()
        ctx.prec = 40
        return +value


def reference_linear_rates(f0, windows, f_init, times):
    """The solution for linearly fading rates at ``times``, in 40-digit
    ``decimal``.

    ``windows`` lists ``(start, impacts)`` in time order, ``impacts`` a
    LinearImpacts on the window's local clock tau = t - start: window j
    runs from its start to the next window's, and the last one on to the
    end of ``times``, which lie at or after the first start.  With bonware
    rate alpha - beta*tau, combined intercept lam and combined slope om,
    dF/dtau = f0*(alpha - beta*tau) - (lam - om*tau)*F has the integrating
    factor Omega = exp(lam*tau - om*tau**2/2), and the bonware rate is
    beta/om times the combined rate plus c = alpha - beta*lam/om, so

        F = F_start/Omega + f0*beta/om*(1 - 1/Omega)
            + f0*c*sqrt(pi/(2*om))*(erfcx(g) - erfcx(G)/Omega),

    G = lam/sqrt(2*om) and g = G - tau*sqrt(om/2), the combined rate over
    sqrt(2*om).  erfcx(x) = exp(x**2)*erfc(x) is :func:`reference_erfc`'s,
    with erfc(-x) = 2 - erfc(x) where the rates' floats put g a little
    below 0 at a window's end.  A window with om = 0 has constant rates
    and is solved as :func:`reference_constant_rates` solves it.  The value
    at the next start seeds the next window.
    """
    def erfcx(x):
        if x >= 0:
            return reference_erfc(x, scaled=True)
        return 2 * (x * x).exp() - reference_erfc(-x, scaled=True)

    with localcontext() as ctx:
        ctx.prec = 60
        solved = []
        for start, s in windows:
            alpha, beta = Decimal(s.bonware_intercept), Decimal(s.bonware_slope)
            lam = alpha + Decimal(s.malware_intercept)
            om = beta + Decimal(s.malware_slope)
            solved.append((Decimal(start), alpha, beta, lam, om))

        def value(j, f_start, t):
            start, alpha, beta, lam, om = solved[j]
            tau = t - start
            if om == 0:
                if lam == 0:
                    return f_start
                level = Decimal(f0) * alpha / lam
                return level + (f_start - level) * (-lam * tau).exp()
            inv_omega = (om * tau * tau / 2 - lam * tau).exp()
            big = lam / (2 * om).sqrt()
            near = erfcx(big - tau * (om / 2).sqrt())
            return (f_start * inv_omega
                    + Decimal(f0) * beta / om * (1 - inv_omega)
                    + Decimal(f0) * (alpha - beta * lam / om)
                    * (_PI / (2 * om)).sqrt()
                    * (near - erfcx(big) * inv_omega))

        out, j, f = [], 0, Decimal(f_init)
        for t in map(Decimal, times):
            while j + 1 < len(windows) and t >= solved[j + 1][0]:
                f = value(j, f, solved[j + 1][0])
                j += 1
            out.append(value(j, f, t))
        ctx.prec = 40
        return [+v for v in out]


def units_off(values, reference, f0):
    """The largest distance of ``values`` from the decimal ``reference``,
    in units of 2**-52 * f0."""
    return float(max(abs(Decimal(v) - r) for v, r in zip(values, reference))
                 / (Decimal(2) ** -52 * Decimal(f0)))


def reference_ensemble(params, f_init, f0, steps, dt=1.0, n=1, master_seed=0):
    """Ensemble mean and standard error from one ``simulate`` per realization.

    Stacks the ``n`` traces and reduces the dense stack with numpy: the
    mean over axis 0, clipped into each step's min/max, and the squared
    deviations about that mean summed over axis 0.
    """
    stack = np.empty((n, steps + 1))
    for i in range(n):
        stack[i] = simulate(params, f_init, f0, steps, dt,
                            seed=split_seed(master_seed, i)).values
    mean = np.clip(stack.mean(axis=0), stack.min(axis=0), stack.max(axis=0))
    if n > 1:
        deviations = stack - mean
        squares = (deviations * deviations).sum(axis=0)
        stderr = np.sqrt(squares / (n - 1)) / math.sqrt(n)
    else:
        stderr = np.zeros(steps + 1)
    return mean, stderr


# A subnormal width overflows its density to +inf, which is its value.
@np.errstate(over="ignore")
def reference_transition_log_density(f_now, f_next, malware_activity,
                                     bonware_activity, malware_effectiveness,
                                     bonware_effectiveness, f0):
    """The exact transition scorer as it stood before its reach masks were
    formed once: each mixture component tests its own support, and the
    density is accumulated term by term from zeros."""
    f_now = np.asarray(f_now, dtype=float)
    f_next = np.asarray(f_next, dtype=float)
    delta = f_next - f_now
    a = malware_effectiveness * f_now
    b = bonware_effectiveness * (f0 - f_now)
    tm = malware_activity
    tb = bonware_activity
    mal_only = tm * (1.0 - tb)
    bon_only = (1.0 - tm) * tb
    both = tm * tb

    a_gone = a <= 0.0
    b_gone = b <= 0.0
    atom = (
        (1.0 - tm) * (1.0 - tb)
        + np.where(a_gone, mal_only, 0.0)
        + np.where(b_gone, bon_only, 0.0)
        + np.where(a_gone & b_gone, both, 0.0)
    )

    a_safe = np.where(a_gone, 1.0, a)
    b_safe = np.where(b_gone, 1.0, b)
    dens = np.zeros_like(delta)
    dens += np.where(
        (delta < 0.0) & (delta > -a) & ~a_gone, mal_only / a_safe, 0.0
    )
    dens += np.where(
        (delta > 0.0) & (delta < b) & ~b_gone, bon_only / b_safe, 0.0
    )
    if both > 0.0:
        dens += np.where(
            ~a_gone & ~b_gone & (delta > -a) & (delta < b),
            both * _trapezoid(delta, a_safe, b_safe),
            0.0,
        )
        dens += np.where(
            a_gone & ~b_gone & (delta > 0.0) & (delta < b),
            both / b_safe,
            0.0,
        )
        dens += np.where(
            b_gone & ~a_gone & (delta < 0.0) & (delta > -a),
            both / a_safe,
            0.0,
        )

    is_atom = np.abs(delta) <= ATOM_TOL * f0
    with np.errstate(divide="ignore"):
        log_atom = np.log(atom)
        log_dens = np.log(dens)
    return np.where(is_atom, log_atom, log_dens)


def reference_grid_mle(trace, grid):
    """Exhaustive grid search, as ``grid_mle`` ran before its surface.

    Scores every cell with :func:`reference_transition_log_density`, in
    ``itertools.product`` order, and returns all of them as
    ``(log_likelihood, enumeration index, params)``, sorted by
    (-log likelihood, enumeration index): the first is the estimate.
    """
    act_m, act_b, eff_m, eff_b = grid.axes()
    f_now = trace.values[:-1]
    f_next = trace.values[1:]
    scored = []
    for order, (tm, tb, gm, gb) in enumerate(product(act_m, act_b,
                                                     eff_m, eff_b)):
        ll = float(reference_transition_log_density(f_now, f_next, tm, tb,
                                                    gm, gb, trace.f0).sum())
        params = SdeParams(float(tm), float(tb), float(gm), float(gb))
        scored.append((ll, order, params))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return scored


def reference_read_trace_csv(path):
    """``read_trace_csv`` as one Python loop over the lines of the file.

    This is the reader's grammar stated line by line, as it was before
    samples were parsed in blocks: same accepted files, same values, same
    ``path:lineno`` messages for a line and ``path`` ones for the samples
    as a whole.
    """

    def check_ascii_number(raw):
        if "_" in raw or not raw.isascii():
            raise ValueError(raw)

    f0 = 1.0
    times = []
    values = []
    saw_header = False
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("f0="):
                    try:
                        check_ascii_number(raw)
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
                check_ascii_number(raw)
                times.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError as exc:
                raise InvalidTraceError(
                    f"{path}:{lineno}: non-numeric sample {line!r}"
                ) from exc
    if not saw_header:
        raise InvalidTraceError(f"{path}: missing {TRACE_CSV_HEADER!r} header")
    try:
        return FunctionalityTrace(np.array(times), np.array(values), f0)
    except InvalidTraceError as exc:
        raise InvalidTraceError(f"{path}: {exc}") from exc
