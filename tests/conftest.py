"""Shared fixtures, reference oracles and Hypothesis settings for the tests."""

import math
import os
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from resdyn import (
    ConstantImpacts,
    LinearImpacts,
    SdeParams,
    integrate_reference,
    read_trace_csv,
    simulate,
    split_seed,
)
from resdyn.likelihood import _transition_log_density

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


def reference_ensemble(params, f_init, f0, steps, dt=1.0, n=1, master_seed=0):
    """Ensemble mean and standard error from one ``simulate`` per realization.

    Stacks the ``n`` traces and reduces the stack with numpy, as
    ``ensemble_average`` did before it stepped realizations in blocks.
    """
    stack = np.empty((n, steps + 1))
    for i in range(n):
        stack[i] = simulate(params, f_init, f0, steps, dt,
                            seed=split_seed(master_seed, i)).values
    mean = stack.mean(axis=0)
    if n > 1:
        stderr = stack.std(axis=0, ddof=1) / math.sqrt(n)
        agree = np.ptp(stack, axis=0) == 0.0
        mean[agree] = stack[0, agree]
        stderr[agree] = 0.0
    else:
        stderr = np.zeros(steps + 1)
    return mean, stderr


def reference_grid_mle(trace, grid, top_k=5):
    """Exhaustive grid search, as ``grid_mle`` ran before its surface.

    Scores every cell with the exact transition evaluator, in
    ``itertools.product`` order, and sorts all of them by
    (-log likelihood, enumeration index).  Returns
    ``(params, log_likelihood, top_cells, n_cells)``.
    """
    act_m, act_b, eff_m, eff_b = grid.axes()
    f_now = trace.values[:-1]
    f_next = trace.values[1:]
    scored = []
    for order, (tm, tb, gm, gb) in enumerate(product(act_m, act_b,
                                                     eff_m, eff_b)):
        ll = float(_transition_log_density(f_now, f_next, tm, tb, gm, gb,
                                           trace.f0).sum())
        params = SdeParams(float(tm), float(tb), float(gm), float(gb))
        scored.append((ll, order, params))
    scored.sort(key=lambda item: (-item[0], item[1]))
    top = tuple((ll, params) for ll, _, params in scored[:max(1, top_k)])
    return scored[0][2], scored[0][0], top, len(scored)
