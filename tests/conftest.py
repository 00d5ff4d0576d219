"""Shared fixtures and reference oracles for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from resdyn import (
    ConstantImpacts,
    LinearImpacts,
    integrate_reference,
    read_trace_csv,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
NOTIONAL_CSV = REPO_ROOT / "data" / "notional.csv"

# Tests that run ``python -m resdyn`` in a subprocess import the checkout's
# package, as the test process does through pytest's ``pythonpath``.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)


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
