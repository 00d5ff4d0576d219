"""The reference integrator, the numerical oracle of the closed forms.

No command runs it: the tests and the benchmark's solve check compare the
closed-form solvers against it, so it is a module of its own that no
command compiles.
"""

from __future__ import annotations

import math
from array import array

from .closed_form import _clamp_to_bounds
from .core import (
    DomainError,
    FunctionalityTrace,
    _check_level,
    _readonly,
    _sample_axis,
)

# Fixed step ceiling of the reference integrator; a fixed step keeps the
# oracle bit-reproducible run to run.
RK4_MAX_STEP = 0.01


def integrate_reference(bonware_fn, malware_fn, f_init, f0, grid) -> FunctionalityTrace:
    """Integrate dF/dt = (f0 - F) b(t) - F m(t) with fixed-step RK4.

    This is the numerical oracle the closed-form solvers are checked
    against.  Each grid interval is subdivided into equal steps no longer
    than RK4_MAX_STEP, so results are bit-reproducible.  Sampling a
    negative impact rate raises DomainError.
    """
    axis = _sample_axis(grid, "grid")
    g = _readonly(axis)
    _check_level("f_init", f0, f_init)

    def rates(t: float) -> tuple[float, float]:
        b = float(bonware_fn(t))
        m = float(malware_fn(t))
        if b < 0.0:
            raise DomainError(f"bonware impact is negative at t={t}: {b}")
        if m < 0.0:
            raise DomainError(f"malware impact is negative at t={t}: {m}")
        return b, m

    f = float(f_init)
    values = array("d", [f]) * g.size
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

    return FunctionalityTrace(axis, _clamp_to_bounds(values, f0), f0)
