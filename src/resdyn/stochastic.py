"""Discrete stochastic model of the malware/bonware battle.

Each second, malware succeeds with probability ``malware_activity`` and,
when it does, removes a Uniform(0, malware_effectiveness) fraction of the
current functionality; bonware symmetrically restores a uniform fraction
of the gap below normal:

    F[k+1] = F[k] + y_b*e_b*(f0 - F[k]) - y_m*e_m*F[k]

Optional onset times delay either agent, and an interaction cutoff models
bonware disabling malware outright: the malware term is suppressed for
t >= interaction_cutoff.

Randomness comes from a Philox counter-based generator keyed directly
with a 64-bit seed, and ensembles derive per-realization seeds from a
master seed with the splitmix64 mix, so any run is reproducible bit for
bit regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    FunctionalityTrace,
    _check_fields,
    _validate_initial,
    _write_text,
)
from .errors import DomainError, InvalidTraceError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Byte budget of the draw buffer of one ensemble block: a realization's
# row holds steps * 4 float64 draws.
_BLOCK_BYTES = 4 << 20


def split_seed(master_seed: int, index: int) -> int:
    """Seed for realization ``index``: the index-th splitmix64 output.

    splitmix64 advances its state by the 64-bit golden ratio and applies
    a fixed avalanche mix, so seeds for different indices are decorrelated
    while remaining a pure function of (master_seed, index).
    """
    if index < 0:
        raise DomainError(f"realization index must be >= 0, got {index}")
    z = (master_seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SdeParams:
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
        _check_fields(self, ("malware_activity", "bonware_activity"),
                      lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
        _check_fields(self, ("malware_effectiveness", "bonware_effectiveness"),
                      lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
        timed = ("malware_onset", "bonware_onset")
        if self.interaction_cutoff is not None:
            timed += ("interaction_cutoff",)
        _check_fields(self, timed, math.isfinite, "be finite")


@dataclass(frozen=True)
class EnsembleResult:
    """Per-step mean and standard error over seeded realizations."""

    mean_trace: FunctionalityTrace
    per_step_stderr: np.ndarray
    n: int
    master_seed: int

    def __post_init__(self):
        stderr = np.array(self.per_step_stderr, dtype=float)
        stderr.flags.writeable = False
        object.__setattr__(self, "per_step_stderr", stderr)


def _check_step_args(steps: int, dt: float) -> None:
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(dt) or dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")


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

    Identical (params, seed) give bit-identical traces.
    """
    _validate_initial(f_init, f0)
    _check_step_args(steps, dt)
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
    draws = rng.random((steps, 4))

    cutoff = params.interaction_cutoff
    values = np.empty(steps + 1)
    f = float(f_init)
    values[0] = f
    for k in range(steps):
        t = k * dt
        malware_on = t >= params.malware_onset and (cutoff is None or t < cutoff)
        bonware_on = t >= params.bonware_onset
        delta = 0.0
        if malware_on and draws[k, 0] < params.malware_activity:
            delta -= draws[k, 1] * params.malware_effectiveness * f
        if bonware_on and draws[k, 2] < params.bonware_activity:
            delta += draws[k, 3] * params.bonware_effectiveness * (f0 - f)
        f += delta
        values[k + 1] = f

    times = dt * np.arange(steps + 1)
    return FunctionalityTrace(times, values, f0)


def ensemble_average(params: SdeParams, f_init: float, f0: float, steps: int,
                     dt: float = 1.0, n: int = 1,
                     master_seed: int = 0) -> EnsembleResult:
    """Mean and standard error of ``n`` seeded realizations.

    Realization i is the trace :func:`simulate` gives with seed
    ``split_seed(master_seed, i)``, bit for bit.  Realizations run in
    blocks of rows stepped together; because a Philox stream is a pure
    function of its key and counter, each row's draws are the ones its own
    generator would make.  Peak memory is the ``(n, steps + 1)`` result
    stack plus a fixed block of about 4 MiB (one realization's draws, if
    those are larger).

    The aggregation is a pure function of the inputs: reducing the C-order
    stack over axis 0 adds the realization rows one after another in index
    order (not pairwise), and the squared deviations of the standard error
    are added in the same order, so the result does not depend on the block
    size.  With n = 1 the standard error is reported as zero.
    """
    if n < 1:
        raise DomainError(f"ensemble size must be >= 1, got {n}")
    _validate_initial(f_init, f0)
    _check_step_args(steps, dt)
    f_init, f0 = float(f_init), float(f0)
    rows = max(1, _BLOCK_BYTES // (steps * 32))

    t = dt * np.arange(steps)
    malware_on = t >= params.malware_onset
    if params.interaction_cutoff is not None:
        malware_on &= t < params.interaction_cutoff
    bonware_on = t >= params.bonware_onset

    stack = np.empty((n, steps + 1))
    stack[:, 0] = f_init
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    draws = np.empty((min(rows, n), steps, 4))
    for lo in range(0, n, rows):
        block = draws[:min(rows, n - lo)]
        for j, row in enumerate(block):
            # Key split_seed(...) at counter 0 is Philox(key=split_seed(...)).
            key[0] = split_seed(master_seed, lo + j)
            bitgen.state = state
            rng.random(out=row)
        hit_m = (block[:, :, 0] < params.malware_activity) & malware_on
        hit_b = (block[:, :, 2] < params.bonware_activity) & bonware_on
        kick_m = block[:, :, 1]
        kick_m *= params.malware_effectiveness
        kick_b = block[:, :, 3]
        kick_b *= params.bonware_effectiveness
        out = stack[lo:lo + len(block)]
        f = out[:, 0].copy()
        # simulate's per-element operations, in its order.
        for k in range(steps):
            delta = np.where(hit_m[:, k], 0.0 - kick_m[:, k] * f, 0.0)
            delta = np.where(hit_b[:, k], delta + kick_b[:, k] * (f0 - f), delta)
            f = f + delta
            out[:, k + 1] = f

    # The bounds check simulate's trace makes, once for every row.
    low, high = stack.min(axis=0), stack.max(axis=0)
    if low.min() < 0.0 or high.max() > f0:
        raise InvalidTraceError("values must lie within [0, f0]")
    mean = stack.mean(axis=0)
    if n > 1:
        # stack.std(axis=0, ddof=1) without its (n, steps + 1) temporary.
        squares = np.zeros(steps + 1)
        for lo in range(0, n, rows):
            dev = stack[lo:lo + rows] - mean
            dev *= dev
            for row in dev:
                squares += row
        stderr = np.sqrt(squares / (n - 1)) / math.sqrt(n)
        # Steps where every realization agrees have that shared value as
        # their exact mean and zero spread; keep them free of summation
        # roundoff.
        agree = high == low
        mean[agree] = stack[0, agree]
        stderr[agree] = 0.0
    else:
        stderr = np.zeros(steps + 1)
    mean_trace = FunctionalityTrace(dt * np.arange(steps + 1), mean, f0)
    return EnsembleResult(mean_trace=mean_trace, per_step_stderr=stderr,
                          n=n, master_seed=int(master_seed) & _MASK64)


def expectation_recursion(malware_impact: float, bonware_impact: float,
                          f_init: float, f0: float,
                          steps: int) -> FunctionalityTrace:
    """Exact mean trajectory of the constant-parameter stochastic model.

    Taking expectations of the step update gives the recursion
    E[F_k] - E[F_{k-1}] + q*E[F_{k-1}] = f0*b with q = m + b (impacts are
    per-step fractions), whose solution is

        E[F_k] = (f_init - f0*b/q) * (1 - q)**k + f0*b/q.

    Requires q < 1; at q >= 1 the factor (1 - q) stops being a decay and
    the recursion leaves the model's intended regime.  Sample k is placed
    at time k (one step per second).
    """
    if malware_impact < 0.0 or bonware_impact < 0.0:
        raise DomainError("per-step impacts must be >= 0")
    _validate_initial(f_init, f0)
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    q = malware_impact + bonware_impact
    if q >= 1.0:
        raise DomainError(f"combined per-step impact must be < 1, got {q}")
    k = np.arange(steps + 1, dtype=float)
    if q == 0.0:
        values = np.full(steps + 1, float(f_init))
    else:
        level = f0 * bonware_impact / q
        values = (f_init - level) * (1.0 - q) ** k + level
    return FunctionalityTrace(k, values, f0)


def effective_impact(activity: float, effectiveness: float) -> float:
    """Expected per-step impact of one agent: activity * effectiveness / 2.

    A success scales its target by Uniform(0, effectiveness), whose mean
    is effectiveness/2; multiplying by the success probability bridges the
    stochastic parameters to the per-step impacts of
    :func:`expectation_recursion`.
    """
    if not 0.0 <= activity <= 1.0:
        raise DomainError(f"activity must lie in [0, 1], got {activity}")
    if not 0.0 < effectiveness <= 1.0:
        raise DomainError(
            f"effectiveness must lie in (0, 1], got {effectiveness}"
        )
    return activity * effectiveness / 2.0


def write_ensemble_csv(result: EnsembleResult, path) -> None:
    """Write ensemble output: ``# n=..., master_seed=...`` then step rows."""
    rows = (
        f"{k},{mean:.17g},{stderr:.17g}\n"
        for k, (mean, stderr) in enumerate(
            zip(result.mean_trace.values, result.per_step_stderr)
        )
    )
    _write_text(path, chain((f"# n={result.n}, master_seed={result.master_seed}\n"
                             "step,mean,stderr\n",), rows))
