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
feeds ``Generator.random``, and :func:`ensemble_average` draws it from
there: numpy's C computes the millions of blocks an ensemble needs about
twenty times faster.  So one realization runs without numpy, which only
the ensemble, :func:`split_seed` and :func:`expectation_recursion` import.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import chain
from typing import TYPE_CHECKING

from .core import (
    MAX_GRID_POINTS,
    ConstantImpacts,
    FunctionalityTrace,
    _check_fields,
    _check_level,
    _readonly,
    _Record,
    _SampleAxis,
    _steady_level,
    _write_text,
)
from .errors import DomainError, InvalidTraceError

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
# A Philox word's top 53 bits times this are its uniform double.
_UNIT = 2.0**-53
_GOLDEN = 0x9E3779B97F4A7C15
# Scratch budget of one ensemble block, steps * 32 bytes a realization: its
# steps * 2 effect factors and steps + 1 levels take 3/4 of that, and its
# steps * 4 draws are made at most _DRAW_ROWS (and half a block) at a time.
_BLOCK_BYTES = 4 << 20
_DRAW_ROWS = 64


def split_seed(master_seed: int, index: int) -> int:
    """Seed for realization ``index``: the index-th splitmix64 output.

    splitmix64 advances its state by the 64-bit golden ratio and applies
    a fixed avalanche mix, so seeds for different indices are decorrelated
    while remaining a pure function of (master_seed, index).
    """
    master_seed = _seed_key("master_seed", master_seed)
    if not _is_integer(index):
        raise DomainError(f"index must be an integer, got {index!r}")
    if index < 0:
        raise DomainError(f"realization index must be >= 0, got {index}")
    index = int(index)
    return int(_split_seeds(master_seed, index, index + 1)[0])


def _split_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``split_seed(master_seed, i)`` for i in [lo, hi), in uint64 arithmetic."""
    import numpy as np

    z = np.arange(hi - lo, dtype=np.uint64)
    z += np.uint64((lo + 1) & _MASK64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(master_seed & _MASK64)
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


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
        _check_fields(self, ("malware_activity", "bonware_activity"),
                      lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
        _check_fields(self, ("malware_effectiveness", "bonware_effectiveness"),
                      lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
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


class EnsembleResult(_Record, eq=False):
    """Per-step mean and standard error over seeded realizations; results
    compare and hash by identity, as traces do."""

    mean_trace: FunctionalityTrace
    per_step_stderr: np.ndarray
    n: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "per_step_stderr",
                           _readonly(self.per_step_stderr))


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or another ``numbers.Integral``, such as
    a numpy integer; a bool is not, and numpy's bool is no Integral."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    # Loaded already wherever a numpy integer exists: numpy imports it.
    import numbers

    return isinstance(value, numbers.Integral)


def _seed_key(name: str, seed) -> int:
    """The Philox key of the integer ``seed``: ``seed`` mod 2**64, as a
    Python int; refuses any other value, naming the argument ``name``."""
    if not _is_integer(seed):
        raise DomainError(f"{name} must be an integer, got {seed!r}")
    return int(seed) & _MASK64


def _check_run(steps: int, dt: float, n: int = 1) -> tuple[int, int]:
    """Refuse a run of ``n`` realizations whose traces could not be
    allocated or timed; a run steps ``n * (steps + 1)`` values and, when
    every step changes, an ensemble stores them all.  Returns ``(steps,
    n)`` as Python ints, whose arithmetic cannot wrap around."""
    for name, value in (("steps", steps), ("n", n)):
        if not _is_integer(value):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    steps, n = int(steps), int(n)
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
    :func:`ensemble_average` draws; here it is computed a fixed chunk of
    steps at a time, without importing numpy.  An activity draw is compared
    as its word (see :func:`_roll_bound`), and an effect word becomes a
    double only when its agent hits.

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


def _rekeyable():
    """A ``numpy.random.Philox``, a state for it and that state's key list:
    once ``key[0] = k``, setting ``bitgen.state = state`` makes the bit
    generator draw the stream of ``Philox(key=k)`` from its start, whatever
    it drew before.  The state is the one ``Philox(key=0)`` has before its
    first draw, counter 0 with an empty buffer and no spare 32-bit word,
    with its arrays as lists of Python ints: numpy's setter reads the
    entries of what it is given one by one, which takes more than twice
    as long from uint64 arrays as from lists."""
    import numpy as np

    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    inner = state["state"]
    inner["counter"], inner["key"] = (inner["counter"].tolist(),
                                      inner["key"].tolist())
    state["buffer"] = state["buffer"].tolist()
    return bitgen, state, inner["key"]


def _step_blocks(params: SdeParams, f_init: float, f0: float, times: array,
                 master_seed: int, n: int, steps: int, rows: int):
    """Step the ``n`` realizations on from ``f_init`` over the sample
    ``times``, ``rows`` at a time; yield each block's levels at steps 1 to
    ``steps``, time-major."""
    import numpy as np

    live = _live(params, times[:-1])
    bitgen, state, key = _rekeyable()
    random = np.random.Generator(bitgen).random
    half = min((rows + 1) // 2, _DRAW_ROWS)
    draws = np.empty((half, steps, 4))
    draw_rows = list(draws)
    hit = np.empty((half, steps), dtype=bool)
    # Time-major effect factors, zero where the agent misses or is off.
    kicks = np.empty((2, steps, rows))
    agents = tuple(zip(kicks, (0, 2), live,
                       (params.malware_activity, params.bonware_activity),
                       (params.malware_effectiveness,
                        params.bonware_effectiveness)))
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        seeds = _split_seeds(master_seed, lo, lo + m)
        for h in range(0, m, half):
            block = draws[:min(half, m - h)]
            for row, seed in zip(draw_rows, seeds[h:h + half].tolist()):
                # Key split_seed(...) at counter 0 is Philox(key=split_seed(...)).
                key[0] = seed
                bitgen.state = state
                random(out=row)
            for kick, col, live, activity, effectiveness in agents:
                mask = np.less(block[:, :, col], activity, out=hit[:len(block)])
                mask[:, :live.start] = False
                mask[:, live.stop:] = False
                effect = block[:, :, col + 1]
                effect *= effectiveness
                effect *= mask  # x * 1.0 == x, x * 0.0 == +0.0 for x >= 0
                kick[:, h:h + len(block)] = effect.T
        # simulate's (0.0 - km*f) + kb*(f0 - f) as kb*(f0 - f) - km*f, the
        # same bits.  Each step's level overwrites its spent malware factor,
        # so kicks[0] ends as the block's time-major trajectory.
        levels = kicks[0, :, :m]
        f, x, y = np.full(m, f_init), np.empty(m), np.empty(m)
        for km, kb in zip(levels, kicks[1, :, :m]):
            np.subtract(f0, f, out=y)
            y *= kb
            np.multiply(km, f, out=x)
            y -= x
            f = np.add(f, y, out=km)
        yield levels


def _changes(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``block``'s entries, in C order, as runs: a packed bit per entry, set
    where its bits differ from the entry before's (and for the first), and
    the entries at the set bits."""
    import numpy as np

    flat = block.reshape(-1)
    bits = flat.view(np.uint64)  # so -0.0 and 0.0 differ
    changed = np.empty(flat.size, dtype=bool)
    changed[0] = True
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    return np.packbits(changed), np.compress(changed, flat)


def _expand(changed: np.ndarray, values: np.ndarray, block: np.ndarray) -> None:
    """Write the entries :func:`_changes` took from ``block`` back into it."""
    import numpy as np

    flat = block.reshape(-1)
    # Entry j holds the value of the last change at or before it.
    runs = np.unpackbits(changed, count=flat.size).astype(np.intp)
    np.cumsum(runs, out=runs)
    runs -= 1
    # Every index is in range; mode "raise" would first copy ``out``.
    np.take(values, runs, out=flat, mode="clip")


def ensemble_average(params: SdeParams, f_init: float, f0: float, steps: int,
                     dt: float = 1.0, n: int = 1,
                     master_seed: int = 0) -> EnsembleResult:
    """Mean and standard error of ``n`` seeded realizations.

    Realization i is the trace :func:`simulate` gives with seed
    ``split_seed(master_seed, i)``, bit for bit, though blocks of rows are
    stepped together as time-major vectors: a Philox stream is a pure
    function of its key and counter.  Each realization is kept as its
    changes: a step on which no agent fires leaves the level's bits as they
    were, so a packed bit per step marks the steps whose level differs from
    the step before, and only those levels are stored.  Peak memory is that
    store, (steps + 1) / 8 bytes per realization and 8 per change (1/64
    more than an ``(n, steps + 1)`` stack when every step changes), plus a
    fixed scratch of at most about 5 MiB: a block's effect factors and
    levels, and the draws of 64 realizations or half a block if fewer (one
    realization's worth, if that is larger).
    ``n * (steps + 1)`` may not exceed ``MAX_GRID_POINTS``.

    The aggregation is a pure function of the inputs: the realizations are
    added one after another in index order (not pairwise), as reducing a
    C-order ``(n, steps + 1)`` stack over axis 0 adds them, and the squared
    deviations are added in the same order, so the result does not depend
    on the block size.  Each step's mean is clipped into its realizations'
    range, where the exact mean lies, so the sum's roundoff cannot take it
    out of [0, f0], and a value every realization shares is the mean bit
    for bit, with zero spread.  With n = 1 the standard error is reported
    as zero.
    """
    import numpy as np

    steps, n = _check_run(steps, dt, n)
    _check_level("f_init", f0, f_init)
    master_seed = _seed_key("master_seed", master_seed)
    f_init, f0 = float(f_init), float(f0)
    times = _clock(dt, steps)
    rows = min(n, max(1, _BLOCK_BYTES // (steps * 32)))
    # A block of realizations below a row that carries the running sum into
    # each block's axis-0 reduce, so the rows are added in index order, as
    # the reduce of the whole stack adds them.
    buf = np.empty((rows + 1, steps + 1))
    buf[:, 0] = f_init
    total = np.zeros(steps + 1)
    low, high = np.full(steps + 1, np.inf), np.full(steps + 1, -np.inf)
    store = []
    for levels in _step_blocks(params, f_init, f0, times, master_seed, n,
                               steps, rows):
        block = buf[1:levels.shape[1] + 1]
        block[:, 1:] = levels.T
        np.minimum(low, block.min(axis=0), out=low)
        np.maximum(high, block.max(axis=0), out=high)
        buf[0] = total
        np.add.reduce(buf[:len(block) + 1], axis=0, out=total)
        store.append(_changes(block))

    # The bounds check simulate's trace makes, once for every row.
    _check_level("values", f0, low.min(), high.max(), error=InvalidTraceError)
    # -0.0 shared by every realization is kept, though the sum gives 0.0.
    mean = np.clip(total / n, low, high)
    stderr = np.zeros(steps + 1)
    if n > 1:
        # The squared deviations about the mean, one block at a time.
        squares = np.zeros(steps + 1)
        for lo, changes in zip(range(0, n, rows), store):
            block = buf[1:min(rows, n - lo) + 1]
            _expand(*changes, block)
            buf[0] = squares
            np.subtract(block, mean, out=block)
            block *= block
            np.add.reduce(buf[:len(block) + 1], axis=0, out=squares)
        stderr = np.sqrt(squares / (n - 1)) / math.sqrt(n)
    mean_trace = FunctionalityTrace(times, mean, f0)
    return EnsembleResult(mean_trace=mean_trace, per_step_stderr=stderr,
                          n=n, master_seed=master_seed)


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
    at time k (one step per second), and ``steps`` is refused as
    :func:`simulate` refuses it.
    """
    import numpy as np

    q = ConstantImpacts(malware_impact, bonware_impact).total_impact
    if q >= 1.0:
        raise DomainError(f"combined per-step impact must be < 1, got {q}")
    steps, _ = _check_run(steps, 1.0)
    _check_level("f_init", f0, f_init)
    k = np.arange(steps + 1, dtype=float)
    if q == 0.0:
        values = np.full(steps + 1, float(f_init))
    else:
        level = _steady_level(f0, bonware_impact, q)
        values = (f_init - level) * (1.0 - q) ** k + level
    return FunctionalityTrace(k, values, f0)


def effective_impact(activity: float, effectiveness: float) -> float:
    """Expected per-step impact of one agent: activity * effectiveness / 2.

    A success scales its target by Uniform(0, effectiveness), whose mean
    is effectiveness/2; multiplying by the success probability bridges the
    stochastic parameters to the per-step impacts of
    :func:`expectation_recursion`.
    """
    _check_range("activity", activity)
    _check_range("effectiveness", effectiveness)
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
