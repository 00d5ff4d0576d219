"""Ensembles of the stochastic model, and its exact constant-rate mean.

Realization i of an ensemble is :func:`resdyn.stochastic.simulate` with
seed ``split_seed(master_seed, i)``, bit for bit.  Its draws come from
``numpy.random.Philox``, the stream ``simulate`` computes in packed Python
integers: numpy's C computes the millions of blocks an ensemble needs
about twenty times faster.  Everything here computes on numpy arrays, so
this module is apart from :mod:`resdyn.stochastic`, whose one realization
runs without numpy, and only the code that runs an ensemble, splits a seed
or asks for :func:`expectation_recursion` compiles it.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain

import numpy as np

from .core import (
    DomainError,
    FunctionalityTrace,
    _check_level,
    _readonly,
    _Record,
    _steady_level,
    _write_text,
)
from .stochastic import (
    _MASK64,
    SdeParams,
    _check_run,
    _clock,
    _integer,
    _live,
    _seed_key,
)

_GOLDEN = 0x9E3779B97F4A7C15
# Budget of one ensemble block's two time-major effect factors, steps * 16
# bytes a realization (262 realizations at 250 steps).  Its steps * 4 draws
# are made, and its levels reduced and stored, at most _DRAW_ROWS (and half
# a block) realizations at a time.
_BLOCK_BYTES = 1 << 20
_DRAW_ROWS = 64


def split_seed(master_seed: int, index: int) -> int:
    """Seed for realization ``index``: the index-th splitmix64 output.

    splitmix64 advances its state by the 64-bit golden ratio and applies
    a fixed avalanche mix, so seeds for different indices are decorrelated
    while remaining a pure function of (master_seed, index).
    """
    master_seed = _seed_key("master_seed", master_seed)
    index = _integer("index", index)
    if index < 0:
        raise DomainError(f"realization index must be >= 0, got {index}")
    return int(_split_seeds(master_seed, index, index + 1)[0])


def _split_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``split_seed(master_seed, i)`` for i in [lo, hi), in uint64 arithmetic."""
    z = np.arange(hi - lo, dtype=np.uint64)
    z += np.uint64((lo + 1) & _MASK64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(master_seed & _MASK64)
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


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


def _rekeyable():
    """A ``numpy.random.Philox``, a state for it and that state's key list:
    once ``key[0] = k``, setting ``bitgen.state = state`` makes the bit
    generator draw the stream of ``Philox(key=k)`` from its start, whatever
    it drew before.  The state is the one ``Philox(key=0)`` has before its
    first draw, counter 0 with an empty buffer and no spare 32-bit word,
    with its arrays as lists of Python ints: numpy's setter reads the
    entries of what it is given one by one, which takes more than twice
    as long from uint64 arrays as from lists."""
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    inner = state["state"]
    inner["counter"], inner["key"] = (inner["counter"].tolist(),
                                      inner["key"].tolist())
    state["buffer"] = state["buffer"].tolist()
    return bitgen, state, inner["key"]


def _step_blocks(params: SdeParams, f_init: float, f0: float, times: array,
                 master_seed: int, n: int, steps: int, rows: int, half: int):
    """Step the ``n`` realizations on from ``f_init`` over the sample
    ``times``, ``rows`` at a time, drawing for ``half`` of them at a time;
    yield their levels at steps 1 to ``steps``, time-major, ``half``
    realizations at a time."""
    live = _live(params, times[:-1])
    bitgen, state, key = _rekeyable()
    random = np.random.Generator(bitgen).random
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
        for h in range(0, m, half):
            yield levels[:, h:h + half]


def _changes(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``block``'s entries, in C order, as runs: a packed bit per entry, set
    where its bits differ from the entry before's (and for the first), and
    the entries at the set bits."""
    flat = block.reshape(-1)
    bits = flat.view(np.uint64)  # so -0.0 and 0.0 differ
    changed = np.empty(flat.size, dtype=bool)
    changed[0] = True
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    return np.packbits(changed), np.compress(changed, flat)


def _expand(changed: np.ndarray, values: np.ndarray, block: np.ndarray) -> None:
    """Write the entries :func:`_changes` took from ``block`` back into it."""
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

    Realization i is the trace :func:`resdyn.stochastic.simulate` gives
    with seed ``split_seed(master_seed, i)``, bit for bit, though blocks of
    rows are stepped together as time-major vectors: a Philox stream is a
    pure function of its key and counter.  Each realization is kept as its
    changes: a step on which no agent fires leaves the level's bits as they
    were, so a packed bit per step marks the steps whose level differs from
    the step before, and only those levels are stored.  Peak memory is that
    store, (steps + 1) / 8 bytes per realization and 8 per change (1/64
    more than an ``(n, steps + 1)`` stack when every step changes), plus a
    fixed scratch of at most about 2.6 MiB: a block's two effect factors
    (about 1 MiB), the draws of 64 realizations or of half a block if fewer
    (at most about 1 MiB), and the levels of as many realizations as are
    drawn at a time, with their packed and expanded copies (one
    realization's worth of each, if that is larger).
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
    steps, n = _check_run(steps, dt, n)
    _check_level("f_init", f0, f_init)
    master_seed = _seed_key("master_seed", master_seed)
    f_init, f0 = float(f_init), float(f0)
    times = _clock(dt, steps)
    rows = min(n, max(1, _BLOCK_BYTES // (steps * 16)))
    half = min((rows + 1) // 2, _DRAW_ROWS)
    # A sub-block of realizations below a row that carries the running sum
    # into each sub-block's axis-0 reduce, so the rows are added in index
    # order, as the reduce of the whole stack adds them.
    buf = np.empty((half + 1, steps + 1))
    buf[:, 0] = f_init
    total = np.zeros(steps + 1)
    low, high = np.full(steps + 1, np.inf), np.full(steps + 1, -np.inf)
    store = []
    for levels in _step_blocks(params, f_init, f0, times, master_seed, n,
                               steps, rows, half):
        block = buf[1:levels.shape[1] + 1]
        block[:, 1:] = levels.T
        np.minimum(low, block.min(axis=0), out=low)
        np.maximum(high, block.max(axis=0), out=high)
        buf[0] = total
        np.add.reduce(buf[:len(block) + 1], axis=0, out=total)
        store.append((len(block), *_changes(block)))

    # Every level stays in [0, f0]; test_one_step_stays_within_f0 shows why.
    # -0.0 shared by every realization is kept, though the sum gives 0.0.
    mean = np.clip(total / n, low, high)
    stderr = np.zeros(steps + 1)
    if n > 1:
        # The squared deviations about the mean, one sub-block at a time.
        squares = np.zeros(steps + 1)
        for m, changed, values in store:
            block = buf[1:m + 1]
            _expand(changed, values, block)
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
    :func:`resdyn.stochastic.simulate` refuses it.
    """
    # Imported only here, so an ensemble does not load the impact records.
    from .impacts import ConstantImpacts

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
