"""numpy's Philox4x64-10 words, computed in packed Python integers.

:func:`words` yields the blocks of ``numpy.random.Philox(key=key)`` bit for
bit, so a single realization replays its stream without importing numpy.
Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) maps a 256-bit counter and a 128-bit key to four 64-bit words
in 10 rounds; each round multiplies two counter words by fixed constants
and the key is bumped by two Weyl constants between rounds.  numpy keys
``Philox(key=k)`` with (k, 0), starts the counter at 0 and increments it
before each block, so block j is counter (j + 1, 0, 0, 0), and
``Generator.random`` turns each word x into ``(x >> 11) * 2**-53``.

A chunk of blocks goes through the rounds together, each block's word in
its own 128-bit lane of one Python int: a 64 x 64-bit product is below
2**128, so one ``x * M`` gives every lane's product with no carry into the
next lane, and masks split it into its low and high words.  Every chunk of
a run has the same lanes, the last one too: it computes a whole chunk and
keeps the blocks before the run's end.  Per block this costs about twenty
times numpy's C, so the ensemble, which draws millions of blocks, keeps
``numpy.random``; a single realization of a few thousand steps draws its
blocks in less time than ``import numpy`` takes.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain

_MASK64 = (1 << 64) - 1
# Philox's two round multipliers and two Weyl key increments.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
# Blocks computed at a time: 512 lanes make 8 KiB ints, which stay in
# cache; 2**14 lanes ran 1.7 times slower at 20,000 blocks.
_CHUNK = 512


def _unpack(x: int, count: int) -> array:
    """The ``count`` low 64-bit words of ``x``, least significant first."""
    x &= (1 << 64 * count) - 1
    words = array("Q", x.to_bytes(8 * count, "little"))
    if sys.byteorder != "little":
        words.byteswap()
    return words


def _chunk(counters: int, low: int, keys: list[tuple[int, int]], n: int):
    """The first ``n`` blocks whose counters are the lanes of ``counters``,
    as 4-tuples of words; ``low`` is 2**64 - 1 in every lane and ``keys``
    the rounds' key words, each in every lane."""
    c0 = counters
    c1 = c2 = c3 = 0
    for k0, k1 in keys:
        p0, p1 = c0 * _M0, c2 * _M1
        # (c0, c1, c2, c3) -> (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        c0, c1, c2, c3 = (((p1 >> 64) & low) ^ c1 ^ k0, p1 & low,
                          ((p0 >> 64) & low) ^ c3 ^ k1, p0 & low)
    # Lane j of the first int holds block j's words 0 and 1, of the
    # second its words 2 and 3.
    first = iter(_unpack(c0 | c1 << 64, 2 * n))
    second = iter(_unpack(c2 | c3 << 64, 2 * n))
    return zip(first, first, second, second)


def words(key: int, steps: int):
    """Iterate over the first ``steps`` blocks of
    ``numpy.random.Philox(key=key)``, each as its four words, a 4-tuple of
    Python ints; ``min(_CHUNK, steps)`` blocks are computed at a time, the
    last chunk's too, of which those before ``steps`` are yielded."""
    count = min(_CHUNK, steps)
    # A 1 in the low word of each lane, so that ``w * ones`` puts the
    # word w in every lane.
    ones = int.from_bytes((b"\1" + bytes(15)) * count, "little")
    low = _MASK64 * ones
    # Lane j holds j + 1, the counter of a chunk's block j from its first.
    lanes = array("Q", bytes(16 * count))
    lanes[::2] = array("Q", range(1, count + 1))
    if sys.byteorder != "little":
        lanes.byteswap()
    ramp = int.from_bytes(lanes, "little")
    keys = [(((key + r * _W0) & _MASK64) * ones, ((r * _W1) & _MASK64) * ones)
            for r in range(_ROUNDS)]
    return chain.from_iterable(
        _chunk(ramp + first * ones, low, keys, min(count, steps - first))
        for first in range(0, steps, _CHUNK))
