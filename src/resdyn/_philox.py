"""numpy's Philox4x64-10 uniforms, computed in numpy ``uint64`` arithmetic.

:func:`uniforms` yields ``Generator(Philox(key=key)).random((steps, 4))``
bit for bit, so a single realization replays its stream without importing
``numpy.random`` (and the ``secrets``/``hashlib``/OpenSSL chain its bit
generators load).  Philox4x64-10 (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11) maps a 256-bit counter and a 128-bit key to
four 64-bit words in 10 rounds; each round multiplies two counter words by
fixed constants and the key is bumped by two Weyl constants between
rounds.  numpy keys ``Philox(key=k)`` with (k, 0), starts the counter at 0
and increments it before each block, so block j is counter (j + 1, 0, 0, 0),
and ``random`` turns each word x into ``(x >> 11) * 2**-53``.

This port is about six times slower per block than numpy's C, so the
ensemble, which draws millions of blocks, keeps ``numpy.random``.
"""

from __future__ import annotations

import numpy as np

# Philox's two round multipliers and two Weyl key increments, one per
# row: the even counter words (0 and 2) go through the rounds side by side.
_MULTIPLIERS = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                        dtype=np.uint64)
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]],
                 dtype=np.uint64)
_ROUNDS = 10
# Blocks computed at a time: 2**14 rows of four doubles is 512 KiB.
_CHUNK = 1 << 14

# 0-d arrays, not numpy scalars: a ufunc takes them with less overhead,
# which is most of the cost of a short stream.
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)
_M_LO, _M_HI = _MULTIPLIERS & _LOW32, _MULTIPLIERS >> _SHIFT32


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 64-bit words of ``_MULTIPLIERS * x``, the high word
    from 32-bit halves (H. S. Warren, "Hacker's Delight", ch. 8)."""
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    # mid and carry stay below 2**64, so neither sum wraps.
    mid = x_hi * _M_LO
    mid += (x_lo * _M_LO) >> _SHIFT32
    carry = mid & _LOW32
    carry += x_lo * _M_HI
    hi = x_hi * _M_HI
    hi += mid >> _SHIFT32
    hi += carry >> _SHIFT32
    return x * _MULTIPLIERS, hi


def _blocks(key: int, first: int, count: int) -> np.ndarray:
    """Philox4x64-10 blocks ``first`` to ``first + count - 1`` of the
    stream keyed (key, 0), as a ``(count, 4)`` array of words."""
    # Counter words (0, 2) and (1, 3) as rows; block j is counter j + 1.
    even = np.zeros((2, count), dtype=np.uint64)
    even[0] = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    odd = np.zeros((2, count), dtype=np.uint64)
    keys = np.array([[key], [0]], dtype=np.uint64)
    for r in range(_ROUNDS):
        if r:
            keys += _WEYL
        lo, hi = _mulhilo(even)
        # (c0, c1, c2, c3) -> (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        odd ^= hi[::-1]
        odd ^= keys
        even, odd = odd, lo[::-1]
    return np.stack((even, odd), axis=1).reshape(4, count).T


def uniforms(key: int, steps: int):
    """Yield ``Generator(Philox(key=key)).random((steps, 4))`` in order,
    ``_CHUNK`` rows at a time (the last chunk may be shorter)."""
    for first in range(0, steps, _CHUNK):
        words = _blocks(key, first, min(_CHUNK, steps - first))
        yield (words >> np.uint64(11)).astype(float) * 2.0 ** -53
