"""The packed Philox4x64-10 against numpy's, bit for bit.

``resdyn._philox.words`` computes the stream that ``simulate`` draws, and
``ensemble_average`` draws the same stream from ``numpy.random``, so every
comparison here is of the words, and of the doubles ``Generator.random``
makes of them, with no tolerance.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resdyn import split_seed
from resdyn._philox import _CHUNK, words

# 2**14 is a whole number of chunks, so its neighbours are chunk edges too.
STEPS = [1, 2, 125, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1,
         2**14 - 1, 2**14, 2**14 + 1, 20_000]
KEYS = [0, 1, 2**63, 2**64 - 1,
        # The keys of the bench's mle trace, of an ensemble's first
        # realizations, and of a master seed that wraps.
        split_seed(1, 3), split_seed(2024, 0), split_seed(2024, 1),
        split_seed(2**64 - 1, 0)]


def assert_numpy_stream(key, steps):
    blocks = list(words(key, steps))
    raw = np.random.Philox(key=key).random_raw(4 * steps)
    assert blocks == [tuple(row) for row in raw.reshape(steps, 4).tolist()]
    # The doubles simulate makes of the words, as Generator.random does.
    doubles = np.array([(w >> 11) * 2.0**-53 for block in blocks
                        for w in block])
    want = np.random.Generator(np.random.Philox(key=key)).random((steps, 4))
    assert doubles.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("key", KEYS)
def test_matches_numpy_at_chunk_edges(key, steps):
    assert_numpy_stream(key, steps)


def test_matches_numpy_on_seeded_keys():
    keys = np.random.default_rng(20111112).integers(
        0, 2**64, size=200, dtype=np.uint64, endpoint=False)
    for key in keys.tolist():
        assert_numpy_stream(key, 125)


@given(key=st.integers(0, 2**64 - 1), steps=st.integers(1, 3 * _CHUNK))
def test_matches_numpy(key, steps):
    assert_numpy_stream(key, steps)
