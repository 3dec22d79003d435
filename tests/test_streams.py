"""The sample streams are numpy's, bit for bit.

``eprweave.streams`` rebuilds ``Generator(PCG64(SeedSequence(entropy=seed,
spawn_key=(key,)))).random()`` in plain Python ints, so that sampled runs
need no numpy; numpy here is the oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprweave.protocols import SAMPLE_CAP
from eprweave.streams import stream

DRAWS = 64


def numpy_draws(seed: int, key: int, draws: int = DRAWS) -> list[float]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    return [rng.random() for _ in range(draws)]


def draws(seed: int, key: int, count: int = DRAWS) -> list[float]:
    s = stream(seed, key)
    return [s.random() for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), key=st.integers(0, SAMPLE_CAP))
@example(seed=0, key=0)
@example(seed=0, key=SAMPLE_CAP)
@example(seed=2**31 - 1, key=5)
@example(seed=2**32, key=1)  # two seed words
@example(seed=2**94 + 12345, key=83)  # three
@example(seed=2**128 - 1, key=SAMPLE_CAP - 1)  # four, all ones
def test_first_draws_are_numpys(seed, key):
    assert draws(seed, key) == numpy_draws(seed, key)


@pytest.mark.parametrize(
    "seed, key",
    [
        (2**128, 0),  # five seed words: the fifth is mixed in after the pool's four
        (3**100, 7),  # five
        (5, 2**32),  # a two-word spawn key
        (2**200 + 1, 2**64 + 3),  # seven seed words, three key words
    ],
    ids=["2^128", "3^100", "key-2^32", "2^200+1"],
)
def test_long_seeds_and_keys_are_numpys(seed, key):
    assert draws(seed, key) == numpy_draws(seed, key)


def test_streams_of_one_seed_do_not_depend_on_build_order():
    forward = [draws(9, key, 4) for key in range(8)]
    stream(10, 0)  # another seed in between
    backward = [draws(9, key, 4) for key in reversed(range(8))]
    assert forward == backward[::-1]
    assert len({tuple(d) for d in forward}) == 8


@pytest.mark.parametrize(
    "seed, key", [(-1, 0), (-(2**70), 3), (4, -1)], ids=["seed=-1", "seed=-2^70", "key=-1"]
)
def test_negative_seeds_and_keys_are_refused_with_numpys_text(seed, key):
    with pytest.raises(ValueError) as ours:
        stream(seed, key)
    with pytest.raises(ValueError) as theirs:
        np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    assert str(ours.value) == str(theirs.value) == "expected non-negative integer"
