import itertools

import numpy as np
import pytest

from bridgefill.seeding import child_seed, make_rng


@pytest.mark.parametrize("master,key", [
    (0, ()),
    (20260301, (0, 0, 0)),
    (20260301, (15, 999, 1)),
    (2 ** 63, (3, 2 ** 40)),
])
def test_child_seed_is_the_documented_derivation(master, key):
    expected = np.random.SeedSequence((master, *key)).generate_state(1, np.uint64)[0]
    seed = child_seed(master, *key)
    assert type(seed) is int
    assert seed == int(expected)


def test_distinct_keys_give_distinct_seeds():
    keys = list(itertools.product(range(4), range(25), range(2)))
    seeds = {child_seed(7, *key) for key in keys}
    assert len(seeds) == len(keys)
    assert child_seed(7, 0, 1) != child_seed(7, 1, 0)
    assert child_seed(7, 0) != child_seed(8, 0)


def test_make_rng_passes_a_generator_through():
    rng = np.random.default_rng(3)
    assert make_rng(rng) is rng


def test_equal_seeds_give_equal_streams():
    seed = child_seed(11, 2, 3)
    a, b = make_rng(seed), make_rng(seed)
    assert np.array_equal(a.standard_normal(64), b.standard_normal(64))
    # the stream is numpy's PCG64 seeded through SeedSequence(seed)
    assert np.array_equal(make_rng(seed).standard_normal(64),
                          np.random.default_rng(seed).standard_normal(64))
    assert not np.array_equal(make_rng(seed).standard_normal(64),
                              make_rng(seed + 1).standard_normal(64))
