import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bridgefill
from bridgefill.seeding import (
    _generate_state,
    _pool,
    child_seed,
    child_states,
    make_rng,
    rngs_from_words,
)

SRC = str(Path(bridgefill.__file__).resolve().parents[1])


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


@pytest.mark.parametrize("seed", [2.5, 2.0, None])
def test_make_rng_rejects_a_non_integer_seed(seed):
    with pytest.raises(TypeError):
        make_rng(seed)


def test_equal_seeds_give_equal_streams():
    seed = child_seed(11, 2, 3)
    a, b = make_rng(seed), make_rng(seed)
    assert np.array_equal(a.standard_normal(64), b.standard_normal(64))
    # the stream is numpy's PCG64 seeded through SeedSequence(seed)
    assert np.array_equal(make_rng(seed).standard_normal(64),
                          np.random.default_rng(seed).standard_normal(64))
    assert not np.array_equal(make_rng(seed).standard_normal(64),
                              make_rng(seed + 1).standard_normal(64))


MASTERS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 10 ** 100]


@pytest.mark.parametrize("master", MASTERS,
                         ids=["0", "2^32-1", "2^32", "2^64+5", "10^100"])
def test_child_states_equal_seed_sequence(master):
    # 1000 keys per purpose: cells and replicates as the experiments lay
    # them out, then key entries up to 2**32 - 1.
    rng = np.random.default_rng(master % 2 ** 32)
    keys = np.column_stack([
        rng.integers(0, 2 ** 32, 2000),
        rng.integers(0, 1000, 2000),
        np.repeat([0, 1], 1000),
    ])
    keys[:16, :2] = keys[1000:1016, :2] = [(c, r) for c in range(4) for r in range(4)]
    seeds, words = child_states(master, keys)
    assert seeds.dtype == words.dtype == np.uint64
    assert seeds.shape == (2000,) and words.shape == (2000, 4)
    for key, seed, row in zip(keys.tolist(), seeds.tolist(), words):
        ss = np.random.SeedSequence((master, *key))
        assert seed == int(ss.generate_state(1, np.uint64)[0])
        assert seed == child_seed(master, *key)
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


def test_child_states_for_a_4300_digit_master_and_no_key():
    master = 10 ** 4299
    seeds, words = child_states(master, np.array([[3, 1, 0], [0, 0, 0]]))
    assert seeds.tolist() == [child_seed(master, 3, 1, 0), child_seed(master, 0, 0, 0)]
    seeds, words = child_states(7, np.empty((2, 0), dtype=int))
    assert seeds.tolist() == [child_seed(7)] * 2


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
def test_seed_words_split_on_word_boundaries(seed):
    # A seed below 2**32 is one entropy word, from 2**32 on two.
    pool = _pool([np.array([seed & 0xFFFFFFFF], dtype=np.uint32),
                  np.array([seed >> 32], dtype=np.uint32)])
    expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert np.array_equal(_generate_state(pool, 1, 4)[0], expected)
    [rng] = rngs_from_words(expected[None])
    assert np.array_equal(rng.standard_normal(8), make_rng(seed).standard_normal(8))


def test_generators_from_words_draw_as_make_rng():
    seeds, words = child_states(20260301, np.indices((3, 50, 2)).reshape(3, -1).T)
    for seed, rng in zip(seeds.tolist(), rngs_from_words(words)):
        ref = make_rng(seed)
        assert np.array_equal(rng.standard_normal((5, 2)), ref.standard_normal((5, 2)))
        assert np.array_equal(rng.random(7), ref.random(7))
        assert np.array_equal(rng.uniform(0.0, 6.0, 3), ref.uniform(0.0, 6.0, 3))


@pytest.mark.parametrize("master,keys", [
    (-1, [[0]]),
    (0, [[-1, 0]]),
    (0, [[2 ** 32, 0]]),
], ids=["negative-master", "negative-key", "key-over-32-bits"])
def test_child_states_reject_bad_input(master, keys):
    with pytest.raises(ValueError):
        child_states(master, np.array(keys))


def test_import_leaves_numpy_random_unloaded():
    # Loading numpy.random is a noticeable share of the package's import
    # time; the precomputed-words seed sequence defers it to first use.
    code = "import sys, bridgefill.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"
