"""Deterministic random-stream derivation.

All randomness in the package flows through numpy's PCG64 bit generator,
which is platform independent. Every stream has a key, an index path such
as ``(cell, replicate, purpose)``, and its child seed is
``SeedSequence((master_seed, *key)).generate_state(1, uint64)``; the stream
is PCG64 seeded through ``SeedSequence(child_seed)``. So any replicate can
be rerun in isolation from its seed, and parallel execution cannot change
results.

``child_seed`` and ``make_rng`` derive one key at a time. ``child_states``
derives many keys in one array pass: it runs the same ``SeedSequence``
hashing (M. E. O'Neill, "Developing a seed_seq Alternative",
pcg-random.org, 2015) in ``uint32`` arithmetic over all keys at once, for
the child seeds and then for their PCG64 seed words, and ``rngs_from_words``
starts a Generator from each row of words. The results equal the one-key
functions bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np


def make_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """``np.random.default_rng(seed)``: PCG64 seeded through
    ``SeedSequence(seed)``, and an existing Generator passes through. A
    non-integer seed, such as 2.5, raises TypeError, and so does None,
    for which numpy would seed from fresh OS entropy."""
    if seed is None:
        raise TypeError("a seed is required: None gives no reproducible stream")
    return np.random.default_rng(seed)


def child_seed(master_seed: int, *key: int) -> int:
    """Derive a 64-bit child seed from a master seed and an index path.

    The derivation is ``SeedSequence((master_seed, *key))``, so distinct key
    tuples give statistically independent streams.
    """
    ss = np.random.SeedSequence(tuple(int(k) for k in (master_seed, *key)))
    return int(ss.generate_state(1, np.uint64)[0])


# SeedSequence's constants: a pool of 4 words, the hash and mix multipliers.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64 takes 4 64-bit words from its seed sequence: the state and increment.
_PCG64_WORDS = 4


def _words32(n: int) -> list[int]:
    """``n``'s 32-bit words, least significant first; 0 is one word."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


@functools.lru_cache(maxsize=16)
def _consts(init: int, mult: int, n: int) -> np.ndarray:
    """The hash constants ``init * mult**i mod 2**32`` for i in 0..n, as a
    read-only ``uint32`` column: hash i xors with row i and multiplies by
    row i + 1."""
    column = np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(n + 1)],
                      dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def _pool(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence's mixed entropy pool, shape (4, keys) ``uint32``.

    Each entropy word is an array over the keys, or shape (1,) when all keys
    share it. The pool is filled with the first words, padded by hashing 0,
    and mixed word with word; each further word is then mixed into every
    pool word. Hashes that do not depend on each other run as one array op:
    a pool word's hashes into the other three, and a further word's hashes
    into all four.
    """
    extra = entropy[_POOL:]
    consts = _consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * len(extra))
    first = entropy[:_POOL] + [np.zeros(1, dtype=np.uint32)] * (_POOL - len(entropy))
    pool = _hash(np.array(np.broadcast_arrays(*first)), consts[:_POOL],
                 consts[1:_POOL + 1])
    c = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[c:c + 3],
                                          consts[c + 1:c + 4]))
        c += 3
    for word in extra:
        pool = _mix(pool, _hash(word, consts[c:c + _POOL], consts[c + 1:c + _POOL + 1]))
        c += _POOL
    return pool


def _generate_state(pool: np.ndarray, n_keys: int, n_words: int) -> np.ndarray:
    """``SeedSequence.generate_state(n_words, uint64)`` per key, shape
    (n_keys, n_words): the pool cycled through the output hash, each pair of
    32-bit outputs joined low word first, by shifts, so byte order does not
    matter."""
    consts = _consts(_INIT_B, _MULT_B, 2 * n_words)
    halves = _hash(pool[np.arange(2 * n_words) % _POOL], consts[:-1],
                   consts[1:]).astype(np.uint64)
    out = np.empty((n_keys, n_words), dtype=np.uint64)
    out[:] = (halves[0::2] | (halves[1::2] << np.uint64(32))).T
    return out


def child_states(master_seed: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Child seeds and their PCG64 seed words for many keys in one pass.

    ``keys`` is a (k, width) integer array of key paths, each entry in
    [0, 2**32). Returns ``seeds``, shape (k,) ``uint64``, with ``seeds[i] ==
    child_seed(master_seed, *keys[i])``, and ``words``, shape (k, 4)
    ``uint64``, with ``words[i] ==
    SeedSequence(seeds[i]).generate_state(4, uint64)``, the words
    ``make_rng(seeds[i])`` starts its PCG64 from.
    """
    keys = np.asarray(keys)
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("key entries must lie in [0, 2**32)")
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    keys = keys.astype(np.uint32)
    # SeedSequence splits each integer of its entropy into 32-bit words: the
    # master seed may be several, each key entry is one.
    entropy = [np.array([w], dtype=np.uint32) for w in _words32(int(master_seed))]
    entropy += [keys[:, j] for j in range(keys.shape[1])]
    seeds = _generate_state(_pool(entropy), len(keys), 1)[:, 0]
    # A child seed below 2**32 is one entropy word, not two; the pool pads a
    # short entropy by hashing 0, so a zero high word gives the same pool.
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    return seeds, _generate_state(_pool([low, high]), len(keys), _PCG64_WORDS)


@functools.cache
def _words_seed_sequence() -> type:
    """A seed sequence class that hands PCG64 its precomputed seed words.

    Built on first use: importing ``numpy.random`` takes a noticeable share
    of the package's import time, and nothing else needs it that early.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def rngs_from_words(words: np.ndarray) -> list[np.random.Generator]:
    """One PCG64 Generator per row of ``child_states`` words; the Generator
    of row i draws what ``make_rng(seeds[i])`` draws."""
    seed_sequence = _words_seed_sequence()
    return [np.random.Generator(np.random.PCG64(seed_sequence(w)))
            for w in np.ascontiguousarray(words, dtype=np.uint64)]
