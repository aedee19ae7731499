"""Seed derivation and generator construction.

All randomness in the package flows through numpy's PCG64. Sub-stream
seeds are derived with splitmix64 (Steele, Lea & Flood 2014), a published
64-bit mixing function, so independent implementations can reproduce the
exact streams; the constants and derivation rules are spelled out in the
README.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(x):
    """One splitmix64 step: deterministic 64-bit avalanche of ``x``, a
    Python int or (elementwise, wrapping mod 2^64) a uint64 array."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_seed(base: int, size_index: int, replicate: int) -> int:
    """Seed for one experiment replicate: ``base XOR splitmix64(s*2^64//2^32 + r)``.

    The size index occupies the high 32 bits and the replicate index the
    low 32 bits of the mixed word, so every (s, r) cell gets its own
    stream seed.
    """
    return (base ^ splitmix64(((size_index & 0xFFFFFFFF) << 32) | (replicate & 0xFFFFFFFF))) & _MASK64


def derive_seed(seed: int, *indices):
    """Fold stage indices into ``seed`` to split it into sub-stream seeds.

    Each index is mixed in as splitmix64(seed XOR splitmix64(index)); used
    to give the degree-sampling and stub-matching stages of one run
    independent generators.  An index may be a uint64 array, which gives
    the array of the seeds its elements would give.
    """
    s = seed & _MASK64
    for i in indices:
        s = splitmix64((s ^ splitmix64(i & _MASK64)) & _MASK64)
    return s


def make_generator(seed: int) -> np.random.Generator:
    """A fresh PCG64 generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


# numpy's SeedSequence constants (O'Neill's seed_seq_fe, NEP 19)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const, mult):
    """seed_seq_fe's hash, whose constant steps on with every call."""
    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return step


def seed_words(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for all seeds of a
    uint64 array at once, in uint32 arithmetic, as an (len, 4) array.  The
    entropy is a seed's low and high 32-bit words: a zero high word hashes
    like one-word entropy, as the pool pads with hashmix(0)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    hashmix, zero = _hasher(_INIT_A, _MULT_A), np.zeros(seeds.shape, np.uint32)
    pool = [hashmix(w) for w in ((seeds & 0xFFFFFFFF).astype(np.uint32),
                                 (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    final = _hasher(_INIT_B, _MULT_B)
    half = [final(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([half[k] | (half[k + 1] << 32) for k in (0, 2, 4, 6)], axis=-1)


class _Words(ISeedSequence):
    """Hands PCG64 the four words ``seed_words`` computed for its seed."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def make_generators(seeds):
    """Yield ``make_generator(s)`` for each seed of a uint64 array, hashing
    all seeds in one ``seed_words`` call.  The first generator is checked
    against ``PCG64(seeds[0])``, so a changed SeedSequence fails loudly."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    for j, words in enumerate(seed_words(seeds)):
        rng = np.random.Generator(np.random.PCG64(_Words(words)))
        if j == 0 and rng.bit_generator.state != np.random.PCG64(int(seeds[0])).state:
            raise RuntimeError("numpy's SeedSequence no longer matches "
                               "pdcm.rng.seed_words; oracle streams would drift")
        yield rng
