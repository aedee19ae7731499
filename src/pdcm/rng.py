"""Seed derivation and generator construction.

All randomness in the package flows through numpy's PCG64. Sub-stream
seeds are derived with splitmix64 (Steele, Lea & Flood 2014), a published
64-bit mixing function, so independent implementations can reproduce the
exact streams; the constants and derivation rules are spelled out in the
README.
"""
from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(x: int) -> int:
    """One splitmix64 step: deterministic 64-bit avalanche of ``x``."""
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


def derive_seed(seed: int, *indices: int) -> int:
    """Fold stage indices into ``seed`` to split it into sub-stream seeds.

    Each index is mixed in as splitmix64(seed XOR splitmix64(index)); used
    to give the degree-sampling and stub-matching stages of one run
    independent generators.
    """
    s = seed & _MASK64
    for i in indices:
        s = splitmix64((s ^ splitmix64(i & _MASK64)) & _MASK64)
    return s


def make_generator(seed: int) -> np.random.Generator:
    """A fresh PCG64 generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))
