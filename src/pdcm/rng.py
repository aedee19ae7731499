"""Seed derivation, generator construction and lockstep draws.

All randomness in the package flows through numpy's PCG64. Sub-stream
seeds are derived with splitmix64 (Steele, Lea & Flood 2014), a published
64-bit mixing function, so independent implementations can reproduce the
exact streams; the constants and derivation rules are spelled out in the
README.  For many seeds at once, PCG64 and ``Generator.shuffle`` are also
run here in numpy arithmetic (``pcg64_words``, ``shuffle_rows``), checked
against numpy's own on every call.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1


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


# PCG64 (O'Neill 2014): a 128-bit LCG, state * _PCG_MULT + inc mod 2^128,
# whose output is the XSL-RR of the new state; numpy's PCG64 seeds it from
# the four SeedSequence words (initstate, initseq) as pcg_setseq_128_srandom_r
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U1, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 32, 58, 63, 64))
_LO32 = np.uint64(0xFFFFFFFF)


def _limbs(values):
    """(high, low) uint64 arrays of Python ints below 2^128."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _mulhi(a, b):
    """High 64 bits of the 128-bit products a * b, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LO32, a >> _U32, b & _LO32, b >> _U32
    mid = a1 * b0 + ((a0 * b0) >> _U32)
    return a1 * b1 + (mid >> _U32) + ((a0 * b1 + (mid & _LO32)) >> _U32)


def _mul128(a, b):
    """a * b mod 2^128 of (high, low) limb pairs."""
    (ah, al), (bh, bl) = a, b
    return _mulhi(al, bl) + al * bh + ah * bl, al * bl


def _add128(a, b):
    """a + b mod 2^128 of (high, low) limb pairs."""
    (ah, al), (bh, bl) = a, b
    low = al + bl
    return ah + bh + (low < al).astype(np.uint64), low


# values per temporary of pcg64_words: about 128 kB, which stays in cache
_SLAB = 1 << 14


def pcg64_words(words, first: int, count: int) -> np.ndarray:
    """The ``next_uint32`` streams of ``PCG64`` seeded with the rows of
    the (reps, 4) ``seed_words`` array ``words``: 64-bit outputs ``first``
    to ``first + count - 1`` (from 0), each as its low 32-bit word and
    then its high one, in a (2 * count, reps) uint32 array whose column j
    is replicate j's stream.

    Seeding leaves the state M^2 x + (M + 1) inc for M = _PCG_MULT,
    inc = 2 initseq + 1 and x = initstate + inc, so output k is the XSL-RR
    of M^(k+2) x + (1 + M + ... + M^(k+1)) inc: all outputs of a slab of
    replicates in one pass of uint64 limb arithmetic.
    """
    power, total, powers, totals = 1, 0, [], []
    for m in range(1, first + count + 2):  # M^m and 1 + M + ... + M^(m-1)
        power, total = power * _PCG_MULT & _MASK128, (total * _PCG_MULT + 1) & _MASK128
        if m >= first + 2:
            powers.append(power)
            totals.append(total)
    powers, totals = (tuple(limb[:, None] for limb in _limbs(c)) for c in (powers, totals))
    stream = np.empty((count, 2, len(words)), dtype=np.uint32)
    step = max(1, _SLAB // count)
    for j in range(0, len(words), step):
        state_hi, state_lo, seq_hi, seq_lo = words[j:j + step].T
        inc = (seq_hi << _U1) | (seq_lo >> _U63), (seq_lo << _U1) | _U1
        x = _add128((state_hi, state_lo), inc)
        hi, lo = _add128(_mul128(powers, x), _mul128(totals, inc))
        xored, rot = hi ^ lo, hi >> _U58
        out = (xored >> rot) | (xored << ((_U64 - rot) & _U63))
        stream[:, 0, j:j + step] = out
        stream[:, 1, j:j + step] = out >> _U32
    return stream.reshape(2 * count, -1)


def _word_moments(limits):
    """Mean and standard deviation of the words random_interval takes for
    all ``limits``: geometric counts, each with success chance
    (i + 1) / 2^bitlen(i)."""
    chance = np.array([(i + 1) / (1 << i.bit_length()) for i in limits])
    return np.sum(1 / chance), np.sqrt(np.sum((1 - chance) / chance**2))


def shuffle_rows(seeds, arrays) -> None:
    """Shuffle row j of each (reps, L) array of ``arrays`` in place as
    ``make_generator(seeds[j]).shuffle`` would, the arrays in turn on one
    stream, for every replicate j in lockstep.

    ``Generator.shuffle`` is Fisher-Yates: for i = L - 1 down to 1 it
    swaps entry i with entry random_interval(i), which takes
    ``next_uint32`` words masked to 2^bitlen(i) - 1 and rejects any above
    i.  The streams are drawn in blocks, the first covering the mean and
    two standard deviations of the words needed and later ones two
    deviations, for the replicates not yet done, and read a word of each
    per step, each replicate at its own position; the swaps follow.  Replicate 0 is checked against a
    real generator, so a numpy that draws differently fails loudly.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    limits = [i for a in arrays for i in range(a.shape[1] - 1, 0, -1)]
    if not limits:
        return
    firsts = [a[0].copy() for a in arrays]
    reps, words, done = seeds.size, seed_words(seeds), len(limits)
    mean, sd = _word_moments(limits)
    block, tail = int(mean + 2 * sd) // 2 + 1, int(sd) + 1  # in 64-bit outputs
    # position `done` always accepts: a replicate that finishes parks there
    tops = np.array(limits + [0xFFFFFFFF], dtype=np.uint32)
    masks = np.array([(1 << i.bit_length()) - 1 for i in limits] + [0xFFFFFFFF], dtype=np.uint32)
    picks = np.empty((done + 1, reps), dtype=np.uint32)
    slots = picks.reshape(-1)
    live, at, drawn_outputs = np.arange(reps), np.zeros(reps, dtype=np.intp), 0
    while live.size:
        stream = pcg64_words(words[live], drawn_outputs, block)
        if drawn_outputs == 0:
            head = stream[:, 0].tolist()
        for word in stream:
            drawn = word & masks.take(at)
            slots[at * reps + live] = drawn
            at += drawn <= tops.take(at)
            np.minimum(at, done, out=at)
        drawn_outputs += block
        live, at = live[at < done], at[at < done]
        block = tail
    rows = iter(picks)
    for a in arrays:
        flat, base = a.reshape(-1), np.arange(reps) * a.shape[1]
        for i in range(a.shape[1] - 1, 0, -1):
            index = base + next(rows)
            held = a[:, i].copy()
            a[:, i] = flat[index]
            flat[index] = held
    rng = make_generator(int(seeds[0]))
    for row in firsts:
        rng.shuffle(row)
    raw = np.random.PCG64(int(seeds[0])).random_raw(len(head) // 2).tolist()
    if (head != [w for v in raw for w in (v & 0xFFFFFFFF, v >> 32)]
            or any(row.tolist() != a[0].tolist() for row, a in zip(firsts, arrays))):
        raise RuntimeError("numpy's PCG64 or Generator.shuffle no longer matches "
                           "pdcm.rng.shuffle_rows; oracle streams would drift")
