"""Batched generator seeding and lockstep draws: the same streams as one
PCG64(seed) each."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcm import rng as rng_module
from pdcm.rng import (derive_seed, make_generator, make_generators, pcg64_words,
                      seed_words, shuffle_rows)

EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def numpy_words(seeds):
    return np.array([np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                     for s in seeds], dtype=np.uint64).reshape(-1, 4)


def test_seed_words_edge_seeds():
    seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
    assert (seed_words(seeds) == numpy_words(seeds)).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_seed_words_equal_seed_sequence(seeds):
    seeds = np.array(seeds, dtype=np.uint64)
    assert (seed_words(seeds) == numpy_words(seeds)).all()


def test_make_generators_give_pcg64_states_and_draws():
    seeds = np.array(EDGE_SEEDS + list(range(100, 300)), dtype=np.uint64)
    for seed, rng in zip(seeds, make_generators(seeds)):
        assert rng.bit_generator.state == np.random.PCG64(int(seed)).state
        assert (rng.integers(0, 2**62, 4).tolist()
                == make_generator(int(seed)).integers(0, 2**62, 4).tolist())


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -12345, 2**64 + 99, 31])
def test_array_derive_seed_equals_scalar(seed):
    index = np.r_[0:500, 10**6 - 499:10**6 + 1, 1000:10**6:4999].astype(np.uint64)
    assert (derive_seed(seed, index).tolist()
            == [derive_seed(seed, int(i)) for i in index])


def test_guard_raises_when_seed_words_drift(monkeypatch):
    exact = rng_module.seed_words
    monkeypatch.setattr(rng_module, "seed_words",
                        lambda seeds: exact(seeds) ^ np.uint64(1))
    with pytest.raises(RuntimeError, match="SeedSequence"):
        next(make_generators(np.array([5, 6], dtype=np.uint64)))


@pytest.mark.parametrize("first, count", [(0, 1), (0, 9), (3, 4), (40, 2)])
def test_pcg64_words_are_next_uint32_draws(first, count):
    """Column j of pcg64_words is PCG64(seeds[j])'s stream: outputs
    first..first+count-1, each low word first, as next_uint32 hands them
    out."""
    seeds = np.array(EDGE_SEEDS + list(range(100, 140)), dtype=np.uint64)
    stream = pcg64_words(seed_words(seeds), first, count)
    assert stream.shape == (2 * count, seeds.size) and stream.dtype == np.uint32
    for j, seed in enumerate(seeds.tolist()):
        raw = np.random.PCG64(seed).random_raw(first + count)[first:].tolist()
        assert stream[:, j].tolist() == [w for v in raw for w in (v & 0xFFFFFFFF, v >> 32)]
    rng = np.random.Generator(np.random.PCG64(int(seeds[3])))
    assert (rng.integers(0, 2**32, 2 * count, dtype=np.uint32, endpoint=False).tolist()
            == pcg64_words(seed_words(seeds[3:4]), 0, count)[:, 0].tolist())


def shuffled_each(seeds, arrays):
    """What one make_generator per seed does to the rows, in turn."""
    arrays = [a.copy() for a in arrays]
    for j, seed in enumerate(seeds):
        rng = make_generator(int(seed))
        for a in arrays:
            rng.shuffle(a[j])
    return arrays


# row lengths around the powers of two, where random_interval's mask grows
ROW_LENGTHS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 64, 65, 128, 129]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ROW_LENGTHS), min_size=1, max_size=3),
       st.lists(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
                min_size=1, max_size=12),
       st.sampled_from([None, (0, 0), (3, 1)]))
def test_shuffle_rows_equal_generator_shuffle(lengths, seeds, moments):
    """Lockstep Fisher-Yates gives each row what Generator.shuffle gives
    it, whatever the blocks of outputs drawn at a time: word moments of
    (0, 0) make every block one output, (3, 1) three and then two."""
    seeds = np.array(seeds, dtype=np.uint64)
    arrays = [np.tile(np.arange(length, dtype=np.uint32) * 3 + 1, (seeds.size, 1))
              for length in lengths]
    expected = shuffled_each(seeds, arrays)
    with pytest.MonkeyPatch.context() as mp:
        if moments:
            mp.setattr(rng_module, "_word_moments", lambda limits: moments)
        shuffle_rows(seeds, arrays)
    assert [a.tolist() for a in arrays] == [a.tolist() for a in expected]


def test_shuffle_rows_long_rows_and_many_replicates():
    """Rows of 600 and 599 stubs, and 3,000 replicates of a 3-stub row,
    whose rare long runs of rejected words reach the later blocks: every
    row still equals its own generator's shuffle."""
    for reps, lengths in ((40, [600, 599]), (3000, [0, 3])):
        seeds = derive_seed(7, np.arange(reps, dtype=np.uint64))
        arrays = [np.tile(np.arange(n, dtype=np.uint32), (reps, 1)) for n in lengths]
        expected = shuffled_each(seeds, arrays)
        shuffle_rows(seeds, arrays)
        assert all((a == e).all() for a, e in zip(arrays, expected))


def test_shuffle_guard_raises_when_a_pcg_constant_drifts(monkeypatch):
    monkeypatch.setattr(rng_module, "_PCG_MULT", rng_module._PCG_MULT ^ (1 << 70))
    with pytest.raises(RuntimeError, match="PCG64"):
        shuffle_rows(np.array([5, 6], dtype=np.uint64),
                     [np.tile(np.arange(4, dtype=np.uint32), (2, 1))])


def test_shuffle_guard_raises_when_shuffle_drifts(monkeypatch):
    """A numpy whose shuffle drew other swaps from the same words would
    leave replicate 0 different from the real generator's rows."""
    monkeypatch.setattr(rng_module, "make_generator", lambda seed: np.random.Generator(
        np.random.PCG64(seed + 1)))
    with pytest.raises(RuntimeError, match="shuffle"):
        shuffle_rows(np.array([5, 6], dtype=np.uint64),
                     [np.tile(np.arange(40, dtype=np.uint32), (2, 1))])
