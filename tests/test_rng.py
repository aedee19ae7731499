"""Batched generator seeding: the same streams as one PCG64(seed) each."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcm import rng as rng_module
from pdcm.rng import derive_seed, make_generator, make_generators, seed_words

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
