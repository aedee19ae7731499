"""The numpy behaviour the oracle's stream contract rests on: one
``Generator.permuted`` call along the rows of a stub array draws what
``Generator.shuffle`` draws on each row in turn."""

import numpy as np
import pytest

from pdcm.rng import derive_seed, make_generator


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -12345, 2**64 + 99, 31])
def test_array_derive_seed_equals_scalar(seed):
    index = np.r_[0:500, 10**6 - 499:10**6 + 1, 1000:10**6:4999].astype(np.uint64)
    assert (derive_seed(seed, index).tolist()
            == [derive_seed(seed, int(i)) for i in index])


# no swap (0 and 1), one swap (2), lengths around powers of two, where
# random_interval's mask grows, and long rows
@pytest.mark.parametrize("length", [0, 1, 2, 3, 16, 17, 129, 5000, 70_000])
@pytest.mark.parametrize("reps", [1, 2, 7])
def test_permuted_rows_equal_shuffle_of_each_row(reps, length):
    """``permuted(x, axis=1, out=x)`` on a C-contiguous uint32 (reps, L)
    array shuffles it in place, row 0 first, as ``shuffle`` on each row
    would, and leaves the generator in the same state."""
    for seed in (0, 5, 2**64 - 1):
        rows = np.tile(np.arange(length, dtype=np.uint32) * 3 + 1, (reps, 1))
        expected = rows.copy()
        rng, ref = make_generator(seed), make_generator(seed)
        assert rng.permuted(rows, axis=1, out=rows) is rows
        for row in expected:
            ref.shuffle(row)
        assert rows.tolist() == expected.tolist()
        assert rng.bit_generator.state == ref.bit_generator.state
