"""Save-probability checks, cross-validated three independent ways.

The factorized rational computation is compared against (a) a naive sum
over ordered index tuples of the same per-step fractions, (b) a full
enumeration of every equally likely matching outcome pushed through the
real simplifier, and (c) Monte Carlo frequencies from the actual
pipeline.  (b) and (c) know nothing about the closed-form expression,
so agreement pins down the formula, the matching distribution, and the
save criterion simultaneously.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    enumerate_save_fraction,
    exact_by_enumeration,
    monte_carlo_reference,
    save_battery,
    step_denominators,
    traced_peak,
)
from pdcm import matching, saveprob
from pdcm.degrees import DegreeSequence
from pdcm.rng import derive_seed, make_generator
from pdcm.saveprob import (
    exact_save_probability,
    monte_carlo_save_frequency,
    parse_save_spec,
)


def S(*rows):
    """A save-attempt spec: the DegreeSequence of the (in, out, und) rows,
    the tagged vertex first."""
    return DegreeSequence(rows)


triple_st = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
spec_st = st.builds(
    lambda tgt, oth: S(tgt, *oth),
    triple_st,
    st.lists(triple_st, min_size=1, max_size=5),
)


def _enumeration_cost(spec):
    """Outcome count of the full-matching oracle (to keep tests tiny)."""
    s_in, s_out, s_und = spec.s_in, spec.s_out, spec.s_und
    inj = math.perm(max(s_in, s_out), min(s_in, s_out))
    k = s_und - (s_und % 2)
    matchings = math.prod(range(1, k, 2)) if k else 1
    return inj * matchings * (s_und if s_und % 2 else 1)


class TestExactExamples:
    def test_empty_target_is_certain(self):
        assert exact_save_probability(S((0, 0, 0), (5, 3, 2), (1, 1, 1))) == 1
        assert exact_save_probability(S((0, 0, 0), (0, 0, 0))) == 1

    def test_three_vertex_one_in_one_out(self):
        # 6 equally likely in/out bijections, 2 attach both stubs of
        # vertex 0 to distinct other vertices
        spec = S((1, 1, 0), (1, 1, 0), (1, 1, 0))
        assert exact_save_probability(spec) == Fraction(1, 3)

    def test_single_in_stub_two_donors(self):
        spec = S((1, 0, 0), (0, 1, 0), (0, 1, 0))
        assert exact_save_probability(spec) == 1

    def test_two_und_stubs(self):
        # 3 pairings of the 4 undirected stubs; the self-loop one fails
        spec = S((0, 0, 2), (0, 0, 1), (0, 0, 1))
        assert exact_save_probability(spec) == Fraction(2, 3)

    def test_odd_und_total_leaves_a_pool_slot(self):
        # 3 stubs total: vertex 0's stub pairs with either real partner
        # or stays unpaired, each with probability 1/3
        spec = S((0, 0, 1), (0, 0, 1), (0, 0, 1))
        assert exact_save_probability(spec) == Fraction(2, 3)

    def test_in_out_surplus_absorbed_by_pool(self):
        # 2 in-stubs vs 3 out-stubs; vertex 0's single in-stub always
        # wins some other vertex's out-stub
        spec = S((1, 0, 0), (0, 2, 0), (1, 1, 0))
        assert exact_save_probability(spec) == 1

    def test_pigeonhole_zero(self):
        spec = S((2, 2, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0))
        assert exact_save_probability(spec) == 0
        # more target stubs than other vertices: 0 before the coefficient
        # table, 201^3 Python ints here, is allocated
        p, peak = traced_peak(exact_save_probability, S((200, 200, 200), (1, 1, 1), (1, 1, 1)))
        assert p == 0 and peak < 1 << 20

    def test_no_matching_stubs_zero_without_dividing(self):
        # nobody has an out-stub for the target's in-stub: the numerator
        # is 0, and the result is 0 before any denominator is taken
        spec = S((1, 0, 0), (1, 0, 0), (1, 0, 0))
        assert exact_save_probability(spec) == 0

    def test_returns_exact_fraction(self):
        spec = S((1, 1, 0), (1, 1, 0), (1, 1, 0))
        p = exact_save_probability(spec)
        assert isinstance(p, Fraction)


class TestCrossValidation:
    def test_examples_match_full_matching_enumeration(self):
        cases = [
            S((0, 0, 0), (2, 1, 2), (1, 1, 1)),
            S((1, 1, 0), (1, 1, 0), (1, 1, 0)),
            S((1, 0, 0), (0, 1, 0), (0, 1, 0)),
            S((0, 0, 2), (0, 0, 1), (0, 0, 1)),
            S((0, 0, 1), (0, 0, 1), (0, 0, 1)),
            S((1, 0, 0), (0, 2, 0), (1, 1, 0)),
        ]
        for spec in cases:
            assert exact_save_probability(spec) == enumerate_save_fraction(spec)

    @settings(max_examples=25, deadline=None)
    @given(spec_st)
    def test_formula_matches_full_matching_enumeration(self, spec):
        """The strongest check: the closed form equals the exhaustive
        distribution of the real pipeline, as an exact rational."""
        if _enumeration_cost(spec) > 4000:
            return
        assert exact_save_probability(spec) == enumerate_save_fraction(spec)

    @settings(max_examples=60, deadline=None)
    @given(spec_st)
    # directed surpluses of 11 either way and an odd undirected total of
    # 11, which the tiny strategy cannot reach; each answer is nonzero
    @example(S((2, 1, 0), (6, 1, 0), (6, 1, 0), (1, 1, 0)))
    @example(S((1, 2, 0), (1, 6, 0), (1, 6, 0), (1, 1, 0)))
    @example(S((1, 0, 2), (0, 1, 3), (0, 0, 3), (1, 0, 1), (0, 1, 2)))
    def test_factorized_equals_naive_tuple_sum(self, spec):
        assert exact_save_probability(spec) == exact_by_enumeration(spec)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=2, max_size=6))
    def test_step_denominators_at_least_one_where_probability_nonzero(self, rows):
        """Where the save probability is nonzero, every step denominator
        is at least 1: the condition under which it is safe to divide."""
        spec = S(*rows)
        if exact_save_probability(spec) != 0:
            for dens in step_denominators(spec):
                assert all(d >= 1 for d in dens)

    @settings(max_examples=60, deadline=None)
    @given(spec_st)
    def test_result_in_unit_interval(self, spec):
        p = exact_save_probability(spec)
        assert 0 <= p <= 1

    @settings(max_examples=40, deadline=None)
    @given(spec_st, st.randoms(use_true_random=False))
    def test_permutation_invariance_in_others(self, spec, rnd):
        target, *shuffled = spec.triples.tolist()
        rnd.shuffle(shuffled)
        permuted = S(target, *shuffled)
        assert exact_save_probability(permuted) == exact_save_probability(spec)

    @settings(max_examples=40, deadline=None)
    @given(spec_st)
    def test_appending_inert_vertex_never_decreases(self, spec):
        """A (0,0,0) vertex adds no stubs and no usable neighbour slots
        beyond the index range, so when the target already fits, the
        probability is unchanged (a sharper fact than 'never decreases');
        when the target was pigeonholed at 0 it can only go up."""
        bigger = S(*spec.triples.tolist(), (0, 0, 0))
        p, q = exact_save_probability(spec), exact_save_probability(bigger)
        assert q >= p
        if spec.triples[0].sum() <= spec.n - 1:
            assert q == p


# balanced, odd undirected total, out-stub surplus, in-stub surplus with
# an odd undirected total
STREAM_SPECS = [
    S((1, 1, 0), (1, 1, 0), (1, 1, 0)),
    S((0, 0, 1), (0, 0, 1), (0, 0, 1)),
    S((1, 0, 0), (0, 2, 0), (1, 1, 0)),
    S((2, 1, 1), (1, 0, 2), (1, 1, 0), (0, 0, 2)),
]


class TestMonteCarlo:
    @pytest.mark.parametrize("budget", [1, 64])
    @pytest.mark.parametrize("replicates", [1, 101])
    @pytest.mark.parametrize("spec", STREAM_SPECS + save_battery())
    def test_matches_per_replicate_loop(self, spec, replicates, budget,
                                        monkeypatch):
        """Simplifying replicates as disjoint unions leaves every stream
        and the returned pair bit-identical.  A small union budget forces
        many chunks (one replicate each at budget 1); 101 replicates is
        no multiple of any chunk size the budget 64 gives these specs."""
        monkeypatch.setattr(saveprob, "_UNION_BUDGET", budget)
        assert (monte_carlo_save_frequency(spec, replicates, seed=31)
                == monte_carlo_reference(spec, replicates, seed=31))

    @pytest.mark.parametrize("spec", STREAM_SPECS)
    def test_matches_per_replicate_loop_at_default_budget(self, spec):
        assert (monte_carlo_save_frequency(spec, 3001, seed=8)
                == monte_carlo_reference(spec, 3001, seed=8))

    @pytest.mark.parametrize("replicates, budget", [
        (1, saveprob._UNION_BUDGET), (500, saveprob._UNION_BUDGET), (101, 64), (30, 1)])
    def test_two_generators_per_run(self, replicates, budget, monkeypatch):
        """A run builds its two generators once, on derive_seed(seed, 0)
        and derive_seed(seed, 1), whatever its replicate and chunk counts."""
        spec = STREAM_SPECS[3]
        expected = monte_carlo_reference(spec, replicates, seed=3)
        built = []

        def counted(seed):
            built.append(seed)
            return make_generator(seed)

        monkeypatch.setattr(saveprob, "_UNION_BUDGET", budget)
        for module in (saveprob, matching):
            monkeypatch.setattr(module, "make_generator", counted)
        assert monte_carlo_save_frequency(spec, replicates, seed=3) == expected
        assert built == [derive_seed(3, 0), derive_seed(3, 1)]

    def test_three_vertex_frequency_within_three_sigma(self):
        spec = S((1, 1, 0), (1, 1, 0), (1, 1, 0))
        freq, se = monte_carlo_save_frequency(spec, 100_000, seed=2024)
        assert abs(freq - 1 / 3) <= 3 * se
        assert 0.0013 < se < 0.0017
        assert se == pytest.approx(math.sqrt(freq * (1 - freq) / 100_000))

    def test_empty_target_frequency_exactly_one(self):
        spec = S((0, 0, 0), (1, 2, 1), (0, 1, 1))
        freq, se = monte_carlo_save_frequency(spec, 2000, seed=1)
        assert freq == 1.0
        assert se == 0.0

    def test_pigeonhole_frequency_exactly_zero(self):
        spec = S((2, 2, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0))
        assert exact_save_probability(spec) == 0
        freq, _ = monte_carlo_save_frequency(spec, 2000, seed=1)
        assert freq == 0.0

    def test_deterministic_given_seed(self):
        spec = S((1, 1, 1), (1, 1, 1), (1, 1, 0), (0, 1, 1))
        a = monte_carlo_save_frequency(spec, 3000, seed=9)
        b = monte_carlo_save_frequency(spec, 3000, seed=9)
        assert a == b

    def test_replicates_must_be_positive(self):
        spec = S((0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            monte_carlo_save_frequency(spec, 0, seed=1)

    def test_battery_agreement(self):
        """10 random specs, 10^5 replicates each: exact within 4 binomial
        standard errors of the sampled frequency (exactly equal where the
        error collapses to zero).  Runs the real pipeline ~10^6 times."""
        for i, spec in enumerate(save_battery()):
            exact = float(exact_save_probability(spec))
            freq, se = monte_carlo_save_frequency(
                spec, 100_000, derive_seed(4242, i))
            if se == 0.0:
                assert freq == exact, f"spec {i}: {freq} != {exact}"
            else:
                assert abs(freq - exact) <= 4 * se, (
                    f"spec {i}: |{freq} - {exact}| > 4*{se}")


class TestSpecValidation:
    def test_needs_at_least_one_other(self):
        with pytest.raises(ValueError, match="at least one"):
            exact_save_probability(S((1, 0, 0)))
        with pytest.raises(ValueError, match="at least one"):
            monte_carlo_save_frequency(S((1, 0, 0)), 10, seed=1)

    def test_table_over_the_limit_raises_before_allocating(self):
        # 102^3 cells, and enough other rows to pass the pigeonhole check
        spec = S((101, 101, 101), *[(1, 1, 1)] * 303)

        def over_limit():
            with pytest.raises(ValueError, match=(
                    r"^target \(101, 101, 101\) needs a table of 1061208 cells; "
                    r"the exact oracle holds at most 1048576$")):
                exact_save_probability(spec)

        _, peak = traced_peak(over_limit)
        assert peak < 1 << 20

    def test_rejects_negative_degrees(self):
        with pytest.raises(ValueError, match="non-negative"):
            S((-1, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError, match="non-negative"):
            S((1, 0, 0), (0, -2, 0))

    def test_n_counts_target(self):
        """Row 0 is the target, not a neighbour: two undirected stubs need
        two other rows, so n = 2 is pigeonholed and n = 3 is not."""
        assert exact_save_probability(S((0, 0, 2), (0, 0, 2))) == 0
        assert exact_save_probability(
            S((0, 0, 2), (0, 0, 1), (0, 0, 1))) == Fraction(2, 3)

    def test_degree_sequence_puts_target_first(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("1 2 3\n4 5 6\n7 8 9\n")
        seq = parse_save_spec(p)
        assert seq.triples.tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_coerces_plain_tuples(self):
        spec = DegreeSequence([(1, 1, 0), [1, 1, 0], np.array([1, 1, 0])])
        assert spec.triples.dtype == np.int64
        assert exact_save_probability(spec) == Fraction(1, 3)


class TestParseSaveSpec:
    def test_first_line_is_target(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("1 1 0\n1 1 0\n1 1 0\n")
        spec = parse_save_spec(p)
        assert spec.triples.tolist() == [[1, 1, 0], [1, 1, 0], [1, 1, 0]]

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("# target\n\n0 0 2  # tagged vertex\n0 0 1\n\n0 0 1\n")
        spec = parse_save_spec(p)
        assert spec.triples.tolist() == [[0, 0, 2], [0, 0, 1], [0, 0, 1]]

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 1\n0 0 0\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_save_spec(p)

    def test_non_integer_token(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 1 0\n0 x 0\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_save_spec(p)

    def test_negative_degree(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 1 0\n0 -1 0\n")
        with pytest.raises(ValueError, match="non-negative"):
            parse_save_spec(p)

    def test_target_alone_is_not_enough(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 1 0\n")
        with pytest.raises(ValueError, match="at least one"):
            parse_save_spec(p)
