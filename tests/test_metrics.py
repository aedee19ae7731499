import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import simple_graph, total_variation_reference
from pdcm.degrees import COUPLINGS, MODELS, JointDegreeDistribution, sample_sequence
from pdcm.matching import match_stubs
from pdcm.metrics import (
    CSV_COLUMNS,
    census_from_triples,
    degree_census,
    erased_per_vertex,
    proportion_directed,
    total_variation,
)
from pdcm.simplify import ErasureReport, simplify


def empty_graph(n):
    e = np.array([], dtype=np.uint32)
    return simple_graph(n, e, e, e, e)


class TestCensus:
    def test_empty_graph(self):
        c = degree_census(empty_graph(3))
        assert c.triples.tolist() == [[0, 0, 0]] and c.counts.tolist() == [3]
        assert c.n == 3

    def test_single_arc(self):
        g = simple_graph(2, np.array([0]), np.array([1]), np.array([]), np.array([]))
        c = degree_census(g)
        assert c.triples.tolist() == [[0, 1, 0], [1, 0, 0]]
        assert c.counts.tolist() == [1, 1]

    def test_single_undirected_edge(self):
        g = simple_graph(2, np.array([]), np.array([]), np.array([0]), np.array([1]))
        c = degree_census(g)
        assert c.triples.tolist() == [[0, 0, 1]] and c.counts.tolist() == [2]

    def test_relabeling_invariance(self):
        g = simple_graph(
            4, np.array([0, 2]), np.array([1, 3]), np.array([1]), np.array([2])
        )
        # relabel i -> 3 - i
        h = simple_graph(
            4, np.array([3, 1]), np.array([2, 0]), np.array([2]), np.array([1])
        )
        cg, ch = degree_census(g), degree_census(h)
        assert cg.triples.tolist() == ch.triples.tolist()
        assert cg.counts.tolist() == ch.counts.tolist()

    def test_counts_must_sum_to_n(self):
        from pdcm.metrics import DegreeCensus

        with pytest.raises(ValueError):
            DegreeCensus(np.array([[0, 0, 0]]), np.array([2]), n=3)

    def test_frequency_lookup(self):
        c = census_from_triples([(1, 0, 0), (1, 0, 0), (0, 0, 2)])
        assert c.triples.tolist() == [[0, 0, 2], [1, 0, 0]]
        assert c.counts[1] / c.n == pytest.approx(2 / 3)
        assert [9, 9, 9] not in c.triples.tolist()

    @pytest.mark.parametrize("extra", [
        [],
        [(2**40, 0, 0), (0, 2**40, 0), (0, 0, 2**40)],  # radix overflows int64
        [(-1, 0, 0)],  # outside the mixed-radix code
    ])
    def test_counts_equal_a_dict_count(self, extra):
        from collections import Counter

        rows = [tuple(r) for r in np.random.default_rng(5).integers(0, 4, (300, 3)).tolist()]
        rows += extra
        c = census_from_triples(rows)
        table = dict(zip(map(tuple, c.triples.tolist()), c.counts.tolist()))
        assert table == dict(Counter(rows))
        assert list(table) == sorted(table)


class TestTotalVariation:
    def test_exact_match_is_zero(self):
        dist = JointDegreeDistribution.empirical(
            [(1, 1, 0), (3, 3, 2)], "dependent"
        )
        census = census_from_triples([(1, 1, 0)] * 50 + [(3, 3, 2)] * 50)
        assert total_variation(census, dist) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_support_is_one(self):
        dist = JointDegreeDistribution.empirical([(1, 1, 1)], "dependent")
        census = census_from_triples([(5, 5, 5)] * 10)
        assert total_variation(census, dist) == pytest.approx(1.0)

    def test_unobserved_empirical_atoms_count(self):
        # census misses the second atom entirely: tv = 1/2 * (1/2 + 1/2)
        dist = JointDegreeDistribution.empirical(
            [(1, 1, 0), (3, 3, 2)], "dependent"
        )
        census = census_from_triples([(1, 1, 0)] * 8)
        assert total_variation(census, dist) == pytest.approx(0.5)

    def test_empty_census_rejected(self):
        from pdcm.metrics import DegreeCensus

        dist = JointDegreeDistribution.poisson(7.0, "independent")
        with pytest.raises(ValueError):
            total_variation(DegreeCensus(np.zeros((0, 3), dtype=np.int64),
                                         np.zeros(0, dtype=np.int64), n=0), dist)

    def test_matches_brute_force_double_loop(self):
        """Full-pipeline d_tv against an independent re-implementation
        (scipy pmf, explicit Python loop) to 1e-12."""
        from scipy.stats import poisson

        lam = 7.0
        dist = JointDegreeDistribution.poisson(lam, "independent")
        seq = sample_sequence(dist, 10**4, seed=42)
        g, _ = simplify(match_stubs(seq, seed=43))
        census = degree_census(g)

        acc = 0.0
        seen = 0.0
        for (i, j, k), c in zip(census.triples.tolist(), census.counts.tolist()):
            p = poisson.pmf(i, lam) * poisson.pmf(j, lam) * poisson.pmf(k, lam)
            acc += abs(p - c / census.n)
            seen += p
        expected = 0.5 * (acc + (1.0 - seen))
        assert total_variation(census, dist) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(["independent", "dependent"]),
    )
    def test_bounded_in_unit_interval(self, rows, coupling):
        dist = JointDegreeDistribution.poisson(2.0, coupling)
        census = census_from_triples(rows)
        tv = total_variation(census, dist)
        assert 0.0 <= tv <= 1.0


def triples_in(lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * 3)


HUGE = [(2**40, 0, 0), (0, 2**40, 0), (0, 0, 2**40)]  # radix overflows int64


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(MODELS),
    st.sampled_from(COUPLINGS),
    st.lists(triples_in(0, 4), max_size=30),
    st.lists(triples_in(5, 7), min_size=1, max_size=10),
    st.lists(triples_in(0, 4), min_size=1, max_size=30),
    st.sampled_from(["none", "census", "law", "both"]),
)
def test_total_variation_equals_reference(model, coupling, shared, outside,
                                          law_rows, huge):
    """Bit-identical to the set/dict d_tv for every model and coupling.

    The census always has rows outside the empirical law's support
    (entries 5..7) and misses its atom (0, 0, 8); ``huge`` puts rows whose
    column maxima overflow the int64 radix into the census, the law or
    both.  A Poisson census keeps small entries: its pmf table runs up to
    the largest one.
    """
    assume(model != "poisson" or huge in ("none", "law"))
    rows = shared + outside + (HUGE if huge in ("census", "both") else [])
    law_rows = law_rows + [(0, 0, 8)] + (HUGE if huge in ("law", "both") else [])
    dist = {"poisson": lambda: JointDegreeDistribution.poisson(2.0, coupling),
            "scale_free": lambda: JointDegreeDistribution.scale_free(2.5, coupling),
            "empirical": lambda: JointDegreeDistribution.empirical(law_rows, coupling),
            }[model]()
    assert (total_variation(census_from_triples(rows), dist)
            == total_variation_reference(rows, dist))


class TestRates:
    def test_all_zero(self):
        r = ErasureReport(0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert set(erased_per_vertex(r, 10).values()) == {0.0}

    def test_division(self):
        r = ErasureReport(0, 0, 0, 0, 0, 0, 0, 5, 0)
        rates = erased_per_vertex(r, 100)
        assert rates["reciprocal_pairs_converted"] == pytest.approx(0.05)
        assert len(rates) == 9

    def test_positive_n_required(self):
        with pytest.raises(ValueError):
            erased_per_vertex(ErasureReport(0, 0, 0, 0, 0, 0, 0, 0, 0), 0)


class TestProportionDirected:
    def test_mixed(self):
        g = simple_graph(4, np.array([0]), np.array([1]), np.array([2]), np.array([3]))
        assert proportion_directed(g) == pytest.approx(0.5)

    def test_purely_undirected(self):
        g = simple_graph(2, np.array([]), np.array([]), np.array([0]), np.array([1]))
        assert proportion_directed(g) == 0.0

    def test_empty_graph_is_nan(self):
        """The experiment CSV and the ingest JSON write NaN for no edges."""
        assert math.isnan(proportion_directed(empty_graph(3)))


def test_csv_column_order():
    assert CSV_COLUMNS == (
        "model",
        "coupling",
        "n",
        "seed",
        "d_tv",
        "modified_per_vertex",
        "unconnected_und",
        "unconnected_dir",
        "self_loops_dir",
        "self_loops_und",
        "parallel_dir",
        "parallel_und",
        "dir_parallel_to_und",
        "reciprocal_pairs_converted",
        "modified_vertices",
        "prop_directed",
    )
