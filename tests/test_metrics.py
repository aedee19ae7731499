import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import simple_graph, total_variation_exact, total_variation_reference
from pdcm.degrees import (
    COUPLINGS,
    MODELS,
    JointDegreeDistribution,
    load_degree_file,
    sample_sequence,
)
from pdcm.experiment import sample_graph
from pdcm.matching import match_stubs
from pdcm.metrics import (
    CSV_COLUMNS,
    census_from_triples,
    degree_census,
    proportion_directed,
    total_variation,
)
from pdcm.simplify import simplify


# The float d_tv against the exact Fraction: over 400 other cells of
# data/degrees_10k.txt (seeds 100..124, n = 50..10^4, both couplings) the
# worst relative error was 4.3e-15, as for the union-of-supports form the
# census-support sum replaced.  It is the rounding of p, q and their sums
# over up to n terms, so 1e-14 holds that worst case 2.3 times over and
# still fails any term counted wrong (an error of at least 1/n) or any
# tail left out.
EXACT_REL = 1e-14


@pytest.fixture(scope="module")
def degrees_10k():
    return load_degree_file(Path(__file__).parents[1] / "data" / "degrees_10k.txt")


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

    def test_atom_table_is_built_once_per_law(self, monkeypatch):
        """An empirical law's atom table is built on first use and kept:
        two d_tv calls and a triple_probability call count its rows once."""
        from pdcm import degrees

        original, built = degrees.distinct_rows, []

        def spy(triples):
            built.append(len(triples))
            return original(triples)

        dist = JointDegreeDistribution.empirical([(1, 1, 0), (3, 3, 2), (1, 1, 0)],
                                                 "dependent")
        census = census_from_triples([(1, 1, 0)] * 8)
        monkeypatch.setattr(degrees, "distinct_rows", spy)
        assert total_variation(census, dist) == pytest.approx(1 / 3)
        assert total_variation(census, dist) == pytest.approx(1 / 3)
        assert degrees.triple_probability(dist, [(1, 1, 0)]).tolist() == [2 / 3]
        assert built == [3]
        atoms, prob = dist.atom_table
        assert atoms.tolist() == [[1, 1, 0], [3, 3, 2]] and prob.tolist() == [2 / 3, 1 / 3]

    def test_independent_law_builds_no_atom_table(self):
        """An independent empirical law is looked up in its column tables
        alone: d_tv never builds the table of its distinct rows."""
        dist = JointDegreeDistribution.empirical([(1, 1, 0), (3, 3, 2), (1, 1, 0)],
                                                 "independent")
        rows = [(1, 1, 0)] * 8 + [(3, 1, 0)]
        assert total_variation(census_from_triples(rows), dist) == pytest.approx(
            float(total_variation_exact(rows, dist)), rel=EXACT_REL)
        assert "column_tables" in dist.__dict__
        assert "atom_table" not in dist.__dict__

    def test_empty_census_rejected(self):
        from pdcm.metrics import DegreeCensus

        dist = JointDegreeDistribution.poisson(7.0, "independent")
        with pytest.raises(ValueError):
            total_variation(DegreeCensus(np.zeros((0, 3), dtype=np.int64),
                                         np.zeros(0, dtype=np.int64)), dist)

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


@pytest.mark.parametrize("coupling", COUPLINGS)
@pytest.mark.parametrize("n,seed", [(50, 1), (50, 2), (1000, 3), (10_000, 4)])
def test_empirical_total_variation_is_exact(degrees_10k, coupling, n, seed):
    """Empirical d_tv of a sampled graph against Fractions summed over the
    law's rows and the census support together."""
    dist = JointDegreeDistribution.empirical(degrees_10k, coupling)
    g, _ = sample_graph(dist, n, seed)
    exact = total_variation_exact(g.degree_triples, dist)
    assert total_variation(degree_census(g), dist) == pytest.approx(float(exact),
                                                                    rel=EXACT_REL)


@pytest.mark.parametrize("coupling", COUPLINGS)
def test_missed_atoms_fall_in_the_tail(coupling):
    """Atoms of the law that the census misses, and a census row the law
    never draws, give the exact d_tv: the missed mass is all tail."""
    law = [(1, 1, 0), (3, 3, 2), (1, 1, 0), (0, 2, 5), (4, 0, 0)]
    rows = [(1, 1, 0)] * 5 + [(7, 7, 7)] + [(3, 2, 0)] * 2
    dist = JointDegreeDistribution.empirical(law, coupling)
    assert total_variation(census_from_triples(rows), dist) == pytest.approx(
        float(total_variation_exact(rows, dist)), rel=EXACT_REL)


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
