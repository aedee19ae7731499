from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdcm.components
from _oracles import (
    adjacency_reference,
    brute_scc_partition,
    brute_scc_sizes,
    directed_pairs,
    multigraph,
    poisson_graph,
    random_simple_graph,
    simple_graph,
    traced_peak,
    undirected_pairs,
)
from pdcm.components import (
    ComponentSummary,
    _csr,
    _labels,
    component_labels,
    strongly_connected_components,
    write_component_csv,
)
from pdcm.simplify import simplify

E = np.array([], dtype=np.uint32)


class TestExamples:
    def test_undirected_edge_is_reciprocal(self):
        g = simple_graph(2, E, E, np.array([0]), np.array([1]))
        cs = strongly_connected_components(g)
        assert cs.sizes.tolist() == [2]
        assert cs.largest_relative == 1.0

    def test_directed_path_gives_singletons(self):
        g = simple_graph(3, np.array([0, 1]), np.array([1, 2]), E, E)
        cs = strongly_connected_components(g)
        assert cs.sizes.tolist() == [1, 1, 1]
        assert cs.num_components == 3

    def test_directed_cycle_is_one_component(self):
        g = simple_graph(3, np.array([0, 1, 2]), np.array([1, 2, 0]), E, E)
        assert strongly_connected_components(g).sizes.tolist() == [3]

    def test_empty_graph_all_singletons(self):
        cs = strongly_connected_components(simple_graph(4, E, E, E, E))
        assert cs.sizes.tolist() == [1, 1, 1, 1]


def test_scc_memory_is_bounded():
    """The CSR build holds its int32 structure and bounded work, and the
    decomposition copies none of it.

    Bounds, from the array sizes, with E adjacency entries (one per arc,
    two per undirected edge), A arcs, U undirected edges, n vertices,
    C = simplify._CHUNK and 64 KiB for small objects:
    - building the CSR holds the three blocks' int64 row counts (24 per
      vertex) and, first, bincount's int64 copy of one block's uint32 rows
      (8 A at most); then the third block's sorted (v, u) codes and their
      uint32 ids (16 U); then those ids (8 U), the int32 indices (4 E),
      the int32 indptr, the int64 fill marks and one block's row shifts
      with their cumulative sum and one more temporary (36 per vertex
      beside the counts), and one chunk's int64 slots, ranks and rows
      (32 C).  The COO build reached 14 bytes per entry;
    - the decomposition holds the labels and scipy's int32 work arrays,
      at most four int32 per vertex and nothing per entry: the arrays are
      wrapped as they are and the float64 weights are one zero-stride
      1.0, so connected_components' astype(float64) copies nothing.  A
      copy of the weights would add 8 bytes per entry, one of the
      indices 4."""
    import scipy.sparse.csgraph  # noqa: F401  # loaded untraced
    from pdcm.simplify import _CHUNK

    g = poisson_graph(100_000)
    n, entries = g.n, g.num_directed + 2 * g.num_undirected
    a, u = g.num_directed, g.num_undirected
    (_, indptr, indices), peak = traced_peak(_csr, g)
    assert indices.size == entries and indptr[-1] == entries
    bound = (24 * n + max(8 * a, 16 * u, 8 * u + 4 * entries + 36 * (n + 1) + 32 * _CHUNK)
             + (64 << 10))
    assert bound < 14 * entries
    assert peak <= bound, f"{peak / entries:.1f} bytes per entry"
    labels, peak = traced_peak(_labels, n, indptr, indices)
    assert labels.size == n
    assert peak <= 16 * n + (64 << 10), f"{peak / n:.1f} bytes per vertex"
    assert np.array_equal(labels, component_labels(g))


_ENDS = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=25)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), _ENDS, _ENDS)
@example(5, [], [])  # no edge: every vertex isolated
@example(6, [(0, 1), (1, 2), (5, 0), (4, 3)], [])  # arcs only
@example(6, [], [(0, 1), (1, 2), (2, 5), (4, 3)])  # undirected edges only
@example(4, [(1, 0), (1, 3), (2, 1)], [(1, 2), (0, 2), (3, 2)])  # shared rows
def test_csr_matches_coo_reference(n, arcs, unds):
    """The numpy CSR build gives scipy's COO-to-CSR indptr and the same
    neighbour set per row, in chunks of any size: with chunks of 3 codes
    every block crosses chunk boundaries."""
    g, _ = simplify(multigraph(n, [(a % n, b % n) for a, b in arcs],
                               [(a % n, b % n) for a, b in unds]))
    ref = adjacency_reference(g)
    for chunk in (pdcm.components._CHUNK, 3):
        with mock.patch.object(pdcm.components, "_CHUNK", chunk):
            m, indptr, indices = _csr(g)
        assert m == g.n and indptr.dtype == indices.dtype == np.int32
        assert indptr.tolist() == ref.indptr.tolist()
        for row in range(g.n):
            got = indices[indptr[row]:indptr[row + 1]]
            assert sorted(got.tolist()) == sorted(ref.indices[ref.indptr[row]:
                                                              ref.indptr[row + 1]].tolist())


def test_csr_of_the_empty_graph():
    n, indptr, indices = _csr(simple_graph(0, E, E, E, E))
    assert (n, indptr.tolist(), indices.size) == (0, [0], 0)
    assert strongly_connected_components(simple_graph(0, E, E, E, E)).num_components == 0


class TestSummary:
    def test_histogram_excludes_one_largest_even_on_ties(self):
        cs = ComponentSummary.from_sizes([3, 3, 2], n=8)
        assert cs.largest_relative == pytest.approx(3 / 8)
        assert cs.small_component_histogram == {3: 1, 2: 1}

    def test_sizes_must_partition(self):
        with pytest.raises(ValueError):
            ComponentSummary.from_sizes([2, 2], n=5)

    def test_csv_shape(self, tmp_path):
        cs = ComponentSummary.from_sizes([5, 1, 1, 2], n=9)
        out = tmp_path / "c.csv"
        write_component_csv(cs, out)
        text = out.read_text()
        assert text == (
            "# n=9 largest_relative=0.555556\n"
            "size,count\n"
            "1,2\n"
            "2,1\n"
        )


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**31))
def test_partition_property(seed):
    g = random_simple_graph(np.random.default_rng(seed))
    cs = strongly_connected_components(g)
    assert int(cs.sizes.sum()) == g.n
    assert (cs.sizes >= 1).all()
    assert 0.0 < cs.largest_relative <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31))
def test_matches_brute_force_closure(seed):
    """scipy's strong components agree with an explicit reachability oracle,
    down to which vertices share a component."""
    g = random_simple_graph(np.random.default_rng(seed))
    cs = strongly_connected_components(g)
    assert cs.sizes.tolist() == brute_scc_sizes(g)
    labels = component_labels(g)
    by_label = {}
    for v, lab in enumerate(labels.tolist()):
        by_label.setdefault(lab, set()).add(v)
    assert {frozenset(m) for m in by_label.values()} == brute_scc_partition(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31))
def test_adding_undirected_edge_never_splits(seed):
    """Extra two-way connectivity can only merge components."""
    rng = np.random.default_rng(seed)
    g = random_simple_graph(rng, max_n=8)
    before = strongly_connected_components(g).num_components

    # pick a fresh unordered pair not already linked either way
    existing = {(int(u), int(v)) for u, v in undirected_pairs(g).tolist()}
    existing |= {
        (min(int(t), int(h)), max(int(t), int(h)))
        for t, h in directed_pairs(g).tolist()
    }
    candidates = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in existing
    ]
    if not candidates:
        return
    u, v = candidates[int(rng.integers(len(candidates)))]
    g2 = simple_graph(
        g.n,
        g.dir_tails,
        g.dir_heads,
        np.append(g.und_u, u).astype(np.uint32),
        np.append(g.und_v, v).astype(np.uint32),
    )
    after = strongly_connected_components(g2).num_components
    assert after <= before


LJ = "soc-LiveJournal1.txt.gz"


@pytest.mark.skipif(
    not (
        __import__("pathlib").Path(__file__).parent.parent / "data" / "snap" / LJ
    ).exists(),
    reason=f"data/snap/{LJ} not downloaded (see scripts/fetch_snap.py)",
)
def test_non_giant_components_are_singletons_on_livejournal_resample():
    """Graphs rebuilt from a large empirical directed degree sequence leave
    almost nothing between the giant component and the singletons."""
    from pathlib import Path

    from pdcm.degrees import JointDegreeDistribution, sample_sequence
    from pdcm.ingest import ingest_path
    from pdcm.matching import match_stubs
    from pdcm.simplify import simplify

    g, _ = ingest_path(Path(__file__).parent.parent / "data" / "snap" / LJ)
    dist = JointDegreeDistribution.empirical(g.degree_triples(), "dependent")
    seq = sample_sequence(dist, 10**5, seed=2024)
    sg, _ = simplify(match_stubs(seq, seed=2025))
    cs = strongly_connected_components(sg)
    small = cs.sizes[1:]
    assert (small == 1).sum() / small.size >= 0.99
