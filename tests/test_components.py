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
    same_partition,
    scc_reference,
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
    - the decomposition holds the int32 labels, the open-vertex mask and
      the two reaches' byte arrays (7 per vertex), and for a moment the
      int32 out-degrees; its blocks of rows and steps of entries are of
      fixed size, and nothing is held per entry.  Renumbering the labels
      0..k-1 holds a byte mask, the int32 ranks and one int32 temporary
      beside them (13 per vertex)."""
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


def test_remainder_memory_is_bounded():
    """What the pivot search leaves open goes to Tarjan, whose Python
    objects (about 400 bytes per vertex on its depth-first path here) its
    cap bounds, or to scipy, which holds its int32 work arrays and
    nothing per entry, within the bound of test_scc_memory_is_bounded.  A
    path of _TARJAN_MAX / 2 + 2 vertices, all on Tarjan's path but the
    two ends, is Tarjan's worst case under the cap."""
    import scipy.sparse.csgraph  # noqa: F401  # loaded untraced

    cap = pdcm.components._TARJAN_MAX
    ids = np.arange(cap // 2 + 2)
    n, indptr, indices = _csr(simple_graph(ids.size, ids[:-1], ids[1:], E, E))
    with mock.patch.object(pdcm.components, "_compiled_labels", side_effect=AssertionError):
        _, peak = traced_peak(_labels, n, indptr, indices)
    assert peak <= 16 * n + 256 * cap + (64 << 10), f"{peak / n:.1f} bytes per vertex"
    n, indptr, indices = _csr(poisson_graph(100_000, lam=0.5))
    with mock.patch.object(pdcm.components, "_tarjan", side_effect=AssertionError):
        _, peak = traced_peak(_labels, n, indptr, indices)
    assert peak <= 16 * n + (64 << 10), f"{peak / n:.1f} bytes per vertex"


def _decompose(g):
    """``_labels`` on g's CSR structure, checked against scipy's partition
    and for labels 0..k-1; returns how many vertices the Tarjan step was
    handed, or None when scipy's decomposition took the remainder."""
    n, indptr, indices = _csr(g)
    handed = []
    tarjan, compiled = pdcm.components._tarjan, pdcm.components._compiled_labels

    def tarjan_spy(indptr, indices, is_open, labels):
        handed.append(int(is_open.sum()))
        tarjan(indptr, indices, is_open, labels)

    def compiled_spy(*csr):
        handed.append(None)
        return compiled(*csr)

    with mock.patch.multiple(pdcm.components, _tarjan=tarjan_spy, _compiled_labels=compiled_spy):
        labels = _labels(n, indptr, indices)
    assert labels.dtype == np.int32
    reference = scc_reference(n, indptr, indices)
    assert same_partition(labels, reference)
    assert np.array_equal(np.unique(labels), np.arange(reference.max() + 1))
    assert len(handed) == 1
    return handed[0]


def _union(*graphs):
    """The disjoint union of graphs, each shifted past the ones before it."""
    parts, at = [], 0
    for g in graphs:
        parts.append((g.dir_tails + at, g.dir_heads + at, g.und_u + at, g.und_v + at))
        at += g.n
    return simple_graph(at, *(np.concatenate(cols) for cols in zip(*parts)))


class TestSteps:
    """The trim, the pivot search, the Tarjan step and scipy's
    decomposition of a large remainder, each reached on its own, against
    scipy's partition."""

    def test_long_cycle_and_path_fall_back_to_tarjan(self):
        """Past the level cap the forward reach gives up and Tarjan takes
        every open vertex: all of a cycle, and all of a path but the two
        ends, which the trim takes."""
        m = 3 * pdcm.components._LEVELS
        ids = np.arange(m)
        assert _decompose(simple_graph(m, ids, (ids + 1) % m, E, E)) == m
        assert _decompose(simple_graph(m, ids[:-1], ids[1:], E, E)) == m - 2

    def test_second_giant_goes_to_tarjan(self):
        """Two disjoint copies of one graph: the pivot search finds one
        copy's giant and Tarjan the other's."""
        g = poisson_graph(2000)
        giant = int(np.bincount(component_labels(g)).max())
        assert giant > 1900
        assert _decompose(_union(g, g)) >= giant

    def test_pivot_in_an_out_tail(self):
        """The open vertex of largest out-degree is a hub that the giant
        reaches by one arc and that has undirected edges to 100 leaves of
        its own: the pivot's component is the hub's 101 vertices, and the
        giant goes to Tarjan."""
        g = poisson_graph(2000)
        labels = component_labels(g)
        into = int(np.flatnonzero(labels == np.bincount(labels).argmax())[0])
        hub, leaves = 2000, np.arange(2001, 2101)
        tailed = simple_graph(2101, np.append(g.dir_tails, into), np.append(g.dir_heads, hub),
                              np.append(g.und_u, np.full(100, hub)),
                              np.append(g.und_v, leaves))
        _, indptr, _ = _csr(tailed)
        assert np.diff(indptr).argmax() == hub
        assert _decompose(tailed) >= np.bincount(labels).max()

    def test_poisson_giant_found_by_the_pivot_search(self):
        assert _decompose(poisson_graph(100_000)) < 1000

    def test_large_remainder_goes_to_scipy(self):
        """A cycle too long for the level cap leaves all its vertices open,
        and a subcritical graph leaves its many small components open:
        both are more than Tarjan takes."""
        m = pdcm.components._TARJAN_MAX
        ids = np.arange(m)
        assert _decompose(simple_graph(m, ids, (ids + 1) % m, E, E)) is None
        assert _decompose(poisson_graph(100_000, lam=0.5)) is None

    def test_tarjan_cap_boundary(self):
        """A cycle cut off by the level cap leaves its m vertices and m
        entries open: Tarjan takes them under a cap of 2m, scipy under one
        of 2m - 1."""
        m = 3 * pdcm.components._LEVELS
        ids = np.arange(m)
        cycle = simple_graph(m, ids, (ids + 1) % m, E, E)
        with mock.patch.object(pdcm.components, "_TARJAN_MAX", 2 * m):
            assert _decompose(cycle) == m
        with mock.patch.object(pdcm.components, "_TARJAN_MAX", 2 * m - 1):
            assert _decompose(cycle) is None


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
    """The strong components agree with an explicit reachability oracle,
    down to which vertices share a component."""
    g = random_simple_graph(np.random.default_rng(seed))
    cs = strongly_connected_components(g)
    assert cs.sizes.tolist() == brute_scc_sizes(g)
    labels = component_labels(g)
    assert np.array_equal(np.unique(labels), np.arange(cs.num_components))
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
