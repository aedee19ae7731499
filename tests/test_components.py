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
      fixed size, and nothing is held per entry.  The labels are returned
      as the steps leave them, with no renumbering pass."""
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
    assert np.array_equal(labels, _labels(*_csr(g)))


def test_remainder_memory_is_bounded():
    """What the pivot search leaves open goes to the colouring, which holds
    the int32 labels, the open-vertex mask and one more byte array beside
    bounded work, or to scipy, which holds its int32 work arrays and
    nothing per entry: both within the bound of test_scc_memory_is_bounded.
    The pivot search leaves a remainder of the Poisson(2) graph to the
    colouring, and finds too small a component of the Poisson(0.5) graph,
    which goes to scipy."""
    import scipy.sparse.csgraph  # noqa: F401  # loaded untraced

    n, indptr, indices = _csr(poisson_graph(100_000, lam=2))
    with mock.patch.object(pdcm.components, "_compiled_labels", side_effect=AssertionError), \
            mock.patch.object(pdcm.components, "_colour_round",
                              wraps=pdcm.components._colour_round) as colour:
        _, peak = traced_peak(_labels, n, indptr, indices)
    assert colour.called
    assert peak <= 16 * n + (64 << 10), f"{peak / n:.1f} bytes per vertex"
    n, indptr, indices = _csr(poisson_graph(100_000, lam=0.5))
    with mock.patch.object(pdcm.components, "_colour_round", side_effect=AssertionError):
        _, peak = traced_peak(_labels, n, indptr, indices)
    assert peak <= 16 * n + (64 << 10), f"{peak / n:.1f} bytes per vertex"


def _decompose(g):
    """``_labels`` on g's CSR structure, checked against scipy's partition.
    Returns the steps taken after the trim, in order: "pivot", "colour" for
    each colouring round, "cut" after a round that was cut off, and
    "scipy"."""
    n, indptr, indices = _csr(g)
    steps = []
    colour, compiled = pdcm.components._colour_round, pdcm.components._compiled_labels
    pivot = pdcm.components._pivot_component

    def pivot_spy(*args):
        steps.append("pivot")
        return pivot(*args)

    def colour_spy(*args):
        steps.append("colour")
        done = colour(*args)
        if not done:
            steps.append("cut")
        return done

    def compiled_spy(*csr):
        steps.append("scipy")
        return compiled(*csr)

    with mock.patch.multiple(pdcm.components, _pivot_component=pivot_spy,
                             _colour_round=colour_spy, _compiled_labels=compiled_spy):
        labels = _labels(n, indptr, indices)
    assert labels.dtype == np.int32
    reference = scc_reference(n, indptr, indices)
    assert same_partition(labels, reference)
    return steps


def _union(*graphs):
    """The disjoint union of graphs, each shifted past the ones before it."""
    parts, at = [], 0
    for g in graphs:
        parts.append((g.dir_tails + at, g.dir_heads + at, g.und_u + at, g.und_v + at))
        at += g.n
    return simple_graph(at, *(np.concatenate(cols) for cols in zip(*parts)))


def _beside_clique(m, tails, heads, us=(), vs=()):
    """Arcs and undirected edges among vertices m, m + 1, ..., given as
    offsets from m, beside an undirected clique on 0..m-1, whose component
    the pivot search finds."""
    u, v = np.triu_indices(m, 1)
    return simple_graph(m + max(*tails, *heads, *us, *vs) + 1, np.asarray(tails) + m,
                        np.asarray(heads) + m, np.append(u, np.asarray(us, dtype=int) + m),
                        np.append(v, np.asarray(vs, dtype=int) + m))


class TestSteps:
    """The trim, the pivot search, the colouring and scipy's decomposition,
    each reached on its own, against scipy's partition."""

    def test_trim_alone(self):
        """Every vertex lacks an in- or an out-entry: no further step."""
        assert _decompose(simple_graph(4, np.array([0, 0, 1]), np.array([2, 3, 2]),
                                       E, E)) == []

    def test_poisson_giant_found_by_the_pivot_search(self):
        assert _decompose(poisson_graph(100_000)) == ["pivot"]

    def test_colouring_labels_what_the_pivot_search_leaves(self):
        """The Poisson(2) graph's remainder, a second giant smaller than the
        one the pivot search finds, and two remainders beside a clique.  In
        the first, rows 3 and 8, read in that order at one level, bring
        vertex 1 the colours 20 and 15: the larger must stay, or 1 is cut
        from its cycle 20 -> 3 -> 1 -> 20.  In the second, 2 of colour 4
        (that of the edge 3 - 4) has an arc into the edge 5 - 6 of colour
        6, which does not reach it: it must not join that component."""
        assert _decompose(poisson_graph(100_000, lam=2)) == ["pivot", "colour", "colour"]
        second = _decompose(_union(poisson_graph(2000), poisson_graph(500, seed=3)))
        assert second[0] == "pivot" and set(second[1:]) == {"colour"}
        last_lower = _beside_clique(8, [20, 3, 1, 15, 8, 0], [3, 1, 20, 8, 1, 15])
        assert _decompose(last_lower) == ["pivot", "colour", "colour"]
        into_other_colour = _beside_clique(8, [3, 2], [2, 5], [3, 5], [4, 6])
        assert _decompose(into_other_colour) == ["pivot", "colour", "colour"]

    def test_no_giant_goes_to_scipy(self):
        """The pivot's component is no larger than what it leaves open: the
        small components of a subcritical graph, one of two equal giants,
        and a hub that the giant reaches by one arc and that has undirected
        edges to 100 leaves of its own, the open vertex of largest
        out-degree, whose component is its 101 vertices."""
        assert _decompose(poisson_graph(100_000, lam=0.5)) == ["pivot", "scipy"]
        g = poisson_graph(2000)
        assert _decompose(_union(g, g)) == ["pivot", "scipy"]
        labels = _labels(*_csr(g))
        into = int(np.flatnonzero(labels == np.bincount(labels).argmax())[0])
        hub, leaves = 2000, np.arange(2001, 2101)
        tailed = simple_graph(2101, np.append(g.dir_tails, into), np.append(g.dir_heads, hub),
                              np.append(g.und_u, np.full(100, hub)),
                              np.append(g.und_v, leaves))
        _, indptr, _ = _csr(tailed)
        assert np.diff(indptr).argmax() == hub
        assert _decompose(tailed) == ["pivot", "scipy"]

    def test_long_cycle_and_path_cut_off_the_pivot_search(self):
        m = 3 * pdcm.components._LEVELS
        ids = np.arange(m)
        assert _decompose(simple_graph(m, ids, (ids + 1) % m, E, E)) == ["pivot", "scipy"]
        assert _decompose(simple_graph(m, ids[:-1], ids[1:], E, E)) == ["pivot", "scipy"]

    def test_long_pull_cuts_off_the_pivot_search(self):
        """A chain u_1 -> ... -> u_L -> pivot, and an arc from the pivot to
        each u_i (to u_L an undirected edge): the forward reach finishes in
        two levels, but the chain lies in one step, so each pull round
        joins one vertex, from u_L down, and _LEVELS rounds do not finish."""
        m = pdcm.components._LEVELS + 2  # L, the chain's length; the pivot is m
        ids = np.arange(m - 1)
        g = simple_graph(m + 1, np.concatenate([ids, np.full(m - 1, m)]),
                         np.concatenate([ids + 1, ids]), [m - 1], [m])
        assert _decompose(g) == ["pivot", "scipy"]
        assert strongly_connected_components(g).sizes.tolist() == [m + 1]

    def test_long_cycle_cuts_off_a_colouring_round(self):
        """Beside a larger clique, the largest id takes more than _LEVELS
        levels to go round the cycle."""
        m = 3 * pdcm.components._LEVELS
        ids = np.arange(m)
        assert _decompose(_beside_clique(m + 8, ids, (ids + 1) % m)) == [
            "pivot", "colour", "cut", "scipy"]

    def test_long_pull_cuts_off_a_colouring_round(self):
        """Beside a larger clique, a hub with arcs to every vertex of a path
        whose end has an arc back to it: the hub's colour reaches the whole
        path in 3 levels, but the pull joins one vertex per round, from the
        end of the path down, and needs more than _LEVELS rounds."""
        m = 2 * pdcm.components._LEVELS
        ids = np.arange(m - 1)
        tails = np.concatenate([np.full(m - 1, m), ids, [m - 1]])
        heads = np.concatenate([ids, ids + 1, [m]])
        assert _decompose(_beside_clique(m + 8, tails, heads)) == [
            "pivot", "colour", "cut", "scipy"]

    def test_colouring_rounds_cut_off(self):
        """Beside a larger clique, a transitive tournament on m vertices,
        every arc from the higher id to the lower: the trim takes its top
        and bottom, and each round closes only the largest of the m - 2
        left.  m - 2 rounds finish under a cap of m - 2, not of m - 3."""
        m = 40
        tails, heads = np.triu_indices(m, 1)[::-1]
        graph = _beside_clique(m + 10, tails, heads)
        with mock.patch.object(pdcm.components, "_LEVELS", m - 2):
            assert _decompose(graph) == ["pivot"] + ["colour"] * (m - 2)
        with mock.patch.object(pdcm.components, "_LEVELS", m - 3):
            assert _decompose(graph) == ["pivot"] + ["colour"] * (m - 3) + ["scipy"]


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


@pytest.mark.parametrize("levels", [pdcm.components._LEVELS, 2])
@pytest.mark.parametrize("clique", [0, 13])
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31))
def test_matches_brute_force_closure(levels, clique, seed):
    """The strong components agree with an explicit reachability oracle,
    down to which vertices share a component.  Under a cap of 2 levels or
    rounds, random graphs also reach the pivot search's cut-off.  Beside an
    undirected clique of 13 vertices, more than a random graph has, whose
    component the pivot search takes, about 9 in 10 of them reach the
    colouring, and under the cap of 2 about 2 in 3 reach its cut-off."""
    g = random_simple_graph(np.random.default_rng(seed))
    if clique:
        g = _union(simple_graph(clique, E, E, *np.triu_indices(clique, 1)), g)
    with mock.patch.object(pdcm.components, "_LEVELS", levels):
        cs = strongly_connected_components(g)
        labels = _labels(*_csr(g))
    assert cs.sizes.tolist() == brute_scc_sizes(g)
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
