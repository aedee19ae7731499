from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    directed_pairs,
    edge_sets,
    simple_graph,
    simple_graph_reference,
    simplify_reference,
    traced_peak,
    undirected_pairs,
    validate_simple_graph,
)
from _oracles import multigraph as mg_of
from pdcm.degrees import DegreeSequence, JointDegreeDistribution, sample_sequence
from pdcm.matching import encode, match_stubs
from pdcm.simplify import ErasureReport, SimpleGraph, simplify


class TestRuleExamples:
    def test_reciprocal_pair_becomes_undirected(self):
        g, r = simplify(mg_of(2, [(0, 1), (1, 0)], []))
        assert edge_sets(g) == (set(), {(0, 1)})
        assert r.reciprocal_pairs_converted == 1
        # both vertices trade (1,1,0) for (0,0,1): modified despite equal totals
        assert r.modified_vertices == 2

    def test_self_loops_erased(self):
        g, r = simplify(mg_of(5, [(3, 3)], [(4, 4)]))
        assert g.num_directed == 0 and g.num_undirected == 0
        assert r.self_loops_dir == 1 and r.self_loops_und == 1
        assert r.modified_vertices == 2

    def test_rule_order_hand_trace(self):
        """(c) dedupes to {(0,1),(1,0)} and {{0,1}}, then (d) erases both
        arcs as parallel to the undirected edge, so (e) finds nothing."""
        g, r = simplify(mg_of(2, [(0, 1), (0, 1), (1, 0)], [(0, 1), (0, 1)]))
        assert r.parallel_dir == 1
        assert r.parallel_und == 1
        assert r.dir_parallel_to_und == 2
        assert r.reciprocal_pairs_converted == 0
        assert edge_sets(g) == (set(), {(0, 1)})

    def test_unconnected_counts_copied_from_matching(self):
        mg = mg_of(4, [(0, 1)], [], unpaired_out=[2], unpaired_und=[3])
        _, r = simplify(mg)
        assert r.unconnected_dir == 1
        assert r.unconnected_und == 1
        # vertices 2 and 3 lost their only stub; 0 and 1 kept theirs
        assert r.modified_vertices == 2


class TestIdempotence:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2**31))
    def test_simple_graph_passes_through(self, n, seed):
        """Re-running the rules on an already-simple graph changes nothing
        and reports all-zero erasures."""
        rng = np.random.default_rng(seed)
        arcs = rng.integers(0, n, (int(rng.integers(0, 15)), 2))
        unds = rng.integers(0, n, (int(rng.integers(0, 15)), 2))
        g1, _ = simplify(mg_of(n, arcs, unds))
        mg2 = mg_of(n, directed_pairs(g1), undirected_pairs(g1))
        g2, r2 = simplify(mg2)
        assert directed_pairs(g2).tolist() == directed_pairs(g1).tolist()
        assert undirected_pairs(g2).tolist() == undirected_pairs(g1).tolist()
        assert r2 == ErasureReport(0, 0, 0, 0, 0, 0, 0, 0, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**31))
def test_kernel_matches_reference(n, seed):
    """The sorted pair-code kernel agrees with the set-based reference
    rules: every rule count and both final edge lists."""
    rng = np.random.default_rng(seed)
    arcs = rng.integers(0, n, (int(rng.integers(0, 25)), 2))
    unds = rng.integers(0, n, (int(rng.integers(0, 25)), 2))
    mg = mg_of(n, arcs, unds)
    expected = simplify_reference(mg)  # simplify sorts mg's codes in place
    g, r = simplify(mg)
    assert expected == (
        r.self_loops_dir, r.self_loops_und, r.parallel_dir, r.parallel_und,
        r.dir_parallel_to_und, r.reciprocal_pairs_converted,
        [tuple(p) for p in directed_pairs(g).tolist()],
        [tuple(p) for p in undirected_pairs(g).tolist()],
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**31))
def test_kernels_in_small_chunks_match_references(n, seed):
    """With chunks of 1 and 3 codes every chunked kernel crosses chunk
    boundaries, and the degree count takes several bincounts: the rules
    still agree with the set-based reference, and the layout checks and
    degree triples with the plain-Python one."""
    rng = np.random.default_rng(seed)
    arcs = rng.integers(0, n, (int(rng.integers(0, 25)), 2))
    unds = rng.integers(0, n, (int(rng.integers(0, 25)), 2))
    columns = (arcs[:, 0], arcs[:, 1], unds[:, 0], unds[:, 1])
    expected = simplify_reference(mg_of(n, arcs, unds))
    for chunk in (1, 3):
        with mock.patch("pdcm.simplify._CHUNK", chunk):
            g, r = simplify(mg_of(n, arcs, unds))
            try:
                h = simple_graph(n, *columns)
            except ValueError as e:
                layout = ("err", str(e))
            else:
                layout = ("ok", directed_pairs(h).tolist(), undirected_pairs(h).tolist(),
                          h.degree_triples.tolist())
        assert expected == (
            r.self_loops_dir, r.self_loops_und, r.parallel_dir, r.parallel_und,
            r.dir_parallel_to_und, r.reciprocal_pairs_converted,
            [tuple(p) for p in directed_pairs(g).tolist()],
            [tuple(p) for p in undirected_pairs(g).tolist()],
        )
        assert layout == simple_graph_reference(n, *(c.tolist() for c in columns))


def test_simplify_memory_is_bounded():
    """simplify sorts and compacts the matching's codes in place and holds
    little beside them.

    Bound, from the array sizes, beyond the input's 8 E bytes of codes,
    with E raw edges, A arcs, U undirected edges, n vertices,
    C = simplify._CHUNK and 64 KiB for small objects, at the largest of:
      12 A       resolving the arcs: their int64 unordered-pair codes and
                 at most four byte masks at once,
      10 A + 8 U or those codes, two masks and the merged int64
                 undirected codes;
      8 E + 8 U  the returned graph's uint32 ids beside the merged codes;
      8 E + 32 n + 128 C
                 the graph, its int64 degree triples and one bincount of
                 16 C ids, with their int64 copy;
    plus one chunk's int64 temporaries (40 C).  The old simplify copied
    the ids into fresh codes, allocating about 27 bytes per edge."""
    from pdcm.simplify import _CHUNK

    n = 10**6
    seq = sample_sequence(JointDegreeDistribution.poisson(7, "independent"), n, 1)
    mg = match_stubs(seq, 2)
    a, u = mg.n_arcs, mg.n_und_edges
    edges = a + u
    bound = max(12 * a, 10 * a + 8 * u, 8 * edges + 8 * u,
                8 * edges + 32 * n + 128 * _CHUNK) + 40 * _CHUNK + (64 << 10)
    assert bound <= 14 * edges
    (g, _), peak = traced_peak(simplify, mg)
    assert g.num_directed + g.num_undirected > 0.99 * edges
    assert peak <= bound, f"{peak / edges:.1f} bytes per edge"


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=14,
    ),
    st.integers(0, 2**32 - 1),
)
def test_pipeline_output_is_simple_and_balanced(rows, seed):
    """End-to-end: every generated instance satisfies the simplicity
    invariants and the erasure bookkeeping identities."""
    seq = DegreeSequence(np.array(rows, dtype=np.int64))
    mg = match_stubs(seq, seed=seed)
    g, r = simplify(mg)
    validate_simple_graph(g)
    assert mg.n_arcs == (
        g.num_directed
        + r.self_loops_dir
        + r.parallel_dir
        + r.dir_parallel_to_und
        + 2 * r.reciprocal_pairs_converted
    )
    assert (
        mg.n_und_edges + r.reciprocal_pairs_converted
        == g.num_undirected + r.self_loops_und + r.parallel_und
    )
    assert r.unconnected_dir == abs(seq.s_in - seq.s_out)
    assert r.unconnected_und == seq.s_und % 2


class TestSimpleGraphType:
    def test_constructor_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            simple_graph(2, [0], [0], [], [])

    def test_constructor_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            simple_graph(3, [0, 0], [1, 1], [], [])

    def test_constructor_normalizes_order(self):
        g = simple_graph(4, [2, 0], [1, 1], [3, 2], [2, 0])
        assert directed_pairs(g).tolist() == [[0, 1], [2, 1]]
        assert undirected_pairs(g).tolist() == [[0, 2], [2, 3]]

    def test_validator_catches_reciprocal_pair(self):
        g = SimpleGraph(3, encode(np.array([0, 1]), np.array([1, 0]), 3),
                        np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="reciprocal"):
            validate_simple_graph(g)

    def test_validator_catches_parallel_mixed_edge(self):
        g = SimpleGraph(3, np.array([1]), np.array([1]))  # (0, 1) and {0, 1}
        with pytest.raises(ValueError, match="parallel"):
            validate_simple_graph(g)

    def test_degree_triples(self):
        g = simple_graph(3, [0], [1], [1], [2])
        assert g.degree_triples.tolist() == [[0, 1, 0], [1, 0, 1], [0, 0, 1]]
        # computed once: every read is the same shared, read-only array
        assert g.degree_triples is g.degree_triples
        assert not g.degree_triples.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=12),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=12),
    )
    def test_constructor_matches_reference(self, arcs, unds):
        """Building a graph from edge columns (encode, sort, then
        canonical_violation through validate_simple_graph) accepts and
        rejects exactly what the plain-Python reference does, and gives the
        same arrays and degree triples.  Vertex ids run to 11 against n=10
        so out-of-range inputs are exercised too."""
        columns = ([a for a, _ in arcs], [b for _, b in arcs],
                   [u for u, _ in unds], [v for _, v in unds])
        try:
            g = simple_graph(10, *columns)
        except ValueError as e:
            got = ("err", str(e))
        else:
            got = (
                "ok",
                directed_pairs(g).tolist(),
                undirected_pairs(g).tolist(),
                g.degree_triples.tolist(),
            )
        assert got == simple_graph_reference(10, *columns)


def test_modified_vertices_shrink_with_size():
    """Average modified share falls as the graph grows (20 seeds per size)."""
    for dist in (
        JointDegreeDistribution.poisson(7.0, "independent"),
        JointDegreeDistribution.scale_free(2.5, "independent"),
    ):
        shares = []
        for n in (100, 1000, 10_000):
            acc = 0.0
            for s in range(20):
                seq = sample_sequence(dist, n, seed=1000 + s)
                _, r = simplify(match_stubs(seq, seed=2000 + s))
                acc += r.modified_vertices / n
            shares.append(acc / 20)
        assert shares[0] > shares[1] > shares[2], (dist.kind, shares)
