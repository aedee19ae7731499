from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import multigraph, multigraph_pairs
from pdcm.degrees import MAX_VERTICES, DegreeSequence, check_vertex_count
from pdcm.matching import match_stubs, match_stubs_union
from pdcm.rng import make_generator
from pdcm.simplify import simplify

triples_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    min_size=1,
    max_size=12,
)


def seq_of(rows):
    return DegreeSequence(np.array(rows, dtype=np.int64))


def arcs_of(mg):
    """(m, 2) array of (tail, head) pairs."""
    return multigraph_pairs(mg)[0]


def und_edges_of(mg):
    """(m, 2) array of unordered pairs, stored with u <= v."""
    return multigraph_pairs(mg)[1]


def unmatched(mg):
    """(n, 3) per-vertex (in, out, und) stubs that found no partner: the
    blocks' source degrees minus the stubs the edges hold."""
    n = mg.n
    arcs, unds = multigraph_pairs(mg)
    held = np.stack([
        np.bincount(arcs[:, 1], minlength=n),
        np.bincount(arcs[:, 0], minlength=n),
        np.bincount(unds.ravel(), minlength=n),
    ], axis=1)
    return np.tile(mg.source_degrees.triples, (mg.blocks, 1)) - held


class TestSmallExamples:
    def test_two_undirected_stubs_form_one_edge(self):
        mg = match_stubs(seq_of([(0, 0, 1), (0, 0, 1)]), seed=5)
        assert mg.n_arcs == 0
        assert und_edges_of(mg).tolist() == [[0, 1]]
        assert (mg.leftover_und, mg.leftover_in, mg.leftover_out) == (0, 0, 0)

    def test_odd_stub_count_leaves_one_unpaired(self):
        mg = match_stubs(seq_of([(0, 0, 3)]), seed=1)
        assert und_edges_of(mg).tolist() == [[0, 0]]  # forced self-pair
        assert mg.leftover_und == 1
        assert unmatched(mg).tolist() == [[0, 0, 1]]

    def test_surplus_out_stub_recorded(self):
        mg = match_stubs(seq_of([(1, 0, 0), (0, 1, 0), (0, 1, 0)]), seed=0)
        assert mg.n_arcs == 1
        assert arcs_of(mg)[0, 1] == 0
        assert (mg.leftover_in, mg.leftover_out) == (0, 1)
        assert unmatched(mg).sum(axis=0).tolist() == [0, 1, 0]

    def test_tail_choice_is_uniform(self):
        """With one in-stub and two competing out-stubs, each out-stub wins
        half the time (binomial 3-sigma band over 1e5 seeds)."""
        seq = seq_of([(1, 0, 0), (0, 1, 0), (0, 1, 0)])
        wins = 0
        trials = 100_000
        for s in range(trials):
            wins += int(arcs_of(match_stubs(seq, seed=s))[0, 0]) == 1
        assert abs(wins / trials - 0.5) <= 3 * np.sqrt(0.25 / trials)

    def test_unpaired_stub_is_a_uniform_choice(self):
        """Permuting the longer stub list means the stranded stub is a
        uniformly random one, not always the last vertex's."""
        seq = seq_of([(1, 0, 0), (0, 1, 0), (0, 1, 0)])
        owners = np.zeros(3, dtype=int)
        trials = 4000
        for s in range(trials):
            owners[int(unmatched(match_stubs(seq, seed=s))[:, 1].argmax())] += 1
        assert owners[0] == 0
        assert abs(owners[1] / trials - 0.5) <= 4 * np.sqrt(0.25 / trials)


def test_deterministic_given_seed():
    seq = seq_of([(2, 1, 3), (0, 2, 1), (1, 0, 2), (1, 1, 0)])
    a = match_stubs(seq, seed=77)
    b = match_stubs(seq, seed=77)
    c = match_stubs(seq, seed=78)
    assert arcs_of(a).tolist() == arcs_of(b).tolist()
    assert und_edges_of(a).tolist() == und_edges_of(b).tolist()
    diff = arcs_of(a).tolist() != arcs_of(c).tolist() or (
        und_edges_of(a).tolist() != und_edges_of(c).tolist()
    )
    assert diff


def test_matching_leaves_no_state_on_the_sequence():
    """The stub arrays are built per matching, not cached on the frozen
    sequence, where they would live as long as its graph."""
    seq = seq_of([(2, 1, 3), (0, 2, 1), (1, 0, 2), (1, 1, 0)])
    match_stubs(seq, seed=1)
    match_stubs_union(seq, 2, make_generator(2), make_generator(3))
    assert set(vars(seq)) == {"triples"}


def test_vertex_ids_are_32_bit():
    """The matching hands simplify int64 pair codes; the simple graph's
    ids are uint32."""
    mg = match_stubs(seq_of([(1, 1, 1), (1, 1, 1)]), seed=3)
    assert mg.arc_codes.dtype == mg.und_codes.dtype == np.int64
    g, _ = simplify(mg)
    assert g.dir_tails.dtype == g.und_u.dtype == np.uint32


def test_vertex_count_limit_boundary():
    """Pair codes a * n + b must fit int64; the limit is checked alone,
    without allocating a graph anywhere near it."""
    assert MAX_VERTICES == 2**31
    check_vertex_count(2**31)
    with pytest.raises(ValueError, match="limit"):
        check_vertex_count(2**31 + 1)
    # the union is refused on its vertex count before any stub is drawn
    with pytest.raises(ValueError, match="limit"):
        match_stubs_union(seq_of([(1, 1, 0)] * 3), 2**30, make_generator(0),
                          make_generator(1))


def test_bijection_uniformity_chi_square():
    """Three (1,1,0) vertices induce 6 possible in/out bijections; over
    6e4 seeds the empirical counts pass a chi-square test at alpha=0.001."""
    from scipy.stats import chi2

    seq = seq_of([(1, 1, 0)] * 3)
    counts = {}
    trials = 60_000
    for s in range(trials):
        mg = match_stubs(seq, seed=s)
        key = tuple(sorted(map(tuple, arcs_of(mg).tolist())))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expected = trials / 6
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(0.999, df=5)


@settings(max_examples=300, deadline=None)
@given(triples_strategy, st.integers(0, 2**32 - 1))
def test_stub_conservation(rows, seed):
    """Every stub ends up in an edge or unmatched, per vertex; only the
    surplus directed side and an odd undirected stub are left over."""
    seq = seq_of(rows)
    mg = match_stubs(seq, seed=seed)
    assert mg.n_arcs == min(seq.s_in, seq.s_out)
    assert mg.leftover_in == max(seq.s_in - seq.s_out, 0)
    assert mg.leftover_out == max(seq.s_out - seq.s_in, 0)
    assert mg.leftover_und == seq.s_und % 2
    left = unmatched(mg)
    assert (left >= 0).all()
    assert left.sum(axis=0).tolist() == [
        mg.leftover_in, mg.leftover_out, mg.leftover_und]


@settings(max_examples=100, deadline=None)
@given(triples_strategy, st.integers(0, 10**6))
def test_und_pairs_normalized(rows, seed):
    unds = und_edges_of(match_stubs(seq_of(rows), seed=seed))
    assert (unds[:, 0] <= unds[:, 1]).all()


def test_exchangeability_spot_check():
    """Relabeling the degree sequence doesn't change the distribution of
    degree-labeled edge censuses (aggregated over many seeds)."""
    rows = [(1, 1, 2), (2, 0, 1), (0, 2, 1)]
    perm = [2, 0, 1]
    relabeled = [rows[p] for p in perm]

    def census(rows_, seeds):
        seq = seq_of(rows_)
        table = {}
        for s in seeds:
            mg = match_stubs(seq, seed=s)
            for t, h in arcs_of(mg).tolist():
                key = (tuple(rows_[t]), tuple(rows_[h]))
                table[key] = table.get(key, 0) + 1
        return table

    seeds = range(4000)
    ca, cb = census(rows, seeds), census(relabeled, seeds)
    keys = set(ca) | set(cb)
    total = sum(ca.values())
    tv = 0.5 * sum(
        abs(ca.get(k, 0) / total - cb.get(k, 0) / total) for k in keys
    )
    assert tv < 0.05


def test_from_edges_derives_matching_degrees():
    mg = multigraph(
        3, [(0, 1), (1, 2)], [(0, 2)], unpaired_out=[1], unpaired_und=[2]
    )
    assert mg.source_degrees.triples.tolist() == [
        [0, 1, 1],
        [1, 2, 0],
        [1, 0, 2],
    ]
    assert (mg.leftover_in, mg.leftover_out, mg.leftover_und) == (0, 1, 1)


def test_union_blocks_are_the_separate_matchings():
    """Block j of a union is, shifted by j*n, what the j-th of a run of
    one-replicate unions on the same two streams draws, and the union's
    unmatched stubs are reps times one matching's."""
    seq = seq_of([(2, 1, 1), (1, 0, 2), (1, 1, 0), (0, 0, 1)])
    n, reps = seq.n, 4
    mg = match_stubs_union(seq, reps, make_generator(3), make_generator(2**63 + 5))
    assert mg.n == reps * n
    leftovers = (mg.leftover_und, mg.leftover_in, mg.leftover_out)
    arcs = arcs_of(mg).reshape(reps, -1, 2).astype(np.int64)
    unds = und_edges_of(mg).reshape(reps, -1, 2).astype(np.int64)
    und_rng, drawn_rng = make_generator(3), make_generator(2**63 + 5)
    for j in range(reps):
        one = match_stubs_union(seq, 1, und_rng, drawn_rng)
        assert (arcs[j] - j * n).tolist() == arcs_of(one).tolist()
        assert (unds[j] - j * n).tolist() == und_edges_of(one).tolist()
    assert leftovers == (reps * one.leftover_und, reps * one.leftover_in,
                         reps * one.leftover_out) == (0, 8, 0)


@settings(max_examples=300, deadline=None)
@given(triples_strategy,
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
def test_one_matching_body(rows, seeds):
    """match_stubs(seq, s) is match_stubs_union(seq, 1, g, g) for g =
    make_generator(s), array for array, and the erasure report of a union
    is the field-wise sum of the reports of its blocks' separate
    matchings."""
    seq = seq_of(rows)
    rng = make_generator(seeds[0])
    one, union = match_stubs(seq, seeds[0]), match_stubs_union(seq, 1, rng, rng)
    assert (one.n, one.source_degrees) == (union.n, union.source_degrees)
    for name in ("arc_codes", "und_codes"):
        a, b = getattr(one, name), getattr(union, name)
        assert a.dtype == b.dtype == np.int64
        assert a.tolist() == b.tolist()
    und_rng, drawn_rng = make_generator(seeds[0]), make_generator(seeds[-1])
    reports = [asdict(simplify(match_stubs_union(seq, 1, und_rng, drawn_rng))[1])
               for _ in seeds]
    _, report = simplify(match_stubs_union(seq, len(seeds), make_generator(seeds[0]),
                                           make_generator(seeds[-1])))
    assert asdict(report) == {
        key: sum(r[key] for r in reports) for key in reports[0]}
