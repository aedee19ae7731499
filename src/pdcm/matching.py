"""Uniform stub matching: degree sequence -> raw partially directed multigraph.

Every vertex contributes in-stubs, out-stubs and undirected stubs according
to its degree triple.  Undirected stubs are paired uniformly at random with
each other; in-stubs are then paired uniformly with out-stubs.  The result
may contain self-loops and parallel edges (it is a multigraph) and is fed to
the simplifier afterwards.

Draw order is part of the determinism contract: a single generator seeded
with the given seed first permutes the undirected stub list, then permutes
one directed stub list.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degrees import MAX_VERTICES, DegreeSequence, check_vertex_count
from .rng import make_generator, make_generators

VERTEX_DTYPE = np.uint32  # keeps ~4e7-edge graphs to a few hundred MB


@dataclass(frozen=True, eq=False)
class MultiGraph:
    """Raw matching output: arcs and undirected edges, duplicates included.

    Undirected pairs are stored with u <= v.  ``source_degrees`` is the
    sequence of one block; the graph is ``n // source_degrees.n`` disjoint
    blocks of it, block j on the vertex ids [j*m, (j+1)*m) for m =
    ``source_degrees.n``.  The stubs that found no partner (rule (a)) are
    what the blocks' stub totals hold beyond the paired ones.
    """

    n: int
    arc_tails: np.ndarray
    arc_heads: np.ndarray
    und_u: np.ndarray
    und_v: np.ndarray
    source_degrees: DegreeSequence

    @property
    def n_arcs(self) -> int:
        return self.arc_tails.shape[0]

    @property
    def n_und_edges(self) -> int:
        return self.und_u.shape[0]

    @property
    def blocks(self) -> int:
        return self.n // self.source_degrees.n

    @property
    def leftover_und(self) -> int:
        return self.blocks * self.source_degrees.s_und - 2 * self.n_und_edges

    @property
    def leftover_in(self) -> int:
        return self.blocks * self.source_degrees.s_in - self.n_arcs

    @property
    def leftover_out(self) -> int:
        return self.blocks * self.source_degrees.s_out - self.n_arcs


def _stub_owners(seq: DegreeSequence):
    """Owner ids of every (in, out, und) stub, plus the directed list that
    is shuffled -- the longer one, the in-stubs on a tie.

    Built per matching and stored nowhere: the sequence lives as long as
    every graph matched from it (``source_degrees``).
    """
    ids = np.arange(seq.n, dtype=VERTEX_DTYPE)
    in_stubs, out_stubs = np.repeat(ids, seq.in_deg), np.repeat(ids, seq.out_deg)
    longer = in_stubs if in_stubs.size >= out_stubs.size else out_stubs
    return in_stubs, out_stubs, np.repeat(ids, seq.und_deg), longer


def _match(seq: DegreeSequence, reps: int, rngs) -> MultiGraph:
    """One matching of ``seq`` per generator of ``rngs`` (``reps`` of
    them), replicate j on the vertex ids [j*n, (j+1)*n).

    Each replicate's stub lists are rows of one tiled array, shuffled in
    place by its generator: first the undirected row, then the longer
    directed row (for a 1-D array ``shuffle`` draws exactly what
    ``permutation`` does).  Consecutive undirected entries then form an
    edge, and the shorter directed list is paired with the head of the
    shuffled longer one.
    """
    n = seq.n
    check_vertex_count(reps * n)
    stubs = reps * max(seq.s_in, seq.s_out, seq.s_und)
    if stubs > MAX_VERTICES:  # before the stub arrays are allocated
        raise ValueError(f"{stubs} stubs of one type: the limit is {MAX_VERTICES}")
    in_stubs, out_stubs, und_stubs, longer = _stub_owners(seq)
    und, drawn = np.tile(und_stubs, (reps, 1)), np.tile(longer, (reps, 1))
    for rng, und_row, drawn_row in zip(rngs, und, drawn):
        rng.shuffle(und_row)
        rng.shuffle(drawn_row)
    offset = (np.arange(reps, dtype=np.int64) * n).astype(VERTEX_DTYPE)[:, None]
    und += offset
    drawn += offset
    paired = 2 * (und.shape[1] // 2)
    und_u, und_v = und[:, 0:paired:2], und[:, 1:paired:2]
    if in_stubs.size >= out_stubs.size:
        tails, heads = out_stubs + offset, drawn[:, :out_stubs.size]
    else:
        tails, heads = drawn[:, :in_stubs.size], in_stubs + offset
    return MultiGraph(
        n=reps * n,
        arc_tails=tails.ravel(),
        arc_heads=heads.ravel(),
        und_u=np.minimum(und_u, und_v).ravel(),
        und_v=np.maximum(und_u, und_v).ravel(),
        source_degrees=seq,
    )


def match_stubs(seq: DegreeSequence, seed: int) -> MultiGraph:
    """Pair the stubs of ``seq`` uniformly at random.

    Undirected phase: the undirected stub list is expanded (one entry per
    stub, owner's id), uniformly permuted, and consecutive entries are
    paired; an odd trailing stub is left over.  Directed phase: in-stubs
    and out-stubs are expanded the same way and the *longer* list is
    permuted, then the two are paired positionally up to the shorter
    length.  Permuting the longer side makes the unpaired surplus a
    uniformly random subset of its stubs -- permuting the shorter side
    would always strand the lexicographically last stubs of the longer
    one.  Either way every perfect matching of the paired portion is
    equally likely.
    """
    return _match(seq, 1, [make_generator(seed)])


def match_stubs_union(seq: DegreeSequence, seeds) -> MultiGraph:
    """Disjoint union of one matching of ``seq`` per seed.

    Replicate j is matched exactly as ``match_stubs(seq, seeds[j])``
    would match it -- same generator, same two draws -- and its stub
    owners are shifted to the vertex ids [j*n, (j+1)*n).  Blocks share
    no vertex, and every erasure rule acts on vertex pairs, so one
    ``simplify`` of the union gives each block what a separate call on
    ``match_stubs(seq, seeds[j])`` would, and its report is the sum of
    theirs.
    """
    return _match(seq, len(seeds), make_generators(seeds))
