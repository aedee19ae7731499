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
from .rng import make_generator, make_generators, shuffle_rows

VERTEX_DTYPE = np.uint32  # keeps ~4e7-edge graphs to a few hundred MB

# Fisher-Yates swaps per replicate up to which match_stubs_union shuffles a
# chunk in lockstep (rng.shuffle_rows) rather than with one generator per
# replicate.  Timed on a 2-vCPU guest at saveprob's chunk size, 2^18 // (n +
# stubs) replicates, for n equal rows of (1,1,1), (0,1,2) or (2,2,2):
# lockstep took 0.2-0.6 of the loop's time up to 46 swaps, 0.66-1.01 at
# 94, 0.92-0.98 at 110-118, 1.25-1.29 at 126 and 1.5-2.9 from 190.
LOCKSTEP_POSITIONS = 100


def encode(a, b, n: int) -> np.ndarray:
    """int64 codes a * n + b of the pairs (a[i], b[i])."""
    codes = a.astype(np.int64)
    codes *= n
    codes += b
    return codes


def decode(codes: np.ndarray, n: int):
    """The uint32 id arrays (a, b) of the int64 codes a * n + b."""
    a, b = np.empty((2, codes.size), dtype=VERTEX_DTYPE)
    np.divmod(codes, n, out=(a, b), casting="unsafe")
    return a, b


@dataclass(frozen=True, eq=False)
class MultiGraph:
    """Raw matching output as int64 pair codes, duplicates included: arcs
    ``t * n + h`` and undirected edges ``min * n + max``.

    ``source_degrees`` is the sequence of one block; the graph is
    ``n // source_degrees.n`` disjoint blocks of it, block j on the vertex
    ids [j*m, (j+1)*m) for m = ``source_degrees.n``.  The stubs that found
    no partner (rule (a)) are what the blocks' stub totals hold beyond the
    paired ones.
    """

    n: int
    arc_codes: np.ndarray
    und_codes: np.ndarray
    source_degrees: DegreeSequence

    @property
    def n_arcs(self) -> int:
        return self.arc_codes.shape[0]

    @property
    def n_und_edges(self) -> int:
        return self.und_codes.shape[0]

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


def _stub_owners(seq: DegreeSequence, reps: int):
    """Owner ids of the undirected stubs and of the directed list that is
    shuffled -- the longer one, the in-stubs on a tie -- each tiled to
    ``reps`` rows, of the other directed list, and whether the in-stubs
    are the shuffled list.

    Built per matching and stored nowhere: the sequence lives as long as
    every graph matched from it (``source_degrees``).
    """
    ids = np.arange(seq.n, dtype=VERTEX_DTYPE)
    in_drawn = seq.s_in >= seq.s_out
    drawn, other = (seq.in_deg, seq.out_deg) if in_drawn else (seq.out_deg, seq.in_deg)
    und, drawn = (np.tile(np.repeat(ids, deg), (reps, 1)) for deg in (seq.und_deg, drawn))
    return und, drawn, np.repeat(ids, other), in_drawn


def _shuffle_each(und, drawn, rngs) -> None:
    """Shuffle row j of ``und``, then of ``drawn``, with the j-th generator
    of ``rngs`` (for a 1-D array ``shuffle`` draws exactly what
    ``permutation`` does)."""
    for j, rng in enumerate(rngs):  # no row view outlives the loop
        rng.shuffle(und[j])
        rng.shuffle(drawn[j])


def _match(seq: DegreeSequence, reps: int, shuffle) -> MultiGraph:
    """``reps`` matchings of ``seq``, replicate j on the vertex ids
    [j*n, (j+1)*n).

    Each replicate's stub lists are rows of one tiled array, which
    ``shuffle(und, drawn)`` permutes in place: per replicate, first the
    undirected row, then the longer directed row, on one stream.
    Consecutive undirected entries then form an edge, and the shorter
    directed list is paired with the head of the shuffled longer one.
    """
    n = seq.n
    check_vertex_count(reps * n)
    stubs = reps * max(seq.s_in, seq.s_out, seq.s_und)
    if stubs > MAX_VERTICES:  # before the stub arrays are allocated
        raise ValueError(f"{stubs} stubs of one type: the limit is {MAX_VERTICES}")
    und, drawn, other, in_drawn = _stub_owners(seq, reps)
    shuffle(und, drawn)
    offset = (np.arange(reps, dtype=np.int64) * n).astype(VERTEX_DTYPE)[:, None]
    und += offset
    paired = 2 * (und.shape[1] // 2)
    und_u, und_v = und[:, 0:paired:2], und[:, 1:paired:2]
    und_codes = encode(np.minimum(und_u, und_v), np.maximum(und_u, und_v), reps * n)
    del und, und_u, und_v
    drawn += offset
    other = other + offset
    matched = drawn[:, :other.shape[1]]
    tails, heads = (other, matched) if in_drawn else (matched, other)
    arc_codes = encode(tails, heads, reps * n)
    return MultiGraph(reps * n, arc_codes.ravel(), und_codes.ravel(), seq)


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
    return _match(seq, 1, lambda und, drawn: _shuffle_each(und, drawn, [make_generator(seed)]))


def match_stubs_union(seq: DegreeSequence, seeds) -> MultiGraph:
    """Disjoint union of one matching of ``seq`` per seed.

    Replicate j is matched exactly as ``match_stubs(seq, seeds[j])``
    would match it -- same generator, same two draws -- and its stub
    owners are shifted to the vertex ids [j*n, (j+1)*n).  Blocks share
    no vertex, and every erasure rule acts on vertex pairs, so one
    ``simplify`` of the union gives each block what a separate call on
    ``match_stubs(seq, seeds[j])`` would, and its report is the sum of
    theirs.

    Short rows are shuffled for all replicates in lockstep; rows of more
    than ``LOCKSTEP_POSITIONS`` swaps get one generator per replicate.
    Both draw what ``match_stubs`` draws.
    """
    def shuffle(und, drawn):
        seed_array = np.asarray(seeds, dtype=np.uint64)  # after the size checks
        if max(und.shape[1] - 1, 0) + max(drawn.shape[1] - 1, 0) <= LOCKSTEP_POSITIONS:
            shuffle_rows(seed_array, [und, drawn])
        else:
            _shuffle_each(und, drawn, make_generators(seed_array))
    return _match(seq, len(seeds), shuffle)
