"""Uniform stub matching: degree sequence -> raw partially directed multigraph.

Every vertex contributes in-stubs, out-stubs and undirected stubs according
to its degree triple.  Undirected stubs are paired uniformly at random with
each other; in-stubs are then paired uniformly with out-stubs.  The result
may contain self-loops and parallel edges (it is a multigraph) and is fed to
the simplifier afterwards.

Draw order is part of the determinism contract: one generator permutes
every undirected stub list, then another (for match_stubs, the same one)
every longer directed stub list.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degrees import MAX_VERTICES, DegreeSequence, check_vertex_count
from .rng import make_generator

VERTEX_DTYPE = np.uint32  # keeps ~4e7-edge graphs to a few hundred MB


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


def match_stubs_union(seq: DegreeSequence, reps: int, und_rng, drawn_rng) -> MultiGraph:
    """Disjoint union of ``reps`` matchings of ``seq``, replicate j on the
    vertex ids [j*n, (j+1)*n).

    Undirected phase: the undirected stub list is expanded (one entry per
    stub, owner's id), uniformly permuted, and consecutive entries are
    paired; an odd trailing stub is left over.  Directed phase: in-stubs
    and out-stubs are expanded the same way and the *longer* list is
    permuted, then the shorter list is paired positionally with the head
    of it.  Permuting the longer side makes the unpaired surplus a
    uniformly random subset of its stubs -- permuting the shorter side
    would always strand the lexicographically last stubs of the longer
    one.  Either way every perfect matching of the paired portion is
    equally likely.

    Each replicate's stub lists are rows of two tiled arrays, shuffled in
    place row after row, the undirected ones by ``und_rng`` and then the
    longer directed ones by ``drawn_rng``, so consecutive calls on the
    same two generators draw what one call with all their replicates
    would.  On a C-contiguous array, ``permuted(x, axis=1, out=x)`` draws
    what ``shuffle`` draws on each row in turn (for a 1-D array
    ``shuffle`` draws exactly what ``permutation`` does).  Blocks share no
    vertex, and every erasure rule acts on vertex pairs, so one
    ``simplify`` of the union gives each block what a separate call on
    that block's matching would, and its report is the sum of theirs.
    """
    n = seq.n
    check_vertex_count(reps * n)
    stubs = reps * max(seq.s_in, seq.s_out, seq.s_und)
    if stubs > MAX_VERTICES:  # before the stub arrays are allocated
        raise ValueError(f"{stubs} stubs of one type: the limit is {MAX_VERTICES}")
    und, drawn, other, in_drawn = _stub_owners(seq, reps)
    und_rng.permuted(und, axis=1, out=und)
    drawn_rng.permuted(drawn, axis=1, out=drawn)
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
    """Pair the stubs of ``seq`` uniformly at random: the one-block
    ``match_stubs_union`` whose two shuffles draw from one generator."""
    rng = make_generator(seed)
    return match_stubs_union(seq, 1, rng, rng)
