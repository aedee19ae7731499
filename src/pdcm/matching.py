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

from .degrees import DegreeSequence
from .rng import make_generator, make_generators

VERTEX_DTYPE = np.uint32  # keeps ~4e7-edge graphs to a few hundred MB

# the simplifier, the ingester and the pdgraph reader encode a vertex pair
# (a, b) as the int64 code a * n + b, which needs n * n <= 2^62
MAX_VERTICES = 2**31


def check_vertex_count(n: int) -> None:
    """Raise ValueError unless 0 <= n <= MAX_VERTICES, the limit of the
    int64 pair codes."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"{n} vertices: the limit is 0..{MAX_VERTICES}, "
                         "because vertex pairs are encoded as one int64 each")


@dataclass(frozen=True, eq=False)
class MultiGraph:
    """Raw matching output: arcs and undirected edges, duplicates included.

    ``unpaired_dir`` / ``unpaired_und`` record which vertices own the stubs
    that found no partner (all on the surplus side for directed stubs), so
    downstream accounting can attribute the erasures of rule (a) to the
    right vertices.
    """

    n: int
    arc_tails: np.ndarray
    arc_heads: np.ndarray
    und_u: np.ndarray
    und_v: np.ndarray
    leftover_und: int
    leftover_in: int
    leftover_out: int
    unpaired_und: np.ndarray
    unpaired_dir: np.ndarray
    source_degrees: DegreeSequence

    def __post_init__(self):
        for name in ("arc_tails", "arc_heads", "und_u", "und_v",
                     "unpaired_und", "unpaired_dir"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=VERTEX_DTYPE)
            object.__setattr__(self, name, arr)
        if self.arc_tails.shape != self.arc_heads.shape:
            raise ValueError("arc arrays must align")
        if self.und_u.shape != self.und_v.shape:
            raise ValueError("undirected arrays must align")
        if self.leftover_und not in (0, 1):
            raise ValueError("leftover_und must be 0 or 1")
        # unordered pairs are kept normalized so the simplifier can compare
        # them by a single integer code
        u = np.minimum(self.und_u, self.und_v)
        v = np.maximum(self.und_u, self.und_v)
        object.__setattr__(self, "und_u", u)
        object.__setattr__(self, "und_v", v)

    @classmethod
    def from_edges(cls, n, arcs, und_edges, *, unpaired_in=(), unpaired_out=(),
                   unpaired_und=(), source_degrees=None) -> "MultiGraph":
        """Build a MultiGraph from explicit edge lists (mostly for tests).

        When source_degrees is omitted it is derived from the edges and the
        unpaired-stub lists, i.e. the degree sequence that would have
        produced exactly this matching.
        """
        arcs = np.asarray(arcs, dtype=VERTEX_DTYPE).reshape(-1, 2)
        unds = np.asarray(und_edges, dtype=VERTEX_DTYPE).reshape(-1, 2)
        unpaired_in = np.asarray(unpaired_in, dtype=VERTEX_DTYPE)
        unpaired_out = np.asarray(unpaired_out, dtype=VERTEX_DTYPE)
        unpaired_und_arr = np.asarray(unpaired_und, dtype=VERTEX_DTYPE)
        if source_degrees is None:
            deg = np.zeros((n, 3), dtype=np.int64)
            deg[:, 0] = np.bincount(arcs[:, 1], minlength=n)
            deg[:, 0] += np.bincount(unpaired_in, minlength=n)
            deg[:, 1] = np.bincount(arcs[:, 0], minlength=n)
            deg[:, 1] += np.bincount(unpaired_out, minlength=n)
            deg[:, 2] = np.bincount(unds[:, 0], minlength=n)
            deg[:, 2] += np.bincount(unds[:, 1], minlength=n)
            deg[:, 2] += np.bincount(unpaired_und_arr, minlength=n)
            source_degrees = DegreeSequence(deg)
        return cls(
            n=n,
            arc_tails=arcs[:, 0],
            arc_heads=arcs[:, 1],
            und_u=unds[:, 0],
            und_v=unds[:, 1],
            leftover_und=int(unpaired_und_arr.size),
            leftover_in=int(unpaired_in.size),
            leftover_out=int(unpaired_out.size),
            unpaired_und=unpaired_und_arr,
            unpaired_dir=np.concatenate([unpaired_in, unpaired_out]),
            source_degrees=source_degrees,
        )

    @property
    def n_arcs(self) -> int:
        return self.arc_tails.shape[0]

    @property
    def n_und_edges(self) -> int:
        return self.und_u.shape[0]


def _stub_owners(seq: DegreeSequence):
    """Owner ids of every (in, out, und) stub, plus the directed list that
    is shuffled -- the longer one, the in-stubs on a tie -- cached on the
    sequence.

    The repeat-expansion is the same for every matching of one sequence,
    so it is built once.  The cached arrays are never aliased by results:
    they are copied before the in-place shuffles, and the
    positionally-paired shorter list is copied explicitly in _pair_stubs.
    """
    cached = getattr(seq, "_stub_owner_arrays", None)
    if cached is None:
        ids = np.arange(seq.n, dtype=VERTEX_DTYPE)
        in_stubs, out_stubs = np.repeat(ids, seq.in_deg), np.repeat(ids, seq.out_deg)
        longer = in_stubs if in_stubs.size >= out_stubs.size else out_stubs
        cached = (in_stubs, out_stubs, np.repeat(ids, seq.und_deg), longer)
        object.__setattr__(seq, "_stub_owner_arrays", cached)
    return cached


def _shuffle_stubs(rng, und, longer):
    """The two draws of the matching contract, in order, in place: first
    the undirected stub list, then the longer directed list.  For a 1-D
    array ``rng.shuffle`` draws exactly what ``rng.permutation`` does."""
    rng.shuffle(und)
    rng.shuffle(longer)


def _pair_stubs(in_stubs, out_stubs, shuffled_und, shuffled_dir):
    """Pair shuffled stub lists positionally along their last axis.

    Consecutive undirected entries form an edge; the shorter directed
    list is paired with the head of the shuffled longer one.  Stacked
    replicates (one per row) pair in one call.  Returns
    ``(arc_tails, arc_heads, und_u, und_v, unpaired_dir, unpaired_und)``.
    """
    paired = 2 * (shuffled_und.shape[-1] // 2)
    und_u = shuffled_und[..., 0:paired:2]
    und_v = shuffled_und[..., 1:paired:2]
    if in_stubs.shape[-1] >= out_stubs.shape[-1]:
        k = out_stubs.shape[-1]
        arc_tails, arc_heads = out_stubs.copy(), shuffled_dir[..., :k]
    else:
        k = in_stubs.shape[-1]
        arc_tails, arc_heads = shuffled_dir[..., :k], in_stubs.copy()
    return (arc_tails, arc_heads, und_u, und_v,
            shuffled_dir[..., k:], shuffled_und[..., paired:])


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
    n = seq.n
    check_vertex_count(n)
    in_stubs, out_stubs, und_stubs, longer = _stub_owners(seq)
    shuffled_und, shuffled_dir = und_stubs.copy(), longer.copy()
    _shuffle_stubs(make_generator(seed), shuffled_und, shuffled_dir)
    (arc_tails, arc_heads, und_u, und_v, unpaired_dir,
     unpaired_und) = _pair_stubs(in_stubs, out_stubs, shuffled_und,
                                 shuffled_dir)
    # the MultiGraph constructor normalizes u <= v
    return MultiGraph(
        n=n,
        arc_tails=arc_tails,
        arc_heads=arc_heads,
        und_u=und_u,
        und_v=und_v,
        leftover_und=int(und_stubs.size % 2),
        leftover_in=max(in_stubs.size - out_stubs.size, 0),
        leftover_out=max(out_stubs.size - in_stubs.size, 0),
        unpaired_und=unpaired_und,
        unpaired_dir=unpaired_dir,
        source_degrees=seq,
    )


def match_stubs_union(seq: DegreeSequence, seeds) -> MultiGraph:
    """Disjoint union of one matching of ``seq`` per seed.

    Replicate j is matched exactly as ``match_stubs(seq, seeds[j])``
    would match it -- same generator, same two draws -- and its stub
    owners are shifted to the vertex ids [j*n, (j+1)*n).  Only the
    paired stubs are kept: the result is the MultiGraph those edges
    define, so its source degrees omit the unpaired stubs.  Blocks share
    no vertex, and every erasure rule acts on vertex pairs, so one
    ``simplify`` of the union gives each block what a separate call on
    ``match_stubs(seq, seeds[j])`` would.
    """
    n, reps = seq.n, len(seeds)
    check_vertex_count(reps * n)
    in_stubs, out_stubs, und_stubs, longer = _stub_owners(seq)
    shuffled_und = np.tile(und_stubs, (reps, 1))
    shuffled_dir = np.tile(longer, (reps, 1))
    for rng, und_row, dir_row in zip(make_generators(seeds), shuffled_und,
                                     shuffled_dir):
        _shuffle_stubs(rng, und_row, dir_row)
    offset = (np.arange(reps, dtype=np.int64) * n).astype(VERTEX_DTYPE)[:, None]
    shuffled_und += offset
    shuffled_dir += offset
    arc_tails, arc_heads, und_u, und_v, _, _ = _pair_stubs(
        in_stubs + offset, out_stubs + offset, shuffled_und, shuffled_dir)
    return MultiGraph.from_edges(
        reps * n,
        np.stack([arc_tails.ravel(), arc_heads.ravel()], axis=1),
        np.stack([und_u.ravel(), und_v.ravel()], axis=1),
    )
