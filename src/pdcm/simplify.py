"""Erasure rules: raw multigraph -> simple partially directed graph.

The rules run in a fixed order and each records how much it erased:

  (a) unconnected stubs are dropped (they never formed an edge);
  (b) self-loops are erased, directed and undirected alike;
  (c) of parallel identical edges all but one are erased;
  (d) directed edges parallel to an undirected edge are erased;
  (e) each reciprocal pair of directed edges becomes one undirected edge.

The order matters: running (d) before (e) guarantees that an edge created
by (e) can never duplicate an existing undirected edge, because after (c)
each ordered pair appears at most once and after (d) no surviving arc is
parallel to an undirected edge.

Every rule runs on sorted int64 pair codes, a * n + b for the pair (a, b):
dedupe is a sort plus an adjacent-difference mask, membership a binary
search of sorted queries, both far faster than numpy's hash-based
unique/isin on int64.  The ingester and the pdgraph reader share them.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .degrees import check_vertex_count
from .matching import VERTEX_DTYPE, MultiGraph


def encode(a, b, n: int) -> np.ndarray:
    """int64 codes a * n + b of the pairs (a[i], b[i])."""
    codes = a.astype(np.int64)
    codes *= n
    codes += b
    return codes


def run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted s that differ from their predecessor."""
    starts = np.empty(s.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(s[1:], s[:-1], out=starts[1:])
    return starts


def dedupe(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values of codes, which are sorted in place."""
    codes.sort()
    return codes[run_starts(codes)]


def member(queries: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Mask of the queries found in ref (sorted, distinct).

    Correct for any query order, but fast only for sorted queries: the
    binary searches then walk ref in one direction.
    """
    if ref.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    at = np.searchsorted(ref, queries)
    np.minimum(at, ref.size - 1, out=at)
    return ref[at] == queries


def _unordered_pairs(dir_codes: np.ndarray, und_codes: np.ndarray, n: int):
    """The arcs' sorted unordered-pair codes min * n + max, with masks of
    the pairs also present as an undirected edge and of each pair that
    repeats its predecessor (the second arc of a reciprocal pair, when
    the arcs are distinct).

    For ids below n, t < h exactly when t * n + h < h * n + t, so the
    smaller of an arc's code and its reverse's is the pair code.
    """
    t, pairs = np.divmod(dir_codes, n)
    pairs *= n
    pairs += t
    del t
    np.minimum(pairs, dir_codes, out=pairs)
    pairs.sort()
    return pairs, member(pairs, und_codes), ~run_starts(pairs)


def resolve_arcs(dir_codes: np.ndarray, und_codes: np.ndarray, n: int):
    """Rules (d) and (e) on sorted distinct arc and undirected-edge codes.

    Returns ``(arc codes, undirected codes, erased by (d), pairs converted
    by (e))``; both code arrays come back sorted.
    """
    pairs, parallel, twin = _unordered_pairs(dir_codes, und_codes, n)
    converted = pairs[twin & ~parallel]
    erased = pairs[parallel | twin]
    lo, hi = np.divmod(erased, n)
    erased_arcs = np.sort(np.concatenate([erased, hi * n + lo]))
    kept = dir_codes[~member(dir_codes, erased_arcs)]
    merged = np.insert(und_codes, np.searchsorted(und_codes, converted), converted)
    return kept, merged, int(parallel.sum()), converted.size


def canonical_violation(n: int, dir_codes: np.ndarray, und_codes: np.ndarray):
    """The first broken simplicity invariant of a graph in stored order.

    Returns None, or ``(message, block, row)``: block is "D" for the arcs
    and "U" for the undirected edges, row the offending position in it.

    The codes are never split into id arrays: for t, h < n the code
    t * n + h is t * (n + 1) + (h - t), so a self-loop is a multiple of
    n + 1, and u >= v exactly when (code // n) * (n + 1) >= code.
    """
    for message, block, bad in (
        ("directed self-loop", "D", dir_codes % (n + 1) == 0),
        ("undirected edge needs u < v", "U", und_codes // n * (n + 1) >= und_codes),
        ("directed edges unsorted or duplicated", "D",
         np.append(False, dir_codes[1:] <= dir_codes[:-1])),
        ("undirected edges unsorted or duplicated", "U",
         np.append(False, und_codes[1:] <= und_codes[:-1])),
    ):
        if bad.any():
            return message, block, int(bad.argmax())
    pairs, parallel, twin = _unordered_pairs(dir_codes, und_codes, n)
    for message, found in (("reciprocal directed pair", pairs[twin]),
                           ("directed edge parallel to an undirected edge",
                            pairs[parallel])):
        if found.size:
            lo, hi = divmod(int(found[0]), n)
            rows = np.flatnonzero((dir_codes == lo * n + hi) | (dir_codes == hi * n + lo))
            return message, "D", int(rows[-1])
    return None


class SimpleGraph:
    """A simple partially directed graph in canonical array form.

    Directed edges are (tail, head) with tail != head; undirected edges are
    stored with u < v.  Both lists are lexicographically sorted and free of
    duplicates, with no reciprocal arcs and no arc parallel to an
    undirected edge (validate_simple_graph checks all of this).
    """

    def __init__(self, n: int, dir_codes: np.ndarray, und_codes: np.ndarray):
        """Trusted: no checks, no sorting.  ``dir_codes`` must be sorted
        distinct arc codes ``t * n + h`` and ``und_codes`` sorted distinct
        codes ``u * n + v`` with u < v, as the erasure rules and the
        pdgraph reader produce them."""
        self.n = n
        self.dir_tails, self.dir_heads = np.empty((2, dir_codes.size), dtype=VERTEX_DTYPE)
        np.divmod(dir_codes, n, out=(self.dir_tails, self.dir_heads), casting="unsafe")
        self.und_u, self.und_v = np.empty((2, und_codes.size), dtype=VERTEX_DTYPE)
        np.divmod(und_codes, n, out=(self.und_u, self.und_v), casting="unsafe")

    @property
    def num_directed(self) -> int:
        return self.dir_tails.shape[0]

    @property
    def num_undirected(self) -> int:
        return self.und_u.shape[0]

    def degree_triples(self) -> np.ndarray:
        """(n, 3) int64 array of per-vertex (in, out, und) degrees.

        Computed once and cached; the returned array is marked read-only
        because every caller shares it.
        """
        deg = getattr(self, "_degree_triples", None)
        if deg is None:
            n = self.n
            deg = np.empty((n, 3), dtype=np.int64)
            deg[:, 0] = np.bincount(self.dir_heads, minlength=n)
            deg[:, 1] = np.bincount(self.dir_tails, minlength=n)
            deg[:, 2] = np.bincount(self.und_u, minlength=n) + np.bincount(
                self.und_v, minlength=n
            )
            deg.setflags(write=False)
            self._degree_triples = deg
        return deg


def validate_simple_graph(g: SimpleGraph) -> None:
    """Raise ValueError if g breaks any simplicity invariant."""
    bad = canonical_violation(g.n, encode(g.dir_tails, g.dir_heads, g.n),
                              encode(g.und_u, g.und_v, g.n))
    if bad:
        raise ValueError(bad[0])


@dataclass(frozen=True)
class ErasureReport:
    """Per-rule erasure counts plus the number of degree-modified vertices."""

    unconnected_und: int
    unconnected_dir: int
    self_loops_dir: int
    self_loops_und: int
    parallel_dir: int
    parallel_und: int
    dir_parallel_to_und: int
    reciprocal_pairs_converted: int
    modified_vertices: int

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def simplify(mg: MultiGraph) -> tuple[SimpleGraph, ErasureReport]:
    """Apply rules (a)-(e) in order; return the simple graph and the counts.

    modified_vertices compares each vertex's final degree triple against
    the drawn one, so a reciprocal conversion marks all involved vertices
    as modified even though their total stub count is unchanged.  Each
    block of a union is compared with the one source sequence, so the
    report of a union is the sum of its blocks' reports.
    """
    n = mg.n
    check_vertex_count(n)
    loop = mg.arc_tails == mg.arc_heads
    loop_u = mg.und_u == mg.und_v
    self_dir, self_und = int(loop.sum()), int(loop_u.sum())
    dir_codes = dedupe(encode(mg.arc_tails[~loop], mg.arc_heads[~loop], n))
    und_codes = dedupe(encode(mg.und_u[~loop_u], mg.und_v[~loop_u], n))
    parallel_dir = mg.n_arcs - self_dir - dir_codes.size
    parallel_und = mg.n_und_edges - self_und - und_codes.size
    dir_codes, und_codes, dir_parallel, pairs = resolve_arcs(dir_codes, und_codes, n)
    g = SimpleGraph(n, dir_codes, und_codes)
    src = mg.source_degrees
    final = g.degree_triples().reshape(-1, src.n, 3)
    modified = int((final != src.triples).any(axis=2).sum())
    report = ErasureReport(
        unconnected_und=mg.leftover_und,
        unconnected_dir=mg.leftover_in + mg.leftover_out,
        self_loops_dir=self_dir,
        self_loops_und=self_und,
        parallel_dir=parallel_dir,
        parallel_und=parallel_und,
        dir_parallel_to_und=dir_parallel,
        reciprocal_pairs_converted=pairs,
        modified_vertices=modified,
    )
    return g, report
