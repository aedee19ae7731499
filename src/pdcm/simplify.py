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
The kernels sort and compact codes in place, so beyond their inputs they
hold the arcs' unordered-pair codes, byte masks and fixed-size chunks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degrees import check_vertex_count
from .matching import MultiGraph, decode, encode

_CHUNK = 1 << 16  # codes per step of the chunked kernels


def run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted s that differ from their predecessor."""
    starts = np.empty(s.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(s[1:], s[:-1], out=starts[1:])
    return starts


def _compact(codes: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move codes[keep] to the front of codes, a chunk at a time, and
    return that prefix.  The writes never pass the reads."""
    end = 0
    for i in range(0, codes.size, _CHUNK):
        part = codes[i:i + _CHUNK][keep[i:i + _CHUNK]]
        codes[end:end + part.size] = part
        end += part.size
    return codes[:end]


def squeeze(codes: np.ndarray, n: int):
    """Rules (b) and (c) in place: sort codes, move their distinct non-loop
    values to the front, and return that prefix and the number of
    self-loop entries (a * n + a, a multiple of n + 1)."""
    codes.sort()
    loop = codes % (n + 1) == 0
    return _compact(codes, run_starts(codes) & ~loop), int(loop.sum())


def member(queries: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Mask of the queries found in ref (sorted, distinct).

    Correct for any query order, but fast only for sorted queries: the
    binary searches then walk ref in one direction.
    """
    found = np.zeros(queries.shape, dtype=bool)
    for i in range(0, queries.size if ref.size else 0, _CHUNK):
        part = queries[i:i + _CHUNK]
        at = np.searchsorted(ref, part)
        np.minimum(at, ref.size - 1, out=at)
        np.equal(ref[at], part, out=found[i:i + _CHUNK])
    return found


def _unordered_pairs(dir_codes: np.ndarray, und_codes: np.ndarray, n: int,
                     out: np.ndarray | None = None):
    """The arcs' sorted unordered-pair codes min * n + max, written into
    out if given, with masks of the pairs also present as an undirected
    edge and of each pair that repeats its predecessor (the second arc of
    a reciprocal pair, when the arcs are distinct).

    For ids below n, t < h exactly when t * n + h < h * n + t, so the
    smaller of an arc's code and its reverse's is the pair code.
    """
    pairs = np.empty_like(dir_codes) if out is None else out
    for i in range(0, dir_codes.size, _CHUNK):
        t, h = np.divmod(dir_codes[i:i + _CHUNK], n)
        np.minimum(encode(h, t, n), dir_codes[i:i + _CHUNK], out=pairs[i:i + _CHUNK])
    pairs.sort()
    twin = run_starts(pairs)
    np.logical_not(twin, out=twin)
    return pairs, member(pairs, und_codes), twin


def resolve_arcs(dir_codes: np.ndarray, und_codes: np.ndarray, n: int):
    """Rules (d) and (e) on sorted distinct arc and undirected-edge codes.

    Returns ``(arc codes, undirected codes, erased by (d), pairs converted
    by (e))``; both code arrays come back sorted, the arcs compacted in
    place into the front of dir_codes.
    """
    pairs, parallel, twin = _unordered_pairs(dir_codes, und_codes, n)
    converted = pairs[twin & ~parallel]
    erased = pairs[parallel | twin]
    lo, hi = np.divmod(erased, n)
    erased_arcs = np.sort(np.concatenate([erased, hi * n + lo]))
    kept = _compact(dir_codes, ~member(dir_codes, erased_arcs))
    merged = np.insert(und_codes, np.searchsorted(und_codes, converted), converted)
    return kept, merged, int(parallel.sum()), converted.size


def canonical_violation(n: int, dir_codes: np.ndarray, und_codes: np.ndarray):
    """The first broken simplicity invariant of a graph in stored order.

    Returns None, or ``(message, block, row)``: block is "D" for the arcs
    and "U" for the undirected edges, row the offending position in it.

    The codes are never split into id arrays: for t, h < n the code
    t * n + h is t * (n + 1) + (h - t), so a self-loop is a multiple of
    n + 1, and u >= v exactly when (code // n) * (n + 1) >= code.  The
    checks and the unordered-pair codes share one int64 scratch array.
    """
    scratch = np.empty(max(dir_codes.size, und_codes.size), dtype=np.int64)
    d, u = scratch[:dir_codes.size], scratch[:und_codes.size]
    for message, block, bad in (
        ("directed self-loop", "D", np.remainder(dir_codes, n + 1, out=d) == 0),
        ("undirected edge needs u < v", "U",
         np.multiply(np.floor_divide(und_codes, n, out=u), n + 1, out=u) >= und_codes),
        ("directed edges unsorted or duplicated", "D",
         np.append(False, dir_codes[1:] <= dir_codes[:-1])),
        ("undirected edges unsorted or duplicated", "U",
         np.append(False, und_codes[1:] <= und_codes[:-1])),
    ):
        if bad.any():
            return message, block, int(bad.argmax())
    pairs, parallel, twin = _unordered_pairs(dir_codes, und_codes, n, out=d)
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
    undirected edge (canonical_violation checks all of this).
    """

    def __init__(self, n: int, dir_codes: np.ndarray, und_codes: np.ndarray):
        """Trusted: no checks, no sorting.  ``dir_codes`` must be sorted
        distinct arc codes ``t * n + h`` and ``und_codes`` sorted distinct
        codes ``u * n + v`` with u < v, as the erasure rules and the
        pdgraph reader produce them."""
        self.n = n
        self.dir_tails, self.dir_heads = decode(dir_codes, n)
        self.und_u, self.und_v = decode(und_codes, n)

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
            deg, step = np.zeros((self.n, 3), dtype=np.int64), _CHUNK << 4
            for col, ids in ((0, self.dir_heads), (1, self.dir_tails), (2, self.und_u),
                             (2, self.und_v)):
                for i in range(0, ids.size, step):  # bincount copies ids to int64
                    deg[:, col] += np.bincount(ids[i:i + step], minlength=self.n)
            deg.setflags(write=False)
            self._degree_triples = deg
        return deg


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


def simplify(mg: MultiGraph) -> tuple[SimpleGraph, ErasureReport]:
    """Apply rules (a)-(e) in order; return the simple graph and the counts.

    modified_vertices compares each vertex's final degree triple against
    the drawn one, so a reciprocal conversion marks all involved vertices
    as modified even though their total stub count is unchanged.  Each
    block of a union is compared with the one source sequence, so the
    report of a union is the sum of its blocks' reports.  mg's codes are
    sorted in place and dropped here; mg's edge counts still hold.
    """
    n, src = mg.n, mg.source_degrees
    check_vertex_count(n)
    unconnected_und, unconnected_dir = mg.leftover_und, mg.leftover_in + mg.leftover_out
    dir_codes, self_dir = squeeze(mg.arc_codes, n)
    und_codes, self_und = squeeze(mg.und_codes, n)
    parallel_dir = mg.n_arcs - self_dir - dir_codes.size
    parallel_und = mg.n_und_edges - self_und - und_codes.size
    del mg  # the raw undirected codes go once the merged ones replace them
    dir_codes, und_codes, dir_parallel, pairs = resolve_arcs(dir_codes, und_codes, n)
    g = SimpleGraph(n, dir_codes, und_codes)
    del dir_codes, und_codes  # before the triples are counted
    final = g.degree_triples().reshape(-1, src.n, 3)
    modified = int((final != src.triples).any(axis=2).sum())
    report = ErasureReport(
        unconnected_und=unconnected_und,
        unconnected_dir=unconnected_dir,
        self_loops_dir=self_dir,
        self_loops_und=self_und,
        parallel_dir=parallel_dir,
        parallel_und=parallel_und,
        dir_parallel_to_und=dir_parallel,
        reciprocal_pairs_converted=pairs,
        modified_vertices=modified,
    )
    return g, report
