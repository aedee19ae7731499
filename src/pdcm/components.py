"""Strongly connected components of partially directed graphs.

A vertex pair belongs to the same component when each can reach the other.
Undirected edges are two-way connections, so for the reachability view each
{u, v} contributes both arcs (u, v) and (v, u); this expansion lives only
inside the adjacency construction here, never in SimpleGraph itself.

The decomposition is delegated to scipy's compiled, iterative
connected_components (connection="strong"): pure-Python Tarjan either
recurses past the stack limit or crawls at millions of vertices, and the
brute-force reachability oracle in the test suite keeps the dependency
honest on small instances.  Its int32 CSR structure is built here with
numpy, and the graph is dropped, before scipy is imported: scipy.sparse
alone takes about 21 MB, and a COO build held the graph, its int32 row and
column copies and the conversion's arrays beside it.  So only runs that
decompose a graph load scipy, and they load it once the edges are gone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import decode, encode
from .simplify import _CHUNK, SimpleGraph


@dataclass(frozen=True, eq=False)
class ComponentSummary:
    """Sizes of all SCCs plus the derived headline numbers."""

    sizes: np.ndarray  # descending
    n: int
    largest_relative: float
    small_component_histogram: dict  # size -> count, one largest excluded

    @classmethod
    def from_sizes(cls, sizes, n: int) -> "ComponentSummary":
        sizes = np.sort(np.asarray(sizes, dtype=np.int64))[::-1]
        if sizes.sum() != n:
            raise ValueError("component sizes must partition the vertices")
        rest, counts = np.unique(sizes[1:], return_counts=True)
        hist = {int(s): int(c) for s, c in zip(rest, counts)}
        return cls(
            sizes=sizes,
            n=n,
            largest_relative=int(sizes[0]) / n if n else math.nan,
            small_component_histogram=hist,
        )

    @property
    def num_components(self) -> int:
        return self.sizes.size


def _csr(g: SimpleGraph):
    """``(n, indptr, indices)``: the reachability view's CSR structure, in
    int32.

    Row r lists the heads of r's arcs, then its undirected neighbours above
    r, then those below.  Each block's rows ascend (the third's after a
    sort of its (v, u) codes), so an entry's slot is its row's first free
    slot plus its rank among the block's entries of that row.
    """
    n = g.n
    # counted before the indices exist: bincount copies its input to int64
    counts = [np.bincount(rows, minlength=n) for rows in (g.dir_tails, g.und_u, g.und_v)]
    below = decode(np.sort(encode(g.und_v, g.und_u, n)), n)
    blocks = ((g.dir_tails, g.dir_heads), (g.und_u, g.und_v), below)
    fill = np.zeros(n + 1, dtype=np.int64)  # each row's first free slot
    np.cumsum(sum(counts), out=fill[1:])
    if fill[n] >= 2**31:
        raise ValueError(f"{fill[n]} adjacency entries: scipy's limit is {2**31 - 1}")
    indptr, indices = fill.astype(np.int32), np.empty(fill[n], dtype=np.int32)
    for count, (rows, cols) in zip(counts, blocks):
        shift = fill[:-1] - (np.cumsum(count) - count)
        for i in range(0, rows.size, _CHUNK):
            part = rows[i:i + _CHUNK]
            indices[shift[part] + np.arange(i, i + part.size)] = cols[i:i + _CHUNK]
        fill[:-1] += count
    return n, indptr, indices


def _labels(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Component id per row of the CSR structure, wrapped without a copy:
    the float64 weights are one zero-stride 1.0, so astype copies nothing."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = csr_matrix((np.broadcast_to(np.float64(1.0), indices.size), indices, indptr),
                     shape=(n, n))
    return connected_components(adj, directed=True, connection="strong")[1]


def component_labels(g: SimpleGraph) -> np.ndarray:
    """Component id per vertex, over the directed reachability view."""
    csr = _csr(g)
    del g
    return _labels(*csr)


def strongly_connected_components(g: SimpleGraph) -> ComponentSummary:
    """Decompose g into SCCs over its directed reachability view."""
    n, csr = g.n, _csr(g)
    del g
    return ComponentSummary.from_sizes(np.bincount(_labels(*csr)), n)


def write_component_csv(summary: ComponentSummary, path) -> None:
    """size,count histogram rows, preceded by a one-line summary comment."""
    with open(path, "w") as fh:
        fh.write(
            f"# n={summary.n} largest_relative={summary.largest_relative:.6f}\n"
        )
        fh.write("size,count\n")
        for size in sorted(summary.small_component_histogram):
            fh.write(f"{size},{summary.small_component_histogram[size]}\n")
