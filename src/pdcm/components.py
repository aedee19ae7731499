"""Strongly connected components of partially directed graphs.

A vertex pair belongs to the same component when each can reach the other.
Undirected edges are two-way connections, so for the reachability view each
{u, v} contributes both arcs (u, v) and (v, u); this expansion lives only
inside the adjacency construction here, never in SimpleGraph itself.

The decomposition is delegated to scipy's compiled, iterative
connected_components (connection="strong"): pure-Python Tarjan either
recurses past the stack limit or crawls at millions of vertices, and the
brute-force reachability oracle in the test suite keeps the dependency
honest on small instances.  scipy.sparse is imported inside _adjacency
and component_labels, so only runs that decompose a graph load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simplify import SimpleGraph


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


def _adjacency(g: SimpleGraph):
    """The reachability view as an n x n CSR matrix with int32 structure.

    No step makes a cast copy: the uint32 ids (below 2^31) are viewed as
    int32, and the float64 weights connected_components wants are one
    zero-stride 1.0, so its astype(float64) copies nothing.
    """
    from scipy.sparse import coo_matrix, csr_matrix

    n = g.n
    rows = np.concatenate([g.dir_tails, g.und_u, g.und_v]).view(np.int32)
    cols = np.concatenate([g.dir_heads, g.und_v, g.und_u]).view(np.int32)
    adj = coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n)
    ).tocsr()
    del rows, cols
    return csr_matrix((np.broadcast_to(np.float64(1.0), adj.nnz), adj.indices, adj.indptr),
                      shape=(n, n))


def component_labels(g: SimpleGraph) -> np.ndarray:
    """Component id per vertex, over the directed reachability view."""
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(_adjacency(g), directed=True, connection="strong")
    return labels


def strongly_connected_components(g: SimpleGraph) -> ComponentSummary:
    """Decompose g into SCCs over its directed reachability view."""
    return ComponentSummary.from_sizes(np.bincount(component_labels(g)), g.n)


def write_component_csv(summary: ComponentSummary, path) -> None:
    """size,count histogram rows, preceded by a one-line summary comment."""
    with open(path, "w") as fh:
        fh.write(
            f"# n={summary.n} largest_relative={summary.largest_relative:.6f}\n"
        )
        fh.write("size,count\n")
        for size in sorted(summary.small_component_histogram):
            fh.write(f"{size},{summary.small_component_histogram[size]}\n")
