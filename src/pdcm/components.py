"""Strongly connected components of partially directed graphs.

A vertex pair belongs to the same component when each can reach the other.
Undirected edges are two-way connections, so for the reachability view each
{u, v} contributes both arcs (u, v) and (v, u); this expansion lives only
inside the adjacency construction here, never in SimpleGraph itself.

The decomposition is delegated to scipy's compiled, iterative
connected_components (connection="strong"): pure-Python Tarjan either
recurses past the stack limit or crawls at millions of vertices, and the
brute-force reachability oracle in the test suite keeps the dependency
honest on small instances.  scipy.sparse is imported inside
component_labels, so only runs that decompose a graph load it.
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


def component_labels(g: SimpleGraph) -> np.ndarray:
    """Component id per vertex, over the directed reachability view."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = g.n
    rows = np.concatenate([g.dir_tails, g.und_u, g.und_v])
    cols = np.concatenate([g.dir_heads, g.und_v, g.und_u])
    adj = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n)
    )
    _, labels = connected_components(adj, directed=True, connection="strong")
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
