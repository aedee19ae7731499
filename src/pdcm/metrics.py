"""Degree censuses and how far simplification distorts the target law.

The central quantity is the total variation distance between the degree
census of a simplified graph and the joint distribution the degrees were
drawn from:

    d_tv = (1/2) * sum_d |p_d - N_d / n|

taken over all triples d.  The census only has finite support, so the sum
splits into the observed support plus the distribution's remaining tail
mass, which is accounted for exactly as 1 - (enumerated mass) rather than
by truncating the tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degrees import DegreeTriple, JointDegreeDistribution, triple_probability
from .simplify import ErasureReport, SimpleGraph

# experiment CSV layout: identification, distortion, the nine per-vertex
# erasure rates (named by their report fields), then the direction mix
CSV_COLUMNS = (
    "model",
    "coupling",
    "n",
    "seed",
    "d_tv",
    "modified_per_vertex",
    "unconnected_und",
    "unconnected_dir",
    "self_loops_dir",
    "self_loops_und",
    "parallel_dir",
    "parallel_und",
    "dir_parallel_to_und",
    "reciprocal_pairs_converted",
    "modified_vertices",
    "prop_directed",
)


@dataclass(frozen=True)
class DegreeCensus:
    """Counts of degree triples over the n vertices of one graph."""

    counts: dict
    n: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.n:
            raise ValueError("census counts must sum to n")

    def frequency(self, triple) -> float:
        return self.counts.get(tuple(triple), 0) / self.n

    def support(self) -> np.ndarray:
        """(m, 3) int64 array of the observed triples, in key order."""
        if not self.counts:
            return np.zeros((0, 3), dtype=np.int64)
        return np.array(sorted(self.counts), dtype=np.int64)


def census_from_triples(triples) -> DegreeCensus:
    """Count the distinct rows by sorting one int64 code per triple.

    The code is the row in mixed radix over the column maxima; rows that
    do not fit it (a negative entry, or maxima whose product overflows
    int64) are sorted row-wise instead.
    """
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    span = arr.max(axis=0, initial=0) + 1
    if arr.min(initial=0) >= 0 and int(span[0]) * int(span[1]) * int(span[2]) < 2**63:
        codes = np.sort((arr[:, 0] * span[1] + arr[:, 1]) * span[2] + arr[:, 2])
        ab, c = np.divmod(codes, span[2])
        rows = np.stack([*np.divmod(ab, span[1]), c], axis=1)
    else:
        rows = arr[np.lexsort(arr.T[::-1])]
    new = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(np.append(rows.shape[0] > 0, new))
    counts = np.diff(np.append(starts, rows.shape[0]))
    table = {DegreeTriple(*row): k
             for row, k in zip(rows[starts].tolist(), counts.tolist())}
    return DegreeCensus(counts=table, n=arr.shape[0])


def degree_census(g: SimpleGraph) -> DegreeCensus:
    """Per-vertex (incoming, outgoing, undirected) counts, aggregated."""
    return census_from_triples(g.degree_triples())


def total_variation(census: DegreeCensus, dist: JointDegreeDistribution) -> float:
    """Exact d_tv between a census and the model law it was sampled from.

    The enumeration runs over the union of the census support and, for
    empirical distributions, the model's own (finite) support; everything
    the model puts outside that union is folded in exactly through the
    complementary mass term.
    """
    if census.n == 0:
        raise ValueError("empty census")
    support = {tuple(map(int, t)) for t in census.counts}
    if dist.kind == "empirical":
        support |= {tuple(map(int, row)) for row in dist.triples}
    triples = np.array(sorted(support), dtype=np.int64)
    p = triple_probability(dist, triples)
    q = np.array([census.counts.get(t, 0) for t in map(tuple, triples)]) / census.n
    tail = max(0.0, 1.0 - float(p.sum()))
    return 0.5 * (float(np.abs(p - q).sum()) + tail)


def erased_per_vertex(report: ErasureReport, n: int) -> dict:
    """Each erasure count divided by the vertex count."""
    if n < 1:
        raise ValueError("need n >= 1")
    return {key: value / n for key, value in report.as_dict().items()}


def proportion_directed(g: SimpleGraph) -> float:
    """Share of edges that kept a direction, |directed| / |all edges|;
    NaN for a graph with no edges."""
    total = g.num_directed + g.num_undirected
    return g.num_directed / total if total else math.nan
