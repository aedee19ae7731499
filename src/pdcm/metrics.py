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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .degrees import (
    JointDegreeDistribution,
    distinct_rows,
    empirical_atoms,
    row_codes,
    triple_probability,
)
from .simplify import ErasureReport, SimpleGraph

# experiment CSV layout: identification, distortion, the per-vertex
# erasure rates (one per report field), then the direction mix
CSV_COLUMNS = (
    "model",
    "coupling",
    "n",
    "seed",
    "d_tv",
    "modified_per_vertex",
    *(field.name for field in fields(ErasureReport)),
    "prop_directed",
)


@dataclass(frozen=True, eq=False)
class DegreeCensus:
    """How many of the n vertices of one graph have each degree triple.

    ``triples`` holds the distinct triples in lexicographic order, as an
    (m, 3) int64 array, and ``counts`` the int64 count of each.
    """

    triples: np.ndarray
    counts: np.ndarray
    n: int

    def __post_init__(self):
        if int(np.sum(self.counts)) != self.n:
            raise ValueError("census counts must sum to n")


def census_from_triples(triples) -> DegreeCensus:
    """Count the distinct rows of an (n, 3) array of degree triples."""
    rows, counts = distinct_rows(triples)
    return DegreeCensus(rows, counts, int(counts.sum()))


def degree_census(g: SimpleGraph) -> DegreeCensus:
    """Per-vertex (incoming, outgoing, undirected) counts, aggregated."""
    return census_from_triples(g.degree_triples())


def total_variation(census: DegreeCensus, dist: JointDegreeDistribution) -> float:
    """Exact d_tv between a census and the model law it was sampled from.

    The enumeration runs over the union of the census support and, for
    empirical distributions, the model's own (finite) support, merged as
    sorted row codes; everything the model puts outside that union is
    folded in exactly through the complementary mass term.
    """
    if census.n == 0:
        raise ValueError("empty census")
    triples, counts = census.triples, census.counts
    if dist.kind == "empirical":
        atoms, _ = empirical_atoms(dist)
        codes, atom_codes = row_codes(triples, atoms)
        union, first = np.unique(np.concatenate([codes, atom_codes]), return_index=True)
        counts = np.zeros(union.size, dtype=np.int64)
        counts[np.searchsorted(union, codes)] = census.counts
        triples = np.concatenate([triples, atoms])[first]
    p = triple_probability(dist, triples)
    q = counts / census.n
    tail = max(0.0, 1.0 - float(p.sum()))
    return 0.5 * (float(np.abs(p - q).sum()) + tail)


def erased_per_vertex(report: ErasureReport, n: int) -> dict:
    """Each erasure count divided by the vertex count."""
    if n < 1:
        raise ValueError("need n >= 1")
    return {key: value / n for key, value in asdict(report).items()}


def proportion_directed(g: SimpleGraph) -> float:
    """Share of edges that kept a direction, |directed| / |all edges|;
    NaN for a graph with no edges."""
    total = g.num_directed + g.num_undirected
    return g.num_directed / total if total else math.nan
