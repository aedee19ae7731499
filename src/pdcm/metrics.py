"""Degree censuses and how far simplification distorts the target law.

The central quantity is the total variation distance between the degree
census of a simplified graph and the joint distribution the degrees were
drawn from:

    d_tv = (1/2) * sum_d |p_d - N_d / n|

taken over all triples d.  Off the census support N_d = 0, so those terms
sum to the law's mass outside the support: d_tv is the sum over the
census support plus that tail, 1 - (the support's mass), for every kind
of law alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .degrees import JointDegreeDistribution, distinct_rows, triple_probability
from .simplify import ErasureReport, SimpleGraph

# experiment CSV layout: identification, distortion, the per-vertex
# erasure rates (one per report field), then the direction mix
CSV_COLUMNS = (
    "model",
    "coupling",
    "n",
    "seed",
    "d_tv",
    *(field.name for field in fields(ErasureReport)),
    "prop_directed",
)


@dataclass(frozen=True, eq=False)
class DegreeCensus:
    """How many of the n vertices of one graph have each degree triple.

    ``triples`` holds the distinct triples in lexicographic order, as an
    (m, 3) int64 array, and ``counts`` the int64 count of each; n is
    their sum.
    """

    triples: np.ndarray
    counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def census_from_triples(triples) -> DegreeCensus:
    """Count the distinct rows of an (n, 3) array of degree triples."""
    return DegreeCensus(*distinct_rows(triples))


def degree_census(g: SimpleGraph) -> DegreeCensus:
    """Per-vertex (incoming, outgoing, undirected) counts, aggregated."""
    return census_from_triples(g.degree_triples)


def total_variation(census: DegreeCensus, dist: JointDegreeDistribution) -> float:
    """Exact d_tv between a census and the model law it was sampled from.

    One formula for every law: the sum runs over the census support, and
    everything the law puts outside it, empirical atoms the census missed
    included, is folded in exactly through the complementary mass term.
    """
    n = census.n
    if n == 0:
        raise ValueError("empty census")
    p = triple_probability(dist, census.triples)
    q = census.counts / n
    tail = max(0.0, 1.0 - float(p.sum()))
    return 0.5 * (float(np.abs(p - q).sum()) + tail)


def proportion_directed(g: SimpleGraph) -> float:
    """Share of edges that kept a direction, |directed| / |all edges|;
    NaN for a graph with no edges."""
    total = g.num_directed + g.num_undirected
    return g.num_directed / total if total else math.nan
