"""Exact save probability for a tagged vertex under stub matching.

Fix a degree sequence (a ``DegreeSequence``) and tag the vertex in its
row 0.  A *save attempt* is the event that every stub of the tagged
vertex attaches to a matching stub of a distinct other vertex -- the tagged vertex keeps its drawn degree triple through
simplification.  Conditional on the degrees, this probability has a
closed form: a sum, over all ordered tuples of mutually distinct
neighbour indices, of three chained attachment products (one chain per
stub type).  This module evaluates that sum exactly in rational
arithmetic and estimates the same quantity by running the actual
matching + simplification pipeline, so each route checks the other.

The stub totals ``s_in``, ``s_out``, ``s_und`` count all n vertices,
the tagged one included.  A directed stub meets one of M = max(s_in,
s_out) places on the other side, the longer side's stubs that are left
unpaired included, so the in- and out-chains together take d_in + d_out
consecutive factors down from M: ``math.perm(M, d_in + d_out)``.  The
undirected chain takes every other factor down from S - 1, where S is
s_und rounded up to even (an odd total leaves one stub unpaired).  The
denominators are taken only where the numerator is nonzero, and there
every factor is at least 1: a nonzero numerator needs d_out others with
in-stubs and d_und others with undirected stubs, so d_in + d_out <= s_in
<= M and 2 * d_und <= s_und.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .degrees import DegreeSequence, load_degree_file
from .matching import match_stubs_union
from .rng import derive_seed, make_generator
from .simplify import simplify

# vertices plus stubs per simplified union of Monte Carlo replicates: bounds
# the memory of one chunk and keeps its vertex count far below the 2^31
# pair-code limit of the simplifier
_UNION_BUDGET = 1 << 18
# cells of the exact oracle's table of Python ints, each about 200 ns per other
# row: a 101^3-cell table over 300 other rows takes a minute and 350 MB
_MAX_CELLS = 1 << 20


def _split(seq: DegreeSequence):
    """The tagged vertex's triple and the other rows, as Python ints."""
    if seq.n < 2:
        raise ValueError("need at least one vertex besides the target (n >= 2)")
    target, *others = seq.triples.tolist()
    return target, others


def exact_save_probability(seq: DegreeSequence) -> Fraction:
    """Probability that every stub of the tagged vertex is saved.

    The summand for one index tuple is a product of per-step fractions
    whose denominators depend only on the step number, never on which
    vertex was chosen.  The sum over ordered tuples of distinct indices
    therefore factorizes:

        d_in! * d_out! * d_und! * C
            / (perm(M, d_in + d_out) * (S - 1)(S - 3)...(S - 2 d_und + 1))

    with M and S as in the module docstring, and C the coefficient of
    a^d_in * b^d_out * c^d_und in

        prod over others  (1 + a*out_j + b*in_j + c*und_j),

    i.e. a sum over disjoint index subsets of the matching-degree
    products, with the factorials restoring the orderings.  C is the
    product truncated to degree (d_in, d_out, d_und): one array of
    coefficients, multiplied by one factor per other vertex; everything
    stays in exact integer / rational arithmetic.

    Returns a Fraction in [0, 1].  More target stubs than other vertices
    yield Fraction(0) before the coefficient table is built, and a table
    of more than _MAX_CELLS cells raises ValueError; too few matching
    stubs give a zero numerator and Fraction(0) before any denominator
    is computed; for the rest every denominator is at least 1, so no
    input divides by zero.
    """
    (d_in, d_out, d_und), others = _split(seq)
    if d_in + d_out + d_und > len(others):
        # each other vertex serves at most one tagged stub: 0, before the
        # (d_in + 1) * (d_out + 1) * (d_und + 1) table is allocated
        return Fraction(0)
    cells = (d_in + 1) * (d_out + 1) * (d_und + 1)
    if cells > _MAX_CELLS:
        raise ValueError(f"target ({d_in}, {d_out}, {d_und}) needs a table of {cells} "
                         f"cells; the exact oracle holds at most {_MAX_CELLS}")
    # coef[x, y, z] = sum over disjoint subsets A, B, C of the others so far (|A| = x,
    # |B| = y, |C| = z) of prod(out_A) * prod(in_B) * prod(und_C), as Python ints
    coef = np.zeros((d_in + 1, d_out + 1, d_und + 1), dtype=object)
    coef[0, 0, 0] = 1
    for o_in, o_out, o_und in others:
        if not (d_in and o_out or d_out and o_in or d_und and o_und):
            continue  # serves no tagged stub: its factor is 1
        # every shift reads coef as it was before this vertex, so the vertex
        # extends at most one of the three subsets: it serves one tagged stub
        grown = coef.copy()
        grown[1:] += coef[:-1] * o_out
        grown[:, 1:] += coef[:, :-1] * o_in
        grown[:, :, 1:] += coef[:, :, :-1] * o_und
        coef = grown

    numerator = (math.factorial(d_in) * math.factorial(d_out)
                 * math.factorial(d_und) * coef[d_in, d_out, d_und])
    if numerator == 0:
        # too few matching stubs: the denominator below may then be 0, as
        # math.perm(2, 4) is for target (2, 2, 0) among four (0, 0, 0) rows
        return Fraction(0)
    even = seq.s_und + seq.s_und % 2
    return Fraction(numerator, math.perm(max(seq.s_in, seq.s_out), d_in + d_out)
                    * math.prod(range(even - 1, even - 2 * d_und, -2)))


def monte_carlo_save_frequency(seq: DegreeSequence, replicates: int,
                               seed: int):
    """Estimate the save probability by running the real pipeline.

    Each replicate matches stubs on the fixed degree sequence and
    simplifies the result; a success is recorded when the tagged
    vertex's final degree triple equals its drawn one -- the same
    criterion the simplifier uses for its modified-vertex count.

    Returns ``(frequency, stderr)`` with the binomial standard error
    sqrt(f * (1 - f) / replicates).  A run draws from two generators:
    ``make_generator(derive_seed(seed, 0))`` shuffles every replicate's
    undirected stub list and ``make_generator(derive_seed(seed, 1))``
    every replicate's drawn directed list, each in replicate order.
    Replicates are matched and simplified in chunks, each chunk as one
    disjoint union (``match_stubs_union``) in a single ``simplify`` call;
    the result is the same as matching one replicate at a time on the
    two streams and simplifying each alone.
    """
    if replicates < 1:
        raise ValueError("need replicates >= 1")
    target, _ = _split(seq)
    n = seq.n
    chunk = max(1, _UNION_BUDGET // (n + seq.s_in + seq.s_out + seq.s_und))
    und_rng, drawn_rng = (make_generator(derive_seed(seed, k)) for k in (0, 1))
    hits = 0
    for start in range(0, replicates, chunk):
        reps = min(chunk, replicates - start)
        g, _ = simplify(match_stubs_union(seq, reps, und_rng, drawn_rng))
        hits += int((g.degree_triples[::n] == target).all(axis=1).sum())
    freq = hits / replicates
    stderr = math.sqrt(freq * (1.0 - freq) / replicates)
    return freq, stderr


def parse_save_spec(path) -> DegreeSequence:
    """Read a save-attempt file through load_degree_file: the first triple
    is the target, row 0 of the sequence, the rest are the other vertices."""
    seq = DegreeSequence(load_degree_file(path))
    if seq.n < 2:
        raise ValueError(f"{path}: need a target line plus at least one "
                         "other vertex")
    return seq
