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

Conventions used throughout:

* stub totals ``s_in``, ``s_out``, ``s_und`` count all n vertices,
  the tagged one included;
* ``w = s_in - s_out`` is the surplus of in-stubs over out-stubs and
  ``v = s_und % 2`` flags the odd undirected stub; both act as pools
  that absorb stubs which cannot be paired, and enter the denominators
  like an extra pseudo-vertex;
* denominators are computed only where the numerator is nonzero, and
  there each is at least 1: a nonzero numerator needs d_in others with
  out-stubs, d_out with in-stubs and d_und with undirected stubs, so
  d_in <= s_out, d_out <= s_in - d_in and 2 * d_und <= s_und.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .degrees import DegreeSequence, load_degree_file
from .matching import match_stubs_union
from .rng import derive_seed, make_generator
from .simplify import simplify

# vertices plus stubs per simplified union of Monte Carlo replicates: bounds
# the memory of one chunk and keeps its vertex count far below the 2^31
# pair-code limit of the simplifier
_UNION_BUDGET = 1 << 18


def _split(seq: DegreeSequence):
    """The tagged vertex's triple and the other rows, as Python ints."""
    if seq.n < 2:
        raise ValueError("need at least one vertex besides the target (n >= 2)")
    target, *others = seq.triples.tolist()
    return target, others


def _step_denominators(seq: DegreeSequence):
    """Per-step denominators of the three attachment chains.

    Step r of a chain conditions on the previous r - 1 attachments, so
    the matching-stub count shrinks by one per step (two for undirected,
    which consume a stub at both ends).  The out-stub chain runs after
    the in-stub chain, hence its pool starts d_in lower.  The w / v pool
    terms, and why a used denominator is >= 1, are in the module docstring.
    """
    d_in, d_out, d_und = seq.triples[0].tolist()
    s_in, s_out, s_und = seq.s_in, seq.s_out, seq.s_und
    w = s_in - s_out
    v = s_und % 2

    den_in = [s_out - r + 1 + max(w, 0) for r in range(1, d_in + 1)]
    den_out = [s_in - d_in - r + 1 + max(-w, 0) for r in range(1, d_out + 1)]
    den_und = [s_und - 2 * r + 1 + v for r in range(1, d_und + 1)]
    return den_in, den_out, den_und


def exact_save_probability(seq: DegreeSequence) -> Fraction:
    """Probability that every stub of the tagged vertex is saved.

    The summand for one index tuple is a product of per-step fractions
    whose denominators depend only on the step number, never on which
    vertex was chosen.  The sum over ordered tuples of distinct indices
    therefore factorizes:

        d_in! * d_out! * d_und! * C / (product of all step denominators)

    where C is the coefficient of a^d_in * b^d_out * c^d_und in

        prod over others  (1 + a*out_j + b*in_j + c*und_j),

    i.e. a sum over disjoint index subsets of the matching-degree
    products, with the factorials restoring the orderings.  C is built
    by a knapsack-style pass over the other vertices; everything stays
    in exact integer / rational arithmetic.

    Returns a Fraction in [0, 1].  Degenerate inputs (more target stubs
    than available vertices or matching stubs) have a zero numerator and
    yield Fraction(0) before any denominator is computed; for the rest
    every denominator is at least 1, so no input divides by zero.
    """
    (d_in, d_out, d_und), others = _split(seq)
    if d_in + d_out + d_und > len(others):
        return Fraction(0)

    # coef[x][y][z] = sum over disjoint subsets A, B, C of the others
    # (|A| = x, |B| = y, |C| = z) of prod(out_A) * prod(in_B) * prod(und_C).
    coef = [[[0] * (d_und + 1) for _ in range(d_out + 1)]
            for _ in range(d_in + 1)]
    coef[0][0][0] = 1
    for o_in, o_out, o_und in others:
        for x in range(d_in, -1, -1):
            for y in range(d_out, -1, -1):
                for z in range(d_und, -1, -1):
                    base = coef[x][y][z]
                    if base == 0:
                        continue
                    # each vertex may serve at most one tagged stub,
                    # so it extends exactly one of the three subsets
                    if x < d_in and o_out:
                        coef[x + 1][y][z] += base * o_out
                    if y < d_out and o_in:
                        coef[x][y + 1][z] += base * o_in
                    if z < d_und and o_und:
                        coef[x][y][z + 1] += base * o_und

    numerator = (math.factorial(d_in) * math.factorial(d_out)
                 * math.factorial(d_und) * coef[d_in][d_out][d_und])
    if numerator == 0:
        return Fraction(0)
    den_in, den_out, den_und = _step_denominators(seq)
    return Fraction(numerator, math.prod(den_in) * math.prod(den_out)
                    * math.prod(den_und))


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
        hits += int((g.degree_triples()[::n] == target).all(axis=1).sum())
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
