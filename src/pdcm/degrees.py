"""Joint degree distributions and degree-sequence sampling.

A vertex degree is a triple (in, out, und) counting incoming,
outgoing and undirected edge stubs.  Three families of joint distributions
over triples are supported:

* ``empirical``  -- the rows of a given list of triples;
* ``scale_free`` -- a discrete power law with survival function
  P(X > k) = ((k + d) / d)^-(gamma - 1), where the offset d is chosen so
  the probabilities sum to one; asymptotically p_k is proportional to
  k^-gamma.  The support starts at k = 1 because F(0) = 0 exactly, so
  degree-zero vertices never occur under this family.
* ``poisson``    -- Poisson stub counts.

Each family comes in two couplings, which differ only in how many draws
feed the three columns.  A draw gives one value per vertex: a row index
into the empirical triples, or a Poisson or scale-free degree.
``independent`` makes three draws, for in, out and und in that order;
``dependent`` makes one, shared by all three columns, so empirical triples
are resampled whole and the synthetic families return (X, X, X).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .rng import make_generator

# the degree models and couplings, in the order the CLI lists them
MODELS = ("poisson", "scale_free", "empirical")
COUPLINGS = ("independent", "dependent")

# the simplifier, the ingester and the pdgraph reader encode a vertex pair
# (a, b) as the int64 code a * n + b, which needs n * n <= 2^62
MAX_VERTICES = 2**31


def check_vertex_count(n: int) -> None:
    """Raise ValueError unless 0 <= n <= MAX_VERTICES, the limit of the
    int64 pair codes."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"{n} vertices: the limit is 0..{MAX_VERTICES}, "
                         "because vertex pairs are encoded as one int64 each")


def check_lambda(lam: float) -> float:
    """lam, checked to be a Poisson mean in (0, MAX_VERTICES]: a larger
    mean gives one vertex more stubs of one type than the stub limit."""
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be a finite number, not {lam}")
    if lam <= 0.0:
        raise ValueError("poisson distribution needs lambda > 0")
    if lam > MAX_VERTICES:
        raise ValueError(f"lambda must be at most {MAX_VERTICES}, the limit of "
                         f"stubs of one type, not {lam}")
    return lam


# ---------------------------------------------------------------------------
# the scale-free family
# ---------------------------------------------------------------------------

def check_gamma(gamma: float) -> float:
    """gamma, checked to be a scale-free exponent in (2, inf)."""
    if not 2.0 < gamma < math.inf:
        raise ValueError("gamma must exceed 2 so the mean degree is finite"
                         if math.isfinite(gamma)
                         else f"gamma must be a finite number, not {gamma}")
    return gamma


@lru_cache(maxsize=None)
def scale_free_offset(gamma: float) -> float:
    """Offset d = (zeta(gamma) * (gamma - 1))^(-1/(gamma - 1)).

    This is the unique shift that makes the survival function
    ((k + d)/d)^-(gamma-1) a proper distribution function on {1, 2, ...}.
    scipy.special is imported here, so only scale-free runs load it.
    """
    check_gamma(gamma)
    from scipy.special import zeta

    return (float(zeta(gamma)) * (gamma - 1.0)) ** (-1.0 / (gamma - 1.0))


def scale_free_sf(gamma: float, k):
    """S(k) = P(X > k) = (d/(k + d))^(gamma-1); accepts a scalar or array k >= 0.

    The law is defined by its survival function, which keeps full
    relative precision deep in the tail, where 1 - S(k) rounds to 1.
    """
    d = scale_free_offset(gamma)
    sf = (d / (np.asarray(k, dtype=np.float64) + d)) ** (gamma - 1.0)
    if sf.ndim == 0:
        return float(sf)
    return sf


def _scale_free_bulk(gamma: float, u: np.ndarray) -> np.ndarray:
    """Vectorized quantile for an array of uniforms in [0, 1).

    Closed-form inversion k = ceil(d * ((1-u)^(-1/s) - 1)) gives the exact
    answer in real arithmetic; float rounding can put it off by one, so a
    single comparison against the cdf in each direction repairs it.  Agrees
    element-wise with the bisection quantile of the cdf away from u -> 1
    (property-tested on u <= 1 - 1e-6); within ~1e-12 of 1 the float cdf
    saturates onto its last-ulp grid and bisection is no better conditioned
    than this inversion, so the cheaper inversion stands.
    """
    d = scale_free_offset(gamma)
    s = gamma - 1.0
    guess = np.ceil(d * ((1.0 - u) ** (-1.0 / s) - 1.0)).astype(np.int64)
    np.maximum(guess, 1, out=guess)
    f = 1.0 - scale_free_sf(gamma, guess)
    guess = guess + (f < u)
    prev = guess - 1
    f_prev = np.where(prev >= 1, 1.0 - scale_free_sf(gamma, np.maximum(prev, 1)), 0.0)
    guess = guess - ((prev >= 1) & (f_prev >= u))
    return guess


def _poisson_pmf_upto(lam: float, kmax: int) -> np.ndarray:
    """Poisson probabilities p_0 .. p_kmax by the stable ratio recurrence,
    cut after its first exact 0.0: every later term is 0.0 as well, so
    p_k is 0 for any k past the end of the table."""
    p = [math.exp(-lam)]
    while p[-1] > 0.0 and len(p) <= kmax:
        p.append(p[-1] * (lam / len(p)))
    return np.array(p)


# stirlerr(k) = lgamma(k + 1) - (k + 1/2) log k + k - log sqrt(2 pi) for
# k = 1..15; k = 0 has p_0 = e^-lam instead
_STIRLERR = np.array([0.0] + [math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k
                              - 0.5 * math.log(2 * math.pi) for k in range(1, 16)])


def _poisson_pmf_saddle(lam: float, k: np.ndarray) -> np.ndarray:
    """p_k at each k by Loader's saddle-point form ("Fast and Accurate
    Computation of Binomial Probabilities", 2000): p_0 = e^-lam, else
    exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k), whose terms do not cancel."""
    x = np.maximum(k, 1).astype(np.float64)
    d = x - lam
    bd0 = x * np.log(x / lam) - d
    # near lam, k log(k/lam) + lam - k cancels: sum its series in v = d/(k + lam)
    near = np.abs(d) < 0.1 * (x + lam)
    v = d[near] / (x[near] + lam)
    s, term, j, last = d[near] * v, 2 * x[near] * v, 1, None
    while not np.array_equal(s, last):
        term, j, last = term * v * v, j + 2, s
        s = s + term / j
    bd0[near] = s
    x2 = np.maximum(x, 16) ** -2
    stirlerr = np.where(x < 16, _STIRLERR[np.minimum(k, 15)], np.sqrt(x2) * (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - x2 / 1188) * x2) * x2) * x2))
    return np.where(k == 0, math.exp(-lam), np.exp(-stirlerr - bd0) / np.sqrt(2 * math.pi * x))


def _scale_free_pmf(gamma: float, k: np.ndarray) -> np.ndarray:
    """p_k = S(k-1) - S(k) for array k, zero at k = 0; as S(k-1) times 1 - S(k)/S(k-1)
    by expm1/log1p: no digits cancel deep in the tail, no factor overflows at any gamma."""
    d = scale_free_offset(gamma)
    kk = np.maximum(np.asarray(k, dtype=np.float64), 1.0)
    p = scale_free_sf(gamma, kk - 1.0) * -np.expm1((1.0 - gamma) * np.log1p(1.0 / (kk - 1.0 + d)))
    return np.where(np.asarray(k) >= 1, p, 0.0)


# ---------------------------------------------------------------------------
# distribution and sequence objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JointDegreeDistribution:
    """A joint law over degree triples: one of the three kinds + a coupling.

    Build instances through the classmethods; the raw constructor is only
    validated, not convenient.
    """

    kind: str
    coupling: str
    gamma: float | None = None
    lam: float | None = None
    triples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {MODELS}")
        if self.coupling not in COUPLINGS:
            raise ValueError(
                f"unknown coupling {self.coupling!r}; expected one of {COUPLINGS}"
            )
        if self.kind == "empirical":
            if self.triples is None:
                raise ValueError("empirical distribution needs a list of triples")
            t = np.asarray(self.triples, dtype=np.int64).reshape(-1, 3)
            object.__setattr__(self, "triples", DegreeSequence(t).triples)
        elif self.kind == "scale_free":
            if self.gamma is None:
                raise ValueError("scale_free distribution needs gamma")
            check_gamma(self.gamma)
        elif self.lam is None:
            raise ValueError("poisson distribution needs lambda > 0")
        else:
            check_lambda(self.lam)

    @cached_property
    def atom_table(self):
        """An empirical law's distinct rows, sorted, and their probabilities
        count / m; built on first use and kept on the law (cached_property
        writes the instance __dict__, which the frozen dataclass allows)."""
        atoms, counts = distinct_rows(self.triples)
        return atoms, counts / self.triples.shape[0]

    @cached_property
    def column_tables(self):
        """For each column of an empirical law, its distinct values, sorted,
        and their frequencies count / m; built and kept as atom_table is."""
        return [(vals, counts / self.triples.shape[0]) for vals, counts in
                (np.unique(col, return_counts=True) for col in self.triples.T)]

    @classmethod
    def empirical(cls, triples, coupling: str) -> "JointDegreeDistribution":
        return cls(kind="empirical", coupling=coupling, triples=np.asarray(triples))

    @classmethod
    def scale_free(cls, gamma: float, coupling: str) -> "JointDegreeDistribution":
        return cls(kind="scale_free", coupling=coupling, gamma=float(gamma))

    @classmethod
    def poisson(cls, lam: float, coupling: str) -> "JointDegreeDistribution":
        return cls(kind="poisson", coupling=coupling, lam=float(lam))


@dataclass(frozen=True, eq=False)
class DegreeSequence:
    """n degree triples, stored as an (n, 3) int64 array (in, out, und),
    and the exact stub total of each column, set once at construction."""

    triples: np.ndarray
    s_in: int = field(init=False)
    s_out: int = field(init=False)
    s_und: int = field(init=False)

    def __post_init__(self):
        t = np.ascontiguousarray(self.triples, dtype=np.int64)
        if t.ndim != 2 or t.shape[1] != 3 or t.shape[0] < 1:
            raise ValueError("degree sequence must be a non-empty (n, 3) array")
        if (t < 0).any():
            raise ValueError("degrees must be non-negative")
        object.__setattr__(self, "triples", t)
        for name, c in zip(("s_in", "s_out", "s_und"), t.T):
            # the int64 sum cannot wrap while n * max < 2^63; past that
            # the total is taken over Python ints
            if t.shape[0] * int(c.max()) < 2**63:
                total = int(c.sum())
            else:
                total = sum(c.tolist())
            object.__setattr__(self, name, total)

    @property
    def n(self) -> int:
        return self.triples.shape[0]


def _draw(dist: JointDegreeDistribution, rng, n: int) -> np.ndarray:
    """One draw of n values: row indices into an empirical law's triples,
    else Poisson or scale-free degrees."""
    if dist.kind == "empirical":
        return rng.integers(0, dist.triples.shape[0], size=n)
    if dist.kind == "scale_free":
        return _scale_free_bulk(dist.gamma, rng.random(n))
    return rng.poisson(dist.lam, n).astype(np.int64)


def sample_sequence(dist: JointDegreeDistribution, n: int, seed: int) -> DegreeSequence:
    """Draw n triples i.i.d. from dist; deterministic given (dist, n, seed).

    The draw order is part of the contract so runs can be reproduced
    exactly: from a single generator, independent coupling makes three
    draws, for the in, out and und columns in that order; dependent
    coupling makes one, which all three columns share.
    """
    if n < 1:
        raise ValueError("need n >= 1 vertices")
    check_vertex_count(n)
    rng = make_generator(seed)
    draws = [_draw(dist, rng, n) for _ in range(1 if dist.coupling == "dependent" else 3)]
    cols = [draws[c % len(draws)] for c in range(3)]
    if dist.kind == "empirical":
        # take on one column gathers faster than a strided triples[rows, c]
        cols = [dist.triples[:, c].take(rows) for c, rows in enumerate(cols)]
    return DegreeSequence(np.column_stack(cols))


# ---------------------------------------------------------------------------
# model probabilities of individual triples (used by the distortion metrics)
# ---------------------------------------------------------------------------

def row_codes(*arrays) -> list:
    """One int64 code per row of each (m, 3) int64 array, on one common
    scale on which codes order as their rows do lexicographically.

    The code is the row in mixed radix over the column maxima of all the
    arrays; rows that do not fit it (a negative entry, or maxima whose
    product overflows int64) get their rank among the distinct rows
    instead.
    """
    rows = np.concatenate(arrays)
    span = [int(top) + 1 for top in rows.max(axis=0, initial=0)]
    if rows.min(initial=0) >= 0 and span[0] * span[1] * span[2] < 2**63:
        codes = (rows[:, 0] * span[1] + rows[:, 1]) * span[2] + rows[:, 2]
    else:
        order = np.lexsort(rows.T[::-1])
        ranked = rows[order]
        codes = np.empty(rows.shape[0], dtype=np.int64)
        codes[order] = np.cumsum(np.append(False, (ranked[1:] != ranked[:-1]).any(axis=1)))
    return np.split(codes, np.cumsum([a.shape[0] for a in arrays[:-1]]))


def distinct_rows(triples):
    """The distinct rows of an (m, 3) array in lexicographic order, as an
    int64 array, and the int64 count of each."""
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    codes, = row_codes(arr)
    order = np.argsort(codes)
    codes = codes[order]
    starts = np.flatnonzero(np.append(arr.shape[0] > 0, codes[1:] != codes[:-1]))
    return arr[order[starts]], np.diff(np.append(starts, arr.shape[0]))


def _column_pmf(dist: JointDegreeDistribution, c: int, k: np.ndarray) -> np.ndarray:
    """P(column c = k) at each k: the frequencies of column c of an
    empirical law, else the Poisson or scale-free pmf, which every column
    shares."""
    if dist.kind == "empirical":
        vals, freq = dist.column_tables[c]
        idx = np.minimum(np.searchsorted(vals, k), vals.size - 1)
        return np.where(vals[idx] == k, freq[idx], 0.0)
    if dist.kind == "scale_free":
        return _scale_free_pmf(dist.gamma, k)
    if math.exp(-dist.lam) < np.finfo(np.float64).tiny:
        # the recurrence would start from a subnormal or zero p_0
        return _poisson_pmf_saddle(dist.lam, k)
    p = _poisson_pmf_upto(dist.lam, int(k.max()) if k.size else 0)
    return np.where(k < p.size, p[np.minimum(k, p.size - 1)], 0.0)


def triple_probability(dist: JointDegreeDistribution, triples) -> np.ndarray:
    """Exact model probability of each triple in an (m, 3) array.

    Independent coupling multiplies the three marginal pmfs; dependent
    coupling puts all mass on the diagonal (synthetic kinds) or on the
    exact rows of the source list (empirical).
    """
    D = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if dist.coupling == "independent":
        return math.prod(_column_pmf(dist, c, D[:, c]) for c in range(3))
    if dist.kind == "empirical":
        atoms, prob = dist.atom_table
        codes, atom_codes = row_codes(D, atoms)
        at = np.minimum(np.searchsorted(atom_codes, codes), atom_codes.size - 1)
        return np.where(atom_codes[at] == codes, prob[at], 0.0)
    diag = (D[:, 0] == D[:, 1]) & (D[:, 1] == D[:, 2])
    return np.where(diag, _column_pmf(dist, 0, D[:, 0]), 0.0)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Malformed input: "line N: <what>" from a reader, to which the opener
    of the file adds its path, or "<path>: <what>" for a broken gzip stream."""


# the longest run of well-formed lines from the start of a body of rows of
# 2 or 3 ids: ids of at most 18 digits (so below 10^18 and int64-safe)
# split by blanks or tabs, an optional '#' comment, LF or CRLF; blank and
# comment lines pass.  Possessive, like ingest._LINES, so a bad line stops
# it without any backtracking and its match end is that line's offset.
# The ids after the first are written out, not repeated by {n}: a fifth faster.
_ROWS = {width: re.compile(rb"(?:[ \t]*+(?:[0-9]{1,18}+" + rb"[ \t]++[0-9]{1,18}+" * (width - 1)
                           + rb"[ \t]*+)?+(?:#[^\n]*+)?+\r?\n)*+")
         for width in (2, 3)}


# bytes read at once by slices(): the readers' working memory on top of
# the arrays they return
_SLICE = 1 << 20


def slices(fh, head: bytes = b""):
    """head, bytes already read from a binary stream (a file, a FIFO, a
    gzip stream), then the rest of it, in slices of about _SLICE bytes,
    each completed to the end of its last line; a last line without a
    line end gets one."""
    while chunk := head + fh.read(_SLICE):
        head = b""
        if not chunk.endswith(b"\n"):
            chunk += fh.readline()
        yield chunk if chunk.endswith(b"\n") else chunk + b"\n"


def checked_slices(fh, grammar, expected: str, head: bytes = b"", first: int = 1):
    """Each slice of slices(fh, head) with the number of its first line,
    the first being number first, once grammar takes the slice whole;
    else ParseError naming the first line it does not take."""
    for chunk in slices(fh, head):
        end = grammar.match(chunk).end()
        if end < len(chunk):
            first += chunk.count(b"\n", 0, end)
            line = chunk[end:chunk.index(b"\n", end)].decode("utf-8", "replace")
            raise ParseError(f"line {first}: expected {expected}, got {line!r}")
        yield chunk, first
        first += chunk.count(b"\n")


def read_int_rows(fh, width: int, head: bytes = b"") -> np.ndarray:
    """The (m, width) int64 rows of head and then the rest of a binary
    stream, whose every slice _ROWS[width] takes whole, else ParseError
    naming the first line it does not take."""
    parts = [np.empty(0, dtype=np.int64)]
    expected = f"{('two', 'three')[width - 2]} integers, non-negative and below 10^18"
    for chunk, _ in checked_slices(fh, _ROWS[width], expected, head):
        if b"#" in chunk:
            chunk = re.sub(rb"#[^\n]*+", b"", chunk)
        if re.search(rb"[0-9]", chunk):  # fromstring reads b"\n" as [0]
            parts.append(np.fromstring(chunk, dtype=np.int64, sep=" "))
    return np.concatenate(parts).reshape(-1, width)


def load_degree_file(path) -> np.ndarray:
    """Read degree triples from a text file into an (m, 3) int64 array.

    The one reader of the triple format, for degree files and oracle
    specs alike: one "in out und" line per vertex in read_int_rows'
    grammar, errors as "<path>: line N: <what>".  Files in the pdgraph
    edge format (header "# pdgraph n=...") are also accepted; the graph
    is read and its degree triples returned.  The first line is read once
    and the same stream read on, so the file may be a pipe.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        try:
            if head.startswith(b"# pdgraph n="):
                from .ingest import pdgraph_from

                rows = pdgraph_from(fh, head).degree_triples.copy()
            else:
                rows = read_int_rows(fh, 3, head)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not rows.size:
        raise ValueError(f"{path}: no degree triples found")
    return rows
