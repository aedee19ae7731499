"""Joint degree distributions and degree-sequence sampling.

A vertex degree is a triple (in_deg, out_deg, und_deg) counting incoming,
outgoing and undirected edge stubs.  Three families of joint distributions
over triples are supported:

* ``empirical``  -- the rows of a given list of triples;
* ``scale_free`` -- a discrete power law with survival function
  P(X > k) = ((k + d) / d)^-(gamma - 1), where the offset d is chosen so
  the probabilities sum to one; asymptotically p_k is proportional to
  k^-gamma.  The support starts at k = 1 because F(0) = 0 exactly, so
  degree-zero vertices never occur under this family.
* ``poisson``    -- Poisson stub counts.

Each family comes in two couplings.  Under ``independent`` the three
components of a triple are drawn independently from their marginals; under
``dependent`` one draw is shared: empirical triples are resampled whole,
and the synthetic families return (X, X, X) for a single draw X.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

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


def _scale_free_pmf(gamma: float, k: np.ndarray) -> np.ndarray:
    """p_k = S(k-1) - S(k) for array k, zero at k = 0; as S(k) times
    expm1/log1p of S(k-1)/S(k), so no digits cancel deep in the tail."""
    d = scale_free_offset(gamma)
    kk = np.maximum(np.asarray(k, dtype=np.float64), 1.0)
    p = scale_free_sf(gamma, kk) * np.expm1((gamma - 1.0) * np.log1p(1.0 / (kk - 1.0 + d)))
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
    """n degree triples, stored as an (n, 3) int64 array (in, out, und)."""

    triples: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.triples, dtype=np.int64)
        if t.ndim != 2 or t.shape[1] != 3 or t.shape[0] < 1:
            raise ValueError("degree sequence must be a non-empty (n, 3) array")
        if (t < 0).any():
            raise ValueError("degrees must be non-negative")
        object.__setattr__(self, "triples", t)

    @property
    def n(self) -> int:
        return self.triples.shape[0]

    @property
    def in_deg(self) -> np.ndarray:
        return self.triples[:, 0]

    @property
    def out_deg(self) -> np.ndarray:
        return self.triples[:, 1]

    @property
    def und_deg(self) -> np.ndarray:
        return self.triples[:, 2]

    def _total(self, col: int) -> int:
        """Exact stub total of one column: the int64 sum cannot wrap while
        n * max < 2^63; past that it is taken over Python ints."""
        c = self.triples[:, col]
        if self.n * int(c.max()) < 2**63:
            return int(c.sum())
        return sum(c.tolist())

    @property
    def s_in(self) -> int:
        return self._total(0)

    @property
    def s_out(self) -> int:
        return self._total(1)

    @property
    def s_und(self) -> int:
        return self._total(2)


def _draw_univariate(dist: JointDegreeDistribution, rng, n: int) -> np.ndarray:
    if dist.kind == "scale_free":
        return _scale_free_bulk(dist.gamma, rng.random(n))
    return rng.poisson(dist.lam, n).astype(np.int64)


def sample_sequence(dist: JointDegreeDistribution, n: int, seed: int) -> DegreeSequence:
    """Draw n triples i.i.d. from dist; deterministic given (dist, n, seed).

    The draw order is part of the contract so runs can be reproduced
    exactly: independent coupling fills the in column, then out, then und,
    from a single generator; dependent coupling makes one draw per vertex
    (whole-row resampling for empirical, a shared value for the synthetic
    kinds).
    """
    if n < 1:
        raise ValueError("need n >= 1 vertices")
    check_vertex_count(n)
    rng = make_generator(seed)
    if dist.coupling == "dependent":
        if dist.kind == "empirical":
            rows = rng.integers(0, dist.triples.shape[0], size=n)
            deg = dist.triples[rows]
        else:
            x = _draw_univariate(dist, rng, n)
            deg = np.repeat(x[:, None], 3, axis=1)
    else:
        if dist.kind == "empirical":
            m = dist.triples.shape[0]
            cols = [
                dist.triples[rng.integers(0, m, size=n), c] for c in range(3)
            ]
        else:
            cols = [_draw_univariate(dist, rng, n) for _ in range(3)]
        deg = np.column_stack(cols)
    return DegreeSequence(deg)


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


def empirical_atoms(dist: JointDegreeDistribution):
    """An empirical law's distinct rows, sorted, and their probabilities
    count / m; built once per law and cached on it."""
    cached = getattr(dist, "_atom_table", None)
    if cached is None:
        atoms, counts = distinct_rows(dist.triples)
        cached = (atoms, counts / dist.triples.shape[0])
        object.__setattr__(dist, "_atom_table", cached)
    return cached


def _empirical_marginal_pmf(column: np.ndarray, k: np.ndarray) -> np.ndarray:
    vals, counts = np.unique(column, return_counts=True)
    freq = counts / column.size
    idx = np.minimum(np.searchsorted(vals, k), vals.size - 1)
    return np.where(vals[idx] == k, freq[idx], 0.0)


def _univariate_pmf(dist: JointDegreeDistribution, k: np.ndarray) -> np.ndarray:
    if dist.kind == "scale_free":
        return _scale_free_pmf(dist.gamma, k)
    if math.exp(-dist.lam) < np.finfo(np.float64).tiny:
        # the recurrence would start from a subnormal or zero p_0, so take
        # log p_k = k log(lam) - lam - lgamma(k + 1) at each queried k
        from scipy.special import gammaln

        return np.exp(k * math.log(dist.lam) - dist.lam - gammaln(k + 1))
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
        if dist.kind == "empirical":
            cols = [
                _empirical_marginal_pmf(dist.triples[:, c], D[:, c])
                for c in range(3)
            ]
        else:
            cols = [_univariate_pmf(dist, D[:, c]) for c in range(3)]
        return cols[0] * cols[1] * cols[2]
    if dist.kind == "empirical":
        atoms, prob = empirical_atoms(dist)
        codes, atom_codes = row_codes(D, atoms)
        at = np.minimum(np.searchsorted(atom_codes, codes), atom_codes.size - 1)
        return np.where(atom_codes[at] == codes, prob[at], 0.0)
    diag = (D[:, 0] == D[:, 1]) & (D[:, 1] == D[:, 2])
    return np.where(diag, _univariate_pmf(dist, D[:, 0]), 0.0)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Malformed input; the message reads "<path>: line N: <what>", or
    "<path>: <what>" for a broken compressed stream."""


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


def append_to(buf: np.ndarray, used: int, values: np.ndarray) -> int:
    """Write values at buf[used:], doubling buf in place when it is full,
    and return the new fill."""
    end = used + values.size
    if end > buf.size:
        buf.resize(max(end, 2 * buf.size), refcheck=False)
    buf[used:end] = values
    return end


def line_at(body: bytes, start: int, first: int = 1) -> tuple[int, str]:
    """Number and text of the line that begins at byte offset start of a
    newline-terminated body whose first line is number first."""
    return (body.count(b"\n", 0, start) + first,
            body[start:body.index(b"\n", start)].decode("utf-8", "replace"))


def read_int_rows(fh, width: int, head: bytes = b"") -> np.ndarray:
    """The (m, width) int64 rows of head and then the rest of a binary
    stream, whose every slice _ROWS[width] takes whole, else ParseError
    naming the first line it does not take."""
    ids, used, lines = np.empty(0, dtype=np.int64), 0, 0
    for chunk in slices(fh, head):
        end = _ROWS[width].match(chunk).end()
        if end < len(chunk):
            lineno, line = line_at(chunk, end, first=lines + 1)
            raise ParseError(f"line {lineno}: expected {('two', 'three')[width - 2]} "
                             f"integers, non-negative and below 10^18, got {line!r}")
        lines += chunk.count(b"\n")
        if b"#" in chunk:
            chunk = re.sub(rb"#[^\n]*+", b"", chunk)
        if re.search(rb"[0-9]", chunk):  # fromstring reads b"\n" as [0]
            used = append_to(ids, used, np.fromstring(chunk, dtype=np.int64, sep=" "))
    ids.resize(used, refcheck=False)
    return ids.reshape(-1, width)


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
        if head.startswith(b"# pdgraph n="):
            from .ingest import pdgraph_from

            return pdgraph_from(fh, head, path).degree_triples().copy()
        try:
            rows = read_int_rows(fh, 3, head)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not rows.size:
        raise ValueError(f"{path}: no degree triples found")
    return rows
