"""Edge-list ingestion: SNAP-style directed lists -> partially directed graphs.

A raw directed edge list is cleaned in three fixed steps: self-arcs are
dropped, identical arcs are deduplicated, and every surviving reciprocal
pair (u, v)/(v, u) is classified as one undirected edge.  Deduplication
runs before reciprocal detection so a doubled (u, v) without its mirror
stays a single directed edge.

The text export format ("pdgraph") is deliberately rigid so golden-file
tests can compare bytes: a header line "# pdgraph n=<n>", a sorted block
of "D u v" directed lines, then a sorted block of "U u v" undirected lines
with u < v.  File ids are 1-based; in memory vertices are 0..n-1.  The
reader accepts exactly this canonical form and nothing else.
"""
from __future__ import annotations

import gzip
import json
import re
from dataclasses import asdict, dataclass

import numpy as np

from .degrees import ParseError, check_vertex_count, line_at, read_int_rows
from .metrics import proportion_directed
from .simplify import (
    SimpleGraph,
    canonical_violation,
    dedupe,
    encode,
    resolve_arcs,
)


@dataclass(frozen=True, eq=False)
class RawArcList:
    """Arcs exactly as read, with their original sparse ids."""

    arcs: np.ndarray  # (m, 2) int64, file order

    @property
    def num_arcs(self) -> int:
        return self.arcs.shape[0]


@dataclass(frozen=True)
class IngestStats:
    n: int
    directed: int
    undirected: int
    proportion_directed: float
    self_arcs_dropped: int
    duplicates_dropped: int

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def parse_edge_list(stream) -> RawArcList:
    """Read the integer pairs of a binary stream, one "u v" line per arc,
    in degrees.read_int_rows' grammar ('#' comments, blank lines)."""
    return RawArcList(arcs=read_int_rows(stream.read(), 2))


def _densify(arcs: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel sparse ids to 0..n-1 in order of first appearance."""
    flat = arcs.ravel()
    uniq, first = np.unique(flat, return_index=True)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    dense = rank[np.searchsorted(uniq, flat)]
    return dense.reshape(-1, 2), uniq.size


def _classify(arcs: np.ndarray, n: int):
    """Self-drop, dedupe, split into directed / undirected; dense ids in.

    These are the erasure rules (b), (c) and (e) on arcs alone, so the
    simplifier's kernel does the work.
    """
    check_vertex_count(n)
    t, h = arcs[:, 0], arcs[:, 1]
    keep = t != h
    kept = int(keep.sum())
    unique = dedupe(encode(t[keep], h[keep], n))
    dir_codes, und_codes, _, _ = resolve_arcs(unique, unique[:0], n)
    g = SimpleGraph(n, dir_codes, und_codes)
    return g, arcs.shape[0] - kept, kept - unique.size


def to_partially_directed(raw: RawArcList) -> tuple[SimpleGraph, IngestStats]:
    """Densify ids, clean the arc list, and classify reciprocal pairs."""
    dense, n = _densify(raw.arcs)
    g, self_dropped, dup_dropped = _classify(dense, n)
    stats = IngestStats(
        n=n,
        directed=g.num_directed,
        undirected=g.num_undirected,
        proportion_directed=proportion_directed(g),
        self_arcs_dropped=self_dropped,
        duplicates_dropped=dup_dropped,
    )
    return g, stats


def ingest_path(path) -> tuple[SimpleGraph, IngestStats]:
    """Parse a (possibly gzip-compressed) edge-list file and classify it."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        try:
            raw = parse_edge_list(fh)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
    return to_partially_directed(raw)


# ---------------------------------------------------------------------------
# pdgraph text format
# ---------------------------------------------------------------------------

_WRITE_ROWS = 1 << 12
# one body line of the canonical form; ids are decimal without leading zeros
_LINE = re.compile(rb"[DU] [1-9][0-9]{0,9} [1-9][0-9]{0,9}")
# the longest run of canonical lines from the start; possessive, so a bad
# line stops it without any backtracking
_LINES = re.compile(rb"(?:[DU] [1-9][0-9]{0,9}+ [1-9][0-9]{0,9}+\n)*+")


def _write_block(fh, tag: str, first: np.ndarray, second: np.ndarray) -> None:
    """One "<tag> a b" line per pair, ids shifted to 1-based, one format
    operation per chunk of rows."""
    for i in range(0, first.size, _WRITE_ROWS):
        ids = np.stack([first[i:i + _WRITE_ROWS], second[i:i + _WRITE_ROWS]],
                       axis=1).astype(np.int64) + 1
        fh.write((f"{tag} %d %d\n" * ids.shape[0]) % tuple(ids.ravel().tolist()))


def write_pdgraph(g: SimpleGraph, path) -> None:
    """Canonical text export; byte-stable for identical graphs."""
    with open(path, "w") as fh:
        fh.write(f"# pdgraph n={g.n}\n")
        _write_block(fh, "D", g.dir_tails, g.dir_heads)
        _write_block(fh, "U", g.und_u, g.und_v)


def _tokenize(body: bytes):
    """(directed line count, (L, 2) ids) of a body whose every line matches
    _LINE, else None.

    The grammar admits D and U only as tags, so the D bytes count the
    directed lines and one fromstring pass over the untagged body parses
    all ids.
    """
    if _LINES.match(body).end() < len(body):
        return None
    ids = np.fromstring(body.translate(None, b"DU"), dtype=np.int64, sep=" ")
    return body.count(b"D"), ids.reshape(-1, 2)


def read_pdgraph(path) -> SimpleGraph:
    """Read a pdgraph file back; exact inverse of write_pdgraph.

    Ids are taken literally (1-based in the file, minus one in memory) and
    the header fixes n, so isolated vertices survive the round trip.  Only
    the canonical form write_pdgraph emits is accepted: the header
    "# pdgraph n=<n>" (n in decimal without leading zeros), then "D u v"
    lines, then "U u v" lines, single spaces, no blank or comment
    lines, ids in 1..n, each block strictly ascending, u < v, no self-loop,
    no reciprocal arc pair and no arc parallel to an undirected edge.  Any
    other file raises ParseError naming the offending line.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8", "replace").rstrip("\n")
        if not header.startswith("# pdgraph n="):
            raise ParseError(f"{path}: line 1: missing '# pdgraph n=<n>' header")
        count = header[len("# pdgraph n="):]
        try:
            if not re.fullmatch(r"0|[1-9][0-9]*", count):
                raise ValueError(f"expected a decimal without leading zeros, got {count!r}")
            n = int(count)
            check_vertex_count(n)
        except ValueError as exc:
            raise ParseError(f"{path}: line 1: bad vertex count: {exc}") from None
        body = fh.read()
    if body and not body.endswith(b"\n"):
        body += b"\n"
    tokens = _tokenize(body)
    if tokens is None:
        lineno, line = line_at(body, _LINES.match(body).end(), first=2)
        raise ParseError(f"{path}: line {lineno}: expected 'D u v' or 'U u v', "
                         f"got {line!r}")
    n_dir, ids = tokens
    first_u = body.find(b"U")
    if 0 <= first_u < body.rfind(b"D"):
        lineno = body.count(b"\n", 0, first_u) + 2
        raise ParseError(f"{path}: line {lineno}: U line before a D line")
    outside = (ids > n).any(axis=1)
    if outside.any():
        raise ParseError(f"{path}: line {int(outside.argmax()) + 2}: "
                         f"vertex id outside 1..{n}")
    ids -= 1
    codes = encode(ids[:, 0], ids[:, 1], n)
    bad = canonical_violation(n, codes[:n_dir], codes[n_dir:])
    if bad:
        message, block, row = bad
        lineno = row + 2 + (n_dir if block == "U" else 0)
        raise ParseError(f"{path}: line {lineno}: {message}")
    return SimpleGraph(n, codes[:n_dir], codes[n_dir:])
