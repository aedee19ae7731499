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

Neither reader holds its text whole: both parse the newline-aligned
slices of degrees.slices, about 1 MiB each (of a gzipped edge list, as it
is decompressed), straight into one growing id or pair-code array.
"""
from __future__ import annotations

import gzip
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .degrees import (ParseError, append_to, check_vertex_count, line_at,
                      read_int_rows, slices)
from .matching import encode
from .metrics import proportion_directed
from .simplify import SimpleGraph, canonical_violation, resolve_arcs, run_starts, squeeze


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


def parse_edge_list(stream) -> RawArcList:
    """Read the integer pairs of a binary stream, one "u v" line per arc,
    in degrees.read_int_rows' grammar ('#' comments, blank lines)."""
    return RawArcList(arcs=read_int_rows(stream, 2))


def _densify(arcs: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel sparse ids to 0..n-1 in order of first appearance."""
    flat = arcs.ravel()
    order = np.argsort(flat)
    starts = run_starts(flat[order])
    first = np.minimum.reduceat(order, np.flatnonzero(starts))  # each id's first position
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    dense = np.empty(flat.size, dtype=np.int64)
    dense[order] = rank[np.cumsum(starts) - 1]
    return dense.reshape(-1, 2), first.size


def _classify(arcs: np.ndarray, n: int):
    """Self-drop, dedupe, split into directed / undirected; dense ids in.

    These are the erasure rules (b), (c) and (e) on arcs alone, so the
    simplifier's kernel does the work.
    """
    check_vertex_count(n)
    unique, loops = squeeze(encode(arcs[:, 0], arcs[:, 1], n), n)
    dir_codes, und_codes, _, _ = resolve_arcs(unique, unique[:0], n)
    g = SimpleGraph(n, dir_codes, und_codes)
    return g, loops, arcs.shape[0] - loops - unique.size


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
        except (ParseError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ParseError(f"{path}: {exc}") from None
    return to_partially_directed(raw)


# ---------------------------------------------------------------------------
# pdgraph text format
# ---------------------------------------------------------------------------

_WRITE_ROWS = 1 << 14
# "0".."9", "00".."99" and "0000".."9999" as uint64s whose low bytes are
# the ASCII digits in file order
_DIGITS1 = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
_DIGITS2 = (_DIGITS1[:, None] | _DIGITS1 << np.uint64(8)).ravel()
_DIGITS4 = (_DIGITS2[:, None] | _DIGITS2 << np.uint64(16)).ravel()
_POWERS10 = 10 ** np.arange(1, 10)
_U8 = np.uint64(8)
# the longest run of canonical lines ("D a b" or "U a b", ids decimal
# without leading zeros) from the start; possessive, so a bad line stops it
# without any backtracking
_LINES = re.compile(rb"(?:[DU] [1-9][0-9]{0,9}+ [1-9][0-9]{0,9}+\n)*+")


def _id_words(ids, lead: int):
    """Each id of ``ids`` + 1 as two uint64s of ASCII: bytes 0-5 of the
    first are ``lead``'s, bytes 6-7 its digits 10 and 9 (ids stay below
    2^31 + 1), the second its last 8 digits.  The bytes of leading zeros
    are shifted out to NUL."""
    ids = ids.astype(np.int64) + 1
    zeros = 9 - np.searchsorted(_POWERS10, ids, side="right")
    high, low = np.divmod(ids, 10**8)
    first = _DIGITS2[high]
    shift = _U8 * np.minimum(zeros, 2).astype(np.uint64)
    first = (first >> shift) << (shift + np.uint64(48)) | np.uint64(lead)
    second = _DIGITS4[low // 10**4] | _DIGITS4[low % 10**4] << np.uint64(32)
    shift = _U8 * np.maximum(zeros - 2, 0).astype(np.uint64)
    return first, (second >> shift) << shift


def _write_block(fh, tag: bytes, first: np.ndarray, second: np.ndarray) -> None:
    """Per pair a newline, then "<tag> a b" with the ids shifted to
    1-based: four uint64 words of ASCII per row, NUL where a line is
    shorter, and the NUL bytes dropped before the write."""
    lead = int.from_bytes(b"\n" + tag + b" ", "little")
    for i in range(0, first.size, _WRITE_ROWS):
        words = np.empty((min(_WRITE_ROWS, first.size - i), 4), dtype="<u8")
        words[:, 0], words[:, 1] = _id_words(first[i:i + _WRITE_ROWS], lead)
        words[:, 2], words[:, 3] = _id_words(second[i:i + _WRITE_ROWS], ord(" "))
        text = words.view(np.uint8).reshape(-1)
        fh.write(text[text != 0])


def write_pdgraph(g: SimpleGraph, path) -> None:
    """Canonical text export; byte-stable for identical graphs.  Binary,
    so no platform turns a newline into CRLF, which read_pdgraph refuses;
    each line is written with the newline before it, the last one
    after."""
    with open(path, "wb") as fh:
        fh.write(f"# pdgraph n={g.n}".encode())
        _write_block(fh, b"D", g.dir_tails, g.dir_heads)
        _write_block(fh, b"U", g.und_u, g.und_v)
        fh.write(b"\n")


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

    The body is read and tokenised in the newline-aligned slices of
    degrees.slices, each encoded straight into one pair-code array that
    grows in place; the layout checks run on that array alone.
    """
    with open(path, "rb") as fh:
        return pdgraph_from(fh, fh.readline(), path)


def pdgraph_from(fh, header: bytes, path) -> SimpleGraph:
    """read_pdgraph on the rest of a binary stream whose first line,
    already read from it, is header; path names the stream in errors."""
    header = header.decode("utf-8", "replace").rstrip("\n")
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
    codes = np.empty(0, dtype=np.int64)
    row = n_dir = 0
    first_u = outside = None  # rows of the first U line and first bad id
    for chunk in slices(fh):
        end = _LINES.match(chunk).end()
        if end < len(chunk):
            lineno, line = line_at(chunk, end, first=row + 2)
            raise ParseError(f"{path}: line {lineno}: expected 'D u v' or 'U u v', "
                             f"got {line!r}")
        # the grammar admits D and U only as tags, so the D bytes count the D
        # lines and one fromstring pass over the untagged slice parses all ids
        ids = np.fromstring(chunk.translate(None, b"DU"), dtype=np.int64, sep=" ").reshape(-1, 2)
        if first_u is None and b"U" in chunk:
            first_u = row + chunk.count(b"\n", 0, chunk.find(b"U"))
        bad = (ids > n).any(axis=1)
        if outside is None and bad.any():
            outside = row + int(bad.argmax())
        ids -= 1
        row = append_to(codes, row, encode(ids[:, 0], ids[:, 1], n))
        n_dir += chunk.count(b"D")
    codes.resize(row, refcheck=False)
    # the D lines lead exactly when the first U line follows all n_dir of them
    if first_u is not None and first_u < n_dir:
        raise ParseError(f"{path}: line {first_u + 2}: U line before a D line")
    if outside is not None:
        raise ParseError(f"{path}: line {outside + 2}: vertex id outside 1..{n}")
    bad = canonical_violation(n, codes[:n_dir], codes[n_dir:])
    if bad:
        message, block, row = bad
        lineno = row + 2 + (n_dir if block == "U" else 0)
        raise ParseError(f"{path}: line {lineno}: {message}")
    return SimpleGraph(n, codes[:n_dir], codes[n_dir:])
