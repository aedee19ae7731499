"""Strongly connected components of partially directed graphs.

A vertex pair belongs to the same component when each can reach the other.
Undirected edges are two-way connections, so for the reachability view each
{u, v} contributes both arcs (u, v) and (v, u); this expansion lives only
inside the adjacency construction here, never in SimpleGraph itself.

The decomposition runs on the int32 CSR structure of that view, which is
built once the graph can be dropped, in up to four steps:

1. Trim.  A vertex with no out-entry or no in-entry is its own component.
2. Pivot search, the first step of a forward-backward decomposition
   (Fleischer, Hendrickson & Pinar 2000; Slota, Rajamanickam & Madduri
   2014).  From the open vertex of largest out-degree, a forward reach
   pushes along the rows of each level's new vertices.  A backward reach
   pulls, on those rows as the push reads them and then in rounds over
   the rest of the forward set: a vertex joins when one of its own row's
   entries already has.  What the pull gathers is the pivot's component.
   On a supercritical small-world graph, such as the configuration-model
   and SNAP graphs of the benchmark, that is the giant, found in a few
   vectorised levels, and little is left open.
3. Colouring, Multistep's next step.  Each open vertex takes the largest
   id among the open vertices that reach it; one that kept its own id is
   a root, whose component is the vertices of its colour that reach it.
   Rounds of this label what the pivot search left open.
4. scipy's compiled decomposition of the whole structure, the one exit
   for what the numpy steps leave open: when a reach or the rounds are
   cut off, as on a long cycle or path or on Poisson(0.6), whose giant is
   more than _LEVELS levels across, or when the pivot's component is no
   larger than what it leaves open, as on subcritical graphs (31-49 % of
   the vertices stay open at Poisson(0.5) and below).

Each reach, and the colouring, stops after _LEVELS levels or rounds, so
a long cycle or path costs at most _LEVELS numpy passes before step 4.
The reaches select rows in windows of _WINDOW vertices, read them in runs
of at most _BLOCK rows and their entries in steps of _STEP, so beside the
int32 labels they hold three byte arrays per vertex and bounded work, and
nothing per entry.

scipy is kept off the common path because loading scipy.sparse costs a
process about half a CPU second, more than the numpy steps take at 10^5
vertices.  At n = 10^6 the pivot search leaves 103,637 vertices of a
Poisson(1) graph and 2,800 of a Poisson(2) one to five and three
colouring rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import decode, encode
from .simplify import _CHUNK, SimpleGraph

MAX_ENTRIES = 2**31 - 1  # the int32 CSR's entry limit
_LEVELS = 64  # levels or rounds of a reach, or colouring rounds, before scipy
_BLOCK = 1 << 13  # rows per run of a reach
_WINDOW = 1 << 16  # vertices per selection of a reach
_STEP = 1 << 14  # entries per step of a reach


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


def _csr(g: SimpleGraph):
    """``(n, indptr, indices)``: the reachability view's CSR structure, in
    int32.

    Row r lists the heads of r's arcs, then its undirected neighbours above
    r, then those below.  Each block's rows ascend (the third's after a
    sort of its (v, u) codes), so an entry's slot is its row's first free
    slot plus its rank among the block's entries of that row.
    """
    n = g.n
    # counted before the indices exist: bincount copies its input to int64
    counts = [np.bincount(rows, minlength=n) for rows in (g.dir_tails, g.und_u, g.und_v)]
    below = decode(np.sort(encode(g.und_v, g.und_u, n)), n)
    blocks = ((g.dir_tails, g.dir_heads), (g.und_u, g.und_v), below)
    fill = np.zeros(n + 1, dtype=np.int64)  # each row's first free slot
    np.cumsum(sum(counts), out=fill[1:])
    if fill[n] > MAX_ENTRIES:
        raise ValueError(f"{fill[n]} adjacency entries: pdcm's int32 CSR holds at most "
                         f"{MAX_ENTRIES}")
    indptr, indices = fill.astype(np.int32), np.empty(fill[n], dtype=np.int32)
    for count, (rows, cols) in zip(counts, blocks):
        shift = fill[:-1] - (np.cumsum(count) - count)
        for i in range(0, rows.size, _CHUNK):
            part = rows[i:i + _CHUNK]
            indices[shift[part] + np.arange(i, i + part.size)] = cols[i:i + _CHUNK]
        fill[:-1] += count
    return n, indptr, indices


def _labels(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Component label per row of the CSR structure, in int32: vertices
    share a label exactly when they share a component."""
    labels = np.arange(n, dtype=np.int32)
    is_open = np.zeros(n, dtype=bool)
    for i in range(0, indices.size, _STEP):
        is_open[indices[i:i + _STEP].astype(np.intp)] = True  # has an in-entry
    is_open &= indptr[1:] > indptr[:-1]  # and an out-entry
    if is_open.any():
        degree = np.diff(indptr)
        degree[~is_open] = -1
        pivot = int(degree.argmax())
        del degree
        scc = _pivot_component(indptr, indices, is_open, pivot)
        # a pivot component no larger than what it leaves open is not a giant
        giant = scc is not None and 2 * np.count_nonzero(scc) > np.count_nonzero(is_open)
        if giant:
            labels[scc] = pivot
            is_open[scc] = False
        del scc
        for _ in range(_LEVELS if giant else 0):
            if not is_open.any() or not _colour_round(indptr, indices, is_open, labels):
                break
    if not is_open.any():
        return labels
    del labels, is_open  # a reach or the rounds cut off, or no giant
    return _compiled_labels(n, indptr, indices)


def _compiled_labels(n, indptr, indices):
    """scipy's int32 labels, shared exactly by the vertices of a component,
    for the whole structure wrapped without a copy: the float64 weights
    are one zero-stride 1.0, so astype copies nothing."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = csr_matrix((np.broadcast_to(np.float64(1.0), indices.size), indices, indptr),
                     shape=(n, n))
    return connected_components(adj, directed=True, connection="strong")[1]


def _runs(n, select):
    """The rows that ``select(lo, hi)`` marks among rows lo..hi-1, in runs
    of at most _BLOCK rows.  A window of _WINDOW rows is selected at once
    and split into blocks of _BLOCK rows only when it marks more than
    _BLOCK, so that a sparse selection takes few steps.  A row may change
    after its window is selected; the reads below only set marks, so
    reading it anyway changes nothing."""
    for lo in range(0, n, _WINDOW):
        mask = select(lo, min(lo + _WINDOW, n))
        if np.count_nonzero(mask) <= _BLOCK:
            yield lo + np.flatnonzero(mask)
            continue
        for at in range(0, mask.size, _BLOCK):
            yield lo + at + np.flatnonzero(mask[at:at + _BLOCK])


def _steps(indptr, indices, select):
    """``(rows, counts, heads)`` for the entries in the rows that
    ``select(lo, hi)`` marks among rows lo..hi-1, a run of rows from _runs
    at a time, in steps of at most _STEP entries: the heads of
    ``counts[i]`` entries of ``rows[i]``, in turn.  A step reads positions
    p..q-1 of the sequence of the run's entries.  ``select`` marks only
    open rows, which have entries, so every count is at least 1."""
    for rows in _runs(indptr.size - 1, select):
        if not rows.size:
            continue
        starts = indptr[rows]
        sizes = indptr[rows + 1] - starts
        ends = np.cumsum(sizes, dtype=np.int64)  # end position of each row
        shift = starts + sizes - ends  # slot minus position, per row
        for p in range(0, int(ends[-1]), _STEP):
            q = min(p + _STEP, int(ends[-1]))
            first, last = np.searchsorted(ends, (p, q - 1), side="right")
            part = slice(first, last + 1)
            counts = np.minimum(ends[part], q) - np.maximum(ends[part] - sizes[part], p)
            slots = np.repeat(shift[part], counts)
            slots += np.arange(p, q)
            yield rows[part], counts, indices[slots].astype(np.intp)


def _pivot_component(indptr, indices, is_open, pivot):
    """The pivot's component as a vertex mask, or None when a reach has
    not finished within _LEVELS levels or rounds.  On a subcritical graph
    it is small, and _labels then hands the whole structure to scipy.

    The forward reach records the level at which it got each open vertex
    and pushes along the rows of the last level's vertices.  The
    backward reach takes only vertices of the forward set, since a vertex
    on a path from the forward set to the pivot lies in both sets.  It
    rides along the push, whose rows are read anyway: a row of the
    frontier joins when one of its heads already has.  So where most edges
    are undirected, the backward set follows the push out from the pivot,
    and the pull rounds that finish it read few rows.  They update in
    place, so a vertex that joins can pull others later in the same round.
    """
    # 0: open, not reached; k: reached at level k, the pivot's being 1; _LEVELS + 2: closed
    forward = np.where(is_open, np.uint8(0), np.uint8(_LEVELS + 2))
    forward[pivot] = 1
    backward = np.zeros(is_open.size, dtype=bool)
    backward[pivot] = True
    for level in range(1, _LEVELS + 1):
        grew = False
        for rows, counts, heads in _steps(indptr, indices, lambda lo, hi: forward[lo:hi] == level):
            _join(backward, rows, counts, heads)
            heads = heads[forward[heads] == 0]
            forward[heads] = level + 1
            grew |= heads.size > 0
        if not grew:
            break
    else:
        return None
    for _ in range(_LEVELS):
        joined = np.count_nonzero(backward)
        for rows, counts, heads in _steps(
                indptr, indices,
                lambda lo, hi: is_open[lo:hi] & (forward[lo:hi] != 0) & ~backward[lo:hi]):
            _join(backward, rows, counts, heads)
        if np.count_nonzero(backward) == joined:
            return backward
    return None


def _join(backward, rows, counts, heads) -> None:
    """Add to the backward set each row of a step with a head in it."""
    backward[rows[np.logical_or.reduceat(backward[heads], np.cumsum(counts) - counts)]] = True


def _colour_round(indptr, indices, is_open, labels) -> bool:
    """Label some components among the open vertices, whose labels are
    their own ids, by one round of Multistep's colouring; False when a
    reach has not finished within _LEVELS levels or rounds.

    The forward reach raises each label to the largest id among the open
    vertices that reach it, pushing along the rows whose label rose at the
    last level.  The backward reach pulls, from each vertex that kept its
    own id, the vertices of its colour that reach it: its component, which
    closes with that colour as its label.  The rest take their ids back.
    """
    # 0: still; k: label rose at level k - 1, every open vertex counting at level 1
    moved = is_open.astype(np.uint8)
    for level in range(1, _LEVELS + 1):
        grew = False
        for rows, counts, heads in _steps(indptr, indices, lambda lo, hi: moved[lo:hi] == level):
            colours = np.repeat(labels[rows], counts)
            rises = is_open[heads] & (labels[heads] < colours)
            heads = heads[rises]
            np.maximum.at(labels, heads, colours[rises])
            moved[heads] = level + 1
            grew |= heads.size > 0
        if not grew:
            break
    else:
        return False
    # a rise sets moved to at least 2, so the roots, which kept their ids, are still at 1
    joined = moved == 1
    del moved
    for _ in range(_LEVELS):
        count = np.count_nonzero(joined)
        for rows, counts, heads in _steps(indptr, indices,
                                          lambda lo, hi: is_open[lo:hi] & ~joined[lo:hi]):
            same = joined[heads] & (labels[heads] == np.repeat(labels[rows], counts))
            joined[rows[np.logical_or.reduceat(same, np.cumsum(counts) - counts)]] = True
        if np.count_nonzero(joined) == count:
            break
    else:
        return False
    is_open &= ~joined
    del joined
    for ids in _runs(is_open.size, lambda lo, hi: is_open[lo:hi]):
        labels[ids] = ids
    return True


def strongly_connected_components(g: SimpleGraph) -> ComponentSummary:
    """Decompose g into SCCs over its directed reachability view."""
    n, csr = g.n, _csr(g)
    del g
    return ComponentSummary.from_sizes(np.unique(_labels(*csr), return_counts=True)[1], n)


def write_component_csv(summary: ComponentSummary, path) -> None:
    """size,count histogram rows, preceded by a one-line summary comment."""
    with open(path, "w") as fh:
        fh.write(
            f"# n={summary.n} largest_relative={summary.largest_relative:.6f}\n"
        )
        fh.write("size,count\n")
        for size in sorted(summary.small_component_histogram):
            fh.write(f"{size},{summary.small_component_histogram[size]}\n")
