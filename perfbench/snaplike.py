"""A synthetic SNAP-style directed edge list with known ground truth.

The list mimics soc-Slashdot0902: sparse node ids, '#' header comments,
lines in ascending (source, target) order, about 27 % of the edges
one-way and the rest stored as two reciprocal arcs.  On top of that the
generator plants a known number of self-arcs and of repeated lines, so
every field of `pdcm ingest`'s IngestStats is known in advance.
"""
from __future__ import annotations

import gzip

import numpy as np

DIRECTED_SHARE = 0.27
DUPLICATE_SHARE = 0.01
SELF_ARC_SHARE = 0.002


def make_edge_list(nodes: int, edges: int, seed: int) -> dict:
    """Draw the graph; returns the file's arcs (sparse ids, file order)
    plus what went into them."""
    rng = np.random.Generator(np.random.PCG64([seed, 4]))
    # heavy-tailed endpoint weights, as in a social network
    weight = rng.pareto(1.5, nodes) + 1.0
    weight /= weight.sum()
    draws = int(edges * 1.3) + 16
    a = rng.choice(nodes, draws, p=weight)
    b = rng.choice(nodes, draws, p=weight)
    keep = a != b
    lo, hi = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    pairs = _distinct(lo * nodes + hi)
    pairs = rng.permutation(pairs)[:edges]
    edges = pairs.size
    n_dir = round(DIRECTED_SHARE * edges)
    lo, hi = pairs // nodes, pairs % nodes
    flip = rng.random(n_dir) < 0.5
    dir_t = np.where(flip, hi[:n_dir], lo[:n_dir])
    dir_h = np.where(flip, lo[:n_dir], hi[:n_dir])
    und = np.stack([lo[n_dir:], hi[n_dir:]], axis=1)
    arcs = np.concatenate([np.stack([dir_t, dir_h], axis=1), und, und[:, ::-1]])
    n_dup = round(DUPLICATE_SHARE * len(arcs))
    n_self = round(SELF_ARC_SHARE * len(arcs))
    dups = arcs[rng.integers(0, len(arcs), n_dup)]
    selfs = np.repeat(rng.integers(0, nodes, n_self)[:, None], 2, axis=1)
    arcs = np.concatenate([arcs, dups, selfs])
    sparse = rng.choice(20 * nodes, nodes, replace=False)
    arcs = sparse[arcs]
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    return {
        "arcs": arcs,
        "directed": np.stack([sparse[dir_t], sparse[dir_h]], axis=1),
        "undirected": sparse[und],
        "self_arcs": n_self,
        "duplicates": n_dup,
    }


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (sorting beats numpy 2's hash-based unique)."""
    values = np.sort(values)
    return values[np.r_[True, values[1:] != values[:-1]]]


def write_edge_list(graph: dict, path) -> None:
    arcs = graph["arcs"]
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("# Directed graph (each unordered pair of nodes is saved once): "
                 "synthetic.txt\n# Synthetic SNAP-like network for the pdcm benchmark\n"
                 f"# Nodes: {_distinct(arcs.ravel()).size} Edges: {len(arcs)}\n"
                 "# FromNodeId\tToNodeId\n")
        fh.write(("%d\t%d\n" * len(arcs)) % tuple(arcs.ravel().tolist()))


def ground_truth(graph: dict) -> dict:
    """What `pdcm ingest` must report and store: ids relabelled 0..n-1 in
    order of first appearance in the file (source before target)."""
    rank: dict = {}
    for t, h in graph["arcs"].tolist():
        rank.setdefault(t, len(rank))
        rank.setdefault(h, len(rank))
    relabel = np.vectorize(rank.__getitem__, otypes=[np.int64])
    dirs = relabel(graph["directed"]).reshape(-1, 2)
    unds = np.sort(relabel(graph["undirected"]).reshape(-1, 2), axis=1)
    n = len(rank)
    dirs = dirs[np.argsort(dirs[:, 0] * n + dirs[:, 1])]
    unds = unds[np.argsort(unds[:, 0] * n + unds[:, 1])]
    return {
        "n": n,
        "directed": len(dirs),
        "undirected": len(unds),
        "self_arcs_dropped": graph["self_arcs"],
        "duplicates_dropped": graph["duplicates"],
        "dirs": dirs,
        "unds": unds,
    }
