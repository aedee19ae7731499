"""Independent slow re-implementations and shared cross-check inputs."""

import numpy as np


def multigraph(n, arcs, und_edges, *, unpaired_in=(), unpaired_out=(),
               unpaired_und=(), source_degrees=None):
    """A one-block MultiGraph from explicit edge lists, undirected pairs
    stored with u <= v.

    When source_degrees is omitted it is derived from the edges and the
    unpaired-stub lists, i.e. the degree sequence that would have
    produced exactly this matching.
    """
    from pdcm.degrees import DegreeSequence
    from pdcm.matching import MultiGraph, encode

    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
    unds = np.sort(np.asarray(und_edges, dtype=np.int64).reshape(-1, 2), axis=1)
    if source_degrees is None:
        deg = np.zeros((n, 3), dtype=np.int64)
        for col, ids in ((0, arcs[:, 1]), (0, unpaired_in), (1, arcs[:, 0]),
                         (1, unpaired_out), (2, unds.ravel()), (2, unpaired_und)):
            deg[:, col] += np.bincount(np.asarray(ids, dtype=np.int64), minlength=n)
        source_degrees = DegreeSequence(deg)
    return MultiGraph(n, encode(arcs[:, 0], arcs[:, 1], n),
                      encode(unds[:, 0], unds[:, 1], n), source_degrees)


def multigraph_pairs(mg):
    """(arcs, undirected edges) of a MultiGraph as (m, 2) int64 id arrays,
    in stored order, undirected pairs with u <= v."""
    return (np.stack(np.divmod(mg.arc_codes, mg.n), axis=1),
            np.stack(np.divmod(mg.und_codes, mg.n), axis=1))


def validate_simple_graph(g) -> None:
    """Raise ValueError if g breaks any simplicity invariant."""
    from pdcm.matching import encode
    from pdcm.simplify import canonical_violation

    bad = canonical_violation(g.n, encode(g.dir_tails, g.dir_heads, g.n),
                              encode(g.und_u, g.und_v, g.n))
    if bad:
        raise ValueError(bad[0])


def adjacency_reference(g):
    """The reachability view as scipy builds it from COO triplets: int32
    row and column arrays, each undirected edge both ways, converted to
    CSR.  The CSR builder in pdcm.components must give the same indptr
    and the same neighbour set per row."""
    from scipy.sparse import coo_matrix

    rows = np.concatenate([g.dir_tails, g.und_u, g.und_v]).view(np.int32)
    cols = np.concatenate([g.dir_heads, g.und_v, g.und_u]).view(np.int32)
    return coo_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                      shape=(g.n, g.n)).tocsr()


def scc_reference(n, indptr, indices):
    """Component labels of a CSR structure from scipy's compiled,
    iterative connected_components (connection="strong"): the reference
    partition for pdcm.components' own decomposition."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n, n))
    return connected_components(adj, directed=True, connection="strong")[1]


def same_partition(a, b) -> bool:
    """Whether two label arrays over the same vertices group them alike:
    each pair of labels that occurs names one class of each."""
    pairs = np.unique(np.stack([a, b], axis=1), axis=0)
    return len(pairs) == np.unique(a).size == np.unique(b).size


def simple_graph(n, tails, heads, us, vs):
    """A SimpleGraph from edge columns in any order: the columns must
    align and hold ids in 0..n-1; they are encoded (undirected pairs as
    u <= v) and sorted, and the graph must pass validate_simple_graph."""
    from pdcm.matching import encode
    from pdcm.simplify import SimpleGraph

    t, h, u, v = (np.asarray(x, dtype=np.int64) for x in (tails, heads, us, vs))
    if t.shape != h.shape or u.shape != v.shape:
        raise ValueError("edge arrays must align")
    for ids in (t, h, u, v):
        if ids.size and not 0 <= ids.min() <= ids.max() < n:
            raise ValueError("vertex id out of range")
    g = SimpleGraph(n, np.sort(encode(t, h, n)),
                    np.sort(encode(np.minimum(u, v), np.maximum(u, v), n)))
    validate_simple_graph(g)
    return g


def directed_pairs(g):
    """(m, 2) array of a graph's (tail, head) pairs."""
    return np.stack([g.dir_tails, g.dir_heads], axis=1)


def undirected_pairs(g):
    """(m, 2) array of a graph's undirected pairs, u < v."""
    return np.stack([g.und_u, g.und_v], axis=1)


def brute_scc_sizes(g) -> list:
    """Component sizes by explicit transitive closure (O(n^3), n <= ~100).

    Mutual reachability over the directed view (undirected edges count in
    both directions); two vertices share a component iff each reaches the
    other.
    """
    n = g.n
    reach = np.eye(n, dtype=bool)
    for t, h in directed_pairs(g).tolist():
        reach[t][h] = True
    for u, v in undirected_pairs(g).tolist():
        reach[u][v] = True
        reach[v][u] = True
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    mutual = reach & reach.T
    sizes = []
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if seen[i]:
            continue
        members = np.nonzero(mutual[i])[0]
        seen[members] = True
        sizes.append(int(members.size))
    return sorted(sizes, reverse=True)


def brute_scc_partition(g) -> set:
    """The mutual-reachability partition itself, as a set of frozensets."""
    n = g.n
    reach = np.eye(n, dtype=bool)
    for t, h in directed_pairs(g).tolist():
        reach[t][h] = True
    for u, v in undirected_pairs(g).tolist():
        reach[u][v] = True
        reach[v][u] = True
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    mutual = reach & reach.T
    return {frozenset(np.nonzero(mutual[i])[0].tolist()) for i in range(n)}


def edge_sets(g) -> tuple:
    """(directed, undirected) edges of a small graph as sets of tuples."""
    return (set(map(tuple, directed_pairs(g).tolist())),
            set(map(tuple, undirected_pairs(g).tolist())))


def random_simple_graph(rng, max_n=12, max_edges=20):
    """A random valid SimpleGraph, built by running arbitrary edge lists
    through the simplifier (whose output is simple by construction)."""
    from pdcm.simplify import simplify

    n = int(rng.integers(1, max_n + 1))
    arcs = rng.integers(0, n, (int(rng.integers(0, max_edges)), 2))
    unds = rng.integers(0, n, (int(rng.integers(0, max_edges)), 2))
    g, _ = simplify(multigraph(n, arcs, unds))
    return g


def _pairings(items):
    """Every perfect matching of an even-length list, as lists of pairs."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _pairings(remaining):
            yield [(first, rest[i])] + tail


def enumerate_save_fraction(seq):
    """Saved share of vertex 0 of a DegreeSequence, by exhausting every
    matching outcome.

    Mirrors the matching distribution directly, with no probability
    formula involved: an injective assignment of the shorter directed
    stub list into the longer one (all equally likely), an independent
    uniform choice of the unpaired undirected stub when the count is
    odd, and a uniform perfect matching of the remaining undirected
    stubs.  Each outcome is pushed through the real simplifier and
    vertex 0's final degree triple is compared with its drawn one.
    Exact by construction; cost grows factorially, so callers must keep
    stub counts tiny.
    """
    from fractions import Fraction
    from itertools import permutations

    from pdcm.simplify import simplify

    n = seq.n
    in_stubs = [v for v in range(n) for _ in range(int(seq.triples[v, 0]))]
    out_stubs = [v for v in range(n) for _ in range(int(seq.triples[v, 1]))]
    und_stubs = [v for v in range(n) for _ in range(int(seq.triples[v, 2]))]

    # directed phase: every injective map of the shorter list into the
    # longer one is equally likely; surplus stubs on the longer side are
    # the ones missing from the image
    dir_outcomes = []  # (arcs, unpaired_in, unpaired_out)
    if len(in_stubs) <= len(out_stubs):
        for choice in permutations(range(len(out_stubs)), len(in_stubs)):
            arcs = [(out_stubs[j], in_stubs[i]) for i, j in enumerate(choice)]
            left = [out_stubs[j] for j in range(len(out_stubs))
                    if j not in choice]
            dir_outcomes.append((arcs, [], left))
    else:
        for choice in permutations(range(len(in_stubs)), len(out_stubs)):
            arcs = [(out_stubs[i], in_stubs[j]) for i, j in enumerate(choice)]
            left = [in_stubs[j] for j in range(len(in_stubs))
                    if j not in choice]
            dir_outcomes.append((arcs, left, []))

    und_outcomes = []  # (unpaired_und, und_edges)
    if len(und_stubs) % 2 == 0:
        for pairs in _pairings(und_stubs):
            und_outcomes.append(([], pairs))
    else:
        for skip in range(len(und_stubs)):
            rest = und_stubs[:skip] + und_stubs[skip + 1 :]
            for pairs in _pairings(rest):
                und_outcomes.append(([und_stubs[skip]], pairs))

    drawn = seq.triples[0].tolist()
    saved = 0
    for arcs, unpaired_in, unpaired_out in dir_outcomes:
        for unpaired_und, unds in und_outcomes:
            mg = multigraph(
                n, arcs, unds,
                unpaired_in=unpaired_in, unpaired_out=unpaired_out,
                unpaired_und=unpaired_und, source_degrees=seq,
            )
            g, _ = simplify(mg)
            if g.degree_triples[0].tolist() == drawn:
                saved += 1
    return Fraction(saved, len(dir_outcomes) * len(und_outcomes))


def step_denominators(seq):
    """Per-step denominators of the three attachment chains.

    Step r of a chain conditions on the previous r - 1 attachments, so
    the matching-stub count shrinks by one per step (two for undirected,
    which consume a stub at both ends).  A stub can also meet a place
    that stays unpaired: the longer directed side's surplus |w|, where
    w = s_in - s_out, and the odd undirected stub v = s_und % 2 enter
    each count like an extra vertex.  The out-stub chain runs after the
    in-stub chain, hence its count starts d_in lower.
    """
    d_in, d_out, d_und = seq.triples[0].tolist()
    s_in, s_out, s_und = seq.s_in, seq.s_out, seq.s_und
    w = s_in - s_out
    v = s_und % 2

    den_in = [s_out - r + 1 + max(w, 0) for r in range(1, d_in + 1)]
    den_out = [s_in - d_in - r + 1 + max(-w, 0) for r in range(1, d_out + 1)]
    den_und = [s_und - 2 * r + 1 + v for r in range(1, d_und + 1)]
    return den_in, den_out, den_und


def exact_by_enumeration(seq):
    """Direct sum over every ordered tuple of distinct neighbour indices.

    (n-1)(n-2)...(n-d) terms, so only usable for tiny instances; an
    independent cross-check of the factorized route in
    ``exact_save_probability``.  The first d_in positions of each tuple
    feed the in-stub chain, the next d_out the out-stub chain, the rest
    the undirected chain.  The step denominators are taken only for a
    nonzero sum, the one case where each is at least 1.
    """
    import math
    from fractions import Fraction
    from itertools import permutations

    (d_in, d_out, d_und), *others = seq.triples.tolist()
    d = d_in + d_out + d_und
    if d > len(others):
        return Fraction(0)

    ins, outs, unds = zip(*others)

    total = 0
    for tup in permutations(range(len(others)), d):
        term = 1
        for idx in tup[:d_in]:
            term *= outs[idx]
        for idx in tup[d_in:d_in + d_out]:
            term *= ins[idx]
        for idx in tup[d_in + d_out:]:
            term *= unds[idx]
        total += term
    if total == 0:
        return Fraction(0)
    den_in, den_out, den_und = step_denominators(seq)
    return Fraction(total, math.prod(den_in) * math.prod(den_out) * math.prod(den_und))


def save_battery(count=10, seed=20260815):
    """Deterministic random save-attempt specs (n <= 6, degrees <= 2), as
    DegreeSequences whose row 0 is the tagged vertex.

    count - 2 specs with probability strictly inside (0, 1) -- the
    informative regime for exact-vs-sampled agreement -- plus one
    impossible and one certain spec, where the sampled frequency must
    hit the exact value on the nose.
    """
    import numpy as np

    from pdcm.degrees import DegreeSequence
    from pdcm.saveprob import exact_save_probability

    rng = np.random.default_rng(seed)
    mixed, zero, one = [], [], []
    while len(mixed) < count - 2 or not zero or not one:
        n = int(rng.integers(3, 7))
        s = DegreeSequence([rng.integers(0, 3, 3) for _ in range(n)])
        p = exact_save_probability(s)
        if p == 0 and len(zero) < 1:
            zero.append(s)
        elif p == 1 and len(one) < 1:
            one.append(s)
        elif 0 < p < 1 and len(mixed) < count - 2:
            mixed.append(s)
    return mixed + zero + one


def monte_carlo_reference(seq, replicates, seed):
    """The save-frequency estimator as a plain per-replicate loop.

    One generator on ``derive_seed(seed, 0)`` shuffles each replicate's
    undirected stub list and one on ``derive_seed(seed, 1)`` its longer
    directed list (the in-stubs on a tie), replicate after replicate; each
    replicate is paired and simplified on its own.  The stream contract
    says the batched estimator must return exactly this
    ``(frequency, stderr)``.
    """
    import math

    from pdcm.rng import derive_seed, make_generator
    from pdcm.simplify import simplify

    ids = np.arange(seq.n)
    d_in, d_out, d_und = seq.triples.T
    in_drawn = seq.s_in >= seq.s_out
    drawn_deg, other_deg = (d_in, d_out) if in_drawn else (d_out, d_in)
    other = np.repeat(ids, other_deg)
    und_rng, drawn_rng = (make_generator(derive_seed(seed, k)) for k in (0, 1))
    target = seq.triples[0].tolist()
    hits = 0
    for _ in range(replicates):
        und, drawn = np.repeat(ids, d_und), np.repeat(ids, drawn_deg)
        und_rng.shuffle(und)
        drawn_rng.shuffle(drawn)
        matched = drawn[:other.size]
        arcs = np.stack((other, matched) if in_drawn else (matched, other), axis=1)
        g, _ = simplify(multigraph(seq.n, arcs, und[:und.size // 2 * 2],
                                   source_degrees=seq))
        hits += g.degree_triples[0].tolist() == target
    freq = hits / replicates
    return freq, math.sqrt(freq * (1.0 - freq) / replicates)


def poisson_pmf_reference(lam, kmax):
    """Poisson p_0 .. p_kmax by the ratio recurrence, the whole table,
    with no cut at the first underflow."""
    import math

    p = np.empty(kmax + 1, dtype=np.float64)
    p[0] = math.exp(-lam)
    for j in range(1, kmax + 1):
        p[j] = p[j - 1] * (lam / j)
    return p


def _first_atom(holds) -> int:
    """Smallest k >= 1 with holds(k), for a predicate monotone in k.

    Exponential bracketing followed by binary search keeps the cost
    O(log k) even deep in the heavy tail.
    """
    hi = 1
    while not holds(hi):
        hi *= 2
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def scale_free_mean(gamma):
    """Exact mean of the power law, via the survival-series identity

        E[X] = sum_{k>=0} P(X > k) = d^(gamma-1) * zeta(gamma - 1, d)

    with the Hurwitz zeta.  Partial sums of k*p_k are hopeless in
    comparison: at gamma = 2.5 that tail decays like k^-1/2 and would
    need ~1e18 terms.
    """
    from scipy.special import zeta

    from pdcm.degrees import scale_free_offset

    d = scale_free_offset(gamma)
    return d ** (gamma - 1.0) * float(zeta(gamma - 1.0, d))


def scale_free_cdf(gamma, k):
    """F(k) = 1 - ((k + d)/d)^-(gamma-1); accepts a scalar or array k >= 0.

    In float64, F(k) rounds to the same value for adjacent k once p_k
    falls below half an ulp of 1; the sampler works with scale_free_sf.
    """
    from pdcm.degrees import scale_free_sf

    return 1.0 - scale_free_sf(gamma, k)


def scale_free_quantile(gamma, u) -> int:
    """Smallest k >= 1 with scale_free_cdf(gamma, k) >= u, for u in [0, 1),
    by bisection; the reference for the sampler's closed-form inversion.

    The support starts at 1 (F(0) = 0), so u = 0 maps to 1.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("quantile argument must lie in [0, 1)")
    return _first_atom(lambda k: scale_free_cdf(gamma, k) >= u)


def scale_free_isf(gamma, q) -> int:
    """Smallest k >= 1 with scale_free_sf(gamma, k) <= q, for q in (0, 1].

    The inverse from the tail probability q = P(X > k): unlike the
    quantile of F, it separates every atom whose S(k) is representable,
    so it stays exact where F has saturated.
    """
    from pdcm.degrees import scale_free_sf

    if not 0.0 < q <= 1.0:
        raise ValueError("tail probability must lie in (0, 1]")
    return _first_atom(lambda k: scale_free_sf(gamma, k) <= q)


def simplify_reference(mg):
    """Rules (b)-(e) on Python sets, in the documented order.

    Returns ``(self_dir, self_und, parallel_dir, parallel_und,
    dir_parallel, pairs, final_dir, final_und)`` with both final edge
    lists sorted; the simplifier must agree with it exactly.
    """
    arcs, unds = (list(map(tuple, pairs.tolist())) for pairs in multigraph_pairs(mg))

    kept_arcs = [(t, h) for t, h in arcs if t != h]
    self_dir = len(arcs) - len(kept_arcs)
    kept_unds = [(u, v) for u, v in unds if u != v]
    self_und = len(unds) - len(kept_unds)

    dir_set = set(kept_arcs)
    parallel_dir = len(kept_arcs) - len(dir_set)
    und_set = set(kept_unds)
    parallel_und = len(kept_unds) - len(und_set)

    survivors = {
        (t, h) for t, h in dir_set
        if ((t, h) if t < h else (h, t)) not in und_set
    }
    dir_parallel = len(dir_set) - len(survivors)

    recip = {(t, h) for t, h in survivors if (h, t) in survivors}
    converted = {(t, h) if t < h else (h, t) for t, h in recip}
    final_dir = sorted(survivors - recip)
    final_und = sorted(und_set | converted)

    return (
        self_dir, self_und, parallel_dir, parallel_und, dir_parallel,
        len(recip) // 2, final_dir, final_und,
    )


def simple_graph_reference(n, tails, heads, us, vs):
    """What ``simple_graph(n, tails, heads, us, vs)`` must do, in plain Python.

    The same checks in the same order, with the messages of the helper
    and of ``canonical_violation``; returns ``("err", message)`` or
    ``("ok", directed pairs, undirected pairs, degree triples)`` as sorted
    lists.
    """
    t, h, u, v = map(list, (tails, heads, us, vs))
    if len(t) != len(h) or len(u) != len(v):
        return ("err", "edge arrays must align")
    for lst in (t, h, u, v):
        if lst and not 0 <= min(lst) <= max(lst) < n:
            return ("err", "vertex id out of range")
    dir_pairs = sorted(zip(t, h))
    und_pairs = sorted((a, b) if a < b else (b, a) for a, b in zip(u, v))
    if any(a == b for a, b in dir_pairs):
        return ("err", "directed self-loop")
    if any(a == b for a, b in und_pairs):
        return ("err", "undirected edge needs u < v")
    if len(set(dir_pairs)) < len(dir_pairs):
        return ("err", "directed edges unsorted or duplicated")
    if len(set(und_pairs)) < len(und_pairs):
        return ("err", "undirected edges unsorted or duplicated")
    if any((b, a) in dir_pairs for a, b in dir_pairs):
        return ("err", "reciprocal directed pair")
    if any((min(a, b), max(a, b)) in und_pairs for a, b in dir_pairs):
        return ("err", "directed edge parallel to an undirected edge")
    deg = [[0, 0, 0] for _ in range(n)]
    for a, b in dir_pairs:
        deg[b][0] += 1
        deg[a][1] += 1
    for a, b in und_pairs:
        deg[a][2] += 1
        deg[b][2] += 1
    return ("ok", [list(p) for p in dir_pairs], [list(p) for p in und_pairs], deg)


def total_variation_reference(rows, dist):
    """d_tv over a set of tuples, with a dict census and a dict law.

    The set/dict form that the sorted-code ``total_variation`` replaced,
    kept as the reference it must equal bit for bit: the same census
    support in the same lexicographic order, the same p and q formulas
    and the same tail term.  ``rows`` are a graph's degree triples, one
    per vertex.
    """
    from collections import Counter

    from pdcm.degrees import triple_probability

    counts = Counter(tuple(map(int, r)) for r in rows)
    n = sum(counts.values())
    triples = np.array(sorted(counts), dtype=np.int64)
    if dist.kind == "empirical" and dist.coupling == "dependent":
        atoms, atom_counts = np.unique(dist.triples, axis=0, return_counts=True)
        m = dist.triples.shape[0]
        table = {tuple(a): c / m for a, c in zip(atoms, atom_counts)}
        p = np.array([table.get(tuple(r), 0.0) for r in triples], dtype=np.float64)
    else:
        p = triple_probability(dist, triples)
    q = np.array([counts.get(t, 0) for t in map(tuple, triples)]) / n
    tail = max(0.0, 1.0 - float(p.sum()))
    return 0.5 * (float(np.abs(p - q).sum()) + tail)


def total_variation_exact(rows, dist):
    """The exact d_tv of an empirical law, as a Fraction, summed over the
    union of the law's rows and the census support.

    p is an atom's frequency among the law's m rows under dependent
    coupling, and the product of its three column frequencies under
    independent coupling, whose support (the product of the column
    supports) the union need not cover: the law's mass outside the union,
    1 - (the union's mass), is added exactly.
    """
    import math
    from collections import Counter
    from fractions import Fraction

    counts = Counter(tuple(map(int, r)) for r in rows)
    n = sum(counts.values())
    law = [tuple(map(int, r)) for r in dist.triples]
    m = len(law)
    support = counts.keys() | set(law)
    if dist.coupling == "dependent":
        atoms = Counter(law)
        p = {t: Fraction(atoms[t], m) for t in support}
    else:
        cols = [Counter(col) for col in zip(*law)]
        p = {t: Fraction(math.prod(c[k] for c, k in zip(cols, t)), m**3) for t in support}
    return (sum(abs(p[t] - Fraction(counts[t], n)) for t in support)
            + 1 - sum(p.values())) / 2


def int_rows_reference(body: bytes, width: int):
    """The rows of an edge-list or degree-file body, read line by line as
    the README documents the format, or the number of its first bad line.

    Lines end at LF or CRLF (a missing final line end is allowed); '#'
    starts a comment; the rest is empty or exactly ``width`` ids of 1 to
    18 ASCII digits, split by runs of blanks and tabs.
    """
    lines = body.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if line.endswith(b"\r"):
            line = line[:-1]
        fields = [f for f in line.split(b"#", 1)[0].replace(b"\t", b" ").split(b" ") if f]
        if not fields:
            continue
        if len(fields) != width or not all(f.isdigit() and len(f) <= 18 for f in fields):
            return lineno
        rows.append([int(f) for f in fields])
    return rows


def densify_reference(arcs):
    """ingest._densify by np.unique and a search: sparse ids relabelled
    0..n-1 in order of first appearance, as an (m, 2) int64 array and n."""
    flat = arcs.ravel()
    uniq, first = np.unique(flat, return_index=True)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    dense = rank[np.searchsorted(uniq, flat)]
    return dense.reshape(-1, 2), uniq.size


def pdgraph_reference(g) -> bytes:
    """The pdgraph text of g by %-formatting each block of lines: the
    header, "D t h" per arc, then "U u v" per undirected edge, ids
    1-based."""
    text = [f"# pdgraph n={g.n}\n"]
    for tag, first, second in (("D", g.dir_tails, g.dir_heads), ("U", g.und_u, g.und_v)):
        ids = np.stack([first, second], axis=1).astype(np.int64) + 1
        text.append((f"{tag} %d %d\n" * ids.shape[0]) % tuple(ids.ravel().tolist()))
    return "".join(text).encode()


def poisson_graph(n, seed=1, lam=7):
    """A Poisson(lam) independent graph through the generation pipeline:
    about lam n arcs and lam n / 2 undirected edges."""
    from pdcm.degrees import JointDegreeDistribution, sample_sequence
    from pdcm.matching import match_stubs
    from pdcm.simplify import simplify

    dist = JointDegreeDistribution.poisson(lam, "independent")
    return simplify(match_stubs(sample_sequence(dist, n, seed), seed + 1))[0]


def dependent_giant_gap(dist, n, seed):
    """The drawn vertices with X >= 1, less the vertices of the largest SCC,
    of one graph of a synthetic law under dependent coupling.

    Every vertex is (X, X, X).  One with X = 0 has no stub and is a
    singleton, so the gap is never negative; one with X >= 1 has an in-,
    an out- and an undirected stub, and leaves the giant only inside a
    closed piece, such as two X = 1 vertices joined by their undirected
    edge whose arcs run between them, of which a graph holds O(1/n).  So
    the giant SCC's share tends to 1 - P(X = 0), with no threshold."""
    from pdcm.components import strongly_connected_components
    from pdcm.degrees import sample_sequence
    from pdcm.matching import match_stubs
    from pdcm.simplify import simplify

    seq = sample_sequence(dist, n, seed)
    g = simplify(match_stubs(seq, seed + 1))[0]
    return int((seq.triples[:, 0] >= 1).sum()) - int(strongly_connected_components(g).sizes[0])


def predicted_giant_scc(triples, tol=1e-13):
    """The share of the vertices in the giant SCC that the branching process
    predicts for degree triples (I, O, U), from the smallest fixed point in
    [0, 1] of the probabilities that a search dies out:

      a = E[I a^O b^U] / E[I]      forward, from a vertex entered by an arc;
      b = E[U a^O b^(U-1)] / E[U]  forward, entered by an undirected edge;
      c = E[O c^I d^U] / E[O]      backward, entered by an arc;
      d = E[U c^I d^(U-1)] / E[U]  backward, entered by an undirected edge;
      e = E[U c^I a^O e^(U-1)] / E[U]  both, entered by an undirected edge.

    The share is 1 - E[a^O b^U] - E[c^I d^U] + E[c^I a^O e^U]: a vertex is
    in the giant when both its searches survive.  The iteration starts
    from 0, so it climbs to the smallest fixed point, and stops when no
    probability moves by more than tol; it runs over the distinct rows
    with their counts.  A probability whose weight has mean 0 stays 0: its
    base then only ever appears to the power 0."""
    from pdcm.degrees import distinct_rows

    rows, counts = distinct_rows(triples)
    i, o, u = rows.T
    w = counts / counts.sum()
    u1 = np.maximum(u - 1, 0)  # where u = 0 the weight U is 0 anyway

    def mean(weight, terms):
        total = w @ weight
        return (w * weight) @ terms / total if total else 0.0

    p = np.zeros(5)
    for _ in range(100_000):
        a, b, c, d, e = p
        new = np.array([
            mean(i, a ** o * b ** u),
            mean(u, a ** o * b ** u1),
            mean(o, c ** i * d ** u),
            mean(u, c ** i * d ** u1),
            mean(u, c ** i * a ** o * e ** u1),
        ])
        p, moved = new, np.abs(new - p).max()
        if moved <= tol:
            break
    else:
        raise RuntimeError("the fixed-point iteration did not converge")
    a, b, c, d, e = p
    return float(1 - w @ (a ** o * b ** u) - w @ (c ** i * d ** u)
                 + w @ (c ** i * a ** o * e ** u))


def traced_peak(fn, *args):
    """(fn(*args), the peak of the bytes it allocated and held at once),
    as tracemalloc sees them; numpy reports its array data to tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
