"""Output checks made apart from the program.

Nothing here imports pdcm: the seed rules, the pdgraph reader, the
degree census and the law are written again from the README, so a
fault in the program cannot hide behind the same fault in its check.
Every check raises CheckFailed with a message that names what broke.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

MASK64 = 0xFFFFFFFFFFFFFFFF


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own result."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# seed rules, from the README's "Reproducibility" section
# ---------------------------------------------------------------------------

def splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z >> 30) ^ z) * 0xBF58476D1CE4E5B9 & MASK64
    z = ((z >> 27) ^ z) * 0x94D049BB133111EB & MASK64
    return (z >> 31) ^ z


def derive_seed(t: int, i: int) -> int:
    return splitmix64((t & MASK64) ^ splitmix64(i & MASK64))


def cell_seed(base: int, size_index: int, replicate: int) -> int:
    return (base ^ splitmix64(size_index * 2**32 + replicate)) & MASK64


# ---------------------------------------------------------------------------
# pdgraph reader and simplicity invariants
# ---------------------------------------------------------------------------

def read_pdgraph(path):
    """(n, directed (m, 2), undirected (k, 2)) with 0-based ids.

    Checks the layout on the way: the header, three fields per line,
    a D block followed by a U block, and ids inside 1..n.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        body = fh.read().decode()
    require(header.startswith("# pdgraph n="), f"{path}: bad header {header!r}")
    n = int(header.split("=", 1)[1])
    lines = body.count("\n")
    require(not body or body.endswith("\n"), f"{path}: last line unterminated")
    values = np.fromstring(body.replace("D", "0").replace("U", "1"),
                           dtype=np.int64, sep=" ") if body else np.zeros(0, np.int64)
    require(values.size == 3 * lines, f"{path}: a line is not 'D|U u v'")
    rows = values.reshape(-1, 3)
    kind, pairs = rows[:, 0], rows[:, 1:] - 1
    require(np.isin(kind, (0, 1)).all(), f"{path}: line kind other than D or U")
    require(np.all(np.diff(kind) >= 0), f"{path}: a D line follows a U line")
    require(pairs.size == 0 or (pairs.min() >= 0 and pairs.max() < n),
            f"{path}: vertex id outside 1..{n}")
    return n, pairs[kind == 0], pairs[kind == 1]


def check_simple(n: int, dirs: np.ndarray, unds: np.ndarray) -> None:
    """No self-loop, duplicate, reciprocal pair or arc parallel to an
    undirected edge; u < v; both blocks in ascending order."""
    t, h = dirs[:, 0], dirs[:, 1]
    u, v = unds[:, 0], unds[:, 1]
    require(not (t == h).any(), "directed self-loop")
    require((u < v).all(), "undirected edge not stored as u < v (or a self-loop)")
    dcode = t * n + h
    ucode = u * n + v
    require(np.all(np.diff(dcode) > 0), "directed block unsorted or duplicated")
    require(np.all(np.diff(ucode) > 0), "undirected block unsorted or duplicated")
    rev = np.sort(h * n + t)
    require(not _sorted_overlap(dcode, rev), "reciprocal directed pair")
    norm = np.sort(np.minimum(t, h) * n + np.maximum(t, h))
    require(not _sorted_overlap(norm, ucode), "arc parallel to an undirected edge")


def _sorted_overlap(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two ascending arrays share a value."""
    if a.size == 0 or b.size == 0:
        return False
    pos = np.minimum(np.searchsorted(b, a), b.size - 1)
    return bool((b[pos] == a).any())


def degree_triples(n: int, dirs: np.ndarray, unds: np.ndarray) -> np.ndarray:
    deg = np.zeros((n, 3), dtype=np.int64)
    deg[:, 0] = np.bincount(dirs[:, 1], minlength=n)
    deg[:, 1] = np.bincount(dirs[:, 0], minlength=n)
    deg[:, 2] = np.bincount(unds.ravel(), minlength=n)
    return deg


def scc_sizes(n: int, dirs: np.ndarray, unds: np.ndarray) -> np.ndarray:
    """Strong component sizes, undirected edges counted both ways."""
    rows = np.concatenate([dirs[:, 0], unds[:, 0], unds[:, 1]])
    cols = np.concatenate([dirs[:, 1], unds[:, 1], unds[:, 0]])
    adj = csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n))
    _, labels = connected_components(adj, directed=True, connection="strong")
    return np.bincount(labels)


def check_components(n, dirs, unds, summary: dict, csv_text: str) -> None:
    """`pdcm components` JSON and CSV against scipy on our own adjacency."""
    sizes = scc_sizes(n, dirs, unds)
    largest = int(sizes.max())
    require(summary["n"] == n, f"components n {summary['n']} != {n}")
    require(summary["num_components"] == sizes.size,
            f"components count {summary['num_components']} != {sizes.size}")
    require(summary["largest_relative"] == largest / n,
            f"largest_relative {summary['largest_relative']} != {largest}/{n}")
    rest = Counter(sorted(sizes.tolist(), reverse=True)[1:])
    lines = csv_text.splitlines()
    require(lines[0] == f"# n={n} largest_relative={largest / n:.6f}",
            f"component CSV summary line {lines[0]!r}")
    require(lines[1] == "size,count", "component CSV header")
    got = {int(s): int(c) for s, c in (line.split(",") for line in lines[2:])}
    require(got == dict(rest), "component CSV histogram differs from scipy's")


# ---------------------------------------------------------------------------
# generate_large: Poisson(lam), independent coupling
# ---------------------------------------------------------------------------

def drawn_poisson_triples(n: int, lam: float, seed: int) -> np.ndarray:
    """The degree sequence `pdcm generate` draws: derive_seed(seed, 0)
    seeds PCG64, which fills the in, then out, then und column."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
    return np.column_stack([rng.poisson(lam, n) for _ in range(3)]).astype(np.int64)


def check_generated(n, dirs, unds, drawn: np.ndarray, report: dict, lam: float) -> None:
    check_simple(n, dirs, unds)
    final = degree_triples(n, dirs, unds)
    require((final.sum(axis=1) <= drawn.sum(axis=1)).all(),
            "a vertex gained stubs through simplification")
    modified = int((final != drawn).any(axis=1).sum())
    require(modified == report["modified_vertices"],
            f"modified_vertices {report['modified_vertices']} != {modified} changed triples")
    s_in, s_out, s_und = (int(c) for c in drawn.sum(axis=0))
    require(report["unconnected_dir"] == abs(s_in - s_out), "unconnected_dir")
    require(report["unconnected_und"] == s_und % 2, "unconnected_und")
    want_dir = (min(s_in, s_out) - report["self_loops_dir"] - report["parallel_dir"]
                - report["dir_parallel_to_und"] - 2 * report["reciprocal_pairs_converted"])
    want_und = (s_und // 2 - report["self_loops_und"] - report["parallel_und"]
                + report["reciprocal_pairs_converted"])
    require(len(dirs) == want_dir, f"{len(dirs)} arcs, stubs minus erasures give {want_dir}")
    require(len(unds) == want_und, f"{len(unds)} edges, stubs minus erasures give {want_und}")
    # configuration-model limits of the erasure counts; the bands are wide
    # (about six standard deviations of a Poisson count)
    for key, mean in (("self_loops_dir", lam), ("self_loops_und", lam / 2),
                      ("reciprocal_pairs_converted", lam * lam / 2)):
        lo, hi = mean - 6 * math.sqrt(mean) - 3, mean + 6 * math.sqrt(mean) + 3
        require(lo <= report[key] <= hi, f"{key} = {report[key]} outside [{lo:.1f}, {hi:.1f}]")


# ---------------------------------------------------------------------------
# sweep_empirical
# ---------------------------------------------------------------------------

def read_degree_file(path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)


def empirical_dtv(law_rows: np.ndarray, final: np.ndarray) -> float:
    """d_tv between the resampled rows' law and a graph's degree census."""
    law = Counter(map(tuple, law_rows.tolist()))
    census = Counter(map(tuple, final.tolist()))
    m, n = len(law_rows), len(final)
    return float(sum(abs(Fraction(law[k], m) - Fraction(census[k], n))
                     for k in law.keys() | census.keys()) / 2)


def parse_sweep_csv(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_sweep(serial: str, parallel: str, sizes, replicates: int, seed: int) -> dict:
    """Every cell present, serial == --jobs 2, and mean d_tv falling in n.

    Returns the rows keyed by (n, cell seed)."""
    require(serial == parallel, "serial and --jobs 2 CSVs differ")
    header, rows = parse_sweep_csv(serial)
    require(header[:5] == ["model", "coupling", "n", "seed", "d_tv"], "CSV header")
    got = {(int(r["n"]), int(r["seed"])): r for r in rows}
    want = {(n, cell_seed(seed, s, r)) for s, n in enumerate(sizes)
            for r in range(replicates)}
    require(len(rows) == len(want) and set(got) == want,
            f"CSV holds {len(rows)} cells, the grid has {len(want)}")
    means = [np.mean([float(got[(n, cell_seed(seed, s, r))]["d_tv"])
                      for r in range(replicates)]) for s, n in enumerate(sizes)]
    require(all(a > b for a, b in zip(means, means[1:])),
            f"mean d_tv does not fall with n: {means}")
    return got


def check_regenerated_cell(row: dict, n, dirs, unds, report: dict, law_rows) -> None:
    check_simple(n, dirs, unds)
    dtv = empirical_dtv(law_rows, degree_triples(n, dirs, unds))
    require(abs(dtv - float(row["d_tv"])) <= 1e-9,
            f"cell n={n} seed={row['seed']}: d_tv {row['d_tv']} != recomputed {dtv}")
    for key, value in report.items():
        require(math.isclose(float(row[key]), value / n, rel_tol=1e-12, abs_tol=0.0),
                f"cell n={n} seed={row['seed']}: {key} rate {row[key]} != {value}/{n}")


# ---------------------------------------------------------------------------
# oracle_battery
# ---------------------------------------------------------------------------

def check_oracle(result: dict, replicates: int, exact: Fraction | None = None) -> None:
    """The frequency is within 4 stderr of the exact value, and equal to it
    when the stderr is 0 or the exact value is 0 or 1; `exact`, when
    given, is the value derived by hand."""
    num, den = (int(x) for x in result["exact_fraction"].split("/"))
    value = Fraction(num, den)
    if exact is not None:
        require(value == exact, f"exact_fraction {result['exact_fraction']} != {exact}")
    require(result["exact"] == float(value), "exact and exact_fraction disagree")
    require(result["replicates"] == replicates, "replicate count")
    freq, se = result["frequency"], result["stderr"]
    require(math.isclose(se, math.sqrt(freq * (1 - freq) / replicates),
                         rel_tol=1e-12, abs_tol=0.0), "stderr is not the binomial one")
    if value in (0, 1):
        # every replicate has the same outcome, so no sampling error is allowed
        require(freq == value, f"frequency {freq} != exact {value}, a certain outcome")
    elif se == 0:
        require(freq == float(value), f"frequency {freq} != exact {value} at stderr 0")
    else:
        z = abs(freq - float(value)) / se
        require(z <= 4, f"frequency {freq} is {z:.1f} stderr from exact {float(value)}")


# ---------------------------------------------------------------------------
# ingest_snaplike
# ---------------------------------------------------------------------------

def check_ingest(stats: dict, truth: dict, n, dirs, unds) -> None:
    """IngestStats and the stored graph against the generator's ground truth."""
    want = {k: truth[k] for k in ("n", "directed", "undirected", "self_arcs_dropped",
                                  "duplicates_dropped")}
    want["proportion_directed"] = truth["directed"] / (truth["directed"] + truth["undirected"])
    require(stats == want, f"IngestStats {stats} != ground truth {want}")
    require(n == truth["n"], f"pdgraph n={n} != {truth['n']}")
    require(np.array_equal(dirs, truth["dirs"]), "pdgraph directed edges differ from ground truth")
    require(np.array_equal(unds, truth["unds"]), "pdgraph undirected edges differ from ground truth")
