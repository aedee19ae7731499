"""Release gate: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
happen (pytest captures stdout otherwise).  Criteria that need the SNAP
downloads check them only when the files are present under data/snap/;
everything else is self-contained and deterministic.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    brute_scc_partition,
    random_simple_graph,
    save_battery,
    scale_free_cdf,
    scale_free_mean,
    validate_simple_graph,
)
from pdcm.components import _csr, _labels, strongly_connected_components
from pdcm.degrees import (
    DegreeSequence,
    JointDegreeDistribution,
    load_degree_file,
    sample_sequence,
)
from pdcm.ingest import ingest_path
from pdcm.matching import match_stubs
from pdcm.metrics import degree_census, total_variation
from pdcm.rng import derive_seed, replicate_seed
from pdcm.saveprob import (
    exact_save_probability,
    monte_carlo_save_frequency,
)
from pdcm.simplify import simplify

DATA = Path(__file__).parent.parent / "data"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared generation sweep feeding criteria 3-6
# ---------------------------------------------------------------------------

SIZES = (100, 1_000, 10_000)


def _make_configs():
    emp = load_degree_file(DATA / "degrees_10k.txt")
    return [
        ("poisson(7) independent", JointDegreeDistribution.poisson(7.0, "independent")),
        ("poisson(7) dependent", JointDegreeDistribution.poisson(7.0, "dependent")),
        ("scale_free(2.5) independent", JointDegreeDistribution.scale_free(2.5, "independent")),
        ("scale_free(2.5) dependent", JointDegreeDistribution.scale_free(2.5, "dependent")),
        ("empirical independent", JointDegreeDistribution.empirical(emp, "independent")),
        ("empirical dependent", JointDegreeDistribution.empirical(emp, "dependent")),
    ]


@pytest.fixture(scope="module")
def sweep():
    """Generate every graph for criteria 3-5 once, validating each one for
    criterion 6 on the way through."""
    violations = []
    graphs = 0

    def cell(dist, n, cs):
        nonlocal graphs
        seq = sample_sequence(dist, n, derive_seed(cs, 0))
        mg = match_stubs(seq, derive_seed(cs, 1))
        g, r = simplify(mg)
        graphs += 1
        try:
            validate_simple_graph(g)
        except ValueError as exc:
            violations.append(f"validator n={n} seed={cs}: {exc}")
        ok = (
            # the matching consumed every pairable stub
            mg.n_arcs == min(seq.s_in, seq.s_out)
            and mg.n_und_edges == seq.s_und // 2
            and r.unconnected_dir == abs(seq.s_in - seq.s_out)
            and r.unconnected_und == seq.s_und % 2
            # every matched edge is accounted for by the kept graph + erasures
            and mg.n_arcs
            == g.num_directed + r.self_loops_dir + r.parallel_dir
            + r.dir_parallel_to_und + 2 * r.reciprocal_pairs_converted
            and mg.n_und_edges + r.reciprocal_pairs_converted
            == g.num_undirected + r.self_loops_und + r.parallel_und
        )
        if not ok:
            violations.append(f"bookkeeping n={n} seed={cs}")
        return g, r

    # criterion 3: dependent coupling leaves no unpaired directed stubs
    t0 = time.perf_counter()
    dep_nonzero = 0
    for k, dist in enumerate([
        JointDegreeDistribution.poisson(7.0, "dependent"),
        JointDegreeDistribution.scale_free(2.5, "dependent"),
    ]):
        base = derive_seed(303, k)
        for rep in range(100):
            _, r = cell(dist, 10_000, replicate_seed(base, 0, rep))
            dep_nonzero += r.unconnected_dir != 0
    c3_elapsed = time.perf_counter() - t0

    # criteria 4 + 5: distortion trend over the six model/coupling pairs
    t0 = time.perf_counter()
    trends = {}
    for c, (name, dist) in enumerate(_make_configs()):
        base = derive_seed(606, c)
        means = []
        for s, n in enumerate(SIZES):
            acc = 0.0
            for rep in range(20):
                cs = replicate_seed(base, s, rep)
                g, _ = cell(dist, n, cs)
                acc += total_variation(degree_census(g), dist)
            means.append(acc / 20)
        trends[name] = means
    c45_elapsed = time.perf_counter() - t0

    return {
        "dep_nonzero": dep_nonzero,
        "c3_elapsed": c3_elapsed,
        "trends": trends,
        "c45_elapsed": c45_elapsed,
        "violations": violations,
        "graphs": graphs,
    }


# ---------------------------------------------------------------------------
# the criteria, in order
# ---------------------------------------------------------------------------

def test_criterion_1_edge_list_ingestion():
    g, stats = ingest_path(DATA / "fixture_edges.txt")
    ok = (stats.n, stats.directed, stats.undirected) == (6, 4, 3)
    parts = ["fixture 6/4/3"]

    for filename, want_n, want_edges, want_prop in (
        ("wiki-Vote.txt.gz", 7_115, 100_762, 0.971),
        ("soc-Slashdot0902.txt.gz", 82_168, 504_230, 0.274),
    ):
        path = DATA / "snap" / filename
        if not path.exists():
            parts.append(f"{filename} absent (scripts/fetch_snap.py), skipped")
            continue
        t0 = time.perf_counter()
        _, s = ingest_path(path)
        dt = time.perf_counter() - t0
        good = (
            s.n == want_n
            and s.directed + s.undirected == want_edges
            and abs(s.proportion_directed - want_prop) <= 0.0005
            and dt < 10.0
        )
        ok = ok and good
        parts.append(
            f"{filename} n={s.n} edges={s.directed + s.undirected} "
            f"prop={s.proportion_directed:.4f} in {dt:.1f}s"
        )
    report(1, ok, "; ".join(parts))


def test_criterion_2_exact_vs_simulated_save_probability():
    t0 = time.perf_counter()
    tri = DegreeSequence([(1, 1, 0), (1, 1, 0), (1, 1, 0)])
    exact = exact_save_probability(tri)
    freq, se = monte_carlo_save_frequency(tri, 100_000, seed=2024)
    ok = exact == Fraction(1, 3) and abs(freq - 1 / 3) <= 3 * se

    battery = save_battery()
    assert len(battery) >= 10
    assert all(s.n <= 6 and s.triples.max() <= 2 for s in battery)
    worst = 0.0
    for i, spec in enumerate(battery):
        ex = float(exact_save_probability(spec))
        f, s_err = monte_carlo_save_frequency(spec, 50_000, derive_seed(777, i))
        if s_err == 0.0:
            ok = ok and f == ex
        else:
            worst = max(worst, abs(f - ex) / s_err)
            ok = ok and abs(f - ex) <= 4 * s_err
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(2, ok, f"exact=1/3, |freq-1/3|={abs(freq - 1/3):.4f} (3se={3*se:.4f}); "
                  f"battery of {len(battery)}, worst z={worst:.2f} (limit 4); "
                  f"{elapsed:.1f}s")


def test_criterion_3_dependent_coupling_pairs_every_arc(sweep):
    ok = sweep["dep_nonzero"] == 0 and sweep["c3_elapsed"] < 60.0
    report(3, ok, f"unconnected_dir=0 in 200/200 dependent runs at n=10^4 "
                  f"({sweep['c3_elapsed']:.1f}s)")


def test_criterion_4_distortion_vanishes_with_size(sweep):
    ok = sweep["c45_elapsed"] < 600.0
    ratios = []
    for name, m in sweep["trends"].items():
        ok = ok and m[0] > m[1] > m[2] and m[2] < 0.5 * m[0]
        ratios.append(m[2] / m[0])
    report(4, ok, f"6/6 configs strictly decreasing over n=10^2..10^4; "
                  f"worst d_tv(10^4)/d_tv(10^2)={max(ratios):.3f} (limit 0.5); "
                  f"{sweep['c45_elapsed']:.1f}s")


def test_criterion_5_dependent_beats_independent_for_poisson(sweep):
    dep = sweep["trends"]["poisson(7) dependent"][-1]
    ind = sweep["trends"]["poisson(7) independent"][-1]
    report(5, dep < ind,
           f"poisson(7) at n=10^4: d_tv dependent={dep:.4f} < independent={ind:.4f}")


def test_criterion_6_conservation_invariants_hold_everywhere(sweep):
    v = sweep["violations"]
    report(6, not v, f"0 violations across {sweep['graphs']} generated graphs"
                     if not v else f"{len(v)} violations, first: {v[0]}")


def test_criterion_7_power_law_sampler_calibration():
    t0 = time.perf_counter()
    dist = JointDegreeDistribution.scale_free(2.5, "independent")
    draws = sample_sequence(dist, 10**6, seed=77).triples[:, 0]
    m_star = scale_free_mean(2.5)
    rel_err = abs(draws.mean() - m_star) / m_star
    kmax = int(draws.max())
    emp_cdf = np.bincount(draws, minlength=kmax + 1).cumsum() / draws.size
    ks = float(np.abs(emp_cdf[1:] - scale_free_cdf(2.5, np.arange(1, kmax + 1))).max())
    elapsed = time.perf_counter() - t0
    ok = rel_err <= 0.05 and ks <= 0.005 and elapsed < 30.0
    report(7, ok, f"10^6 draws at gamma=2.5: mean rel err {rel_err:.2%} "
                  f"(limit 5%), Kolmogorov distance {ks:.5f} (limit 0.005); "
                  f"{elapsed:.1f}s")


def test_criterion_8_component_oracle_equivalence():
    mismatches = 0
    for seed in range(100):
        g = random_simple_graph(np.random.default_rng(derive_seed(888, seed)))
        labels = _labels(*_csr(g))
        by_label = {}
        for vtx, lab in enumerate(labels.tolist()):
            by_label.setdefault(lab, set()).add(vtx)
        partition = {frozenset(m) for m in by_label.values()}
        if partition != brute_scc_partition(g):
            mismatches += 1
        summary = strongly_connected_components(g)
        if sorted(len(m) for m in partition) != sorted(summary.sizes.tolist()):
            mismatches += 1
    report(8, mismatches == 0,
           "100/100 partitions identical to brute-force reachability closure"
           if mismatches == 0 else f"{mismatches} mismatching graphs")
