import math
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.special import zeta

from _oracles import (
    poisson_pmf_reference,
    scale_free_cdf,
    scale_free_isf,
    scale_free_mean,
    scale_free_quantile,
)
from pdcm.degrees import (
    DegreeSequence,
    JointDegreeDistribution,
    _poisson_pmf_upto,
    _scale_free_bulk,
    _scale_free_pmf,
    load_degree_file,
    sample_sequence,
    scale_free_offset,
    scale_free_sf,
    triple_probability,
)
from pdcm.rng import make_generator

# Frozen reference values, computed once with mpmath at 30 decimal digits
# (see test_zeta_against_mpmath, which re-derives them when mpmath is
# importable).  zeta(2.5); the offset d(2.5); the exact mean of the
# gamma=2.5 power law via d^s * zeta(s, d), s = gamma - 1 (Hurwitz zeta);
# and the tail constant 1/zeta(2.5) that p_k * k^gamma approaches.  The
# zeta is scipy.special.zeta, which the scale-free offset is built on.
ZETA_25 = 1.3414872572509172
OFFSET_25 = 0.6274052178033804
MEAN_25 = 1.9163434846625617
TAIL_CONST_25 = 0.7454412962887772


class TestZeta:
    def test_zeta_frozen_value(self):
        assert zeta(2.5) == pytest.approx(ZETA_25, rel=1e-12)

    def test_zeta_known_closed_forms(self):
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)
        assert zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-12)

    def test_zeta_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for s, a in [(1.5, 0.627), (2.5, 1.0), (3.0, 0.2), (1.2, 5.0), (4.7, 0.05)]:
            ref = float(mp.zeta(mp.mpf(s), mp.mpf(a)))
            assert zeta(s, a) == pytest.approx(ref, rel=1e-10)


class TestScaleFreeLaw:
    def test_offset_frozen_value(self):
        assert scale_free_offset(2.5) == pytest.approx(OFFSET_25, rel=1e-12)

    def test_cdf_zero_at_origin(self):
        # (0 + d)^-(g-1) / d^-(g-1) = 1 exactly, so F(0) = 0 exactly
        assert scale_free_cdf(2.5, 0) == 0.0

    def test_cdf_reaches_one(self):
        assert scale_free_cdf(2.5, 10**9) == pytest.approx(1.0, abs=1e-6)

    def test_cdf_monotone(self):
        k = np.arange(0, 2000)
        f = scale_free_cdf(2.5, k)
        assert (np.diff(f) >= 0).all()
        assert f.min() >= 0.0 and f.max() < 1.0

    def test_tail_exponent(self):
        """p_k * k^gamma approaches 1/zeta(gamma) in the tail.

        k stays below ~1e5 because beyond that F(k) - F(k-1) is dominated
        by the last-ulp grid of the cdf near 1, not by the law itself.
        """
        errs = []
        for k in (10**2, 10**3, 10**4):
            p_k = scale_free_cdf(2.5, k) - scale_free_cdf(2.5, k - 1)
            errs.append(abs(p_k * k**2.5 - TAIL_CONST_25))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3 * TAIL_CONST_25

    def test_gamma_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            scale_free_cdf(1.0, 5)

    def test_gamma_at_most_two_rejected(self):
        """One rule for the public surface: an infinite-mean law is refused
        with the message JointDegreeDistribution gives."""
        for gamma in (1.7, 2.0):
            for call in (lambda: scale_free_cdf(gamma, 3),
                         lambda: scale_free_sf(gamma, 3),
                         lambda: scale_free_mean(gamma),
                         lambda: JointDegreeDistribution.scale_free(gamma, "independent")):
                with pytest.raises(ValueError, match="gamma must exceed 2"):
                    call()

    def test_mean_frozen_value(self):
        assert scale_free_mean(2.5) == pytest.approx(MEAN_25, rel=1e-10)

    def test_mean_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for g in (2.2, 2.5, 3.0, 3.5):
            z = mp.zeta(mp.mpf(g))
            d = (z * (g - 1)) ** (-1 / mp.mpf(g - 1))
            ref = float(d ** (g - 1) * mp.zeta(mp.mpf(g - 1), d))
            assert scale_free_mean(g) == pytest.approx(ref, rel=1e-10)

    def test_pmf_to_full_relative_precision(self):
        """p_k = S(k-1) - S(k) against 50-digit arithmetic on the same float
        offset d; the plain difference loses about log10(k) digits."""
        mp = pytest.importorskip("mpmath")
        ks = np.array([1, 10, 10**3, 10**5, 10**7])
        for gamma in (2.05, 2.5, 3.0, 4.0):
            p = _scale_free_pmf(gamma, ks)
            with mp.workdps(50):
                d, s = mp.mpf(scale_free_offset(gamma)), mp.mpf(gamma) - 1
                ref = [(d / (k - 1 + d)) ** s - (d / (k + d)) ** s for k in ks.tolist()]
                rel = [abs(mp.mpf(float(x)) / r - 1) for x, r in zip(p, ref)]
            assert max(rel) < 1e-14, (gamma, [float(r) for r in rel])
        assert _scale_free_pmf(2.5, np.array([0]))[0] == 0.0

    @pytest.mark.parametrize("gamma", [800.0, 1100.0, 2000.0])
    def test_pmf_at_large_gamma(self, gamma):
        """Where S(k) underflows, S(k) * expm1(s log1p(...)) formed 0 * inf:
        nan from gamma ~ 1100, and 0 for p_2 = 1.05e-242 at gamma = 800.
        Compared wherever the true value is a normal double; the relative
        error grows with |log p_k| (about 560 at p_2, gamma = 800)."""
        mp = pytest.importorskip("mpmath")
        ks = np.array([1, 2, 3, 10, 10**3, 10**6, 10**12])
        p = _scale_free_pmf(gamma, ks)
        assert np.isfinite(p).all()
        with mp.workdps(50):
            d, s = mp.mpf(scale_free_offset(gamma)), mp.mpf(gamma) - 1
            ref = [(d / (k - 1 + d)) ** s - (d / (k + d)) ** s for k in ks.tolist()]
            normal = [r >= np.finfo(np.float64).tiny for r in ref]
            rel = [float(abs(mp.mpf(float(x)) / r - 1))
                   for x, r, ok in zip(p, ref, normal) if ok]
        assert normal[0] and max(rel) < 1e-13, rel


class TestQuantile:
    def test_support_starts_at_one(self):
        assert scale_free_quantile(2.5, 0.0) == 1

    def test_atom_boundary(self):
        u = scale_free_cdf(2.5, 5)
        assert scale_free_quantile(2.5, u) == 5
        assert scale_free_quantile(2.5, np.nextafter(u, 1.0)) == 6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            scale_free_quantile(2.5, 1.0)
        with pytest.raises(ValueError):
            scale_free_quantile(2.5, -0.1)
        with pytest.raises(ValueError):
            scale_free_isf(2.5, 0.0)
        with pytest.raises(ValueError):
            scale_free_isf(2.5, 1.5)

    @given(st.integers(min_value=1, max_value=10**4),
           st.floats(min_value=2.05, max_value=4.0))
    @example(k=10**4, gamma=4.0)
    def test_inverse_consistency(self, k, gamma):
        """Atom k is recovered from its tail probability q = S(k), and the
        next float below q falls into atom k + 1.  The check is made in
        survival space because F = 1 - S is not injective in float64 on
        this domain: at gamma = 4, k = 10^4 the pmf is about 9e-17, below
        half an ulp of 1, so F(k) and F(k + 1) are the same float.  The
        quantile of F is checked wherever F still separates the atoms."""
        q = scale_free_sf(gamma, k)
        assert scale_free_isf(gamma, q) == k
        assert scale_free_isf(gamma, float(np.nextafter(q, 0.0))) == k + 1
        u = scale_free_cdf(gamma, k)
        if u < scale_free_cdf(gamma, k + 1):
            assert scale_free_quantile(gamma, u) <= k
            assert scale_free_quantile(gamma, float(np.nextafter(u, 1.0))) == k + 1

    @settings(max_examples=200)
    @given(st.floats(min_value=0.0, max_value=1.0 - 1e-6),
           st.floats(min_value=2.05, max_value=4.0))
    def test_bulk_matches_scalar(self, u, gamma):
        """The vectorized inversion sampler and the bisection quantile agree
        (away from the float-saturated u -> 1 corner)."""
        assert _scale_free_bulk(gamma, np.array([u]))[0] == scale_free_quantile(gamma, u)

    def test_bulk_matches_scalar_at_atoms(self):
        ks = np.arange(1, 301)
        f = scale_free_cdf(2.5, ks)
        assert (_scale_free_bulk(2.5, f.copy()) == ks).all()
        assert (_scale_free_bulk(2.5, np.nextafter(f, 1.0)) == ks + 1).all()

    def test_kolmogorov_distance(self):
        """10^6 quantile draws reproduce the cdf to within 0.005."""
        u = np.random.default_rng(20240817).random(10**6)
        draws = _scale_free_bulk(2.5, u)
        kmax = int(draws.max())
        emp = np.bincount(draws, minlength=kmax + 1).cumsum() / draws.size
        ks = np.abs(emp - scale_free_cdf(2.5, np.arange(kmax + 1))).max()
        assert ks <= 0.005


class TestDistributionConstruction:
    def test_kind_and_coupling_validated(self):
        with pytest.raises(ValueError):
            JointDegreeDistribution(kind="weird", coupling="independent")
        with pytest.raises(ValueError):
            JointDegreeDistribution.poisson(7.0, coupling="diagonal")

    def test_empirical_requires_triples(self):
        with pytest.raises(ValueError):
            JointDegreeDistribution.empirical([], "dependent")
        with pytest.raises(ValueError):
            JointDegreeDistribution.empirical([(1, -1, 0)], "dependent")

    @pytest.mark.parametrize("kind,message", [
        ("empirical", "needs a list of triples"), ("scale_free", "needs gamma"),
        ("poisson", "needs lambda")])
    def test_raw_constructor_needs_the_law_parameter(self, kind, message):
        with pytest.raises(ValueError, match=message):
            JointDegreeDistribution(kind=kind, coupling="independent")

    def test_scale_free_requires_finite_mean(self):
        with pytest.raises(ValueError):
            JointDegreeDistribution.scale_free(2.0, "independent")

    def test_poisson_requires_positive_rate(self):
        with pytest.raises(ValueError):
            JointDegreeDistribution.poisson(0.0, "independent")

    def test_poisson_rate_up_to_the_stub_limit(self):
        """A mean above 2^31 gives one vertex more stubs of one type than
        the limit; 2^31 itself is accepted, and its stream is numpy's."""
        assert JointDegreeDistribution.poisson(2**31, "independent").lam == 2**31
        seq = sample_sequence(JointDegreeDistribution.poisson(2**31, "dependent"), 3, seed=5)
        want = make_generator(5).poisson(2**31, 3)
        assert seq.triples.tolist() == [[k, k, k] for k in want.tolist()]
        with pytest.raises(ValueError, match=f"lambda must be at most {2**31}, "):
            JointDegreeDistribution.poisson(2**31 + 1, "independent")


class TestSampling:
    def test_deterministic(self):
        dist = JointDegreeDistribution.scale_free(2.5, "independent")
        a = sample_sequence(dist, 500, seed=123).triples
        b = sample_sequence(dist, 500, seed=123).triples
        c = sample_sequence(dist, 500, seed=124).triples
        assert (a == b).all()
        assert (a != c).any()

    def test_n_must_be_positive(self):
        dist = JointDegreeDistribution.poisson(7.0, "independent")
        with pytest.raises(ValueError):
            sample_sequence(dist, 0, seed=1)

    def test_vertex_count_checked_before_drawing(self, monkeypatch):
        """Past the 2^31 limit the size is refused before a generator is
        built, so nothing is drawn or allocated."""
        def no_generator(seed):
            raise AssertionError("a generator was built")

        monkeypatch.setattr("pdcm.degrees.make_generator", no_generator)
        dist = JointDegreeDistribution.poisson(7.0, "independent")
        with pytest.raises(ValueError, match="limit"):
            sample_sequence(dist, 2**31 + 1, seed=1)

    def test_poisson_dependent_diagonal(self):
        """Dependent synthetic sampling shares one draw across the triple,
        which forces s_in = s_out exactly."""
        dist = JointDegreeDistribution.poisson(7.0, "dependent")
        seq = sample_sequence(dist, 1000, seed=7)
        assert (seq.triples[:, [0]] == seq.triples).all()
        assert seq.s_in == seq.s_out
        assert seq.triples[:, 0].mean() == pytest.approx(7.0, abs=0.3)

    @pytest.mark.parametrize("coupling", ["independent", "dependent"])
    @pytest.mark.parametrize("kind", ["poisson", "scale_free", "empirical"])
    def test_draw_order_contract(self, kind, coupling):
        """The draws behind each model x coupling, written out on a fresh
        generator: a draw is g.poisson(lam, n), a scale-free quantile of
        g.random(n), or a row index g.integers(0, m, n); independent
        coupling makes three, for in, out and und in that order, and
        dependent coupling one, shared by the three columns."""
        n, seed, lam, gamma = 1000, 2027, 3.5, 2.5
        rows = np.array([(0, 1, 2), (3, 0, 1), (2, 2, 0), (7, 1, 1)])
        dist = {"poisson": JointDegreeDistribution.poisson(lam, coupling),
                "scale_free": JointDegreeDistribution.scale_free(gamma, coupling),
                "empirical": JointDegreeDistribution.empirical(rows, coupling)}[kind]
        g = make_generator(seed)
        draw = {"poisson": lambda: g.poisson(lam, n),
                "scale_free": lambda: _scale_free_bulk(gamma, g.random(n)),
                "empirical": lambda: g.integers(0, rows.shape[0], size=n)}[kind]
        if coupling == "dependent":
            x = draw()
            expected = rows[x] if kind == "empirical" else np.column_stack([x, x, x])
        else:
            ins, outs, unds = draw(), draw(), draw()
            if kind == "empirical":
                ins, outs, unds = rows[ins, 0], rows[outs, 1], rows[unds, 2]
            expected = np.column_stack([ins, outs, unds])
        got = sample_sequence(dist, n, seed).triples
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_single_atom_empirical(self):
        dist = JointDegreeDistribution.empirical([(1, 2, 3)], "independent")
        seq = sample_sequence(dist, 5, seed=0)
        assert (seq.triples == [1, 2, 3]).all()

    def test_dependent_empirical_resamples_whole_rows(self):
        rows = [(0, 1, 2), (3, 0, 1), (2, 2, 0)]
        dist = JointDegreeDistribution.empirical(rows, "dependent")
        seq = sample_sequence(dist, 400, seed=11)
        allowed = {tuple(r) for r in rows}
        assert {tuple(t) for t in seq.triples.tolist()} <= allowed

    def test_scale_free_sample_mean_near_exact(self):
        dist = JointDegreeDistribution.scale_free(2.5, "independent")
        seq = sample_sequence(dist, 10**6, seed=99)
        for col in range(3):
            assert seq.triples[:, col].mean() == pytest.approx(MEAN_25, rel=0.05)

    def test_marginal_preservation_chi_square(self):
        """Component frequencies of empirical sampling match the source list
        (chi-square at n = 1e5 not rejected at alpha = 0.001), under both
        couplings."""
        from scipy.stats import chi2

        rows = np.array([(0, 1, 2), (1, 1, 0), (2, 0, 1), (5, 2, 0), (1, 1, 0)])
        n = 10**5
        for coupling in ("independent", "dependent"):
            dist = JointDegreeDistribution.empirical(rows, coupling)
            seq = sample_sequence(dist, n, seed=314)
            for col in range(3):
                vals, counts = np.unique(rows[:, col], return_counts=True)
                expected = n * counts / rows.shape[0]
                observed = np.array(
                    [(seq.triples[:, col] == v).sum() for v in vals]
                )
                stat = ((observed - expected) ** 2 / expected).sum()
                assert stat < chi2.ppf(0.999, df=len(vals) - 1)


class TestDegreeSequence:
    def test_sums_recomputable(self):
        seq = DegreeSequence(np.array([[1, 2, 3], [0, 0, 1]]))
        assert (seq.s_in, seq.s_out, seq.s_und) == (1, 2, 4)
        assert seq.n == 2
        assert seq.triples[0].tolist() == [1, 2, 3]

    def test_shape_and_sign_validated(self):
        with pytest.raises(ValueError):
            DegreeSequence(np.zeros((0, 3), dtype=int))
        with pytest.raises(ValueError):
            DegreeSequence(np.array([[1, 2]]))
        with pytest.raises(ValueError):
            DegreeSequence(np.array([[1, -2, 0]]))


class TestTripleProbability:
    def test_independent_empirical_is_product_of_marginals(self):
        dist = JointDegreeDistribution.empirical(
            [(1, 1, 0), (3, 3, 2)], "independent"
        )
        p = triple_probability(dist, [(1, 1, 0), (1, 3, 2), (0, 0, 0)])
        assert p == pytest.approx([0.125, 0.125, 0.0])

    def test_independent_empirical_columns_counted_once(self, monkeypatch):
        """An empirical law counts each column's values at its first
        independent triple_probability and keeps them: a second call runs
        no np.unique, and gives the bits a fresh law gives."""
        triples = load_degree_file(Path(__file__).parents[1] / "data" / "degrees_10k.txt")
        rows = sample_sequence(
            JointDegreeDistribution.empirical(triples, "independent"), 500, 3).triples
        dist = JointDegreeDistribution.empirical(triples, "independent")
        triple_probability(dist, rows)
        calls, unique = [], np.unique

        def counted_unique(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted_unique)
        again = triple_probability(dist, rows)
        assert calls == []
        fresh = triple_probability(JointDegreeDistribution.empirical(triples, "independent"), rows)
        assert again.tobytes() == fresh.tobytes() and fresh.any()

    def test_dependent_empirical_is_joint_frequency(self):
        dist = JointDegreeDistribution.empirical(
            [(1, 1, 0), (3, 3, 2), (1, 1, 0)], "dependent"
        )
        p = triple_probability(dist, [(1, 1, 0), (3, 3, 2), (1, 3, 0)])
        assert p == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_dependent_synthetic_is_diagonal(self):
        dist = JointDegreeDistribution.poisson(7.0, "dependent")
        p = triple_probability(dist, [(3, 3, 3), (3, 3, 2)])
        assert p[1] == 0.0
        assert p[0] == pytest.approx(math.exp(-7) * 7**3 / 6)

    def test_box_mass_accumulates_to_one(self):
        grid = np.array(
            [(i, j, k) for i in range(30) for j in range(30) for k in range(30)]
        )
        for coupling in ("independent", "dependent"):
            dist = JointDegreeDistribution.poisson(7.0, coupling)
            assert triple_probability(dist, grid).sum() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam,first_zero", [
        (0.5, 157), (7.0, 275), (100.0, 690), (700.0, 1943)])
    def test_poisson_table_stops_at_underflow(self, lam, first_zero):
        """The table ends at the recurrence's first exact 0.0, and every
        probability up to k = 3000 equals the uncut table's."""
        table = _poisson_pmf_upto(lam, 3000)
        assert table.size == first_zero + 1 and table[-1] == 0.0
        ref = poisson_pmf_reference(lam, 3000)
        dist = JointDegreeDistribution.poisson(lam, "independent")
        k = np.arange(3001)
        rows = np.stack([k, np.zeros_like(k), np.zeros_like(k)], axis=1)
        assert (triple_probability(dist, rows) == ref * ref[0] * ref[0]).all()

    @pytest.mark.parametrize("lam", [709.0, 745.0, 800.0, 1e4])
    def test_poisson_past_a_normal_p0_against_mpmath(self, lam):
        """Where exp(-lam) is no normal double, p_k is taken in log space
        at each queried k: within 1e-10 relative of 30-digit arithmetic
        for k up to 3000 and in lam +- 5 sqrt(lam), to the last subnormal
        where p_k underflows."""
        mp = pytest.importorskip("mpmath")
        k = np.arange(int(max(3000, lam + 5 * math.sqrt(lam))) + 1)
        dist = JointDegreeDistribution.poisson(lam, "dependent")
        got = triple_probability(dist, np.stack([k, k, k], axis=1))
        with mp.workdps(30):
            ref = [float(mp.exp(j * mp.log(lam) - lam - mp.loggamma(j + 1)))
                   for j in k.tolist()]
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=5e-324)

    @pytest.mark.parametrize("lam", [1e6, 2.0**31])
    def test_poisson_large_mean_to_full_precision(self, lam):
        """At a mean far past e^-lam's underflow, p_k is within 1e-12
        relative of 40-digit arithmetic for k up to 15 and at 60 points of
        lam +- 5 sqrt(lam), where it does not underflow."""
        mp = pytest.importorskip("mpmath")
        spread = np.linspace(lam - 5 * math.sqrt(lam), lam + 5 * math.sqrt(lam), 60)
        k = np.concatenate([np.arange(16), np.round(spread)]).astype(np.int64)
        dist = JointDegreeDistribution.poisson(lam, "dependent")
        got = triple_probability(dist, np.stack([k, k, k], axis=1))
        with mp.workdps(40):
            ref = np.array([float(mp.exp(j * mp.log(lam) - lam - mp.loggamma(j + 1)))
                            for j in k.tolist()])
        kept = ref >= np.finfo(np.float64).tiny
        assert kept.sum() == 60
        np.testing.assert_allclose(got[kept], ref[kept], rtol=1e-12)

    @pytest.mark.parametrize("lam", [7.0, 800.0])
    def test_poisson_hub_needs_no_table_to_its_degree(self, lam):
        dist = JointDegreeDistribution.poisson(lam, "independent")
        tracemalloc.start()
        try:
            p = triple_probability(dist, [(10**6, 0, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.tolist() == [0.0]
        assert peak < 1 << 20

    def test_scale_free_zero_mass(self):
        # degree 0 has no mass under the scale-free family (support starts at 1)
        dist = JointDegreeDistribution.scale_free(2.5, "independent")
        p = triple_probability(dist, [(0, 1, 1), (1, 1, 1)])
        assert p[0] == 0.0 and p[1] > 0.0


def test_load_degree_file(tmp_path):
    path = tmp_path / "degrees.txt"
    path.write_text(
        "# comment line\n"
        "1 2 3\n"
        "\n"
        "0 0 0   # trailing comment\n"
    )
    arr = load_degree_file(path)
    assert arr.tolist() == [[1, 2, 3], [0, 0, 0]]


def test_fixture_script_reproduces_degree_file():
    """scripts/make_degree_fixture.py still builds data/degrees_10k.txt, rows
    and header, so a change to the scale-free stream cannot leave the bundled
    file behind unnoticed.  run_path does not run main(), which writes it."""
    root = Path(__file__).parents[1]
    script = runpy.run_path(str(root / "scripts" / "make_degree_fixture.py"))
    path = root / "data" / "degrees_10k.txt"
    assert np.array_equal(script["build"](), load_degree_file(path))
    with open(path, encoding="utf-8") as fh:
        assert tuple(fh.readline() for _ in script["HEADER"]) == script["HEADER"]


def test_pdgraph_style_comment_is_a_degree_file(tmp_path):
    """Only the full '# pdgraph n=' header marks a pdgraph file."""
    path = tmp_path / "degrees.txt"
    path.write_text("# pdgraph-style triples\n1 2 3\n0 0 1\n")
    assert load_degree_file(path).tolist() == [[1, 2, 3], [0, 0, 1]]


@pytest.mark.parametrize("body,expected", [
    (b"1 2 3\r\n0 0 1\r\n", [[1, 2, 3], [0, 0, 1]]),
    (b"1 2 3\n0 0 1", [[1, 2, 3], [0, 0, 1]]),
    (b"# only comments\n\n \t\n#\n", "no degree triples"),
    (b"\n", "no degree triples"),
    (b"1 2 3\n# c\n0 0 1234567890123456789\n", "line 3: .*below 10\\^18"),
    (b"1 2 3\n1 2 3 4\n", "line 2: expected three integers"),
    (b"# pdgraph n=0\n", "degrees.txt: no degree triples"),
], ids=["crlf", "no-final-newline", "comments-and-blanks", "one-blank-line",
        "19-digit-degree", "four-fields", "empty-pdgraph"])
def test_load_degree_file_layouts(tmp_path, body, expected):
    path = tmp_path / "degrees.txt"
    path.write_bytes(body)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            load_degree_file(path)
    else:
        assert load_degree_file(path).tolist() == expected


def test_load_degree_file_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n4 five 6\n")
    with pytest.raises(ValueError, match="bad.txt: line 2"):
        load_degree_file(path)
    path.write_text("1 2\n")
    with pytest.raises(ValueError, match="three integers"):
        load_degree_file(path)
    path.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no degree triples"):
        load_degree_file(path)
