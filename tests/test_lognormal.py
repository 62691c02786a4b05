"""Log-normal algebra: composite fits, cumulant matching, sums, ratios."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from secrelay import (CompositeLink, Cumulants, LogNormal, cumulants,
                      from_composite, from_cumulants, ratio, sum_lognormals)
from secrelay.lognormal import DB_TO_NAT, _gamma_log_moments

XI = DB_TO_NAT
EULER = 0.5772156649015329


class TestTypes:
    def test_lognormal_validation(self):
        with pytest.raises(ValueError):
            LogNormal(math.nan, 1.0)
        with pytest.raises(ValueError):
            LogNormal(0.0, -0.1)
        with pytest.raises(ValueError):
            LogNormal(0.2, math.inf)
        LogNormal(0.0, 0.0)  # degenerate point mass is allowed

    def test_cumulants_validation(self):
        with pytest.raises(ValueError):
            Cumulants(0.0, 1.0)
        with pytest.raises(ValueError):
            Cumulants(1.0, -1.0)

    def test_composite_link_validation(self):
        with pytest.raises(ValueError):
            CompositeLink(0.4, 0.0, 5.0)
        with pytest.raises(ValueError):
            CompositeLink(2.0, 0.0, -1.0)


class TestFromComposite:
    def test_large_m_leaves_only_shadowing(self):
        rv = from_composite(CompositeLink(1e6, -10.0, 5.0))
        assert rv.mu == pytest.approx(XI * -10.0, abs=1e-5)
        assert rv.sigma == pytest.approx(XI * 5.0, abs=1e-5)

    def test_rayleigh_no_shadowing(self):
        rv = from_composite(CompositeLink(1.0, 0.0, 0.0))
        assert rv.mu == pytest.approx(-EULER, abs=1e-12)
        assert rv.sigma ** 2 == pytest.approx(math.pi ** 2 / 6, abs=1e-12)

    def test_reference_link(self):
        rv = from_composite(CompositeLink(2.0, -10.0, 5.0))
        assert rv.mu == pytest.approx(-2.572947938455524, abs=1e-12)
        assert rv.sigma == pytest.approx(1.4037124329676027, abs=1e-12)

    def test_matches_sampled_log_moments(self):
        # the fit is the exact log-moment match of the Gamma x LN product
        rng = np.random.default_rng(31415)
        n = 10 ** 6
        link = CompositeLink(2.0, -10.0, 5.0)
        snr = (rng.gamma(2.0, 0.5, n)
               * np.exp(XI * (-10.0 + 5.0 * rng.standard_normal(n))))
        logs = np.log(snr)
        rv = from_composite(link)
        assert logs.mean() == pytest.approx(rv.mu, abs=4 * logs.std() / math.sqrt(n))
        var = logs.var()
        se_var = math.sqrt((np.mean((logs - logs.mean()) ** 4) - var ** 2) / n)
        assert var == pytest.approx(rv.sigma ** 2, abs=4 * se_var)


class TestCumulants:
    def test_standard_values(self):
        c = cumulants(LogNormal(0.0, 1.0))
        assert c.k1 == pytest.approx(1.6487212707001282, rel=1e-14)
        assert c.k2 == pytest.approx(4.670774270471604, rel=1e-14)

    def test_point_mass(self):
        c = cumulants(LogNormal(-2.0, 0.0))
        assert c.k1 == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert c.k2 == 0.0

    def test_composite_fit_mean(self):
        c = cumulants(LogNormal(-2.572947938455524, 1.4037124329676027))
        assert c.k1 == pytest.approx(math.exp(-2.572947938455524
                                              + 1.4037124329676027 ** 2 / 2), rel=1e-14)

    def test_overflow_is_a_range_error(self):
        with pytest.raises(OverflowError):
            cumulants(LogNormal(500.0, 25.0))

    def test_matches_sample_moments(self):
        rng = np.random.default_rng(99)
        x = np.exp(0.3 + 0.9 * rng.standard_normal(10 ** 6))
        c = cumulants(LogNormal(0.3, 0.9))
        assert x.mean() == pytest.approx(c.k1, abs=4 * x.std() / 1000.0)


class TestFromCumulants:
    def test_inverse_of_cumulants(self):
        rv = from_cumulants(Cumulants(1.6487212707001282, 4.670774270471604))
        assert rv.mu == pytest.approx(0.0, abs=1e-12)
        assert rv.sigma == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_gives_point_mass(self):
        rv = from_cumulants(Cumulants(1.0, 0.0))
        assert rv == LogNormal(0.0, 0.0)

    def test_known_pair(self):
        rv = from_cumulants(Cumulants(2.2662969061336526, 0.7293917080247734))
        assert rv.mu == pytest.approx(0.7517510609004961, abs=1e-12)
        assert rv.sigma == pytest.approx(0.36440669494247535, abs=1e-12)

    @given(st.floats(-20.0, 20.0), st.floats(0.0, 3.0))
    @settings(max_examples=200)
    def test_round_trip(self, mu, sigma):
        back = from_cumulants(cumulants(LogNormal(mu, sigma)))
        assert abs(back.mu - mu) <= 1e-12 * max(1.0, abs(mu))
        assert abs(back.sigma - sigma) <= 1e-12 * max(1.0, sigma)


class TestScaleRatio:
    def test_ratio(self):
        r = ratio(LogNormal(1.0, 1.0), LogNormal(-2.0, 0.5))
        assert r.mu == 3.0
        assert r.sigma == pytest.approx(math.sqrt(1.25), rel=1e-15)

    def test_ratio_of_iid_copies(self):
        r = ratio(LogNormal(0.7, 0.9), LogNormal(0.7, 0.9))
        assert r.mu == 0.0
        assert r.sigma == pytest.approx(0.9 * math.sqrt(2.0), rel=1e-15)

    def test_ratio_by_point_mass(self):
        assert ratio(LogNormal(0.0, 1.0), LogNormal(0.0, 0.0)) == LogNormal(0.0, 1.0)

    def test_ratio_cdf_against_mc(self):
        num, den = LogNormal(0.4, 0.8), LogNormal(0.1, 1.1)
        rng = np.random.default_rng(512)
        n = 10 ** 6
        samples = (np.exp(0.4 + 0.8 * rng.standard_normal(n))
                   / np.exp(0.1 + 1.1 * rng.standard_normal(n)))
        p_hat = np.mean(samples <= 1.0)
        p = ratio(num, den).cdf(1.0)
        assert p_hat == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / n))


class TestSum:
    def test_two_equal_terms(self):
        s = sum_lognormals([LogNormal(0.0, 0.5), LogNormal(0.0, 0.5)])
        assert s.mu == pytest.approx(0.7517510609004961, abs=1e-12)
        assert s.sigma == pytest.approx(0.36440669494247535, abs=1e-12)

    def test_single_term_identity(self):
        rv = LogNormal(3.0, 1.0)
        assert sum_lognormals([rv]) is rv

    def test_point_masses(self):
        s = sum_lognormals([LogNormal(0.0, 0.0), LogNormal(0.0, 0.0)])
        assert s.mu == pytest.approx(math.log(2.0), rel=1e-15)
        assert s.sigma == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sum_lognormals([])

    def test_permutation_invariance_and_cumulant_associativity(self):
        a, b, c = LogNormal(0.1, 0.4), LogNormal(-0.5, 0.9), LogNormal(1.2, 0.6)
        direct = sum_lognormals([a, b, c])
        permuted = sum_lognormals([c, a, b])
        assert direct.mu == pytest.approx(permuted.mu, rel=1e-14)
        assert direct.sigma == pytest.approx(permuted.sigma, rel=1e-14)
        staged = sum_lognormals([sum_lognormals([a, b]), c])
        assert staged.mu == pytest.approx(direct.mu, rel=1e-12)
        assert staged.sigma == pytest.approx(direct.sigma, rel=1e-12)

    def test_moments_match_mc(self):
        terms = [LogNormal(0.0, 0.5), LogNormal(0.0, 0.5)]
        rng = np.random.default_rng(2718)
        n = 10 ** 6
        s = (np.exp(0.5 * rng.standard_normal(n))
             + np.exp(0.5 * rng.standard_normal(n)))
        c = cumulants(sum_lognormals(terms))
        assert s.mean() == pytest.approx(c.k1, abs=3 * s.std() / 1000.0)
        se_var = math.sqrt((np.mean((s - s.mean()) ** 4) - s.var() ** 2) / n)
        assert s.var() == pytest.approx(c.k2, abs=3 * se_var)

    def test_fw_fit_quality_regression(self):
        # sup-norm distance between the fitted CDF and the empirical CDF of
        # the true two-term sum; measured envelope, degrades with sigma
        rng = np.random.default_rng(777)
        n = 10 ** 6
        for sigma, bound in ((0.5, 0.01), (1.0, 0.03), (1.5, 0.07)):
            fit = sum_lognormals([LogNormal(0.0, sigma), LogNormal(0.3, sigma)])
            s = np.sort(np.exp(sigma * rng.standard_normal(n))
                        + np.exp(0.3 + sigma * rng.standard_normal(n)))
            empirical = (np.arange(1, n + 1) - 0.5) / n
            fitted = 0.5 * np.vectorize(math.erfc)(
                (fit.mu - np.log(s)) / (math.sqrt(2.0) * fit.sigma))
            assert np.max(np.abs(empirical - fitted)) < bound, f"sigma={sigma}"


class TestCdfPdf:
    def test_cdf_examples(self):
        rv = LogNormal(0.0, 1.0)
        assert rv.cdf(1.0) == pytest.approx(0.5, abs=1e-15)
        assert rv.cdf(0.0) == 0.0
        assert rv.cdf(-3.0) == 0.0
        assert rv.cdf(math.e) == pytest.approx(0.8413447460685429, abs=1e-12)
        assert rv.cdf(math.inf) == 1.0
        assert LogNormal(0.0, 0.0).cdf(math.inf) == 1.0
        with pytest.raises(ValueError):
            rv.cdf(math.nan)

    def test_cdf_monotone(self):
        rv = LogNormal(0.3, 0.7)
        zs = np.logspace(-3, 3, 200)
        vals = [rv.cdf(z) for z in zs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_degenerate_cdf_is_step(self):
        rv = LogNormal(0.0, 0.0)
        assert rv.cdf(0.999) == 0.0
        assert rv.cdf(1.0) == 1.0
        assert rv.cdf(1.001) == 1.0


def erfc_series_oracle(x):
    """erfc via the Taylor series of erf; independent of the library path."""
    s = 0.0
    term = x
    n = 0
    while abs(term) > 1e-20:
        s += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 1.0 - 2.0 / math.sqrt(math.pi) * s


class TestCdfErfcForm:
    """cdf(z) = erfc((mu - ln z) / (sqrt(2) sigma)) / 2 at its edges."""

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 4.0])
    def test_median_is_one_half(self, sigma):
        assert LogNormal(0.0, sigma).cdf(1.0) == 0.5

    def test_far_tails_saturate_cleanly(self):
        rv = LogNormal(0.0, 1.0)
        lo = rv.cdf(math.exp(-38.0 * math.sqrt(2.0)))
        assert 0.0 <= lo < 1e-300
        assert rv.cdf(math.exp(38.0 * math.sqrt(2.0))) == 1.0

    def test_one_unit_below_median_vs_series_oracle(self):
        # ln z = mu - sqrt(2) sigma puts erfc's argument at exactly 1
        rv = LogNormal(0.3, 0.7)
        z = math.exp(rv.mu - math.sqrt(2.0) * rv.sigma)
        assert rv.cdf(z) == pytest.approx(0.5 * erfc_series_oracle(1.0), abs=1e-12)
        assert rv.cdf(z) == pytest.approx(0.5 * 0.15729920705028513, abs=1e-12)

    @pytest.mark.parametrize("z, expected", [(-math.inf, 0.0), (math.inf, 1.0)])
    def test_infinite_arguments(self, z, expected):
        assert LogNormal(0.3, 0.7).cdf(z) == expected

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LogNormal(0.3, 0.7).cdf(math.nan)

    @given(st.floats(-30, 30))
    def test_reflection_identity(self, t):
        rv = LogNormal(0.0, 1.0)
        assert rv.cdf(math.exp(t)) + rv.cdf(math.exp(-t)) == pytest.approx(1.0, abs=1e-12)


class TestCompositeLogMoments:
    """from_composite's Gamma part: mean psi(m) - ln m, variance zeta(2, m)."""

    def test_known_constants(self):
        for m, mean, var in ((1.0, -EULER, math.pi ** 2 / 6),
                             (2.0, 1.0 - EULER - math.log(2.0), math.pi ** 2 / 6 - 1),
                             (0.5, -EULER - math.log(2.0), math.pi ** 2 / 2)):
            rv = from_composite(CompositeLink(m, 0.0, 0.0))
            assert rv.mu == pytest.approx(mean, abs=1e-12), m
            assert rv.sigma ** 2 == pytest.approx(var, abs=1e-12), m

    @given(st.floats(0.5, 50.0))
    def test_recurrences(self, m):
        a = from_composite(CompositeLink(m, 0.0, 0.0))
        b = from_composite(CompositeLink(m + 1.0, 0.0, 0.0))
        # psi(m + 1) = psi(m) + 1/m and zeta(2, m) = zeta(2, m + 1) + 1/m^2
        assert b.mu - a.mu == pytest.approx(1.0 / m - math.log1p(1.0 / m), abs=1e-11)
        assert a.sigma ** 2 - b.sigma ** 2 == pytest.approx(1.0 / m ** 2, abs=1e-11)
        # one cache entry per distinct shape, and never more than its bound
        info = _gamma_log_moments.cache_info()
        assert info.maxsize == 64 and info.currsize <= info.maxsize

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.7, 50.0])
    def test_cached_moments_give_the_direct_fit_bitwise(self, m):
        rv = from_composite(CompositeLink(m, -7.0, 6.0))
        gamma_mean, gamma_var = _gamma_log_moments.__wrapped__(m)
        mean = gamma_mean + XI * -7.0
        var = gamma_var + (XI * 6.0) ** 2
        assert (rv.mu, rv.sigma) == (mean, math.sqrt(var))
        # a repeat fit is served from the cache and is the same fit
        assert from_composite(CompositeLink(m, -7.0, 6.0)) == rv

    def test_moments_match_scipy(self):
        # the recurrence and asymptotic series against scipy's digamma and
        # Hurwitz zeta, which they replace; the worst errors read 8.3e-16
        # (mean) and 6.0e-16 (variance)
        worst_mean = worst_var = 0.0
        for m in np.linspace(0.5, 50.0, 2000):
            mean, var = _gamma_log_moments.__wrapped__(float(m))
            zeta = float(special.zeta(2.0, m))
            worst_mean = max(worst_mean, abs(
                mean - (float(special.digamma(m)) - math.log(m))))
            worst_var = max(worst_var, abs(var - zeta) / zeta)
        assert worst_mean <= 2e-15 and worst_var <= 2e-15, (worst_mean, worst_var)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            CompositeLink(bad, 0.0, 0.0)


class TestMeanSnrShift:
    def test_shift_examples(self):
        base = from_composite(CompositeLink(2.0, 0.0, 5.0))
        for db in (10.0, 0.0, -47.04):
            shifted = from_composite(CompositeLink(2.0, db, 5.0))
            assert shifted.mu == pytest.approx(base.mu + XI * db, abs=1e-12)
            assert shifted.sigma == base.sigma

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(ValueError):
            CompositeLink(2.0, bad, 5.0)


class TestEqualTermSum:
    def test_four_fold(self):
        s = sum_lognormals([LogNormal(0.0, 1.0)] * 4)
        assert s.mu == pytest.approx(1.7076073513654964, abs=1e-12)
        assert s.sigma == pytest.approx(0.5978076776930759, abs=1e-12)

    def test_point_mass_fold(self):
        s = sum_lognormals([LogNormal(-1.0, 0.0)] * 7)
        assert s.mu == pytest.approx(-1.0 + math.log(7.0), rel=1e-14)
        assert s.sigma == 0.0

    def test_matches_scaled_cumulants(self):
        # term-by-term addition agrees with one n-fold scaling, the form
        # the eavesdropper's antenna fold uses
        rv = LogNormal(0.2, 0.8)
        summed = sum_lognormals([rv] * 12)
        scaled = from_cumulants(cumulants(rv).scaled(12))
        assert summed.mu == pytest.approx(scaled.mu, rel=1e-14)
        assert summed.sigma == pytest.approx(scaled.sigma, rel=1e-14)
