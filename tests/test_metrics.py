"""Secrecy metrics: closed forms vs adaptive references vs identities.

The tolerances asserted here are measured properties of the estimators, each
pinned against the adaptive reference, which is itself validated against
Monte-Carlo in the acceptance suite.  The package's log-domain trapezoid
rule converges exponentially in the order.  The paper's Gauss-Laguerre rate
form (paper_forms.paper_rate) converges slowly, and its measured envelope is
pinned as such.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paper_forms import paper_outage, paper_rate
from secrelay import (ConfigurationError, Endpoints, LogNormal, SystemConfig,
                      avg_secrecy_rate, avg_secrecy_rate_reference,
                      endpoints_for, min_snr_cdf, secrecy_outage,
                      secrecy_outage_reference)

SANITY_EP = endpoints_for(SystemConfig())
# adaptive reference at 1e-10, cross-checked against a 1e8-sample MC run
SANITY_RATE_REF = 0.0953595148240607
SANITY_OUTAGE_RS2_REF = 0.9831468752899254


def make_ep(mr, sr, mb, sb, me, se):
    return Endpoints(relay=LogNormal(mr, sr), bob=LogNormal(mb, sb),
                     eve=LogNormal(me, se))


moderate = dict(mu=st.floats(-3.0, 3.0), sigma=st.floats(0.4, 2.2))


class TestMinSnrCdf:
    def test_common_median(self):
        ep = make_ep(0.7, 1.0, 0.7, 2.0, 0.0, 1.0)
        assert min_snr_cdf(ep, math.exp(0.7)) == pytest.approx(0.75, abs=1e-15)

    def test_limits(self):
        ep = SANITY_EP
        assert min_snr_cdf(ep, 0.0) == 0.0
        assert min_snr_cdf(ep, 1e-200) == pytest.approx(0.0, abs=1e-30)
        assert min_snr_cdf(ep, 1e200) == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            min_snr_cdf(SANITY_EP, -1.0)

    @given(mu_r=moderate["mu"], s_r=moderate["sigma"], mu_b=moderate["mu"],
           s_b=moderate["sigma"], z=st.floats(1e-3, 1e3))
    @settings(max_examples=150)
    def test_min_cdf_identity(self, mu_r, s_r, mu_b, s_b, z):
        ep = make_ep(mu_r, s_r, mu_b, s_b, 0.0, 1.0)
        fr = ep.relay.cdf(z)
        fb = ep.bob.cdf(z)
        expected = fr + fb - fr * fb
        assert min_snr_cdf(ep, z) == pytest.approx(expected, abs=1e-12)
        # and the min-CDF dominates both marginals
        assert min_snr_cdf(ep, z) >= max(fr, fb) - 1e-15


class TestAvgSecrecyRate:
    def test_overwhelming_eavesdropper(self):
        ep = make_ep(2.0, 1.0, 2.0, 1.0, 30.0, 1.0)
        assert avg_secrecy_rate(ep, 24).value < 1e-6

    def test_sanity_point_vs_reference(self):
        # order-24 truncation of the paper form on the sanity endpoints,
        # measured: 4.2e-3
        q = paper_rate(SANITY_EP, 24)
        assert q == pytest.approx(SANITY_RATE_REF, rel=5e-3)
        ref = avg_secrecy_rate_reference(SANITY_EP, 1e-10)
        assert ref.value == pytest.approx(SANITY_RATE_REF, rel=1e-9)

    def test_order_convergence_on_sanity_point(self):
        errors = [abs(paper_rate(SANITY_EP, k) - SANITY_RATE_REF)
                  / SANITY_RATE_REF for k in (16, 48, 128)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 2e-8

    def test_quadrature_tracks_reference_on_smooth_endpoints(self):
        # wide endpoint spreads make the integrand easier for the paper form
        # at order 24; measured truncation error 3e-4 here, vs 4e-3 on the
        # sanity point
        ep = make_ep(1.5, 2.0, 0.5, 2.0, -0.5, 2.0)
        ref = avg_secrecy_rate_reference(ep, 1e-10).value
        assert paper_rate(ep, 24) == pytest.approx(ref, rel=5e-4)
        assert paper_rate(ep, 48) == pytest.approx(ref, rel=1e-4)

    def test_result_metadata(self):
        res = avg_secrecy_rate(SANITY_EP, 24)
        assert res.method == "quadrature" and res.quadrature_order == 24
        ref = avg_secrecy_rate_reference(SANITY_EP, 1e-9)
        assert ref.method == "reference" and ref.error_estimate <= 1e-9

    def test_reference_handles_vanishing_rate(self):
        ep = make_ep(2.0, 1.0, 2.0, 1.0, 30.0, 1.0)
        assert avg_secrecy_rate_reference(ep, 1e-8).value < 1e-6

    def test_integrand_forms_agree(self):
        ep = make_ep(1.0, 1.2, -0.5, 0.9, 0.3, 0.7)
        a = avg_secrecy_rate_reference(ep, 1e-11, form="cdf").value
        b = avg_secrecy_rate_reference(ep, 1e-11, form="erfc").value
        assert b == pytest.approx(a, rel=1e-10)

    def test_degenerate_endpoint_rejected(self):
        ep = make_ep(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            avg_secrecy_rate(ep, 24)
        with pytest.raises(ValueError):
            avg_secrecy_rate_reference(ep, 1e-9)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            avg_secrecy_rate_reference(SANITY_EP, 1e-9, form="printed")

    def test_iid_endpoints_have_positive_rate(self):
        ep = make_ep(0.5, 1.0, 0.5, 1.0, 0.5, 1.0)
        assert avg_secrecy_rate(ep, 24).value > 0.1

    @given(mu_e=st.floats(-2.0, 2.0), step=st.floats(0.05, 1.0))
    @settings(max_examples=60)
    def test_monotone_in_eavesdropper(self, mu_e, step):
        base = make_ep(1.0, 1.1, 0.3, 0.9, mu_e, 0.8)
        stronger = replace(base, eve=LogNormal(mu_e + step, 0.8))
        r0 = avg_secrecy_rate(base, 24).value
        r1 = avg_secrecy_rate(stronger, 24).value
        assert r1 <= r0 + 1e-12 * max(1.0, r0)


class TestSecrecyOutage:
    def test_unreachable_rate(self):
        assert secrecy_outage(SANITY_EP, 60.0, 24).value == pytest.approx(1.0, abs=1e-9)

    def test_sanity_point_vs_reference(self):
        q = secrecy_outage(SANITY_EP, 2.0, 24)
        assert q.value == pytest.approx(SANITY_OUTAGE_RS2_REF, abs=1e-12)
        ref = secrecy_outage_reference(SANITY_EP, 2.0, 1e-10)
        assert ref.value == pytest.approx(SANITY_OUTAGE_RS2_REF, abs=1e-9)

    def test_degenerate_eavesdropper_reduction(self):
        # sigma_e -> 0 collapses the expectation to one CDF evaluation
        ep = make_ep(2.0, 1.5, 1.0, 1.2, 0.4, 1e-6)
        rs = 1.5
        threshold = 2.0 ** rs * (math.exp(0.4) + 1.0) - 1.0
        expected = min_snr_cdf(ep, threshold)
        assert secrecy_outage(ep, rs, 24).value == pytest.approx(expected, abs=1e-6)

    def test_reference_density_normalisation(self):
        from secrelay import adaptive_integrate
        est = adaptive_integrate(SANITY_EP.eve.pdf, 0.0, math.inf, 1e-10)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_target_rate(self):
        values = [secrecy_outage(SANITY_EP, rs, 24).value
                  for rs in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_in_unit_interval(self):
        for rs in (0.1, 2.0, 50.0):
            v = secrecy_outage(SANITY_EP, rs, 24).value
            assert 0.0 <= v <= 1.0

    def test_rs_domain(self):
        with pytest.raises(ValueError):
            secrecy_outage(SANITY_EP, 0.0, 24)
        with pytest.raises(ValueError):
            secrecy_outage_reference(SANITY_EP, -1.0)

    def test_small_target_no_eavesdropper(self):
        ep = make_ep(2.0, 1.0, 1.0, 1.0, -30.0, 0.1)
        assert secrecy_outage_reference(ep, 1e-3, 1e-9).value < 1e-3

    def test_outage_at_vanishing_target_approaches_crossing_probability(self):
        # Pr[min SNR < eavesdropper SNR], cross-checked by simulation
        ep = make_ep(1.5, 1.0, 0.8, 1.2, 0.2, 0.6)
        out = secrecy_outage(ep, 1e-4, 48).value
        rng = np.random.default_rng(42)
        n = 10 ** 6
        g_min = np.minimum(np.exp(1.5 + 1.0 * rng.standard_normal(n)),
                           np.exp(0.8 + 1.2 * rng.standard_normal(n)))
        g_eve = np.exp(0.2 + 0.6 * rng.standard_normal(n))
        p_hat = np.mean(g_min < g_eve)
        assert out == pytest.approx(p_hat, abs=3 * math.sqrt(p_hat * (1 - p_hat) / n) + 1e-3)


class TestRules:
    """The log-domain trapezoid rule against the paper's forms."""

    def test_trapezoid_converges_with_order(self):
        errors = [abs(avg_secrecy_rate(SANITY_EP, k).value - SANITY_RATE_REF)
                  / SANITY_RATE_REF for k in (8, 16, 24)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-6
        # beyond order 24 the reference's own 1e-10 accuracy is the floor
        for k in (48, 128):
            assert avg_secrecy_rate(SANITY_EP, k).value == pytest.approx(
                SANITY_RATE_REF, rel=1e-9)

    def test_paper_outage_on_sanity_point(self):
        q = paper_outage(SANITY_EP, 2.0, 24)
        assert q == pytest.approx(SANITY_OUTAGE_RS2_REF, abs=1e-12)

    def test_outage_converges_with_order(self):
        ep = make_ep(1.5, 2.0, 0.5, 2.0, -0.5, 2.0)
        for rs in (0.5, 2.0, 4.0):
            ref = secrecy_outage_reference(ep, rs, 1e-12).value
            assert secrecy_outage(ep, rs, 24).value == pytest.approx(ref, abs=1e-8)
            assert secrecy_outage(ep, rs, 48).value == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_lowest_orders_are_defined(self, order):
        rate = avg_secrecy_rate(SANITY_EP, order).value
        assert math.isfinite(rate) and rate > 0.0
        out = secrecy_outage(SANITY_EP, 2.0, order).value
        assert 0.0 <= out <= 1.0

    @pytest.mark.parametrize("order", [0, 129, 2.0, True])
    def test_order_range_enforced(self, order):
        with pytest.raises(ConfigurationError):
            avg_secrecy_rate(SANITY_EP, order)
        with pytest.raises(ConfigurationError):
            secrecy_outage(SANITY_EP, 2.0, order)

    def test_target_rate_beyond_float_range_of_two_to_the_rs(self):
        # 2^2000 overflows a double; the trapezoid rule works in logs
        assert secrecy_outage(SANITY_EP, 2000.0, 24).value == 1.0

    def test_unknown_rule_rejected(self):
        # one estimator per metric: there is no rule to choose
        with pytest.raises(TypeError):
            avg_secrecy_rate(SANITY_EP, 24, rule="laguerre")
        with pytest.raises(TypeError):
            secrecy_outage(SANITY_EP, 2.0, 24, rule="hermite")


class TestQuadratureReferenceAgreement:
    @pytest.mark.parametrize("ep", [
        make_ep(2.0, 1.8, 0.5, 1.6, -0.5, 1.5),
        make_ep(-1.0, 2.2, 1.0, 2.0, 0.5, 1.8),
        make_ep(3.0, 1.5, 2.0, 1.5, 1.0, 1.5),
    ])
    def test_outage_high_accuracy_on_smooth_endpoints(self, ep):
        for rs in (0.5, 2.0, 4.0):
            q = secrecy_outage(ep, rs, 24).value
            r = secrecy_outage_reference(ep, rs, 1e-10).value
            assert q == pytest.approx(r, abs=5e-8)


class TestEstimatorMonotonicity:
    """Directional behaviour of the closed forms, spot-checked densely."""

    def test_randomised_sweep(self):
        rng = np.random.default_rng(1234)
        order = 24
        for _ in range(150):
            mr, mb, me = rng.uniform(-3, 3, 3)
            sr, sb, se = rng.uniform(0.4, 2.2, 3)
            rs = float(rng.uniform(0.1, 4.0))
            step = float(rng.uniform(0.05, 0.8))
            ep = make_ep(mr, sr, mb, sb, me, se)
            rate = avg_secrecy_rate(ep, order).value
            out = secrecy_outage(ep, rs, order).value
            tol = 1e-12 * max(1.0, rate)

            up_e = replace(ep, eve=LogNormal(me + step, se))
            up_b = replace(ep, bob=LogNormal(mb + step, sb))
            up_r = replace(ep, relay=LogNormal(mr + step, sr))
            assert avg_secrecy_rate(up_e, order).value <= rate + tol
            assert avg_secrecy_rate(up_b, order).value >= rate - tol
            assert avg_secrecy_rate(up_r, order).value >= rate - tol
            assert secrecy_outage(up_e, rs, order).value >= out - 1e-12
            assert secrecy_outage(up_b, rs, order).value <= out + 1e-12
            assert secrecy_outage(up_r, rs, order).value <= out + 1e-12
            assert secrecy_outage(ep, rs + step, order).value >= out - 1e-12
