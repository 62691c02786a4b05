"""Secrecy metrics: closed forms vs adaptive references vs identities.

The tolerances asserted here are measured properties of the estimators, each
pinned against the adaptive reference, which is itself validated against
Monte-Carlo in the acceptance suite.  The package's log-domain trapezoid
rule converges exponentially in the order.  The paper's Gauss-Laguerre rate
form (paper_forms.paper_rate) converges slowly, and its measured envelope is
pinned as such.
"""
import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paper_forms import cdf_form_rate, paper_outage, paper_rate
from test_acceptance import RS_GRID, grid_endpoints
from secrelay import (ConfigurationError, Endpoints, LogNormal, MetricResult,
                      SystemConfig, avg_secrecy_rate, avg_secrecy_rate_reference,
                      endpoints_for, metrics, min_snr_cdf, parse_config_text,
                      preset_run_config, secrecy_outage, secrecy_outage_reference)

SANITY_EP = endpoints_for(SystemConfig())
# adaptive reference at 1e-10, cross-checked against a 1e8-sample MC run
SANITY_RATE_REF = 0.0953595148240607
SANITY_OUTAGE_RS2_REF = 0.9831468752899254
# sha256 of the repr of the 126 paper-fig2 reference rates and 252 outages
FIG2_REFERENCE_SHA256 = "1d640422c587635e65b9b163a351c5c3da3244e92b8d5fa3f39e66972c14979e"


# a network whose endpoints are far narrower than the K = 24 rate window's
# node spacing: no shadowing, a direct Eve of sigma 0.1, one grid point
NARROW_NETWORK = """shadow_sd_db = 0
power_dbm = 40
delta_db = -80
n_eve = 2
eve_mode = direct
eve_mu = -20
eve_sigma = 0.1
rs_target = 0.5
"""


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

    def test_nan_rejected(self):
        # as LogNormal.cdf rejects it, rather than returning nan
        with pytest.raises(ValueError):
            min_snr_cdf(SANITY_EP, math.nan)

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
        assert [f.name for f in fields(MetricResult)] == ["value", "error_estimate"]
        ref = avg_secrecy_rate_reference(SANITY_EP, 1e-9)
        assert ref.error_estimate <= 1e-9

    def test_reference_handles_vanishing_rate(self):
        # the rate is about 2.6e-118; the erfc product has no 1 - F_min
        # difference to cancel, so it meets its relative tolerance here too
        ep = make_ep(2.0, 1.0, 2.0, 1.0, 30.0, 1.0)
        ref = avg_secrecy_rate_reference(ep, 1e-8)
        assert ref.error_estimate <= 1e-8
        assert ref.value == pytest.approx(avg_secrecy_rate(ep, 128).value,
                                          rel=1e-8, abs=0.0)

    def test_reference_converges_on_the_c08_box(self):
        # 1,000 random points of the c08 box; rates down to 1e-13 among them
        # (points 208, 411 and 994) must meet the same relative tolerance
        rng = np.random.default_rng(7)
        for _ in range(1000):
            mr, mb, me = rng.uniform(-3.0, 3.0, 3)
            sr, sb, se = rng.uniform(0.4, 2.2, 3)
            ep = make_ep(mr, sr, mb, sb, me, se)
            ref = avg_secrecy_rate_reference(ep, 1e-9)  # AccuracyError fails here
            assert ref.error_estimate <= 1e-9
            assert ref.value == pytest.approx(avg_secrecy_rate(ep, 128).value, rel=1e-6)

    def test_reference_ignores_a_vanishing_self_interference(self):
        # at delta = -1e6 dB the relay mean sits 2.3e5 nats out; the window
        # ends where bob's factor does, so the relay does not stretch it
        ref = {d: avg_secrecy_rate_reference(
                   endpoints_for(SystemConfig(delta_db=d)), 1e-9).value
               for d in (-200.0, -1e6)}
        assert ref[-1e6] == pytest.approx(ref[-200.0], rel=1e-9)
        assert ref[-1e6] == pytest.approx(0.1041492039, rel=1e-9)

    def test_reference_ignores_a_far_relay_mean(self):
        eve, bob = SANITY_EP.eve, SANITY_EP.bob
        near, far = (avg_secrecy_rate_reference(
            Endpoints(relay=LogNormal(mu, 3.0), bob=bob, eve=eve), 1e-9).value
            for mu in (1e3, 1e6))
        assert far == near

    @pytest.mark.parametrize("mu_e", [-800.0, -1e6])
    def test_reference_ignores_a_vanishing_eavesdropper(self, mu_e):
        # 17 nats below eve's mean exp(-y) overflows from mu_e = -693 on,
        # and a window reaching 1e6 nats down would put no node near the
        # mass just below 0; no mass lies that far out, so the rate is the
        # one at mu_e = -600
        ref = {mu: avg_secrecy_rate_reference(
                   make_ep(2.0, 1.0, 3.0, 1.0, mu, 1.0), 1e-9).value
               for mu in (-600.0, mu_e)}
        assert ref[mu_e] == pytest.approx(ref[-600.0], rel=1e-9)
        assert ref[mu_e] == pytest.approx(2.889, rel=1e-3)

    @pytest.mark.parametrize("ep", [
        # eve 44 nats above bob: the edge window is empty, and her narrow
        # factor puts the peak within 0.17 nats of her mean, past the
        # swapped edges
        make_ep(1e3, 1.0, -4.0, 2.0, 40.0, 0.01),
        make_ep(-4.0, 2.0, 1e6, 1.0, 40.0, 0.01),
        # a window 3.4 nats wide: most of the mass lies past its edges
        make_ep(20.3, 1.76, 13.25, 1.27, 47.9, 0.98),
    ], ids=["empty-bob", "empty-relay", "narrow"])
    def test_reference_keeps_the_peak_when_eve_sits_above_the_window(self, ep):
        from scipy import special
        # an independent fine trapezoid of the log-integrand over a window
        # reaching 20 nats past the means
        lo = min(ep.eve.mu, ep.bob.mu, ep.relay.mu) - 20.0
        y = np.linspace(lo, ep.eve.mu + 20.0, 800_001)
        log_f = (special.log_ndtr((y - ep.eve.mu) / ep.eve.sigma)
                 + special.log_ndtr((ep.bob.mu - y) / ep.bob.sigma)
                 + special.log_ndtr((ep.relay.mu - y) / ep.relay.sigma)
                 + special.log_expit(y))
        peak = log_f.max()
        fine = (math.exp(peak) * np.trapezoid(np.exp(log_f - peak), y)
                / math.log(2.0))
        ref = avg_secrecy_rate_reference(ep, 1e-9)
        assert 0.0 < fine < 1e-100
        # abs=0: approx's default absolute floor would pass any tiny value
        assert ref.value == pytest.approx(fine, rel=1e-8, abs=0.0)

    def test_integrand_forms_agree(self):
        ep = make_ep(1.0, 1.2, -0.5, 0.9, 0.3, 0.7)
        a = cdf_form_rate(ep, 1e-11)
        b = avg_secrecy_rate_reference(ep, 1e-11).value
        assert b == pytest.approx(a, rel=1e-10)

    def test_degenerate_endpoint_rejected(self):
        # every route names the first zero sigma of relay, bob and eve, and
        # checks it before the target and the order
        for zero, named in ((("relay", "bob", "eve"), "relay"),
                            (("bob", "eve"), "bob"), (("eve",), "eve")):
            ep = replace(SANITY_EP, **{f: LogNormal(1.0, 0.0) for f in zero})
            calls = {"avg_secrecy_rate": [lambda: avg_secrecy_rate(ep, 24),
                                          lambda: avg_secrecy_rate(ep, 0)],
                     "avg_secrecy_rate_reference": [
                         lambda: avg_secrecy_rate_reference(ep, 1e-9)],
                     "secrecy_outage": [lambda: secrecy_outage(ep, 2.0, 24),
                                        lambda: secrecy_outage(ep, 0.0, 24),
                                        lambda: secrecy_outage(ep, -1.0, 129)],
                     "secrecy_outage_reference": [
                         lambda: secrecy_outage_reference(ep, 2.0),
                         lambda: secrecy_outage_reference(ep, math.nan)]}
            for who, tries in calls.items():
                for call in tries:
                    with pytest.raises(ValueError) as exc:
                        call()
                    assert str(exc.value) == (f"{who} requires non-degenerate "
                                              f"endpoints; {named} has sigma = 0")

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

    @pytest.mark.parametrize("field", ["relay", "bob"])
    def test_reference_ignores_a_far_upper_mean(self, field):
        # the v window is fixed and a kink past it is dropped, so a far-off
        # relay or bob mean cannot stretch it
        near, far = (secrecy_outage_reference(
            replace(SANITY_EP, **{field: LogNormal(mu, 3.0)}), 2.0, 1e-10).value
            for mu in (1e3, 1e6))
        assert far == near

    def test_degenerate_eavesdropper_reduction(self):
        # sigma_e -> 0 collapses the expectation to one CDF evaluation
        ep = make_ep(2.0, 1.5, 1.0, 1.2, 0.4, 1e-6)
        rs = 1.5
        threshold = 2.0 ** rs * (math.exp(0.4) + 1.0) - 1.0
        expected = min_snr_cdf(ep, threshold)
        assert secrecy_outage(ep, rs, 24).value == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_target_rate(self):
        values = [secrecy_outage(SANITY_EP, rs, 24).value
                  for rs in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_in_unit_interval(self):
        for rs in (0.1, 2.0, 50.0):
            v = secrecy_outage(SANITY_EP, rs, 24).value
            assert 0.0 <= v <= 1.0

    def test_rs_domain(self):
        # the target is checked before the order
        for rs in (0.0, -1.0, -0.0, math.nan, math.inf):
            for call in (lambda: secrecy_outage(SANITY_EP, rs, 24),
                         lambda: secrecy_outage(SANITY_EP, rs, 0),
                         lambda: secrecy_outage_reference(SANITY_EP, rs)):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == f"rs_target must be positive, got {rs!r}"

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


@pytest.mark.parametrize("ep", [SANITY_EP, make_ep(1.5, 2.0, 0.5, 2.0, -0.5, 2.0)],
                         ids=["sanity", "wide"])
def test_both_routes_share_one_integrand_per_metric(monkeypatch, ep):
    # halving the shared integrands halves both rates and takes both
    # outages q to (1 + q) / 2: no route keeps a copy of its own
    rates = avg_secrecy_rate(ep).value, avg_secrecy_rate_reference(ep, 1e-10).value
    outages = [(secrecy_outage(ep, rs).value,
                secrecy_outage_reference(ep, rs, 1e-10).value) for rs in (0.5, 2.0)]
    rate_integrand, survival = metrics._rate_integrand, metrics._survival
    monkeypatch.setattr(metrics, "_rate_integrand",
                        lambda ep, ys: [0.5 * x for x in rate_integrand(ep, ys)])
    monkeypatch.setattr(metrics, "_survival",
                        lambda *args: [0.5 * x for x in survival(*args)])
    assert avg_secrecy_rate(ep).value == 0.5 * rates[0]
    assert avg_secrecy_rate_reference(ep, 1e-10).value == pytest.approx(
        0.5 * rates[1], rel=1e-9)
    for rs, (q, q_ref) in zip((0.5, 2.0), outages):
        assert secrecy_outage(ep, rs).value == pytest.approx((1.0 + q) / 2.0, abs=1e-14)
        assert secrecy_outage_reference(ep, rs, 1e-10).value == pytest.approx(
            (1.0 + q_ref) / 2.0, abs=1e-10)


class TestRules:
    """The log-domain trapezoid rule against the paper's forms."""

    @pytest.mark.xfail(strict=True, reason="K = 24 nodes spaced wider than the "
                       "endpoints' sigmas give a quietly wrong rate (ROADMAP item 6)")
    @pytest.mark.parametrize("m", [200.0, 1000.0])
    def test_rate_on_endpoints_narrower_than_the_node_spacing(self, m):
        # measured: 0.26618 against 0.27476 at m = 200 (mc-ln reads 0.27478
        # +- 2.6e-5), 0.31600 against 0.27484 at m = 1000; the window is 14.6
        # and 24.2 sigma_min per node
        cfg = parse_config_text(f"nakagami_m = {m}\n{NARROW_NETWORK}")
        ep = endpoints_for(cfg.network)
        ref = avg_secrecy_rate_reference(ep, 1e-9).value
        assert avg_secrecy_rate(ep).value == pytest.approx(ref, rel=1e-6)

    @pytest.mark.xfail(strict=True, reason="K = 24 nodes spaced wider than bob's "
                       "sigma give a quietly wrong outage (ROADMAP item 6)")
    def test_outage_on_endpoints_narrower_than_the_node_spacing(self):
        # measured: 0.536848 against 0.488195; K = 48, 96 and 128 read
        # 0.49439, 0.49951 and 0.49017
        ep = make_ep(5.0, 1.0, 0.0, 0.02, -1.0, 4.0)
        ref = secrecy_outage_reference(ep, 0.5, 1e-10).value
        assert secrecy_outage(ep, 0.5).value == pytest.approx(ref, abs=1e-8)

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

    @pytest.mark.parametrize("order, message", [
        pytest.param(0, "quadrature order must be in [1, 128], got 0", id="0"),
        pytest.param(129, "quadrature order must be in [1, 128], got 129", id="129"),
        pytest.param(2.0, "quadrature order must be an integer, got 2.0", id="2.0"),
        pytest.param(True, "quadrature order must be an integer, got True",
                     id="True")])
    def test_order_range_enforced(self, order, message):
        for call in (lambda: avg_secrecy_rate(SANITY_EP, order),
                     lambda: secrecy_outage(SANITY_EP, 2.0, order)):
            with pytest.raises(ConfigurationError) as exc:
                call()
            assert str(exc.value) == message

    def test_numpy_integer_order_accepted(self):
        assert (avg_secrecy_rate(SANITY_EP, np.int64(24))
                == avg_secrecy_rate(SANITY_EP, 24))
        assert (secrecy_outage(SANITY_EP, 2.0, np.int32(24))
                == secrecy_outage(SANITY_EP, 2.0, 24))

    @pytest.mark.parametrize("delta", [-1e156, -1e300])
    def test_relay_mean_past_the_square_of_a_double(self, delta):
        # the windows' hinge root squares the gap between bob's and the
        # relay's means; past about 1e154 nats that overflows, and the
        # nearer edge must be taken, as it is just below
        near = endpoints_for(SystemConfig(delta_db=-1e154))
        far = endpoints_for(SystemConfig(delta_db=delta))
        assert avg_secrecy_rate(far) == avg_secrecy_rate(near)
        assert secrecy_outage(far, 2.0) == secrecy_outage(near, 2.0)
        assert avg_secrecy_rate(near).value == 0.10414948228384811
        assert secrecy_outage(near, 2.0).value == 0.9812451570560197

    def test_target_rate_beyond_float_range_of_two_to_the_rs(self):
        # 2^2000 overflows a double; the trapezoid rule works in logs
        assert secrecy_outage(SANITY_EP, 2000.0, 24).value == 1.0

    def test_unknown_rule_rejected(self):
        # one estimator per metric: there is no rule to choose
        with pytest.raises(TypeError):
            avg_secrecy_rate(SANITY_EP, 24, rule="laguerre")
        with pytest.raises(TypeError):
            secrecy_outage(SANITY_EP, 2.0, 24, rule="hermite")
        # and one integrand for the rate reference
        with pytest.raises(TypeError):
            avg_secrecy_rate_reference(SANITY_EP, 1e-9, form="cdf")


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


@pytest.fixture(scope="module")
def fig2_references():
    """Every reference evaluation on the paper-fig2 grid, with the integrand
    nodes each one evaluated (counted through the binding metrics calls)."""
    calls = []
    integrate = metrics.adaptive_integrate

    def counting(f, *args, **kwargs):
        calls.append(0)

        def counted(xs):
            calls[-1] += len(xs)
            return f(xs)

        return integrate(counted, *args, **kwargs)

    cfg = preset_run_config("paper-fig2")
    rates, outages = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "adaptive_integrate", counting)
        for p in cfg.power_grid_dbm:
            for d in cfg.delta_grid_db:
                for n in cfg.n_eve_grid:
                    ep = endpoints_for(cfg.system(p, d, n))
                    rates[p, d, n] = (ep, avg_secrecy_rate_reference(ep, 1e-9))
                    for rs in cfg.rs_grid:
                        outages[p, d, n, rs] = secrecy_outage_reference(ep, rs, 1e-10)
    return rates, outages, calls


class TestReferenceOnFig2:
    """The adaptive references converge on every paper-fig2 grid point."""

    def test_every_evaluation_meets_its_tolerance(self, fig2_references):
        # an AccuracyError would have failed the fixture
        rates, outages, _ = fig2_references
        assert len(rates) == 126 and len(outages) == 252
        assert all(r.error_estimate <= 1e-9 for _, r in rates.values())
        assert all(o.error_estimate <= 1e-10 for o in outages.values())

    @pytest.mark.parametrize("point", [(70.0, -90.0, 8), (70.0, -80.0, 8),
                                       (75.0, -90.0, 4), (75.0, -90.0, 8),
                                       (75.0, -80.0, 8), (75.0, -70.0, 8)])
    def test_high_power_rates_match_fine_trapezoid(self, fig2_references, point):
        # the highest-power points, whose mass lies furthest out in z
        ep, ref = fig2_references[0][point]
        assert ref.value == pytest.approx(avg_secrecy_rate(ep, 128).value, rel=1e-8)

    def test_integrand_calls_per_evaluation(self, fig2_references):
        # the integrator is deterministic, so the mean repeats exactly: 214
        # nodes (272 per rate, 185 per outage; 245 when the outage ran over
        # [-40, 40], 317 when it had no breakpoints in phi's tails); a
        # change that adds evaluations back fails here
        calls = fig2_references[2]
        assert len(calls) == 378
        assert sum(calls) / len(calls) <= 220

    def test_values_repeat_bit_for_bit(self, fig2_references):
        # the digest of every value's repr: the outages as the integrator
        # gave them while it called its integrand once per node and ran
        # over [-40, 40], the rates since both rate routes share one
        # integrand (14 of the 126 moved then, by at most 3.1e-16 relative)
        rates, outages, _ = fig2_references
        values = [r.value for _, r in rates.values()] + [o.value for o in outages.values()]
        digest = hashlib.sha256(repr(values).encode()).hexdigest()
        assert digest == FIG2_REFERENCE_SHA256


def c08_box_points(n):
    """n random points of the c08 box, with a target rate each."""
    rng = np.random.default_rng(7)
    for _ in range(n):
        mr, mb, me = rng.uniform(-3.0, 3.0, 3)
        sr, sb, se = rng.uniform(0.4, 2.2, 3)
        yield make_ep(mr, sr, mb, sb, me, se), float(rng.uniform(0.1, 4.0))


class TestQuadpackOracle:
    """The references' integrator against scipy's QUADPACK, an independent
    implementation, on the same integrands, limits and breakpoints: the
    references at 1e-11, QUADPACK at 1e-12."""

    @pytest.fixture
    def oracle(self, monkeypatch):
        """Run the references, then compare each integral with QUADPACK's."""
        from scipy import integrate
        own = metrics.adaptive_integrate
        seen = []

        def recording(f, a, b, rel_tol, points=()):
            est = own(f, a, b, rel_tol, points)
            seen.append((f, a, b, points, est.value))
            return est

        def compare(evaluate, rel=0.0, abs_=0.0):
            seen.clear()
            with monkeypatch.context() as mp:
                mp.setattr(metrics, "adaptive_integrate", recording)
                evaluate()
            assert seen
            for f, a, b, points, value in seen:
                want, _, _, *complaint = integrate.quad(
                    lambda x: f((x,))[0], a, b, epsabs=0.0, epsrel=1e-12,
                    limit=400, points=points, full_output=1)
                assert not complaint, complaint
                assert value == pytest.approx(want, rel=rel, abs=abs_)

        return compare

    def test_c01_rates(self, oracle):
        oracle(lambda: [avg_secrecy_rate_reference(ep, 1e-11)
                        for _, ep in grid_endpoints()], rel=1e-10)

    def test_c02_outages(self, oracle):
        oracle(lambda: [secrecy_outage_reference(ep, rs, 1e-11)
                        for _, ep in grid_endpoints() for rs in RS_GRID],
               abs_=1e-12)

    def test_c08_box(self, oracle):
        points = list(c08_box_points(200))
        oracle(lambda: [avg_secrecy_rate_reference(ep, 1e-11)
                        for ep, _ in points], rel=1e-10)
        oracle(lambda: [secrecy_outage_reference(ep, rs, 1e-11)
                        for ep, rs in points], abs_=1e-12)


class TestOutageRange:
    """The outage reference integrates over [-14, 14], or [-14, 40] when the
    mass above 14 might matter: each outage integral is the same, to the
    bit, as the one over [-40, 40] with the same breakpoints."""

    @staticmethod
    def full_range_agrees(evaluate):
        """The upper limits the outages in evaluate() used."""
        own = metrics.adaptive_integrate
        seen = []

        def recording(f, a, b, rel_tol, points=()):
            est = own(f, a, b, rel_tol, points)
            seen.append((f, a, b, rel_tol, points, est.value))
            return est

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "adaptive_integrate", recording)
            evaluate()
        assert seen and all(a == -14.0 for _, a, *_ in seen)
        for f, _, _, rel_tol, points, value in seen:
            assert own(f, -40.0, 40.0, rel_tol, points).value == value
        return {b for _, _, b, *_ in seen}

    def test_c02_and_fig2_grids(self):
        cfg = preset_run_config("paper-fig2")
        fig2 = [endpoints_for(cfg.system(p, d, n)) for p in cfg.power_grid_dbm
                for d in cfg.delta_grid_db for n in cfg.n_eve_grid]
        assert self.full_range_agrees(lambda: (
            [secrecy_outage_reference(ep, rs) for _, ep in grid_endpoints()
             for rs in RS_GRID],
            [secrecy_outage_reference(ep, rs) for ep in fig2 for rs in cfg.rs_grid])) == {14.0}

    def test_c08_box(self):
        points = list(c08_box_points(1500))
        assert self.full_range_agrees(lambda: [secrecy_outage_reference(ep, rs)
                                               for ep, rs in points]) == {14.0}

    def test_a_loose_lower_bound_keeps_the_range_to_40(self):
        # bob and the relay 12 nats up: at v = 0 they bound the outage below
        # by about 3e-30, so the range runs on to 40; the outages are 4.1e-7
        # and 2.8e-4
        assert self.full_range_agrees(lambda: [
            secrecy_outage_reference(make_ep(12.0, 1.0, 12.0, 1.0, 0.0, se), 1.0)
            for se in (2.0, 3.0)]) == {40.0}
