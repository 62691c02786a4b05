"""Link budgets and endpoint distributions."""
import math
from dataclasses import replace

import pytest

from secrelay import (ConfigurationError, EveComposite, EveDirect, LogNormal,
                      SystemConfig, cumulants, endpoints_for, from_composite,
                      from_cumulants, link_budget, ratio, sum_lognormals)
from secrelay.lognormal import DB_TO_NAT

XI = DB_TO_NAT


def test_geometry_path_gains():
    budget = link_budget(SystemConfig())
    assert budget.ar.mean_snr_db == pytest.approx(40.0 - 40.0 * math.log10(15.0))
    assert budget.rb.mean_snr_db == pytest.approx(40.0 - 40.0 * math.log10(15.0))
    assert budget.ab.mean_snr_db == pytest.approx(40.0 - 40.0 * math.log10(30.0))


def test_self_interference_budget_has_no_path_loss():
    cfg = SystemConfig(power_dbm=20.0)
    budget = link_budget(cfg)
    assert budget.rr.mean_snr_db == pytest.approx(20.0 - 80.0)


def test_sanity_preset_fitted_relay_input_link():
    budget = link_budget(SystemConfig())
    gamma_ar = from_composite(budget.ar)
    # psi(2) - ln 2 + xi (40 dBm - path loss at 15 m)
    assert gamma_ar.mu == pytest.approx(-1.8922232778941368, abs=1e-12)
    sigma = math.sqrt(0.6449340668482266 + (XI * 10.0) ** 2)
    assert gamma_ar.sigma == pytest.approx(sigma, abs=1e-12)
    assert budget.eve == LogNormal(0.21, 0.76)


def test_endpoint_ratio_rule():
    cfg = SystemConfig()
    budget = link_budget(cfg)
    gamma_ar, gamma_rr = from_composite(budget.ar), from_composite(budget.rr)
    ep = endpoints_for(cfg)
    assert ep.relay == ratio(gamma_ar, gamma_rr)
    assert ep.relay.mu == gamma_ar.mu - gamma_rr.mu
    assert ep.relay.sigma == pytest.approx(math.hypot(gamma_ar.sigma, gamma_rr.sigma),
                                           rel=1e-15)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("field", [
    "d_ab_m", "relay_fraction", "path_loss_exponent", "nakagami_m",
    "shadow_sd_db", "power_dbm", "delta_db"])
def test_non_finite_values_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        SystemConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        SystemConfig(**{field: -value})


@pytest.mark.parametrize("eve_spec", [EveDirect(), EveComposite(-40.0)],
                         ids=["direct", "composite"])
def test_endpoints_fold_the_fitted_budget_links(eve_spec):
    cfg = SystemConfig(n_eve=4, eve_spec=eve_spec)
    budget = link_budget(cfg)

    def fit(link):
        if isinstance(link, LogNormal):
            return link
        return from_composite(link)

    ep = endpoints_for(cfg)
    assert ep.bob == sum_lognormals([from_composite(budget.ab),
                                     from_composite(budget.rb)])
    # bit-identical to folding one copy of the link per source
    per_antenna = cumulants(fit(budget.eve)) + cumulants(fit(budget.eve))
    assert ep.eve == from_cumulants(per_antenna.scaled(4))


def test_endpoint_eve_mrc_fold():
    ep = endpoints_for(SystemConfig(n_eve=4, eve_spec=EveDirect(0.0, 1.0)))
    # cumulants (8 k1, 8 k2) of a unit log-normal, refitted; cross-checked
    # against a direct simulation of the eight-term sum
    assert ep.eve.mu == pytest.approx(2.48215789440583, abs=1e-12)
    assert ep.eve.sigma == pytest.approx(0.4410978287727244, abs=1e-12)


def test_worse_cancellation_only_hits_the_relay():
    base = SystemConfig()
    ep = endpoints_for(base)
    worse = endpoints_for(replace(base, delta_db=-70.0))
    assert worse.relay.mu < ep.relay.mu
    assert worse.relay.sigma == ep.relay.sigma
    assert worse.bob == ep.bob
    assert worse.eve == ep.eve


def test_more_antennas_scale_eve_mean_linearly():
    base = SystemConfig()
    k1_2 = cumulants(endpoints_for(base).eve).k1
    k1_8 = cumulants(endpoints_for(replace(base, n_eve=8)).eve).k1
    assert k1_8 / k1_2 == pytest.approx(4.0, rel=1e-12)


def test_symmetric_placement_matches_links():
    budget = link_budget(SystemConfig())
    assert from_composite(budget.ar) == from_composite(budget.rb)


def test_budget_additivity():
    base = SystemConfig()
    shift = 7.0
    shifted_cfg = replace(
        base, power_dbm=base.power_dbm + shift, eve_spec=EveComposite(-40.0, 5.0))
    unshifted_cfg = replace(base, eve_spec=EveComposite(-40.0, 5.0))
    for a, b in zip(link_budget(shifted_cfg).__dict__.values(),
                    link_budget(unshifted_cfg).__dict__.values()):
        a, b = from_composite(a), from_composite(b)
        assert a.mu == pytest.approx(b.mu + XI * shift, rel=1e-12)
        assert a.sigma == b.sigma


def test_legit_links_share_the_config_shape_and_shadowing():
    cfg = SystemConfig(nakagami_m=1.0, shadow_sd_db=3.0,
                       eve_spec=EveComposite(-40.0, 5.0))
    budget = link_budget(cfg)
    for link in (budget.ar, budget.rr, budget.ab, budget.rb):
        assert link.m == 1.0
        assert link.shadow_sd_db == 3.0
    assert budget.eve.m == 1.0
    assert budget.eve.shadow_sd_db == 5.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SystemConfig(d_ab_m=0.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(relay_fraction=1.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(delta_db=5.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(n_eve=0)
    with pytest.raises(ConfigurationError, match="n_eve"):
        SystemConfig(n_eve=True)  # a bool is an int, but no antenna count
    with pytest.raises(ConfigurationError):
        SystemConfig(nakagami_m=0.3)
    with pytest.raises(ConfigurationError):
        SystemConfig(eve_spec="composite")
    with pytest.raises(ConfigurationError):
        SystemConfig(eve_spec=EveDirect(0.2, -1.0))


@pytest.mark.parametrize("eve_spec", [
    EveDirect(math.nan, 1.0), EveDirect(0.2, -1.0), EveDirect(0.2, 0.0),
    EveDirect(0.2, math.inf), EveComposite(math.inf, 5.0),
    EveComposite(-40.0, -5.0), EveComposite(-40.0, math.nan),
], ids=["direct-mu-nan", "direct-sigma-negative", "direct-sigma-zero",
        "direct-sigma-inf", "composite-gain-inf", "composite-sd-negative", "composite-sd-nan"])
def test_eve_spec_range_checks(eve_spec):
    with pytest.raises(ConfigurationError):
        SystemConfig(eve_spec=eve_spec)


def test_eve_zero_spread_stays_legal():
    # without shadowing the Gamma fading still spreads a composite link
    cfg = SystemConfig(eve_spec=EveComposite(-40.0, 0.0))
    assert endpoints_for(cfg).eve.sigma > 0.0


def test_eve_direct_requires_no_budget():
    ep1 = endpoints_for(SystemConfig())
    ep2 = endpoints_for(SystemConfig(power_dbm=50.0))
    assert ep1.eve == ep2.eve  # direct spec is power-independent
    assert ep2.bob.mu > ep1.bob.mu
