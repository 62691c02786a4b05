"""Link budgets and endpoint distributions."""
import math
from dataclasses import replace

import pytest

from secrelay import (ConfigurationError, EveComposite, LogNormal,
                      SystemConfig, build_links, cumulants,
                      endpoint_distributions, endpoints_for, link_budget,
                      sanity_preset)
from secrelay.channel import LinkSet
from secrelay.lognormal import DB_TO_NAT

XI = DB_TO_NAT


def test_geometry_path_gains():
    budget = link_budget(sanity_preset())
    assert budget.ar.mean_snr_db == pytest.approx(40.0 - 40.0 * math.log10(15.0))
    assert budget.rb.mean_snr_db == pytest.approx(40.0 - 40.0 * math.log10(15.0))
    assert budget.ab.mean_snr_db == pytest.approx(40.0 - 40.0 * math.log10(30.0))


def test_self_interference_budget_has_no_path_loss():
    cfg = replace(sanity_preset(), power_r_dbm=20.0, power_a_dbm=20.0)
    budget = link_budget(cfg)
    assert budget.rr.mean_snr_db == pytest.approx(20.0 - 80.0)


def test_sanity_preset_fitted_relay_input_link():
    links = build_links(sanity_preset())
    # psi(2) - ln 2 + xi (40 dBm - path loss at 15 m)
    assert links.gamma_ar.mu == pytest.approx(-1.8922232778941368, abs=1e-12)
    sigma = math.sqrt(0.6449340668482266 + (XI * 10.0) ** 2)
    assert links.gamma_ar.sigma == pytest.approx(sigma, abs=1e-12)
    assert links.gamma_ae == LogNormal(0.21, 0.76)
    assert links.gamma_re == LogNormal(0.21, 0.76)


def test_endpoint_ratio_rule():
    links = LinkSet(gamma_ar=LogNormal(1.0, 1.0), gamma_rr=LogNormal(-2.0, 0.5),
                    gamma_ab=LogNormal(0.0, 1.0), gamma_rb=LogNormal(0.0, 1.0),
                    gamma_ae=LogNormal(0.0, 1.0), gamma_re=LogNormal(0.0, 1.0))
    ep = endpoint_distributions(links, 1)
    assert ep.relay.mu == 3.0
    assert ep.relay.sigma == pytest.approx(math.sqrt(1.25), rel=1e-15)


def test_endpoint_eve_point_masses():
    links = LinkSet(gamma_ar=LogNormal(1.0, 1.0), gamma_rr=LogNormal(-2.0, 0.5),
                    gamma_ab=LogNormal(0.0, 1.0), gamma_rb=LogNormal(0.0, 1.0),
                    gamma_ae=LogNormal(0.0, 0.0), gamma_re=LogNormal(0.0, 0.0))
    ep = endpoint_distributions(links, 1)
    assert ep.eve.mu == pytest.approx(math.log(2.0), rel=1e-14)
    assert ep.eve.sigma == 0.0


def test_endpoint_eve_mrc_fold():
    links = LinkSet(gamma_ar=LogNormal(1.0, 1.0), gamma_rr=LogNormal(-2.0, 0.5),
                    gamma_ab=LogNormal(0.0, 1.0), gamma_rb=LogNormal(0.0, 1.0),
                    gamma_ae=LogNormal(0.0, 1.0), gamma_re=LogNormal(0.0, 1.0))
    ep = endpoint_distributions(links, 4)
    # cumulants (8 k1, 8 k2) of a unit log-normal, refitted; cross-checked
    # against a direct simulation of the eight-term sum
    assert ep.eve.mu == pytest.approx(2.48215789440583, abs=1e-12)
    assert ep.eve.sigma == pytest.approx(0.4410978287727244, abs=1e-12)


def test_worse_cancellation_only_hits_the_relay():
    base = sanity_preset()
    ep = endpoints_for(base)
    worse = endpoints_for(replace(base, delta_db=-70.0))
    assert worse.relay.mu < ep.relay.mu
    assert worse.relay.sigma == ep.relay.sigma
    assert worse.bob == ep.bob
    assert worse.eve == ep.eve


def test_more_antennas_scale_eve_mean_linearly():
    base = sanity_preset()
    k1_2 = cumulants(endpoints_for(base).eve).k1
    k1_8 = cumulants(endpoints_for(replace(base, n_eve=8)).eve).k1
    assert k1_8 / k1_2 == pytest.approx(4.0, rel=1e-12)


def test_symmetric_placement_matches_links():
    links = build_links(sanity_preset())
    assert links.gamma_ar == links.gamma_rb


def test_budget_additivity():
    base = sanity_preset()
    shift = 7.0
    shifted_cfg = replace(
        base, power_a_dbm=base.power_a_dbm + shift,
        power_r_dbm=base.power_r_dbm + shift,
        eve_spec=EveComposite(-40.0, 5.0))
    unshifted_cfg = replace(base, eve_spec=EveComposite(-40.0, 5.0))
    for a, b in zip(build_links(shifted_cfg).__dict__.values(),
                    build_links(unshifted_cfg).__dict__.values()):
        assert a.mu == pytest.approx(b.mu + XI * shift, rel=1e-12)
        assert a.sigma == b.sigma


def test_composite_eve_links_follow_each_source_power():
    cfg = replace(sanity_preset(), power_a_dbm=30.0, power_r_dbm=20.0,
                  eve_spec=EveComposite(-40.0, 5.0))
    budget = link_budget(cfg)
    assert budget.eve_a.mean_snr_db == pytest.approx(-10.0)
    assert budget.eve_r.mean_snr_db == pytest.approx(-20.0)


def test_legit_links_share_the_config_shape_and_shadowing():
    cfg = replace(sanity_preset(), nakagami_m=1.0, shadow_sd_db=3.0,
                  eve_spec=EveComposite(-40.0, 5.0))
    budget = link_budget(cfg)
    for link in (budget.ar, budget.rr, budget.ab, budget.rb):
        assert link.m == 1.0
        assert link.shadow_sd_db == 3.0
    for link in (budget.eve_a, budget.eve_r):
        assert link.m == 1.0
        assert link.shadow_sd_db == 5.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SystemConfig(d_ab_m=0.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(relay_fraction=1.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(delta_db=5.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(n_eve=0)
    with pytest.raises(ConfigurationError):
        SystemConfig(nakagami_m=0.3)


def test_eve_direct_requires_no_budget():
    ep1 = endpoints_for(sanity_preset())
    ep2 = endpoints_for(replace(sanity_preset(), power_a_dbm=50.0,
                                power_r_dbm=50.0))
    assert ep1.eve == ep2.eve  # direct spec is power-independent
    assert ep2.bob.mu > ep1.bob.mu
