"""Link budgets and endpoint distributions."""
import math
from dataclasses import replace

import pytest

from secrelay import (ConfigurationError, EveComposite, LogNormal, RunConfig,
                      SystemConfig, channel, cumulants, endpoints_for,
                      from_composite, from_cumulants, link_budget,
                      preset_run_config, ratio, sum_lognormals)
from secrelay.lognormal import DB_TO_NAT

XI = DB_TO_NAT
# a grid whose points reach the endpoint fits' edges: the fit overflows at
# 2000 and 3000 dBm, the relay is all but free of self-interference at
# delta = -1e300 dB, and Eve folds 2e6 branches
EDGE_POWERS = (10.0, 300.0, 1500.0, 2000.0, 3000.0)
EDGE_DELTAS = (-1e300, -80.0, 0.0)
EDGE_N_EVES = (1, 2, 1_000_000)


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


@pytest.mark.parametrize("eve_spec", [LogNormal(0.21, 0.76), EveComposite(-40.0)],
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
    ep = endpoints_for(SystemConfig(n_eve=4, eve_spec=LogNormal(0.0, 1.0)))
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


@pytest.mark.parametrize("eve_spec", [
    LogNormal(0.2, 0.0), EveComposite(math.inf, 5.0),
    EveComposite(-40.0, -5.0), EveComposite(-40.0, math.nan),
], ids=["direct-sigma-zero", "composite-gain-inf", "composite-sd-negative",
        "composite-sd-nan"])
def test_eve_spec_range_checks(eve_spec):
    # a LogNormal rejects a non-finite mu or sigma and a negative sigma itself
    with pytest.raises(ConfigurationError):
        SystemConfig(eve_spec=eve_spec)


def test_link_budget_passes_a_direct_eve_through():
    spec = LogNormal(0.3, 0.9)
    assert link_budget(SystemConfig(eve_spec=spec)).eve is spec


def test_eve_zero_spread_stays_legal():
    # without shadowing the Gamma fading still spreads a composite link
    cfg = SystemConfig(eve_spec=EveComposite(-40.0, 0.0))
    assert endpoints_for(cfg).eve.sigma > 0.0


def test_eve_direct_requires_no_budget():
    ep1 = endpoints_for(SystemConfig())
    ep2 = endpoints_for(SystemConfig(power_dbm=50.0))
    assert ep1.eve == ep2.eve  # direct spec is power-independent
    assert ep2.bob.mu > ep1.bob.mu


def one_point_fit(cfg):
    """The endpoints of one point, or the type and message of its error."""
    try:
        return repr(endpoints_for(cfg))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def grid_fit(network, points):
    return [(type(ep), str(ep)) if isinstance(ep, Exception) else repr(ep)
            for ep in channel._grid_endpoints(network, points)]


def test_grid_fit_equals_one_point_fits_on_fig2():
    cfg = preset_run_config("paper-fig2")
    points = [(p, d, n) for p in cfg.power_grid_dbm for d in cfg.delta_grid_db
              for n in cfg.n_eve_grid]
    # repr tells every bit of a float apart, the sign of a zero included
    assert grid_fit(cfg.network, points) == [
        one_point_fit(cfg.system(*point)) for point in points]


@pytest.mark.parametrize("eve", [EveComposite(-40.0, 5.0), LogNormal(0.21, 0.76)],
                         ids=["composite-eve", "direct-eve"])
def test_grid_fit_equals_one_point_fits_at_the_edges(eve):
    cfg = RunConfig(power_grid_dbm=EDGE_POWERS, delta_grid_db=EDGE_DELTAS,
                    n_eve_grid=EDGE_N_EVES, rs_grid=(0.5, 2.0),
                    network=SystemConfig(eve_spec=eve))
    points = [(p, d, n) for p in EDGE_POWERS for d in EDGE_DELTAS
              for n in EDGE_N_EVES]
    got = grid_fit(cfg.network, points)
    assert got == [one_point_fit(cfg.system(*point)) for point in points]
    # every point past 1500 dBm fails alike, with the error it fails with alone
    failed = [fit for fit in got if isinstance(fit, tuple)]
    assert len(failed) == 2 * 9
    assert {kind for kind, _ in failed} == {OverflowError}
    # the points of one grid need not come in grid order, nor start at the
    # network's own point
    assert grid_fit(cfg.network, points[::-1]) == got[::-1]
