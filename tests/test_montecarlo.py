"""Monte-Carlo oracle: samplers, determinism, agreement with analytics."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from secrelay import (CompositeLink, ConfigurationError, EveComposite,
                      LogNormal, McEstimate, SystemConfig,
                      avg_secrecy_rate_reference, endpoints_for, link_budget,
                      mc_secrecy_metrics, preset_run_config,
                      sample_composite_snr, secrecy_outage_reference)
from secrelay import montecarlo
from secrelay.lognormal import DB_TO_NAT

XI = DB_TO_NAT


def rng_of(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestCompositeSampler:
    def test_rayleigh_limit_mean(self):
        n = 10 ** 6
        x = sample_composite_snr(CompositeLink(1.0, 0.0, 0.0), rng_of(2), n)
        assert np.all(x > 0)
        # squared envelope of Rayleigh is Exponential(1)
        assert x.mean() == pytest.approx(1.0, abs=3.0 / math.sqrt(n))
        assert np.var(x) == pytest.approx(1.0, abs=0.03)

    def test_log_mean_matches_digamma(self):
        n = 10 ** 6
        x = sample_composite_snr(CompositeLink(2.0, 0.0, 0.0), rng_of(3), n)
        logs = np.log(x)
        se = logs.std() / math.sqrt(n)
        assert logs.mean() == pytest.approx(-0.27036284546147815, abs=3 * se)

    def test_log_variance_matches_fit(self):
        n = 10 ** 6
        x = sample_composite_snr(CompositeLink(2.0, -10.0, 5.0), rng_of(4), n)
        logs = np.log(x)
        var = logs.var()
        se = math.sqrt((np.mean((logs - logs.mean()) ** 4) - var ** 2) / n)
        assert var == pytest.approx(1.9704085944678265, abs=3 * se)
        assert logs.mean() == pytest.approx(
            -0.27036284546147815 + XI * -10.0, abs=3 * logs.std() / math.sqrt(n))

    @pytest.mark.parametrize("m", [0.5, 2.0, 3.7])
    def test_bit_identical_to_allocating_formula(self, m):
        link = CompositeLink(m, -7.0, 6.0)
        got = sample_composite_snr(link, rng_of(5), 3000)
        assert got.tobytes() == allocating_composite(link, rng_of(5), 3000).tobytes()


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = SystemConfig()
        a = mc_secrecy_metrics(cfg, (), "ln_fit", 20_000, 42)[0]
        b = mc_secrecy_metrics(cfg, (), "ln_fit", 20_000, 42)[0]
        assert a == b

    def test_different_seed_differs(self):
        cfg = SystemConfig()
        a = mc_secrecy_metrics(cfg, (), "ln_fit", 20_000, 42)[0]
        b = mc_secrecy_metrics(cfg, (), "ln_fit", 20_000, 43)[0]
        assert a.mean != b.mean

    def test_composite_mode_deterministic(self):
        cfg = SystemConfig()
        a = mc_secrecy_metrics(cfg, (), "composite", 20_000, 7)[0]
        b = mc_secrecy_metrics(cfg, (), "composite", 20_000, 7)[0]
        assert a == b

    def test_numpy_sample_count_accepted(self):
        est = mc_secrecy_metrics(SystemConfig(), (2.0,), "ln_fit", np.int64(10_000), 5)
        assert est == mc_secrecy_metrics(SystemConfig(), (2.0,), "ln_fit", 10_000, 5)

    @pytest.mark.parametrize("n", [True, 999, np.int32(999), 10_000.0])
    def test_bad_sample_count_rejected(self, n):
        with pytest.raises(ConfigurationError, match="at least 1000 samples"):
            mc_secrecy_metrics(SystemConfig(), (), "ln_fit", n, 5)


class TestAgreementWithAnalytics:
    def test_ln_fit_rate_within_three_standard_errors(self):
        cfg = SystemConfig()
        ref = avg_secrecy_rate_reference(endpoints_for(cfg), 1e-9).value
        est = mc_secrecy_metrics(cfg, (), "ln_fit", 10 ** 6, 2024)[0]
        assert abs(est.mean - ref) <= 3 * est.std_error

    def test_ln_fit_outage_within_three_standard_errors(self):
        cfg = SystemConfig()
        ref = secrecy_outage_reference(endpoints_for(cfg), 2.0, 1e-10).value
        est = mc_secrecy_metrics(cfg, (2.0,), "ln_fit", 10 ** 6, 2024)[1][0]
        assert abs(est.mean - ref) <= 3 * est.std_error

    def test_composite_mode_tracks_analytic_loosely(self):
        # the log-normal fit is an approximation; measured gap ~4% on the
        # sanity preset
        cfg = SystemConfig()
        ref = avg_secrecy_rate_reference(endpoints_for(cfg), 1e-9).value
        est = mc_secrecy_metrics(cfg, (), "composite", 5 * 10 ** 5, 11)[0]
        assert abs(est.mean - ref) / ref < 0.08


class TestOutageEstimates:
    def test_unreachable_rate(self):
        cfg = SystemConfig(power_dbm=0.0)
        est = mc_secrecy_metrics(cfg, (60.0,), "ln_fit", 10_000, 1)[1][0]
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_common_randomness_makes_targets_nested(self):
        cfg = SystemConfig()
        lo = mc_secrecy_metrics(cfg, (2.0,), "ln_fit", 50_000, 99)[1][0]
        hi = mc_secrecy_metrics(cfg, (4.0,), "ln_fit", 50_000, 99)[1][0]
        assert hi.mean >= lo.mean

    def test_multi_matches_single(self):
        cfg = SystemConfig()
        _, multi = mc_secrecy_metrics(cfg, (2.0, 4.0), "ln_fit", 50_000, 99)
        _, single_lo = mc_secrecy_metrics(cfg, (2.0,), "ln_fit", 50_000, 99)
        _, single_hi = mc_secrecy_metrics(cfg, (4.0,), "ln_fit", 50_000, 99)
        assert multi == single_lo + single_hi

    def test_bounds(self):
        _, (est,) = mc_secrecy_metrics(SystemConfig(), (2.0,), "composite",
                                       10_000, 3)
        assert 0.0 <= est.mean <= 1.0


class TestStandardErrorScaling:
    def test_error_shrinks_like_root_n(self):
        cfg = SystemConfig()
        small = mc_secrecy_metrics(cfg, (), "ln_fit", 10 ** 5, 1)[0]
        large = mc_secrecy_metrics(cfg, (), "ln_fit", 4 * 10 ** 5, 1)[0]
        assert large.std_error == pytest.approx(small.std_error / 2.0, rel=0.2)


class TestValidation:
    def test_sample_floor(self):
        with pytest.raises(ConfigurationError):
            mc_secrecy_metrics(SystemConfig(), (), "ln_fit", 999, 1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            mc_secrecy_metrics(SystemConfig(), (), "magic", 10_000, 1)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            mc_secrecy_metrics(SystemConfig(), (0.0,), "ln_fit", 10_000, 1)

    def test_composite_eve_mode_samples(self):
        cfg = SystemConfig(eve_spec=EveComposite(-40.0, 5.0))
        est = mc_secrecy_metrics(cfg, (), "composite", 10_000, 1)[0]
        assert est.mean >= 0.0


def two_pass_reference(cfg, targets, mode, n, seed):
    """Rate and outages reduced in two separate passes over the blocks."""
    total = total_sq = 0.0
    for rates in montecarlo._iter_rate_blocks(cfg, mode, n, seed):
        total += float(rates.sum())
        total_sq += float((rates * rates).sum())
    counts = [0] * len(targets)
    for rates in montecarlo._iter_rate_blocks(cfg, mode, n, seed):
        for i, r in enumerate(targets):
            counts[i] += int(np.count_nonzero(rates < r))
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    rate = McEstimate(mean, math.sqrt(var / n))
    outages = [McEstimate(float(c / n), math.sqrt(c / n * (1.0 - c / n) / n))
               for c in counts]
    return rate, outages


def allocating_composite(link, rng, b):
    """A composite link's samples as one allocating expression per step."""
    g = rng.gamma(link.m, 1.0 / link.m, b)
    db = link.mean_snr_db + link.shadow_sd_db * rng.standard_normal(b)
    return g * np.exp(XI * db)


def allocating_blocks(cfg, mode, n, seed):
    """The per-block secrecy rates from allocating formulas on a twin stream."""
    rng = rng_of(seed)
    block = montecarlo._BLOCK
    for done in range(0, n, block):
        b = min(block, n - done)
        if mode == "ln_fit":
            ep = endpoints_for(cfg)
            z = rng.standard_normal((3, b))
            main = np.minimum(np.exp(ep.relay.mu + ep.relay.sigma * z[0]),
                              np.exp(ep.bob.mu + ep.bob.sigma * z[1]))
            eve = np.exp(ep.eve.mu + ep.eve.sigma * z[2])
        else:
            budget = link_budget(cfg)
            g_ar, g_rr, g_ab, g_rb = (allocating_composite(link, rng, b) for link
                                      in (budget.ar, budget.rr, budget.ab, budget.rb))
            main = np.minimum(g_ar / g_rr, g_ab + g_rb)
            eve = np.zeros(b)
            for _ in range(2 * cfg.n_eve):
                if isinstance(budget.eve, LogNormal):
                    eve += np.exp(budget.eve.mu
                                  + budget.eve.sigma * rng.standard_normal(b))
                else:
                    eve += allocating_composite(budget.eve, rng, b)
        yield np.maximum(np.log2(1.0 + main) - np.log2(1.0 + eve), 0.0)


def config_with_eve(eve):
    cfg = SystemConfig()
    if eve == "composite":
        cfg = replace(cfg, eve_spec=EveComposite(-40.0, 5.0))
    return cfg


class TestSinglePassReducer:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # several blocks per run, so the accumulation order is exercised
        monkeypatch.setattr(montecarlo, "_BLOCK", 1024)

    @pytest.mark.parametrize("mode", ["ln_fit", "composite"])
    @pytest.mark.parametrize("eve", ["direct", "composite"])
    @pytest.mark.parametrize("targets", [(), (2.0,), (0.5, 2.0, 4.0)])
    def test_bit_identical_to_public_functions(self, mode, eve, targets):
        cfg = config_with_eve(eve)
        n, seed = 4500, 17
        rate, outages = mc_secrecy_metrics(cfg, targets, mode, n, seed)
        assert len(outages) == len(targets)
        assert (rate, outages) == two_pass_reference(cfg, targets, mode, n, seed)
        # the rate does not depend on the targets, nor one target on another
        assert rate == mc_secrecy_metrics(cfg, (), mode, n, seed)[0]
        assert outages == [mc_secrecy_metrics(cfg, (r,), mode, n, seed)[1][0]
                           for r in targets]

    @pytest.mark.parametrize("mode", ["ln_fit", "composite"])
    @pytest.mark.parametrize("eve", ["direct", "composite"])
    def test_blocks_bit_identical_to_allocating_formulas(self, mode, eve):
        cfg = config_with_eve(eve)
        n, seed = 4500, 17  # four full blocks and a partial one
        # a yielded block is a view the next block overwrites, so copy it
        got = [rates.copy()
               for rates in montecarlo._iter_rate_blocks(cfg, mode, n, seed)]
        want = list(allocating_blocks(cfg, mode, n, seed))
        assert [len(rates) for rates in got] == [1024] * 4 + [404]
        assert [r.tobytes() for r in got] == [r.tobytes() for r in want]


@pytest.mark.parametrize("mode, rows", [("ln_fit", 4.5), ("composite", 6.5)])
def test_one_call_stays_within_its_block_rows(mode, rows):
    # one block of 100,000 samples: ln_fit draws into three rows, composite
    # into five, and the reducer squares the rates into one more
    cfg = preset_run_config("paper-fig2").network
    n = 100_000
    mc_secrecy_metrics(cfg, (2.0, 4.0), mode, 1000, 1)  # imports, fit caches
    tracemalloc.start()
    try:
        mc_secrecy_metrics(cfg, (2.0, 4.0), mode, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * n * 8
