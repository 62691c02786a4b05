"""Monte-Carlo oracle: samplers, determinism, agreement with analytics."""
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from secrelay import (CompositeLink, ConfigurationError, EveComposite,
                      LogNormal, McEstimate, SystemConfig,
                      avg_secrecy_rate_reference, endpoints_for, link_budget,
                      mc_secrecy_metrics, preset_run_config,
                      sample_composite_snr, secrecy_outage_reference)
from secrelay import montecarlo
from secrelay.montecarlo import mc_grid_metrics
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


def grid_points(eve):
    """Three points of one network that differ in power, delta and N_E."""
    cfg = config_with_eve(eve)
    return [replace(cfg, power_dbm=30.0, delta_db=-90.0, n_eve=1),
            cfg,
            replace(cfg, power_dbm=55.0, delta_db=-70.0, n_eve=3)]


def product_grid(eve, powers=(30.0, 55.0), deltas=(-90.0, -70.0),
                 n_eves=(1, 3)):
    """Every (power, delta, N_E) of the given values, on one network, so
    the points of one power share their main-side and Eve-side rows."""
    cfg = config_with_eve(eve)
    return [replace(cfg, power_dbm=p, delta_db=d, n_eve=k)
            for p in powers for d in deltas for k in n_eves]


def two_pass_reference(points, targets, mode, n, seed):
    """Each point's rate and outages, reduced in two separate passes."""
    scalars = montecarlo._point_scalars(points, mode)
    total = [0.0] * len(points)
    total_sq = [0.0] * len(points)
    for i, rates in montecarlo._iter_rate_slices(points[0], scalars, mode, n, seed):
        total[i] += float(rates.sum())
        total_sq[i] += float((rates * rates).sum())
    counts = [[0] * len(targets) for _ in points]
    for i, rates in montecarlo._iter_rate_slices(points[0], scalars, mode, n, seed):
        for t, r in enumerate(targets):
            counts[i][t] += int(np.count_nonzero(rates < r))
    out = []
    for i in range(len(points)):
        mean = total[i] / n
        var = max(total_sq[i] / n - mean * mean, 0.0) * n / (n - 1)
        rate = McEstimate(mean, math.sqrt(var / n))
        outages = [McEstimate(c / n, math.sqrt(c / n * (1.0 - c / n) / n))
                   for c in counts[i]]
        out.append((rate, outages))
    return out


def allocating_composite(link, rng, b):
    """A composite link's samples as one allocating expression per step."""
    g = rng.gamma(link.m, 1.0 / link.m, b)
    db = link.mean_snr_db + link.shadow_sd_db * rng.standard_normal(b)
    return g * np.exp(XI * db)


def allocating_rates(points, mode, n, seed):
    """Each point's secrecy rates from allocating formulas on twin substreams."""
    def stream(j):
        return np.random.Generator(np.random.Philox(key=seed).jumped(j))

    def draw(link, rng, b):
        if isinstance(link, LogNormal):
            return np.exp(link.mu + link.sigma * rng.standard_normal(b))
        return allocating_composite(link, rng, b)

    def blocks(fill):
        # a substream fills every block in turn, as the reducer draws them
        return np.concatenate([fill(min(montecarlo._BLOCK, n - done))
                               for done in range(0, n, montecarlo._BLOCK)])

    if mode == "ln_fit":
        z = [blocks(stream(j).standard_normal) for j in (1, 2, 3)]
        for cfg in points:
            ep = endpoints_for(cfg)
            # exp is increasing, so the min may be taken on the exponents
            main = np.exp(np.minimum(ep.relay.mu + ep.relay.sigma * z[0],
                                     ep.bob.mu + ep.bob.sigma * z[1]))
            eve = np.exp(ep.eve.mu + ep.eve.sigma * z[2])
            yield np.maximum(np.log2(1.0 + main) - np.log2(1.0 + eve), 0.0)
        return
    # every link at 0 dBm and 0 dB isolation; Eve's branch i on substream 8 + i
    unit = link_budget(replace(points[0], power_dbm=0.0, delta_db=0.0))
    ar, rr, ab, rb = (blocks(partial(draw, link, stream(j))) for link, j in
                      zip((unit.ar, unit.rr, unit.ab, unit.rb), (4, 5, 6, 7)))
    branches = [blocks(partial(draw, unit.eve, stream(8 + i)))
                for i in range(2 * max(cfg.n_eve for cfg in points))]
    for cfg in points:
        power = math.exp(XI * cfg.power_dbm)
        relay = ar / rr * math.exp(XI * -cfg.delta_db)
        bob = (ab + rb) * power
        eve = sum(branches[:2 * cfg.n_eve])
        if isinstance(cfg.eve_spec, EveComposite):
            eve = eve * power
        main = np.minimum(relay, bob)
        yield np.maximum(np.log2(1.0 + main) - np.log2(1.0 + eve), 0.0)


def config_with_eve(eve):
    cfg = SystemConfig()
    if eve == "composite":
        cfg = replace(cfg, eve_spec=EveComposite(-40.0, 5.0))
    return cfg


class TestSinglePassReducer:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # several blocks per run and several slices per block, so the
        # accumulation order and the partial slice are exercised
        monkeypatch.setattr(montecarlo, "_BLOCK", 1024)
        monkeypatch.setattr(montecarlo, "_SLICE", 384)

    @pytest.mark.parametrize("mode", ["ln_fit", "composite"])
    @pytest.mark.parametrize("eve", ["direct", "composite"])
    @pytest.mark.parametrize("targets", [(), (2.0,), (0.5, 2.0, 4.0)])
    def test_one_pass_equals_two_passes(self, mode, eve, targets):
        points = grid_points(eve)
        n, seed = 4500, 17
        got = mc_grid_metrics(points, targets, mode, n, seed)
        assert [len(outages) for _, outages in got] == [len(targets)] * 3
        assert got == two_pass_reference(points, targets, mode, n, seed)
        # the rate does not depend on the targets, nor one target on another
        rates = [rate for rate, _ in mc_grid_metrics(points, (), mode, n, seed)]
        assert [rate for rate, _ in got] == rates
        for t, r in enumerate(targets):
            alone = mc_grid_metrics(points, (r,), mode, n, seed)
            assert [outages[t] for _, outages in got] == [o[0] for _, o in alone]

    @pytest.mark.parametrize("mode", ["ln_fit", "composite"])
    @pytest.mark.parametrize("eve", ["direct", "composite"])
    def test_slices_bit_identical_to_allocating_formulas(self, mode, eve):
        n, seed = 4500, 17  # four full blocks and a partial one
        # three points that share no row, and a product grid whose points
        # of one power share their main-side and Eve-side rows
        for points in (grid_points(eve), product_grid(eve)):
            scalars = montecarlo._point_scalars(points, mode)
            got = [[] for _ in points]
            # a yielded slice is a view the next slice overwrites, so copy it
            for i, rates in montecarlo._iter_rate_slices(points[0], scalars,
                                                         mode, n, seed):
                got[i].append(rates.copy())
            assert [len(r) for r in got[0]] == [384, 384, 256] * 4 + [384, 20]
            want = list(allocating_rates(points, mode, n, seed))
            assert [np.concatenate(r).tobytes() for r in got] == [
                r.tobytes() for r in want]

    @pytest.mark.parametrize("mode", ["ln_fit", "composite"])
    @pytest.mark.parametrize("eve", ["direct", "composite"])
    def test_each_power_shares_its_capacity_rows(self, mode, eve, monkeypatch):
        # 2 P x 3 delta x 3 N_E: per slice and power, 3 main-side rows and
        # 3 Eve-side rows, not one of each per point; a direct Eve's rows do
        # not depend on the power, so both powers share them
        points = product_grid(eve, deltas=(-90.0, -80.0, -70.0), n_eves=(1, 2, 3))
        calls = {"main": 0, "eve": 0}

        def counted(side, fn):
            def wrapper(*args):
                calls[side] += 1
                return fn(*args)
            return wrapper

        want = mc_grid_metrics(points, (2.0,), mode, 4500, 17)
        monkeypatch.setattr(montecarlo, "_main_capacity",
                            counted("main", montecarlo._main_capacity))
        monkeypatch.setattr(montecarlo, "_eve_capacity",
                            counted("eve", montecarlo._eve_capacity))
        assert mc_grid_metrics(points, (2.0,), mode, 4500, 17) == want
        slices = 4 * 3 + 2  # four full blocks of three slices, then two
        eve_rows = slices * 3 if eve == "direct" else slices * 2 * 3
        assert calls == {"main": slices * 2 * 3, "eve": eve_rows}


class TestGridCall:
    @pytest.mark.parametrize("mode", ["ln_fit", "composite"])
    @pytest.mark.parametrize("eve", ["direct", "composite"])
    def test_each_point_equals_its_one_point_call(self, mode, eve, monkeypatch):
        # several blocks and slices, as in TestSinglePassReducer
        monkeypatch.setattr(montecarlo, "_BLOCK", 1024)
        monkeypatch.setattr(montecarlo, "_SLICE", 384)
        # a one-point call shares no row, so shared rows must change no bit
        for points in (grid_points(eve), product_grid(eve)):
            got = mc_grid_metrics(points, (2.0, 4.0), mode, 3000, 5)
            assert got == [mc_secrecy_metrics(cfg, (2.0, 4.0), mode, 3000, 5)
                           for cfg in points]
            # the order of the points does not matter either
            assert mc_grid_metrics(points[::-1], (2.0, 4.0), mode, 3000,
                                   5) == got[::-1]

    @pytest.mark.parametrize("mode, power, cause", [
        ("ln_fit", 2000.0, "cumulants of LogNormal("),
        ("composite", 3500.0, "Monte-Carlo draws overflow")])
    def test_a_failing_point_leaves_the_others(self, mode, power, cause):
        cfg = SystemConfig()
        ok, bad = mc_grid_metrics([cfg, replace(cfg, power_dbm=power)], (2.0,),
                                  mode, 2000, 3)
        assert ok == mc_secrecy_metrics(cfg, (2.0,), mode, 2000, 3)
        assert isinstance(bad, OverflowError) and str(bad).startswith(cause)

    def test_points_of_different_networks_rejected(self):
        with pytest.raises(ValueError, match="share one network"):
            mc_grid_metrics([SystemConfig(), SystemConfig(nakagami_m=3.0)], (),
                            "composite", 2000, 1)

    def test_no_points_no_results(self):
        assert mc_grid_metrics([], (2.0,), "composite", 2000, 1) == []


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


@pytest.mark.parametrize("mode, rows", [("ln_fit", 4.5), ("composite", 8.5)])
def test_a_paper_grid_call_stays_within_its_block_rows(mode, rows):
    # the 126 paper-fig2 points in one call add one power's shared capacity
    # rows, (3 delta + 3 N_E) slices, and composite two more Eve bank rows
    # (N_E = 2, 4, 8); holding every power's rows at once (84 slices, about
    # 6.9 block rows) would break either bound
    run = preset_run_config("paper-fig2")
    points = [run.system(p, d, k) for p in run.power_grid_dbm
              for d in run.delta_grid_db for k in run.n_eve_grid]
    assert len(points) == 126
    n = 100_000
    mc_grid_metrics(points, (2.0, 4.0), mode, 1000, 1)  # imports, fit caches
    tracemalloc.start()
    try:
        mc_grid_metrics(points, (2.0, 4.0), mode, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * n * 8
