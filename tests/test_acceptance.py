"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criteria 1 and 2 are asserted exactly as specified: the order-24 estimators
(log-domain trapezoid rules) against the adaptive reference at 1e-6
relative / 1e-8 absolute.  The reference is independently confirmed by
Monte-Carlo (criterion 4).  The paper's Gauss-Laguerre rate form does not
reach criterion 1 at order 24; tests/paper_forms.py holds it, and its
measured envelope is asserted in tests/test_metrics.py.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from paper_forms import cdf_form_rate, per_panel
from secrelay import (Endpoints, LogNormal, RunConfig, SweepSpec,
                      SystemConfig, avg_secrecy_rate,
                      avg_secrecy_rate_reference, cumulants, endpoints_for,
                      from_cumulants, mc_secrecy_metrics, min_snr_cdf,
                      run_sweep, sample_composite_snr, secrecy_outage,
                      secrecy_outage_reference)
from secrelay.lognormal import CompositeLink
from secrelay.sweep import preset_run_config, sweep_rows

MU_GRID = (-4.0, -1.0, 1.0, 4.0)
SIGMA_GRID = (0.5, 1.0, 1.5, 2.0)
RS_GRID = (0.5, 2.0, 4.0)
ORDER = 24


def grid_endpoints():
    """4x4x4 grid: one (mu, sigma) pair per endpoint, paired by index."""
    for i in range(4):
        for j in range(4):
            for k in range(4):
                yield (i, j, k), Endpoints(
                    relay=LogNormal(MU_GRID[i], SIGMA_GRID[i]),
                    bob=LogNormal(MU_GRID[j], SIGMA_GRID[j]),
                    eve=LogNormal(MU_GRID[k], SIGMA_GRID[k]))


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:>2} {'PASS' if passed else 'FAIL'}  {name}: {detail}")


def test_c01_quadrature_fidelity_rate():
    t0 = time.time()
    worst = 0.0
    worst_at = None
    beyond = 0
    for idx, ep in grid_endpoints():
        ref = avg_secrecy_rate_reference(ep, 1e-9).value
        q = avg_secrecy_rate(ep, ORDER).value
        rel = abs(q - ref) / abs(ref)
        if rel > 1e-6:
            beyond += 1
        if rel > worst:
            worst, worst_at = rel, idx
    elapsed = time.time() - t0
    passed = worst <= 1e-6 and elapsed <= 10.0
    report(1, "quadrature fidelity (rate)", passed,
           f"worst rel dev {worst:.3e} at grid {worst_at}, "
           f"{beyond}/64 points beyond 1e-6, {elapsed:.2f}s")
    assert elapsed <= 10.0
    assert worst <= 1e-6, (
        f"order-24 rate quadrature deviates {worst:.3e} relative from the "
        f"adaptive reference ({beyond}/64 grid points beyond 1e-6); the "
        f"reference itself is Monte-Carlo-confirmed, so the deviation is the "
        f"estimator's: check its window and node spacing")


def test_c02_quadrature_fidelity_outage():
    t0 = time.time()
    worst = 0.0
    worst_at = None
    beyond = 0
    for idx, ep in grid_endpoints():
        for rs in RS_GRID:
            ref = secrecy_outage_reference(ep, rs, 1e-10).value
            q = secrecy_outage(ep, rs, ORDER).value
            dev = abs(q - ref)
            if dev > 1e-8:
                beyond += 1
            if dev > worst:
                worst, worst_at = dev, (idx, rs)
    elapsed = time.time() - t0
    passed = worst <= 1e-8 and elapsed <= 10.0
    report(2, "quadrature fidelity (outage)", passed,
           f"worst abs dev {worst:.3e} at {worst_at}, "
           f"{beyond}/192 points beyond 1e-8, {elapsed:.2f}s")
    assert elapsed <= 10.0
    assert worst <= 1e-8, (
        f"order-24 outage quadrature deviates {worst:.3e} absolute from the "
        f"adaptive reference ({beyond}/192 points beyond 1e-8)")


def test_c03_integrand_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    checked_misprint = False
    for _ in range(20):
        mr, mb, me = rng.uniform(-3.0, 3.0, 3)
        sr, sb, se = rng.uniform(0.5, 2.0, 3)
        ep = Endpoints(LogNormal(mr, sr), LogNormal(mb, sb), LogNormal(me, se))
        a = cdf_form_rate(ep, 1e-12)
        b = avg_secrecy_rate_reference(ep, 1e-12).value
        worst = max(worst, abs(a - b) / abs(a))
        # the closed integrand only matches when Bob's factor carries Bob's
        # spread; scaling it by the eavesdropper's spread instead breaks the
        # equivalence
        if not checked_misprint and abs(sb - se) > 0.3:
            from secrelay.metrics import adaptive_integrate
            sqrt2 = math.sqrt(2.0)

            def misprinted(z):
                if z <= 0.0:
                    return 0.0
                lz = math.log(z)
                return (math.erfc((me - lz) / (sqrt2 * se))
                        * math.erfc((-mb + lz) / (sqrt2 * se))
                        * math.erfc((-mr + lz) / (sqrt2 * sr))) / (8.0 * (1.0 + z))

            wrong = adaptive_integrate(per_panel(misprinted), 0.0, math.inf,
                                       1e-10).value / math.log(2.0)
            assert abs(wrong - a) / abs(a) > 1e-6
            checked_misprint = True
    passed = worst <= 1e-10
    report(3, "integrand-form equivalence", passed,
           f"worst rel dev {worst:.3e} over 20 random parameter sets")
    assert checked_misprint
    assert worst <= 1e-10


def test_c04_mc_analytic_agreement():
    t0 = time.time()
    cfg = SystemConfig()
    ep = endpoints_for(cfg)
    rate_ref = avg_secrecy_rate_reference(ep, 1e-9).value
    outage_ref = secrecy_outage_reference(ep, 2.0, 1e-10).value
    n = 10 ** 6
    rate_hits = 0
    outage_hits = 0
    seeds = range(30)
    for seed in seeds:
        est, (oest,) = mc_secrecy_metrics(cfg, (2.0,), "ln_fit", n, seed)
        if abs(est.mean - rate_ref) <= 3.0 * est.std_error:
            rate_hits += 1
        if abs(oest.mean - outage_ref) <= 3.0 * oest.std_error:
            outage_hits += 1
    elapsed = time.time() - t0
    passed = rate_hits >= 29 and outage_hits >= 29 and elapsed <= 120.0
    report(4, "mc-ln vs analytic", passed,
           f"rate {rate_hits}/30, outage {outage_hits}/30 seeds inside "
           f"3 standard errors, {elapsed:.1f}s")
    assert rate_hits >= 29
    assert outage_hits >= 29
    assert elapsed <= 120.0


def test_c05_lognormal_approximation_quality():
    cfg = SystemConfig()
    ep = endpoints_for(cfg)
    seed = 20250809
    n = 2 * 10 ** 6
    rate_ref = avg_secrecy_rate_reference(ep, 1e-9).value
    rs_scan = (0.02, 0.05, 0.1, 0.25, 0.5, 2.0, 4.0)
    est, ests = mc_secrecy_metrics(cfg, rs_scan, "composite", n, seed)
    rate_gap = abs(est.mean - rate_ref) / rate_ref

    in_range = 0
    worst_gap = 0.0
    for rs, oest in zip(rs_scan, ests):
        ref = secrecy_outage_reference(ep, rs, 1e-10).value
        if 0.05 <= ref <= 0.95:
            in_range += 1
            worst_gap = max(worst_gap, abs(oest.mean - ref))
    passed = rate_gap <= 0.05 and in_range >= 1 and worst_gap <= 0.02
    report(5, "composite vs analytic", passed,
           f"rate gap {rate_gap:.2%} (<=5%), worst in-range outage gap "
           f"{worst_gap:.4f} (<=0.02) over {in_range} in-range targets")
    assert rate_gap <= 0.05
    assert in_range >= 1, "no outage target landed in the 0.05-0.95 band"
    assert worst_gap <= 0.02


def test_c06_self_interference_doubling():
    cfg = preset_run_config("paper-fig2")
    rows = sweep_rows(SweepSpec(base=cfg, metrics=("rate",),
                                methods=("analytic",)))
    by = {(r.power_dbm, r.delta_db, r.n_eve): r.value for r in rows}
    ratios = {p: by[(p, -90.0, 2)] / by[(p, -80.0, 2)]
              for p in cfg.power_grid_dbm}
    best_p, best = max(ratios.items(), key=lambda kv: kv[1])
    passed = 1.6 <= best <= 2.5
    report(6, "self-interference doubling", passed,
           f"max rate(-90 dB)/rate(-80 dB) = {best:.3f} at P = {best_p:g} dBm")
    assert 1.6 <= best <= 2.5


def test_c07_eavesdropper_antenna_trend():
    cfg = preset_run_config("paper-fig2")
    rows = sweep_rows(SweepSpec(base=cfg, metrics=("rate",),
                                methods=("analytic",)))
    by = {(r.power_dbm, r.delta_db, r.n_eve): r.value for r in rows}
    strict = all(by[(p, d, 2)] > by[(p, d, 4)] > by[(p, d, 8)]
                 for p in cfg.power_grid_dbm for d in cfg.delta_grid_db)
    top = max(cfg.power_grid_dbm)
    positive = all(by[(top, d, ne)] > 0.0
                   for d in cfg.delta_grid_db for ne in (2, 4, 8))
    report(7, "eavesdropper antenna trend", strict and positive,
           f"strictly decreasing in antennas at all "
           f"{len(cfg.power_grid_dbm) * len(cfg.delta_grid_db)} grid points; "
           f"positive at P = {top:g} dBm")
    assert strict
    assert positive


def test_c08_estimator_monotonicity_sweep():
    rng = np.random.default_rng(8)
    violations = 0
    n_points = 1000
    for _ in range(n_points):
        mr, mb, me = rng.uniform(-3.0, 3.0, 3)
        sr, sb, se = rng.uniform(0.4, 2.2, 3)
        rs = float(rng.uniform(0.1, 4.0))
        step = float(rng.uniform(0.05, 0.8))
        ep = Endpoints(LogNormal(mr, sr), LogNormal(mb, sb), LogNormal(me, se))
        rate = avg_secrecy_rate(ep, ORDER).value
        out = secrecy_outage(ep, rs, ORDER).value
        tol = 1e-12 * max(1.0, rate)
        checks = (
            avg_secrecy_rate(replace(ep, eve=LogNormal(me + step, se)), ORDER).value
            <= rate + tol,
            avg_secrecy_rate(replace(ep, bob=LogNormal(mb + step, sb)), ORDER).value
            >= rate - tol,
            avg_secrecy_rate(replace(ep, relay=LogNormal(mr + step, sr)), ORDER).value
            >= rate - tol,
            secrecy_outage(replace(ep, eve=LogNormal(me + step, se)), rs, ORDER).value
            >= out - 1e-12,
            secrecy_outage(replace(ep, bob=LogNormal(mb + step, sb)), rs, ORDER).value
            <= out + 1e-12,
            secrecy_outage(replace(ep, relay=LogNormal(mr + step, sr)), rs, ORDER).value
            <= out + 1e-12,
            secrecy_outage(ep, rs + step, ORDER).value >= out - 1e-12,
        )
        violations += sum(not ok for ok in checks)
    report(8, "estimator monotonicity", violations == 0,
           f"{violations} violations over {n_points} random points x 7 directions")
    assert violations == 0


def test_c09_roundtrip_and_identity_suite():
    # cumulant round trip
    worst_rt = 0.0
    for mu in np.linspace(-20.0, 20.0, 9):
        for sigma in (0.0, 0.3, 1.0, 2.0, 3.0):
            back = from_cumulants(cumulants(LogNormal(float(mu), float(sigma))))
            worst_rt = max(worst_rt,
                           abs(back.mu - mu) / max(1.0, abs(mu)),
                           abs(back.sigma - sigma) / max(1.0, sigma))
    # min-CDF identity
    rng = np.random.default_rng(9)
    worst_cdf = 0.0
    for _ in range(200):
        ep = Endpoints(LogNormal(rng.uniform(-3, 3), rng.uniform(0.3, 2.5)),
                       LogNormal(rng.uniform(-3, 3), rng.uniform(0.3, 2.5)),
                       LogNormal(0.0, 1.0))
        z = float(np.exp(rng.uniform(-6, 6)))
        fr, fb = ep.relay.cdf(z), ep.bob.cdf(z)
        worst_cdf = max(worst_cdf, abs(min_snr_cdf(ep, z) - (fr + fb - fr * fb)))
    # quadrature moments through degree 2K-1 at the working order
    worst_mom = 0.0
    x, w = np.polynomial.laguerre.laggauss(ORDER)
    exact = 1.0
    for d in range(2 * ORDER):
        if d > 0:
            exact *= d
        worst_mom = max(worst_mom, abs(float(w @ x ** d) - exact) / exact)
    x, w = np.polynomial.hermite.hermgauss(ORDER)
    for d in range(0, 2 * ORDER, 2):
        exact = math.sqrt(math.pi)
        for j in range(1, d, 2):
            exact *= j / 2.0
        worst_mom = max(worst_mom, abs(float(w @ x ** d) - exact) / exact)
    # sampler log-moments at 1e6 samples, three standard errors
    link = CompositeLink(2.0, -10.0, 5.0)
    rng2 = np.random.Generator(np.random.Philox(key=909))
    logs = np.log(sample_composite_snr(link, rng2, 10 ** 6))
    n = logs.size
    mean_dev = abs(logs.mean() - (-0.27036284546147815 - 2.302585092994046))
    mean_ok = mean_dev <= 3.0 * logs.std() / math.sqrt(n)
    var = logs.var()
    se_var = math.sqrt((np.mean((logs - logs.mean()) ** 4) - var ** 2) / n)
    var_ok = abs(var - 1.9704085944678265) <= 3.0 * se_var

    passed = (worst_rt <= 1e-12 and worst_cdf <= 1e-12
              and worst_mom <= 1e-9 and mean_ok and var_ok)
    report(9, "round-trip and identities", passed,
           f"roundtrip {worst_rt:.2e} (<=1e-12), min-CDF {worst_cdf:.2e} "
           f"(<=1e-12), moments {worst_mom:.2e} (<=1e-9), sampler "
           f"log-moments within 3 SE: {mean_ok and var_ok}")
    assert worst_rt <= 1e-12
    assert worst_cdf <= 1e-12
    assert worst_mom <= 1e-9
    assert mean_ok and var_ok


def test_c10_sweep_determinism(tmp_path):
    base = RunConfig(power_grid_dbm=(30.0, 40.0), delta_grid_db=(-90.0, -80.0),
                     n_eve_grid=(2,), rs_grid=(1.0, 2.0), samples=20_000,
                     seed=77)
    spec = SweepSpec(base=base, metrics=("rate", "outage"),
                     methods=("analytic", "mc-ln", "mc-composite"))
    blobs = []
    for workers in (1, 4, 8):
        path = tmp_path / f"workers{workers}.csv"
        run_sweep(spec, str(path), workers=workers)
        blobs.append(path.read_bytes())
    passed = blobs[0] == blobs[1] == blobs[2]
    report(10, "sweep determinism", passed,
           f"{len(blobs[0].splitlines()) - 1} rows byte-identical across "
           f"1/4/8 workers")
    assert passed
