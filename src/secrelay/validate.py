"""Self-validation checks behind ``secrelay validate``.

Each check compares an implementation route against an independent one
(quadrature vs adaptive reference, closed forms vs identities, analytic vs
Monte-Carlo) and reports its measured deviation against a tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .channel import endpoints_for
from .config import RunConfig
from .lognormal import LogNormal, cumulants, from_cumulants
from .metrics import (avg_secrecy_rate, avg_secrecy_rate_reference,
                      min_snr_cdf, secrecy_outage, secrecy_outage_reference)
from .montecarlo import mc_secrecy_metrics

__all__ = ["CheckResult", "run_validation"]

# At K = 24 the log-domain trapezoid estimators sit orders of magnitude
# inside these gates (about 1e-7 relative for the rate, far below 1e-6
# absolute for the outage); the gates catch a broken or under-ordered rule,
# and order 2 fails the rate gate.  The rate deviation is measured
# relative to max(reference, 0.01 bits/s/Hz) so that negligible tail-regime
# rates are judged on absolute error.
_RATE_AGREEMENT_REL = 1e-2
_RATE_SCALE_FLOOR = 1e-2
_OUTAGE_AGREEMENT_ABS = 1e-6
_MC_SIGMAS = 4.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"{status}  {self.name}: measured {self.measured:.3e} "
               f"vs tolerance {self.tolerance:.3e}")
        if self.detail:
            out += f" ({self.detail})"
        return out


def _probe_endpoints(cfg: RunConfig):
    """A few operating points spread over the config's grids."""
    probes = []
    powers = cfg.power_grid_dbm
    deltas = cfg.delta_grid_db
    for power in {powers[0], powers[-1]}:
        for delta in {deltas[0], deltas[-1]}:
            probes.append(endpoints_for(cfg.system(power, delta, cfg.n_eve_grid[0])))
    return probes


def _check_quadrature_agreement(cfg: RunConfig) -> list[CheckResult]:
    worst_rate = 0.0
    worst_out = 0.0
    for ep in _probe_endpoints(cfg):
        ref = avg_secrecy_rate_reference(ep, 1e-9).value
        q = avg_secrecy_rate(ep, cfg.quadrature_order).value
        worst_rate = max(worst_rate, abs(q - ref) / max(ref, _RATE_SCALE_FLOOR))
        for rs in cfg.rs_grid:
            oref = secrecy_outage_reference(ep, rs, 1e-10).value
            oq = secrecy_outage(ep, rs, cfg.quadrature_order).value
            worst_out = max(worst_out, abs(oq - oref))
    return [
        CheckResult("rate-quadrature-agreement",
                    worst_rate <= _RATE_AGREEMENT_REL, worst_rate,
                    _RATE_AGREEMENT_REL,
                    f"relative, order {cfg.quadrature_order}"),
        CheckResult("outage-quadrature-agreement",
                    worst_out <= _OUTAGE_AGREEMENT_ABS, worst_out,
                    _OUTAGE_AGREEMENT_ABS,
                    f"absolute, order {cfg.quadrature_order}"),
    ]


def _check_identities(cfg: RunConfig) -> list[CheckResult]:
    ep = endpoints_for(cfg.network)
    worst = 0.0
    for z in (0.05, 0.5, 1.0, 5.0, 50.0, 5e3):
        fr = ep.relay.cdf(z)
        fb = ep.bob.cdf(z)
        worst = max(worst, abs(min_snr_cdf(ep, z) - (fr + fb - fr * fb)))
    res = [CheckResult("min-cdf-identity", worst <= 1e-12, worst, 1e-12)]

    worst_rt = 0.0
    for mu in (-8.0, -1.0, 0.0, 2.5, 9.0):
        for sigma in (0.1, 0.7, 1.6, 2.8):
            rv = LogNormal(mu, sigma)
            back = from_cumulants(cumulants(rv))
            worst_rt = max(worst_rt, abs(back.mu - mu), abs(back.sigma - sigma))
    res.append(CheckResult("cumulant-roundtrip", worst_rt <= 1e-12, worst_rt, 1e-12))
    return res


def _check_monotonicity(cfg: RunConfig) -> list[CheckResult]:
    ep = endpoints_for(cfg.network)
    order = cfg.quadrature_order
    step = 0.25
    worst = 0.0

    def bump(e, field, d):
        rv = getattr(e, field)
        return replace(e, **{field: LogNormal(rv.mu + d, rv.sigma)})

    rate0 = avg_secrecy_rate(ep, order).value
    worst = max(worst, avg_secrecy_rate(bump(ep, "eve", step), order).value - rate0)
    worst = max(worst, rate0 - avg_secrecy_rate(bump(ep, "bob", step), order).value)
    worst = max(worst, rate0 - avg_secrecy_rate(bump(ep, "relay", step), order).value)
    out0 = secrecy_outage(ep, cfg.rs_grid[0], order).value
    worst = max(worst, out0 - secrecy_outage(bump(ep, "eve", step), cfg.rs_grid[0], order).value)
    worst = max(worst, secrecy_outage(bump(ep, "bob", step), cfg.rs_grid[0], order).value - out0)
    worst = max(worst, out0 - secrecy_outage(ep, cfg.rs_grid[0] + 0.5, order).value)
    return [CheckResult("estimator-monotonicity", worst <= 1e-12, worst, 1e-12,
                        "worst wrong-direction step")]


def _check_mc_agreement(cfg: RunConfig) -> list[CheckResult]:
    ep = endpoints_for(cfg.network)
    n = max(cfg.samples, 10_000)
    rs = cfg.rs_grid[0]
    est, (oest,) = mc_secrecy_metrics(cfg.network, [rs], "ln_fit", n, cfg.seed)
    rate_ref = avg_secrecy_rate_reference(ep, 1e-9).value
    rate_dev = abs(est.mean - rate_ref) / est.std_error if est.std_error > 0 else 0.0

    out_ref = secrecy_outage_reference(ep, rs, 1e-10).value
    out_dev = (abs(oest.mean - out_ref) / oest.std_error
               if oest.std_error > 0 else 0.0)
    return [
        CheckResult("mc-ln-rate-agreement", rate_dev <= _MC_SIGMAS, rate_dev,
                    _MC_SIGMAS, f"standard errors at n={n}"),
        CheckResult("mc-ln-outage-agreement", out_dev <= _MC_SIGMAS, out_dev,
                    _MC_SIGMAS, f"standard errors at n={n}"),
    ]


def _check_endpoint_invariants(cfg: RunConfig) -> list[CheckResult]:
    base = cfg.network
    ep = endpoints_for(base)
    worse_si = endpoints_for(replace(base, delta_db=base.delta_db + 5.0))
    ok = (worse_si.relay.mu < ep.relay.mu
          and worse_si.bob == ep.bob and worse_si.eve == ep.eve)
    more_antennas = endpoints_for(replace(base, n_eve=base.n_eve * 2))
    k1_ratio = cumulants(more_antennas.eve).k1 / cumulants(ep.eve).k1
    ok = ok and abs(k1_ratio - 2.0) < 1e-9
    measured = abs(k1_ratio - 2.0)
    return [CheckResult("endpoint-invariants", ok, measured, 1e-9,
                        "self-interference isolation and antenna scaling")]


def run_validation(cfg: RunConfig) -> list[CheckResult]:
    """Run every check; callers decide how to report them."""
    checks: list[CheckResult] = []
    checks += _check_quadrature_agreement(cfg)
    checks += _check_identities(cfg)
    checks += _check_monotonicity(cfg)
    checks += _check_endpoint_invariants(cfg)
    checks += _check_mc_agreement(cfg)
    return checks
