"""Self-validation checks behind ``secrelay validate``.

Each check compares an implementation route against an independent one
(quadrature vs adaptive reference, closed forms vs identities, analytic vs
Monte-Carlo) and reports its measured deviation against a tolerance.  A
check that cannot be evaluated at the configured network fails with the
error that stopped it, and the remaining checks still run.  The checks
share their probe endpoints, one Monte-Carlo pass and one fit of the base
network, which that pass draws from; an error in a shared input fails every
check that uses it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .channel import _grid_endpoints, endpoints_for
from .config import RunConfig
from .errors import _EVALUATION_ERRORS
from .lognormal import LogNormal, cumulants
from .metrics import (avg_secrecy_rate, avg_secrecy_rate_reference,
                      min_snr_cdf, secrecy_outage, secrecy_outage_reference)
from .montecarlo import _grid_estimates

__all__ = ["CheckResult", "run_validation"]

# The log-domain trapezoid estimators sit orders of magnitude inside these
# gates (about 1e-7 relative for the rate, far below 1e-6 absolute for the
# outage); the gates catch a broken estimator.  The rate deviation is measured
# relative to max(reference, 0.01 bits/s/Hz) so that negligible tail-regime
# rates are judged on absolute error.
_RATE_AGREEMENT_REL = 1e-2
_RATE_SCALE_FLOOR = 1e-2
_OUTAGE_AGREEMENT_ABS = 1e-6
_MC_SIGMAS = 4.0

# what a check returns: passed, measured, tolerance, detail
Outcome = tuple[bool, float, float, str]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if math.isnan(self.measured):  # nothing measured: detail says why
            return f"{status}  {self.name}: {self.detail}"
        out = (f"{status}  {self.name}: measured {self.measured:.3e} "
               f"vs tolerance {self.tolerance:.3e}")
        if self.detail:
            out += f" ({self.detail})"
        return out


def _base_endpoints(cfg: RunConfig, shared):
    return endpoints_for(cfg.network)


def _probe_endpoints(cfg: RunConfig, shared):
    """A few operating points spread over the config's grids, fitted in one
    grid call; raises the error of the first probe that has one."""
    powers = cfg.power_grid_dbm
    deltas = cfg.delta_grid_db
    probes = _grid_endpoints(cfg.network, [
        (power, delta, cfg.n_eve_grid[0])
        for power in {powers[0], powers[-1]} for delta in {deltas[0], deltas[-1]}])
    for ep in probes:
        if isinstance(ep, Exception):
            raise ep
    return probes


def _check_rate_quadrature(cfg: RunConfig, shared) -> Outcome:
    worst = 0.0
    for ep in shared(_probe_endpoints):
        ref = avg_secrecy_rate_reference(ep, 1e-9).value
        q = avg_secrecy_rate(ep).value
        worst = max(worst, abs(q - ref) / max(ref, _RATE_SCALE_FLOOR))
    return worst <= _RATE_AGREEMENT_REL, worst, _RATE_AGREEMENT_REL, "relative"


def _check_outage_quadrature(cfg: RunConfig, shared) -> Outcome:
    worst = 0.0
    for ep in shared(_probe_endpoints):
        for rs in cfg.rs_grid:
            ref = secrecy_outage_reference(ep, rs, 1e-10).value
            q = secrecy_outage(ep, rs).value
            worst = max(worst, abs(q - ref))
    return worst <= _OUTAGE_AGREEMENT_ABS, worst, _OUTAGE_AGREEMENT_ABS, "absolute"


def _check_min_cdf(cfg: RunConfig, shared) -> Outcome:
    ep = shared(_base_endpoints)
    worst = 0.0
    for z in (0.05, 0.5, 1.0, 5.0, 50.0, 5e3):
        fr = ep.relay.cdf(z)
        fb = ep.bob.cdf(z)
        worst = max(worst, abs(min_snr_cdf(ep, z) - (fr + fb - fr * fb)))
    return worst <= 1e-12, worst, 1e-12, ""


def _check_monotonicity(cfg: RunConfig, shared) -> Outcome:
    ep = shared(_base_endpoints)
    rs = cfg.rs_grid[0]
    step = 0.25
    worst = 0.0

    def bump(e, field, d):
        rv = getattr(e, field)
        return replace(e, **{field: LogNormal(rv.mu + d, rv.sigma)})

    rate0 = avg_secrecy_rate(ep).value
    worst = max(worst, avg_secrecy_rate(bump(ep, "eve", step)).value - rate0)
    worst = max(worst, rate0 - avg_secrecy_rate(bump(ep, "bob", step)).value)
    worst = max(worst, rate0 - avg_secrecy_rate(bump(ep, "relay", step)).value)
    out0 = secrecy_outage(ep, rs).value
    worst = max(worst, out0 - secrecy_outage(bump(ep, "eve", step), rs).value)
    worst = max(worst, secrecy_outage(bump(ep, "bob", step), rs).value - out0)
    worst = max(worst, out0 - secrecy_outage(ep, rs + 0.5).value)
    return worst <= 1e-12, worst, 1e-12, "worst wrong-direction step"


def _check_endpoint_invariants(cfg: RunConfig, shared) -> Outcome:
    base = cfg.network
    ep = shared(_base_endpoints)
    # probe the better-isolated side (delta_db may not rise above 0 dB),
    # where the relay mean rises; a bare 5 dB step rounds away at |delta_db|
    # >= 1e17, a doubling does not.  Where the doubling overflows, probe
    # half the isolation instead, where the relay mean falls.
    probe = base.delta_db - max(5.0, -base.delta_db)
    rise = math.isfinite(probe)
    moved = endpoints_for(replace(base, delta_db=probe if rise
                                  else base.delta_db / 2.0))
    ok = ((moved.relay.mu > ep.relay.mu if rise else moved.relay.mu < ep.relay.mu)
          and moved.bob == ep.bob and moved.eve == ep.eve)
    more_antennas = endpoints_for(replace(base, n_eve=base.n_eve * 2))
    k1_ratio = cumulants(more_antennas.eve).k1 / cumulants(ep.eve).k1
    ok = ok and abs(k1_ratio - 2.0) < 1e-9
    measured = abs(k1_ratio - 2.0)
    return ok, measured, 1e-9, "self-interference isolation and antenna scaling"


def _mc_pass(cfg: RunConfig, shared):
    """The one Monte-Carlo pass both MC checks use, on the shared base fit."""
    n = max(cfg.samples, 10_000)
    (result,) = _grid_estimates(cfg.network, [shared(_base_endpoints)],
                                [cfg.rs_grid[0]], "ln_fit", n, cfg.seed)
    if isinstance(result, Exception):
        raise result
    rate, (outage,) = result
    return n, rate, outage


def _check_mc_rate(cfg: RunConfig, shared) -> Outcome:
    ep, (n, est, _) = shared(_base_endpoints), shared(_mc_pass)
    ref = avg_secrecy_rate_reference(ep, 1e-9).value
    if est.std_error == 0.0:
        # a zero-spread sample has no error scale of its own, so it is held
        # to the rate quadrature gate
        dev = abs(est.mean - ref) / max(ref, _RATE_SCALE_FLOOR)
        return (dev <= _RATE_AGREEMENT_REL, dev, _RATE_AGREEMENT_REL,
                f"relative, zero spread at n={n}")
    dev = abs(est.mean - ref) / est.std_error
    return dev <= _MC_SIGMAS, dev, _MC_SIGMAS, f"standard errors at n={n}"


def _check_mc_outage(cfg: RunConfig, shared) -> Outcome:
    ep, (n, _, est) = shared(_base_endpoints), shared(_mc_pass)
    ref = secrecy_outage_reference(ep, cfg.rs_grid[0], 1e-10).value
    # a zero-spread sample (every rate on one side of the target, so a mean
    # of 0 or 1) is judged by the binomial error the reference predicts at n
    se = (math.sqrt(max(ref * (1.0 - ref), 0.0) / n) if est.mean in (0.0, 1.0)
          else est.std_error)
    if se > 0.0:
        dev = abs(est.mean - ref) / se
    else:  # no spread on either side: only an exact match agrees
        dev = 0.0 if est.mean == ref else math.inf
    return dev <= _MC_SIGMAS, dev, _MC_SIGMAS, f"standard errors at n={n}"


_CHECKS = (
    ("rate-quadrature-agreement", _check_rate_quadrature),
    ("outage-quadrature-agreement", _check_outage_quadrature),
    ("min-cdf-identity", _check_min_cdf),
    ("estimator-monotonicity", _check_monotonicity),
    ("endpoint-invariants", _check_endpoint_invariants),
    ("mc-ln-rate-agreement", _check_mc_rate),
    ("mc-ln-outage-agreement", _check_mc_outage),
)


def run_validation(cfg: RunConfig) -> list[CheckResult]:
    """Run every check; callers decide how to report them."""
    # an input two checks use is computed once per run, called as a check
    # is, so one input may use another; one that raises is not cached, so
    # each check that asks for it fails with the same error (the MC pass
    # asks for the base endpoints first)
    shared = functools.cache(lambda compute: compute(cfg, shared))
    checks = []
    for name, check in _CHECKS:
        try:
            checks.append(CheckResult(name, *check(cfg, shared)))
        except _EVALUATION_ERRORS as exc:
            checks.append(CheckResult(name, False, math.nan, math.nan,
                                      f"error: {exc}"))
    return checks
