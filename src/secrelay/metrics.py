"""Secrecy metrics of the full-duplex relay link.

Each metric comes in two flavours: one fixed-order estimator of the closed
form and an adaptive-integration reference used as ground truth.  The
end-to-end SNR is min(relay SINR, Bob SNR); its CDF has a closed
erfc-product form because both inputs are log-normal.

The estimator is a trapezoid rule: it places K = order equally spaced
nodes in the log domain -- y = ln z for the rate, the standard-normal
eavesdropper variable for the outage -- over a window where the
log-integrand lies within a fixed number of nats of its peak.  There the
integrands are analytic and decay like Gaussians (or faster) at both ends,
so the trapezoid rule converges exponentially in K.  The paper's K-point
Gauss-Laguerre (rate) and Gauss-Hermite (outage) forms converge slowly where
the integrand's mass sits below their nodes and miss the acceptance gates at
K = 24; tests/paper_forms.py keeps them to pin that envelope.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .channel import Endpoints
from .errors import AccuracyError
from .numerics import IntegralEstimate, _check_order, adaptive_integrate

__all__ = [
    "MetricResult",
    "min_snr_cdf",
    "avg_secrecy_rate",
    "avg_secrecy_rate_reference",
    "secrecy_outage",
    "secrecy_outage_reference",
]

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)

# Window depth of the trapezoid rule at K = 24 nodes, in nats below the
# modelled peak of the log-integrand.  The rate is judged relatively, so its
# depth balances truncation (about e^-depth) against the node spacing.  The
# outage enters as 1 - integral and is judged absolutely; with its peak near
# 1 the tails must reach about 1e-13, hence the deeper window.  The depth
# grows as (K/24)^(2/3): the spacing error of Gaussian tails falls like
# exp(-const K / sqrt(depth)), so truncation keeps pace with it and the
# error keeps falling as the order rises.
_RATE_WINDOW_NATS = 20.0
_OUTAGE_WINDOW_NATS = 25.0
# The window model takes ln(erfc(x)/2) as -(sqrt(2) x + _TAIL_SHIFT)_+^2 / 2,
# a one-sided quadratic whose kink sits _TAIL_SHIFT standard deviations on
# the near-1 side of the median; it stays within 2.5 nats of the true value
# down to -20 nats
_TAIL_SHIFT = 0.8

# below this, a rate or probability is zero for every purpose and relative
# tolerance stops being meaningful for the adaptive integrator
_UNDERFLOW_FLOOR = 1e-30


def _integrate_metric(f, rel_tol: float) -> IntegralEstimate:
    try:
        return adaptive_integrate(f, 0.0, math.inf, rel_tol)
    except AccuracyError as exc:
        if abs(exc.best_estimate) <= _UNDERFLOW_FLOOR:
            return IntegralEstimate(exc.best_estimate, exc.rel_error)
        raise


@dataclass(frozen=True)
class MetricResult:
    value: float
    method: str  # "quadrature" or "reference"
    quadrature_order: Optional[int] = None
    error_estimate: Optional[float] = None


def _require_random(ep: Endpoints, who: str) -> None:
    for name in ("relay", "bob", "eve"):
        if getattr(ep, name).sigma <= 0.0:
            raise ValueError(f"{who} requires non-degenerate endpoints; "
                             f"{name} has sigma = 0")


def min_snr_cdf(ep: Endpoints, z: float) -> float:
    """CDF of the end-to-end SNR min(relay, bob) at z.

    Equals 1 - (1-F_relay)(1-F_bob); with log-normal inputs each survival
    factor is erfc((-mu + ln z) / (sqrt(2) sigma)) / 2.
    """
    if z < 0.0:
        raise ValueError(f"z must be >= 0, got {z!r}")
    if ep.relay.sigma <= 0.0 or ep.bob.sigma <= 0.0:
        raise ValueError("min_snr_cdf requires relay and bob sigmas > 0")
    if z == 0.0:
        return 0.0
    lz = math.log(z)
    sr = math.erfc((-ep.relay.mu + lz) / (_SQRT2 * ep.relay.sigma))
    sb = math.erfc((-ep.bob.mu + lz) / (_SQRT2 * ep.bob.sigma))
    return 1.0 - 0.25 * sr * sb


@functools.lru_cache(maxsize=None)
def _trapezoid_cells(order: int) -> tuple[np.ndarray, float]:
    """Midpoints of `order` equal cells of [0, 1] (read-only), and the
    factor (order / 24)^(2/3) that scales the window depth."""
    _check_order(order)
    k = int(order)
    cells = (np.arange(k) + 0.5) / k
    cells.setflags(write=False)
    return cells, (k / 24.0) ** (2.0 / 3.0)


def _hinge_root(tau: float, p1: float, s1: float, p2: float, s2: float) -> float:
    """The x where ((x - p1)_+ / s1)^2 / 2 + ((x - p2)_+ / s2)^2 / 2 = tau > 0."""
    r = math.sqrt(2.0 * tau)
    v1, v2 = s1 * s1, s2 * s2
    disc = 2.0 * tau * (v1 + v2) - (p1 - p2) ** 2
    if disc > 0.0:
        both = (p1 * v2 + p2 * v1 + s1 * s2 * math.sqrt(disc)) / (v1 + v2)
        if both >= max(p1, p2):
            return both
    return min(p1 + s1 * r, p2 + s2 * r)


def _rate_window(ep: Endpoints, depth: float) -> tuple[float, float]:
    """Window in y = ln z holding the rate integrand's bulk, in closed form.

    The integrand is erfc_eve * erfc_bob * erfc_relay / 8 * e^y / (1 + e^y).
    Its log is modelled as -(Lam(y) + Rho(y)), with the falling penalty
    Lam = eve's one-sided quadratic + (-y)_+ (the logistic factor) and the
    rising penalty Rho = bob's + relay's one-sided quadratics.  The model's
    peak y* solves Lam' = -Rho' between piecewise-linear monotone sides: a
    min over Rho's lines of a max over Lam's lines of their crossings, with
    the logistic's unit step handled by clipping at 0.  Each edge is where
    its own side's penalty reaches depth + Lam(y*) + Rho(y*), which contains
    the model's level set.
    """
    e, b, r = ep.eve, ep.bob, ep.relay
    pe = e.mu + _TAIL_SHIFT * e.sigma
    pb = b.mu - _TAIL_SHIFT * b.sigma
    pr = r.mu - _TAIL_SHIFT * r.sigma
    we, wb, wr = e.sigma ** -2, b.sigma ** -2, r.sigma ** -2
    right = wb * pb + wr * pr

    def crossing(k: float) -> float:
        # root of (pe - y)_+ we + k = (y - pb)_+ wb + (y - pr)_+ wr
        left = we * pe + k
        return min(max(pb + k / wb, (left + wb * pb) / (we + wb)),
                   max(pr + k / wr, (left + wr * pr) / (we + wr)),
                   max((k + right) / (wb + wr), (left + right) / (we + wb + wr)),
                   pe if k == 0.0 else math.inf)

    peak = min(crossing(1.0), max(crossing(0.0), 0.0))
    tau = (depth + 0.5 * (max(pe - peak, 0.0) / e.sigma) ** 2
           + max(-peak, 0.0) + 0.5 * (max(peak - pb, 0.0) / b.sigma) ** 2
           + 0.5 * (max(peak - pr, 0.0) / r.sigma) ** 2)
    # left edge: eve's quadratic + (-y)_+ = tau
    lo = pe - e.sigma * math.sqrt(2.0 * tau)
    if lo < 0.0:
        if pe <= -tau:
            lo = -tau
        else:
            ve = e.sigma * e.sigma
            lo = pe - ve * (math.sqrt(1.0 + 2.0 * (tau + pe) / ve) - 1.0)
    return lo, _hinge_root(tau, pb, b.sigma, pr, r.sigma)


def avg_secrecy_rate(ep: Endpoints, order: int = 24) -> MetricResult:
    """Average secrecy rate in bits/s/Hz from `order` quadrature nodes.

    Substituting y = ln z turns the rate into the integral of
    erfc_eve * erfc_bob * erfc_relay / 8 * e^y / (1 + e^y) over the real
    line, an analytic integrand with Gaussian tails.  The trapezoid rule
    takes `order` equally spaced nodes at the cell midpoints of the window
    from _rate_window.
    """
    _require_random(ep, "avg_secrecy_rate")
    cells, depth_scale = _trapezoid_cells(order)  # validates the order range
    lo, hi = _rate_window(ep, _RATE_WINDOW_NATS * depth_scale)
    y = lo + (hi - lo) * cells
    # one erfc call over the eve, bob and relay rows
    mu = np.array([[ep.eve.mu], [ep.bob.mu], [ep.relay.mu]])
    scale = np.array([[-1.0 / (_SQRT2 * ep.eve.sigma)],
                      [1.0 / (_SQRT2 * ep.bob.sigma)],
                      [1.0 / (_SQRT2 * ep.relay.sigma)]])
    prod = special.erfc((y - mu) * scale).prod(axis=0)
    value = (hi - lo) / order * float(prod @ special.expit(y)) / (8.0 * _LN2)
    return MetricResult(value=value, method="quadrature", quadrature_order=order)


def _rate_integrand_cdf_form(ep: Endpoints):
    """Rate integrand built from the endpoint CDFs (oracle route)."""
    eve = ep.eve

    def f(z: float) -> float:
        if z <= 0.0:
            return 0.0
        return eve.cdf(z) * (1.0 - min_snr_cdf(ep, z)) / (1.0 + z)

    return f


def _rate_integrand_erfc_form(ep: Endpoints):
    """Closed erfc-product rate integrand (each factor scaled by its own sigma)."""
    mr, sr = ep.relay.mu, ep.relay.sigma
    mb, sb = ep.bob.mu, ep.bob.sigma
    me, se = ep.eve.mu, ep.eve.sigma

    def f(z: float) -> float:
        if z <= 0.0:
            return 0.0
        lz = math.log(z)
        return (math.erfc((me - lz) / (_SQRT2 * se))
                * math.erfc((-mb + lz) / (_SQRT2 * sb))
                * math.erfc((-mr + lz) / (_SQRT2 * sr))) / (8.0 * (1.0 + z))

    return f


def avg_secrecy_rate_reference(ep: Endpoints, rel_tol: float = 1e-9,
                               form: str = "cdf") -> MetricResult:
    """Average secrecy rate by adaptive integration (ground truth).

    form="cdf" integrates F_eve(z) [1 - F_min(z)] / (1+z) built from the
    CDF routines; form="erfc" integrates the algebraically equal closed
    erfc-product integrand.  Both exist so their agreement can be asserted.
    """
    _require_random(ep, "avg_secrecy_rate_reference")
    if not (1e-12 <= rel_tol <= 1e-4):
        raise ValueError(f"rel_tol must lie in [1e-12, 1e-4], got {rel_tol!r}")
    if form == "cdf":
        f = _rate_integrand_cdf_form(ep)
    elif form == "erfc":
        f = _rate_integrand_erfc_form(ep)
    else:
        raise ValueError(f"unknown integrand form {form!r}")
    est = _integrate_metric(f, rel_tol)
    return MetricResult(value=est.value / _LN2, method="reference",
                        error_estimate=est.rel_error)


def _clamp_unit(value: float, what: str) -> float:
    if -1e-12 < value < 0.0:
        logger.debug("%s rounded %.3e up to 0", what, value)
        return 0.0
    if 1.0 < value < 1.0 + 1e-12:
        logger.debug("%s rounded %.3e down to 1", what, value)
        return 1.0
    return value


def _outage_window(ep: Endpoints, floor: float, offset: float,
                   depth: float) -> tuple[float, float]:
    """Window in the standard-normal eavesdropper variable v, in closed form.

    The integrand is phi(v) * erfc_bob(t) * erfc_relay(t) / 4 at the log
    threshold t(v) = ln(2^rs (1 + e^(mu_e + sigma_e v)) - 1), which is
    logaddexp(floor, offset + sigma_e v) with floor = ln(2^rs - 1) and
    offset = rs ln 2 + mu_e, modelled as max(floor, offset + sigma_e v).
    The log-integrand is then -(v^2/2 + Rt(v)) with Rt the survival
    factors' one-sided quadratics in t, flat below v0 = (floor - offset) /
    sigma_e.  The peak v* solves v = -Rt'(v) as in _rate_window; the left
    edge is where v^2/2 reaches the depth plus the peak's penalty less Rt's
    flat part, the right edge the nearer of where v^2/2 or Rt alone reaches
    depth plus penalty.
    """
    e, b, r = ep.eve, ep.bob, ep.relay
    pb = b.mu - _TAIL_SHIFT * b.sigma
    pr = r.mu - _TAIL_SHIFT * r.sigma

    def penalty(t: float) -> float:
        return (0.5 * (max(t - pb, 0.0) / b.sigma) ** 2
                + 0.5 * (max(t - pr, 0.0) / r.sigma) ** 2)

    # Rt'(v) = sb (v - qb)_+ + sr (v - qr)_+ above v0
    sb, sr = (e.sigma / b.sigma) ** 2, (e.sigma / r.sigma) ** 2
    qb, qr = (pb - offset) / e.sigma, (pr - offset) / e.sigma
    root = min(0.0, sb * qb / (1.0 + sb), sr * qr / (1.0 + sr),
               (sb * qb + sr * qr) / (1.0 + sb + sr))
    peak = min(0.0, max(root, (floor - offset) / e.sigma))
    tau = (depth + 0.5 * peak * peak
           + penalty(max(floor, offset + e.sigma * peak)))
    lo = -math.sqrt(2.0 * (tau - penalty(floor)))
    hi = min(math.sqrt(2.0 * tau),
             (_hinge_root(tau, pb, b.sigma, pr, r.sigma) - offset) / e.sigma)
    return lo, hi


def secrecy_outage(ep: Endpoints, rs_target: float, order: int = 24) -> MetricResult:
    """Secrecy outage probability for a target rate from `order` nodes.

    The outage is 1 - E[survival of the end-to-end SNR at the rate
    threshold 2^rs (1 + z) - 1], the expectation taken over the
    eavesdropper SNR z = exp(mu_e + sigma_e v) with v standard normal.  The
    trapezoid rule in v takes `order` equally spaced nodes at the cell
    midpoints of the window from _outage_window.
    """
    _require_random(ep, "secrecy_outage")
    if not (rs_target > 0.0 and math.isfinite(rs_target)):
        raise ValueError(f"rs_target must be positive, got {rs_target!r}")
    cells, depth_scale = _trapezoid_cells(order)  # validates the order range
    # log threshold ln((2^rs - 1) + 2^rs e^(mu_e + sigma_e v)), without
    # forming 2^rs, which overflows for rs above 1024
    rs_nats = rs_target * _LN2
    floor = rs_nats + math.log(-math.expm1(-rs_nats))
    offset = rs_nats + ep.eve.mu
    lo, hi = _outage_window(ep, floor, offset, _OUTAGE_WINDOW_NATS * depth_scale)
    v = lo + (hi - lo) * cells
    lt = np.logaddexp(floor, offset + ep.eve.sigma * v)
    survival = (special.erfc((lt - ep.bob.mu) / (_SQRT2 * ep.bob.sigma))
                * special.erfc((lt - ep.relay.mu) / (_SQRT2 * ep.relay.sigma)))
    integral = (hi - lo) / order * float(survival @ np.exp(-0.5 * v * v))
    value = 1.0 - integral / (4.0 * _SQRT_2PI)
    return MetricResult(value=_clamp_unit(value, "secrecy_outage"),
                        method="quadrature", quadrature_order=order)


def secrecy_outage_reference(ep: Endpoints, rs_target: float,
                             rel_tol: float = 1e-10) -> MetricResult:
    """Secrecy outage by adaptive integration of F_min(2^rs (1+z) - 1) f_eve(z)."""
    _require_random(ep, "secrecy_outage_reference")
    if not (rs_target > 0.0 and math.isfinite(rs_target)):
        raise ValueError(f"rs_target must be positive, got {rs_target!r}")
    if not (1e-12 <= rel_tol <= 1e-4):
        raise ValueError(f"rel_tol must lie in [1e-12, 1e-4], got {rel_tol!r}")
    eve = ep.eve
    scale = 2.0 ** rs_target

    def f(z: float) -> float:
        if z <= 0.0:
            return 0.0
        return min_snr_cdf(ep, scale * (1.0 + z) - 1.0) * eve.pdf(z)

    est = _integrate_metric(f, rel_tol)
    return MetricResult(value=_clamp_unit(est.value, "secrecy_outage_reference"),
                        method="reference", error_estimate=est.rel_error)
