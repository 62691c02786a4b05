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

The references integrate in the same y and v domains, adaptively
(QUADPACK), with breakpoints at the endpoint means (mapped to v for the
outage), at 0 and at the outage threshold's floor kink.  The rate reference
integrates the closed erfc product, which holds no cancelling difference,
so it meets its relative tolerance on vanishing rates too.  Both references
accept a relative tolerance in [1e-12, 1e-4], and one that cannot meet it
raises AccuracyError.  QUADPACK (``scipy.integrate``, which pulls in
``scipy.optimize``, ``linalg`` and ``sparse``) is imported on the first
reference call, not with the package: no sweep integrates adaptively.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .channel import Endpoints
from .errors import AccuracyError, ConfigurationError

__all__ = [
    "MetricResult",
    "adaptive_integrate",
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
MAX_QUADRATURE_ORDER = 128
_REL_TOL_MIN = 1e-12
_REL_TOL_MAX = 1e-4
# absolute floor so integrals that are numerically zero still converge
_ABS_FLOOR = 1e-300


@dataclass(frozen=True)
class MetricResult:
    value: float
    error_estimate: Optional[float] = None  # set by adaptive integration


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ConfigurationError(f"quadrature order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_QUADRATURE_ORDER:
        raise ConfigurationError(
            f"quadrature order must be in [1, {MAX_QUADRATURE_ORDER}], got {order}")


def adaptive_integrate(f: Callable[[float], float], a: float, b: float,
                       rel_tol: float, points: Sequence[float] = ()) -> MetricResult:
    """Adaptive Gauss-Kronrod quadrature (QUADPACK) of f over [a, b].

    b may be math.inf when there are no breakpoints; breakpoints outside
    (a, b) are dropped.  Returns the estimate with its estimated relative
    error; raises AccuracyError (carrying the best estimate) if the
    tolerance cannot be met.
    """
    if not (_REL_TOL_MIN <= rel_tol <= _REL_TOL_MAX):
        raise ValueError(
            f"rel_tol must lie in [{_REL_TOL_MIN:g}, {_REL_TOL_MAX:g}], got {rel_tol!r}")
    if not math.isfinite(a):
        raise ValueError(f"lower limit must be finite, got {a!r}")
    from scipy import integrate  # QUADPACK: loaded on the first reference call
    out = integrate.quad(f, a, b, epsabs=_ABS_FLOOR, epsrel=rel_tol, limit=400,
                         points=points or None, full_output=1)
    value, abserr = out[0], out[1]
    rel_err = abs(abserr) / max(abs(value), _ABS_FLOOR) if value != 0.0 else 0.0
    if len(out) > 3:  # quadpack appended a convergence complaint
        raise AccuracyError("adaptive integration did not converge",
                            best_estimate=value, rel_error=rel_err)
    return MetricResult(value, error_estimate=rel_err)


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
    if not z >= 0.0:  # also rejects nan, as LogNormal.cdf does
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
    from scipy import special  # loaded on the first closed-form call

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
    return MetricResult(value=value)


def avg_secrecy_rate_reference(ep: Endpoints,
                               rel_tol: float = 1e-9) -> MetricResult:
    """Average secrecy rate by adaptive integration (ground truth).

    The integrand F_eve(z) [1 - F_min(z)] / (1 + z) is taken in its closed
    erfc-product form, erfc_eve * erfc_bob * erfc_relay / 8 * e^y / (1 + e^y),
    over y = ln z, where it has Gaussian tails.  Each erfc factor is below
    erfc(12) ~ 1e-64 from 12 sqrt(2) sigma past its mean, so the window runs
    from there below eve's mean to the nearer of there above bob's and the
    relay's, which a far-off mean cannot widen.  A window narrower than the
    larger reach at its edges (eve far above bob or the relay) leaves mass
    past them; it then reaches 12 sqrt(2) of the widest sigma beyond the
    lowest mean and eve's.  Breakpoints sit at the three means and at 0.
    """
    _require_random(ep, "avg_secrecy_rate_reference")
    e, b, r = ep.eve, ep.bob, ep.relay
    means = me, mb, mr = e.mu, b.mu, r.mu
    # each factor scaled by its own sigma
    ce, cb, cr = (1.0 / (_SQRT2 * x.sigma) for x in (e, b, r))

    def f(y: float) -> float:
        return (math.erfc((me - y) * ce) * math.erfc((y - mb) * cb)
                * math.erfc((y - mr) * cr)) / (8.0 * (1.0 + math.exp(-y)))

    reach = 12.0 * _SQRT2
    lo = me - reach * e.sigma
    hi, upper_sigma = min((mb + reach * b.sigma, b.sigma),
                          (mr + reach * r.sigma, r.sigma))
    if hi - lo < reach * max(e.sigma, upper_sigma):
        widest = reach * max(e.sigma, b.sigma, r.sigma)
        lo, hi = min(means) - widest, me + widest
    est = adaptive_integrate(f, lo, hi, rel_tol, means + (0.0,))
    return MetricResult(est.value / _LN2, est.error_estimate)


def _clamp_unit(value: float, what: str) -> float:
    if -1e-12 < value < 0.0:
        logger.debug("%s rounded %.3e up to 0", what, value)
        return 0.0
    if 1.0 < value < 1.0 + 1e-12:
        logger.debug("%s rounded %.3e down to 1", what, value)
        return 1.0
    return value


def _log_threshold(rs_target: float, eve_mu: float) -> tuple[float, float]:
    """floor and offset of the outage's log rate threshold.

    ln((2^rs - 1) + 2^rs e^(mu_e + sigma_e v)) = logaddexp(floor, offset +
    sigma_e v), found without forming 2^rs, which overflows for rs above 1024.
    """
    if not (rs_target > 0.0 and math.isfinite(rs_target)):
        raise ValueError(f"rs_target must be positive, got {rs_target!r}")
    rs_nats = rs_target * _LN2
    return rs_nats + math.log(-math.expm1(-rs_nats)), rs_nats + eve_mu


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
    from scipy import special  # loaded on the first closed-form call

    _require_random(ep, "secrecy_outage")
    floor, offset = _log_threshold(rs_target, ep.eve.mu)
    cells, depth_scale = _trapezoid_cells(order)  # validates the order range
    lo, hi = _outage_window(ep, floor, offset, _OUTAGE_WINDOW_NATS * depth_scale)
    v = lo + (hi - lo) * cells
    lt = np.logaddexp(floor, offset + ep.eve.sigma * v)
    survival = (special.erfc((lt - ep.bob.mu) / (_SQRT2 * ep.bob.sigma))
                * special.erfc((lt - ep.relay.mu) / (_SQRT2 * ep.relay.sigma)))
    integral = (hi - lo) / order * float(survival @ np.exp(-0.5 * v * v))
    value = 1.0 - integral / (4.0 * _SQRT_2PI)
    return MetricResult(value=_clamp_unit(value, "secrecy_outage"))


def secrecy_outage_reference(ep: Endpoints, rs_target: float,
                             rel_tol: float = 1e-10) -> MetricResult:
    """Secrecy outage by adaptive integration of F_min(2^rs (1+z) - 1) f_eve(z).

    The integral runs over the eavesdropper's standard-normal v, z = exp(mu_e
    + sigma_e v), on [-40, 40], beyond which phi(v) underflows, with
    breakpoints at 0, at the threshold's floor kink and where the log
    threshold crosses mu_bob and mu_relay.
    """
    _require_random(ep, "secrecy_outage_reference")
    floor, offset = _log_threshold(rs_target, ep.eve.mu)
    se = ep.eve.sigma
    mb, cb = ep.bob.mu, 1.0 / (_SQRT2 * ep.bob.sigma)
    mr, cr = ep.relay.mu, 1.0 / (_SQRT2 * ep.relay.sigma)

    def f(v: float) -> float:
        x = offset + se * v
        lt = (x + math.log1p(math.exp(floor - x)) if x > floor
              else floor + math.log1p(math.exp(x - floor)))
        survival = math.erfc((lt - mb) * cb) * math.erfc((lt - mr) * cr)
        return (1.0 - 0.25 * survival) * math.exp(-0.5 * v * v) / _SQRT_2PI

    kinks = tuple((t - offset) / se for t in (floor, mb, mr))
    est = adaptive_integrate(f, -40.0, 40.0, rel_tol, kinks + (0.0,))
    return MetricResult(_clamp_unit(est.value, "secrecy_outage_reference"),
                        est.error_estimate)
