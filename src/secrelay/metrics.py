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

The references integrate in the same y and v domains, adaptively, with
breakpoints at the endpoint means (mapped to v for the outage), at 0, at
the outage threshold's floor kink and, for the outage, where the normal
weight of v has fallen by e^-4.5, e^-24.5 and e^-98.  The rate reference
integrates the closed erfc product, which holds no cancelling difference,
so it meets its relative tolerance on vanishing rates too.  Both references
accept a relative tolerance in [1e-12, 1e-4], and one that cannot meet it
raises AccuracyError.

Their integrator, ``adaptive_integrate``, ports QUADPACK (Piessens et al.,
1983): the qk21 21-point Gauss-Kronrod rule and its error estimate, qagpe's
breakpoints, crude-interval rule, bisection of the largest error and
round-off tests, and qagi's map of an infinite upper limit.  Wynn's epsilon
extrapolation is left out, because the integrands are smooth.  Its
integrand takes all 21 nodes of a panel in one call and returns their
values, so the loop over the nodes runs inside the integrand, and qk21's
sums are unrolled in QUADPACK's order, so they round as its loop does.

The estimators and the references loop with ``math.erfc``, ``exp`` and
``log1p``, so neither route needs numpy or scipy.
"""
from __future__ import annotations

import functools
import heapq
import logging
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
# where the outage reference's normal weight phi(v) has fallen by 1,
# e^-4.5, e^-24.5 and e^-98: its bisection starts from these
_PHI_BREAKS = (0.0, -3.0, 3.0, -7.0, 7.0, -14.0, 14.0)
# Phi(-14), the normal mass above v = 14
_PHI_TAIL_14 = 0.5 * math.erfc(14.0 / _SQRT2)
# subintervals the adaptive integrator may use
_LIMIT = 400
_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min
# QUADPACK's 21-point Kronrod nodes on [0, 1], outermost first, the centre
# 0 being the 21st; the odd ones are the 10-point Gauss nodes
(_X0, _X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8,
 _X9) = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
         0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
         0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
         0.14887433898163122)
# their Kronrod weights, the centre's last
(_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8, _K9,
 _K10) = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
          0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
          0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
          0.14773910490133849, 0.1494455540029169)
# the Gauss weights of _X1, _X3, ..., _X9
_G0, _G1, _G2, _G3, _G4 = (0.06667134430868814, 0.1494513491505806,
                           0.21908636251598204, 0.26926671930999635,
                           0.29552422471475287)


@dataclass(frozen=True)
class MetricResult:
    value: float
    error_estimate: Optional[float] = None  # set by adaptive integration


def _check_order(order: int) -> None:
    if not isinstance(order, numbers.Integral) or isinstance(order, bool):
        raise ConfigurationError(f"quadrature order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_QUADRATURE_ORDER:
        raise ConfigurationError(
            f"quadrature order must be in [1, {MAX_QUADRATURE_ORDER}], got {order}")


def _qk21(f: Callable[[list[float]], Sequence[float]], a: float,
          b: float) -> tuple[float, float, float, float]:
    """QUADPACK's qk21 on [a, b]: the 21-point Kronrod estimate, its error,
    and the integrals of |f| and of |f - mean| (resabs, resasc).

    f takes the panel's 21 nodes at once.  The error is resasc * min(1,
    (200 |K - G| / resasc)^1.5), G the embedded 10-point Gauss estimate, and
    no less than 50 eps resabs.  The sums are unrolled term by term in the
    order of qk21's loops, so they round as QUADPACK's do.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    (l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, fc,
     r9, r8, r7, r6, r5, r4, r3, r2, r1, r0) = f([
         centr - hlgth * _X0, centr - hlgth * _X1, centr - hlgth * _X2,
         centr - hlgth * _X3, centr - hlgth * _X4, centr - hlgth * _X5,
         centr - hlgth * _X6, centr - hlgth * _X7, centr - hlgth * _X8,
         centr - hlgth * _X9, centr, centr + hlgth * _X9, centr + hlgth * _X8,
         centr + hlgth * _X7, centr + hlgth * _X6, centr + hlgth * _X5,
         centr + hlgth * _X4, centr + hlgth * _X3, centr + hlgth * _X2,
         centr + hlgth * _X1, centr + hlgth * _X0])
    resk = (_K10 * fc + _K1 * (l1 + r1) + _K3 * (l3 + r3) + _K5 * (l5 + r5)
            + _K7 * (l7 + r7) + _K9 * (l9 + r9) + _K0 * (l0 + r0) + _K2 * (l2 + r2)
            + _K4 * (l4 + r4) + _K6 * (l6 + r6) + _K8 * (l8 + r8))
    if not math.isfinite(resk):
        raise ValueError(f"the integrand is not finite on [{a!r}, {b!r}]: "
                         f"its Kronrod sum is {resk!r}")
    resg = (_G0 * (l1 + r1) + _G1 * (l3 + r3) + _G2 * (l5 + r5) + _G3 * (l7 + r7)
            + _G4 * (l9 + r9))
    resabs = (_K10 * abs(fc) + _K1 * (abs(l1) + abs(r1)) + _K3 * (abs(l3) + abs(r3))
              + _K5 * (abs(l5) + abs(r5)) + _K7 * (abs(l7) + abs(r7))
              + _K9 * (abs(l9) + abs(r9)) + _K0 * (abs(l0) + abs(r0))
              + _K2 * (abs(l2) + abs(r2)) + _K4 * (abs(l4) + abs(r4))
              + _K6 * (abs(l6) + abs(r6)) + _K8 * (abs(l8) + abs(r8)))
    h = 0.5 * resk  # QUADPACK's reskh, the mean of f on the panel
    resasc = (_K10 * abs(fc - h) + _K0 * (abs(l0 - h) + abs(r0 - h))
              + _K1 * (abs(l1 - h) + abs(r1 - h)) + _K2 * (abs(l2 - h) + abs(r2 - h))
              + _K3 * (abs(l3 - h) + abs(r3 - h)) + _K4 * (abs(l4 - h) + abs(r4 - h))
              + _K5 * (abs(l5 - h) + abs(r5 - h)) + _K6 * (abs(l6 - h) + abs(r6 - h))
              + _K7 * (abs(l7 - h) + abs(r7 - h)) + _K8 * (abs(l8 - h) + abs(r8 - h))
              + _K9 * (abs(l9 - h) + abs(r9 - h)))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        abserr = max(50.0 * _EPS * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def adaptive_integrate(f: Callable[[list[float]], Sequence[float]], a: float,
                       b: float, rel_tol: float,
                       points: Sequence[float] = ()) -> MetricResult:
    """Globally adaptive 21-point Gauss-Kronrod quadrature of f over [a, b].

    f is called once per panel: it takes the panel's 21 nodes as a list in
    ascending order and returns their 21 values in the same order, so the
    loop over the nodes runs inside the integrand.  A scalar g goes in as
    ``lambda xs: [g(x) for x in xs]``.

    A port of QUADPACK's qagpe (Piessens et al., 1983) on its qk21 rule:
    the breakpoints inside (a, b) split the range into initial intervals;
    one whose error equals its resasc (too crude to trust) carries the total
    error, so it is split first; then the interval with the largest error is
    bisected until the errors sum to at most rel_tol |integral|.  b may be
    math.inf when there are no breakpoints: qagi's substitution
    x = a + (1 - t) / t maps it onto t in (0, 1].  Reversed finite limits
    give the negated integral.  Wynn's epsilon extrapolation is left out:
    the integrands here are smooth, so plain bisection converges.

    Returns the estimate with its estimated relative error.  Raises
    AccuracyError (carrying the best estimate) where qagpe flags the
    result: 400 subintervals used, round-off detected, or an interval
    bisected to within about 100 float spacings of its midpoint.  Raises
    ValueError, naming the value, where a panel's Kronrod sum is nan or
    infinite, which any nan or infinite value of f makes it.
    """
    if not (_REL_TOL_MIN <= rel_tol <= _REL_TOL_MAX):
        raise ValueError(
            f"rel_tol must lie in [{_REL_TOL_MIN:g}, {_REL_TOL_MAX:g}], got {rel_tol!r}")
    if not math.isfinite(a):
        raise ValueError(f"lower limit must be finite, got {a!r}")
    if math.isnan(b) or b == -math.inf:
        raise ValueError(f"upper limit must be finite or +inf, got {b!r}")
    sign = 1.0
    if b == math.inf:
        if points:
            raise ValueError("breakpoints cannot be used with an infinite limit")
        g, lower = f, a

        def f(ts: list[float]) -> list[float]:
            # x falls as t rises, so g gets the mapped nodes reversed
            values = g([lower + (1.0 - t) / t for t in reversed(ts)])
            return [v / (t * t) for v, t in zip(reversed(values), ts)]

        a, b = 0.0, 1.0
    elif b < a:
        a, b, sign = b, a, -1.0
    edges = [a, *sorted({p for p in points if a < p < b}), b]

    parts = [(left, right, *_qk21(f, left, right))
             for left, right in zip(edges, edges[1:])]
    total = sum(part[2] for part in parts)
    abserr = sum(part[3] for part in parts)
    resabs = sum(part[4] for part in parts)
    # the intervals as (-error, left, right, area), the largest error on top
    # of the heap; one too crude to trust (its error is its resasc) carries
    # the total error, so it is split first
    heap = [(-(abserr if err == resasc != 0.0 else err), left, right, area)
            for left, right, area, err, _, resasc in parts]
    errbnd = max(_ABS_FLOOR, rel_tol * abs(total))
    # a first pass within the bound stands, with its own error
    errsum = abserr if abserr <= errbnd else -sum(item[0] for item in heap)
    heapq.heapify(heap)
    cause = None
    if errbnd < abserr <= 100.0 * _EPS * resabs:
        cause = "round-off error detected"
    iroff1 = iroff3 = 0
    while cause is None and errsum > errbnd:
        neg_errmax, left, right, area = heapq.heappop(heap)
        errmax = -neg_errmax
        mid = 0.5 * (left + right)
        area1, err1, _, resasc1 = _qk21(f, left, mid)
        area2, err2, _, resasc2 = _qk21(f, mid, right)
        heapq.heappush(heap, (-err1, left, mid, area1))
        heapq.heappush(heap, (-err2, mid, right, area2))
        area12 = area1 + area2
        erro12 = err1 + err2
        errsum += erro12 - errmax
        total += area12 - area
        errbnd = max(_ABS_FLOOR, rel_tol * abs(total))
        if resasc1 != err1 and resasc2 != err2:
            if abs(area - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if len(heap) > 10 and erro12 > errmax:
                iroff3 += 1
        if iroff1 >= 10 or iroff3 >= 20:
            cause = "round-off error detected"
        elif len(heap) == _LIMIT:
            cause = f"{_LIMIT} subintervals used"
        elif (max(abs(left), abs(right))
              <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _UFLOW)):
            cause = f"the integrand is bad near {mid!r}"
    value = sign * math.fsum(item[3] for item in heap)
    rel_err = abs(errsum) / max(abs(value), _ABS_FLOOR) if value != 0.0 else 0.0
    if cause:
        raise AccuracyError(f"adaptive integration did not converge: {cause}",
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
def _trapezoid_cells(order: int) -> tuple[tuple[float, ...], float]:
    """Midpoints of `order` equal cells of [0, 1], and the factor
    (order / 24)^(2/3) that scales the window depth."""
    _check_order(order)
    k = int(order)
    return tuple((i + 0.5) / k for i in range(k)), (k / 24.0) ** (2.0 / 3.0)


def _hinge_root(tau: float, p1: float, s1: float, p2: float, s2: float) -> float:
    """The x where ((x - p1)_+ / s1)^2 / 2 + ((x - p2)_+ / s2)^2 / 2 = tau > 0."""
    r = math.sqrt(2.0 * tau)
    v1, v2 = s1 * s1, s2 * s2
    gap = p1 - p2
    disc = 2.0 * tau * (v1 + v2) - gap * gap  # an overflow gives -inf or nan
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
    me, mb, mr = ep.eve.mu, ep.bob.mu, ep.relay.mu
    # each factor scaled by its own sigma
    ce, cb, cr = (1.0 / (_SQRT2 * x.sigma) for x in (ep.eve, ep.bob, ep.relay))
    total = 0.0
    for c in cells:
        y = lo + (hi - lo) * c
        if y >= 0.0:  # the logistic factor e^y / (1 + e^y), without overflow
            logistic = 1.0 / (1.0 + math.exp(-y))
        else:
            ey = math.exp(y)
            logistic = ey / (1.0 + ey)
        total += (math.erfc((me - y) * ce) * math.erfc((y - mb) * cb)
                  * math.erfc((y - mr) * cr) * logistic)
    value = (hi - lo) / order * total / (8.0 * _LN2)
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
    lowest mean and eve's.  The window starts no lower than m - 745, m the
    lowest of bob's mean, the relay's and 0: the integrand is below e^y, so
    the mass it leaves out is at most e^(m - 745), against a rate of order
    e^m.  Breakpoints sit at the three means and at 0.  Below y = -709,
    where exp(-y) would overflow, the logistic factor is taken as e^y.
    """
    _require_random(ep, "avg_secrecy_rate_reference")
    e, b, r = ep.eve, ep.bob, ep.relay
    means = me, mb, mr = e.mu, b.mu, r.mu
    # each factor scaled by its own sigma
    ce, cb, cr = (1.0 / (_SQRT2 * x.sigma) for x in (e, b, r))

    def f(ys: list[float], erfc=math.erfc, exp=math.exp) -> list[float]:
        if ys[0] < -709.0:  # the nodes ascend; exp(-y) overflows below -709.78
            return [far_left(y) for y in ys]
        return [erfc((me - y) * ce) * erfc((y - mb) * cb) * erfc((y - mr) * cr)
                / (8.0 * (1.0 + exp(-y))) for y in ys]

    def far_left(y: float) -> float:
        if y >= -709.0:
            return f([y])[0]
        # the logistic factor e^y / (1 + e^y) rounds to e^y here
        return (math.erfc((me - y) * ce) * math.erfc((y - mb) * cb)
                * math.erfc((y - mr) * cr) * math.exp(y) / 8.0)

    reach = 12.0 * _SQRT2
    lo = me - reach * e.sigma
    hi, upper_sigma = min((mb + reach * b.sigma, b.sigma),
                          (mr + reach * r.sigma, r.sigma))
    if hi - lo < reach * max(e.sigma, upper_sigma):
        widest = reach * max(e.sigma, b.sigma, r.sigma)
        lo, hi = min(means) - widest, me + widest
    # the integrand is below e^y, so little mass lies 745 below m, the lowest
    # of bob's mean, the relay's and 0; a window reaching further would
    # space its first panel's nodes past the mass near m
    lo = max(lo, min(mb, mr, 0.0) - 745.0)
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
    _require_random(ep, "secrecy_outage")
    floor, offset = _log_threshold(rs_target, ep.eve.mu)
    cells, depth_scale = _trapezoid_cells(order)  # validates the order range
    lo, hi = _outage_window(ep, floor, offset, _OUTAGE_WINDOW_NATS * depth_scale)
    se = ep.eve.sigma
    mb, cb = ep.bob.mu, 1.0 / (_SQRT2 * ep.bob.sigma)
    mr, cr = ep.relay.mu, 1.0 / (_SQRT2 * ep.relay.sigma)
    total = 0.0
    for c in cells:
        v = lo + (hi - lo) * c
        x = offset + se * v
        # logaddexp(floor, x)
        lt = (x + math.log1p(math.exp(floor - x)) if x > floor
              else floor + math.log1p(math.exp(x - floor)))
        total += (math.erfc((lt - mb) * cb) * math.erfc((lt - mr) * cr)
                  * math.exp(-0.5 * v * v))
    integral = (hi - lo) / order * total
    value = 1.0 - integral / (4.0 * _SQRT_2PI)
    return MetricResult(value=_clamp_unit(value, "secrecy_outage"))


def secrecy_outage_reference(ep: Endpoints, rs_target: float,
                             rel_tol: float = 1e-10) -> MetricResult:
    """Secrecy outage by adaptive integration of F_min(2^rs (1+z) - 1) f_eve(z).

    The integral runs over the eavesdropper's standard-normal v, z = exp(mu_e
    + sigma_e v), with breakpoints at the threshold's floor kink, where the
    log threshold crosses mu_bob and mu_relay, and at 0, +-3, +-7 and +-14,
    where phi(v) has fallen by 1, e^-4.5, e^-24.5 and e^-98.

    It starts at v = -14: F_min(t(v)) never falls as v rises, so the mass
    below -14 is at most Phi(-14) / (1 - Phi(-14)) ~ 8e-45 of the total.  It
    ends at v = 14 when the mass above, at most Phi(-14) since the
    integrand is below phi(v), is at most 1e-20 of a lower bound on the
    outage, F_min(t0) / 2 >= max(F_bob(t0), F_relay(t0)) / 2 with t0 =
    max(floor, offset) <= t(v) for v >= 0; otherwise it ends at 40, beyond
    which phi(v) underflows.
    """
    _require_random(ep, "secrecy_outage_reference")
    floor, offset = _log_threshold(rs_target, ep.eve.mu)
    se = ep.eve.sigma
    mb, cb = ep.bob.mu, 1.0 / (_SQRT2 * ep.bob.sigma)
    mr, cr = ep.relay.mu, 1.0 / (_SQRT2 * ep.relay.sigma)

    def f(vs: list[float], erfc=math.erfc, exp=math.exp,
          log1p=math.log1p) -> list[float]:
        values = []
        for v in vs:
            x = offset + se * v
            lt = (x + log1p(exp(floor - x)) if x > floor
                  else floor + log1p(exp(x - floor)))
            survival = erfc((lt - mb) * cb) * erfc((lt - mr) * cr)
            values.append((1.0 - 0.25 * survival) * exp(-0.5 * v * v) / _SQRT_2PI)
        return values

    kinks = tuple((t - offset) / se for t in (floor, mb, mr))
    t0 = max(floor, offset)  # t(v) >= t0 for v >= 0
    lower_bound = 0.25 * max(math.erfc((mb - t0) * cb), math.erfc((mr - t0) * cr))
    hi = 14.0 if _PHI_TAIL_14 <= 1e-20 * lower_bound else 40.0
    est = adaptive_integrate(f, -14.0, hi, rel_tol, kinks + _PHI_BREAKS)
    return MetricResult(_clamp_unit(est.value, "secrecy_outage_reference"),
                        est.error_estimate)
