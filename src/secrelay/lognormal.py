"""Log-normal SNR algebra.

A link SNR is represented by the natural-log parameters (mu, sigma) of a
log-normal variable.  Composite Nakagami-m/log-normal links are collapsed to
a single log-normal by matching the exact log-moments of the Gamma x LN
product; sums are collapsed by matching the first two linear-scale cumulants
(Fenton-Wilkinson).  sigma = 0 denotes a point mass at e^mu and is accepted
everywhere, so degenerate limits remain testable.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "DB_TO_NAT",
    "LogNormal",
    "Cumulants",
    "CompositeLink",
    "from_composite",
    "cumulants",
    "from_cumulants",
    "ratio",
    "sum_lognormals",
]

# xi = ln(10)/10 converts decibels to natural log units
DB_TO_NAT = math.log(10.0) / 10.0

_SQRT2 = math.sqrt(2.0)
_EXP_ARG_MAX = 709.0  # exp() overflows just above this
_FLOAT_MIN = sys.float_info.min  # the smallest normal float64


@dataclass(frozen=True)
class LogNormal:
    """Log-normal SNR in natural-log parameters: ln X ~ Normal(mu, sigma^2)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")

    def cdf(self, z: float) -> float:
        """P[X <= z]; a right-continuous step at e^mu when sigma == 0."""
        if math.isnan(z):
            raise ValueError("cdf requires a number, got nan")
        if z <= 0.0:
            return 0.0
        if self.sigma == 0.0:
            return 1.0 if math.log(z) >= self.mu else 0.0
        return 0.5 * math.erfc((self.mu - math.log(z)) / (_SQRT2 * self.sigma))


@dataclass(frozen=True)
class Cumulants:
    """First two cumulants of a linear-scale SNR: mean k1 and variance k2."""

    k1: float
    k2: float

    def __post_init__(self):
        if not (self.k1 > 0.0):
            raise ValueError(f"k1 must be positive, got {self.k1!r}")
        if not (self.k2 >= 0.0):
            raise ValueError(f"k2 must be non-negative, got {self.k2!r}")

    def __add__(self, other: "Cumulants") -> "Cumulants":
        # cumulants of independent variables add
        return Cumulants(self.k1 + other.k1, self.k2 + other.k2)

    def scaled(self, n: float) -> "Cumulants":
        return Cumulants(n * self.k1, n * self.k2)


@dataclass(frozen=True)
class CompositeLink:
    """One radio link: Nakagami shape m, mean SNR and shadowing sd in dB."""

    m: float
    mean_snr_db: float
    shadow_sd_db: float

    def __post_init__(self):
        if not (self.m >= 0.5):
            raise ValueError(f"Nakagami shape must be >= 0.5, got {self.m!r}")
        if not (self.shadow_sd_db >= 0.0):
            raise ValueError(f"shadowing sd must be >= 0 dB, got {self.shadow_sd_db!r}")
        if not math.isfinite(self.mean_snr_db):
            raise ValueError(f"mean SNR must be finite, got {self.mean_snr_db!r}")


@functools.lru_cache(maxsize=64)
def _gamma_log_moments(m: float) -> tuple[float, float]:
    """Mean psi(m) - ln(m) and variance zeta(2, m) of ln G, G ~ Gamma(m, 1/m).

    The recurrences psi(x) = psi(x + 1) - 1/x and zeta(2, x) = zeta(2, x + 1)
    + 1/x^2 carry m up to x >= 16, where the asymptotic series of psi(x) -
    ln(x) and of zeta(2, x), to the Bernoulli number B_12, are exact in
    float64.  A network has a handful of distinct shapes, so each is computed
    once, without scipy.
    """
    n = 0 if m >= 16.0 else math.ceil(16.0 - m)
    x = m + n
    t = 1.0 / (x * x)
    mean = -0.5 / x - t * (1 / 12 - t * (1 / 120 - t * (
        1 / 252 - t * (1 / 240 - t * (1 / 132 - t * 691 / 32760)))))
    var = 1.0 / x + 0.5 * t + t / x * (1 / 6 - t * (1 / 30 - t * (
        1 / 42 - t * (1 / 30 - t * (5 / 66 - t * 691 / 2730)))))
    for j in reversed(range(n)):  # smallest terms first
        y = m + j
        mean -= 1.0 / y
        var += 1.0 / (y * y)
    mean += math.log(x / m)
    return mean, var


def from_composite(link: CompositeLink) -> LogNormal:
    """Fit a single log-normal to a Gamma(m) x log-normal composite SNR.

    Matches the exact log-moments of the product: the Gamma factor with unit
    mean contributes psi(m) - ln(m) to the mean of ln(SNR) and zeta(2, m) to
    its variance; shadowing contributes its dB moments converted to nats.
    """
    gamma_mean, gamma_var = _gamma_log_moments(float(link.m))
    mu = gamma_mean + DB_TO_NAT * link.mean_snr_db
    var = gamma_var + (DB_TO_NAT * link.shadow_sd_db) ** 2
    return LogNormal(mu, math.sqrt(var))


def cumulants(rv: LogNormal) -> Cumulants:
    """Linear-scale mean and variance of a log-normal SNR.

    Raises where they overflow, or where a spread log-normal's scale
    e^(2 mu + sigma^2) and so its variance underflow below the smallest
    normal float.
    """
    s2 = rv.sigma * rv.sigma
    if rv.mu + 0.5 * s2 > _EXP_ARG_MAX or 2.0 * rv.mu + 2.0 * s2 > _EXP_ARG_MAX:
        raise OverflowError(
            f"cumulants of LogNormal(mu={rv.mu!r}, sigma={rv.sigma!r}) overflow")
    k1 = math.exp(rv.mu + 0.5 * s2)
    scale = math.exp(2.0 * rv.mu + s2)
    k2 = math.expm1(s2) * scale
    if k2 < _FLOAT_MIN and scale < _FLOAT_MIN and rv.sigma > 0.0:
        # the SNR's scale underflowed, and a subnormal variance has lost its
        # digits (a zero one its spread); a vanishing spread at a normal
        # scale is the point mass it nearly is
        raise ValueError(
            f"cumulants of LogNormal(mu={rv.mu!r}, sigma={rv.sigma!r}) underflow: "
            f"the variance {k2!r} is below the smallest normal float")
    return Cumulants(k1, k2)


def from_cumulants(c: Cumulants) -> LogNormal:
    """Exact inverse of cumulants(): the log-normal with mean k1, variance k2."""
    # k2/k1^2 evaluated as (k2/k1)/k1 so k1^2 never overflows
    s2 = math.log1p((c.k2 / c.k1) / c.k1)
    return LogNormal(math.log(c.k1) - 0.5 * s2, math.sqrt(s2))


def ratio(num: LogNormal, den: LogNormal) -> LogNormal:
    """Distribution of num/den for independent log-normals (exact)."""
    return LogNormal(num.mu - den.mu, math.hypot(num.sigma, den.sigma))


def sum_lognormals(terms: Iterable[LogNormal]) -> LogNormal:
    """Single log-normal fitted to a sum of independent log-normals.

    Adds the linear-scale cumulants term by term and refits
    (Fenton-Wilkinson moment matching).  A one-element sum is returned
    unchanged.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("sum_lognormals requires at least one term")
    if len(terms) == 1:
        return terms[0]
    total = cumulants(terms[0])
    for rv in terms[1:]:
        total = total + cumulants(rv)
    return from_cumulants(total)

