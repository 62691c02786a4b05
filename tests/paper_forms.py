"""The paper's fixed-order quadrature forms of the two metrics.

The package evaluates both closed forms with a log-domain trapezoid rule.
The paper evaluates them with K-point Gauss-Laguerre (rate) and
Gauss-Hermite (outage) quadrature instead; those forms live here so the
tests can pin their measured envelope against the adaptive reference.
At order 24 the Laguerre rate form misses the 1e-6 relative gate of
test_c01 (its nodes sit above where low-SNR integrands live), and the
Hermite outage form misses the 1e-8 absolute gate of test_c02.  The node
and weight tables are numpy's, behind the package's quadrature-order check.
"""
import functools
import math
from typing import NamedTuple

import numpy as np
from scipy import special

from secrelay.numerics import _check_order

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)


class QuadratureRule(NamedTuple):
    """A K-point Gauss rule: integrates polynomials of degree <= 2K-1 exactly
    against its weight function (e^-x on [0, inf) for Laguerre, e^-x^2 on the
    real line for Hermite)."""

    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]


@functools.lru_cache(maxsize=None)
def gauss_laguerre_rule(order):
    """numpy's Gauss-Laguerre table, order checked as the package checks it."""
    _check_order(order)
    nodes, weights = np.polynomial.laguerre.laggauss(int(order))
    return QuadratureRule(int(order), tuple(nodes), tuple(weights))


@functools.lru_cache(maxsize=None)
def gauss_hermite_rule(order):
    """numpy's Gauss-Hermite table, order checked as the package checks it."""
    _check_order(order)
    nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    return QuadratureRule(int(order), tuple(nodes), tuple(weights))


def paper_rate(ep, order):
    """Average secrecy rate in bits/s/Hz by K-point Gauss-Laguerre quadrature.

    The rate integrand over z is mapped through z = e^t - 1, cancelling the
    1/(1+z) factor against the Jacobian; the remaining integral against
    e^-t takes the Laguerre rule, hence the e^(node) factor on each weight.
    """
    rule = gauss_laguerre_rule(order)
    x, w = np.array(rule.nodes), np.array(rule.weights)
    lz = np.log(np.expm1(x))
    prod = (special.erfc((ep.eve.mu - lz) / (_SQRT2 * ep.eve.sigma))
            * special.erfc((-ep.bob.mu + lz) / (_SQRT2 * ep.bob.sigma))
            * special.erfc((-ep.relay.mu + lz) / (_SQRT2 * ep.relay.sigma)))
    # weights times e^node in log space: both span hundreds of orders of
    # magnitude at high order
    return float(np.sum(np.exp(np.log(w) + x) * prod)) / (8.0 * _LN2)


def paper_outage(ep, rs_target, order):
    """Secrecy outage probability by K-point Gauss-Hermite quadrature.

    The expectation over the eavesdropper SNR runs along z =
    exp(mu_e + sqrt(2) sigma_e u), which turns its density into the e^-u^2
    Hermite weight; the end-to-end CDF is taken at the rate threshold
    2^rs (1 + z) - 1.
    """
    rule = gauss_hermite_rule(order)
    u, w = np.array(rule.nodes), np.array(rule.weights)
    threshold = 2.0 ** rs_target * (np.exp(ep.eve.mu + _SQRT2 * ep.eve.sigma * u) + 1.0) - 1.0
    lt = np.log(threshold)
    survival = (special.erfc((-ep.bob.mu + lt) / (_SQRT2 * ep.bob.sigma))
                * special.erfc((-ep.relay.mu + lt) / (_SQRT2 * ep.relay.sigma)))
    return 1.0 - float(np.sum(w * survival)) / (4.0 * math.sqrt(math.pi))
