"""Gaussian quadrature rules and a reference integrator.

The Gauss-Laguerre and Gauss-Hermite tables behind the paper's closed forms
(``rule="paper"``) come from numpy's ``laggauss``/``hermgauss``.  Everything
here is a pure function of its inputs; rules are immutable and cached, so
concurrent use is safe.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate

from .errors import AccuracyError, ConfigurationError

__all__ = [
    "QuadratureRule",
    "IntegralEstimate",
    "gauss_laguerre_rule",
    "gauss_hermite_rule",
    "adaptive_integrate",
]

MAX_QUADRATURE_ORDER = 128

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Laguerre or Gauss-Hermite rule.

    A rule of order K integrates polynomials of degree <= 2K-1 exactly
    against its weight function (e^-x on [0, inf) for Laguerre, e^-x^2 on
    the real line for Hermite).
    """

    kind: str
    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ConfigurationError(f"quadrature order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_QUADRATURE_ORDER:
        raise ConfigurationError(
            f"quadrature order must be in [1, {MAX_QUADRATURE_ORDER}], got {order}")


@functools.lru_cache(maxsize=None)
def gauss_laguerre_rule(order: int) -> QuadratureRule:
    """Gauss-Laguerre rule: integrates f against e^-x on [0, inf)."""
    _check_order(order)
    nodes, weights = np.polynomial.laguerre.laggauss(int(order))
    return QuadratureRule("laguerre", int(order), tuple(nodes), tuple(weights))


@functools.lru_cache(maxsize=None)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Gauss-Hermite rule: integrates f against e^-x^2 on (-inf, inf)."""
    _check_order(order)
    nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    return QuadratureRule("hermite", int(order), tuple(nodes), tuple(weights))


class IntegralEstimate(NamedTuple):
    value: float
    rel_error: float


_REL_TOL_MIN = 1e-12
_REL_TOL_MAX = 1e-3
# absolute floor so integrals that are numerically zero still converge
_ABS_FLOOR = 1e-300


def adaptive_integrate(f: Callable[[float], float], a: float, b: float,
                       rel_tol: float) -> IntegralEstimate:
    """Adaptive quadrature of f over [a, b], b may be math.inf.

    A semi-infinite interval is first mapped onto (0, 1) via
    x = a + t / (1 - t), then handed to an adaptive Gauss-Kronrod scheme.
    Returns the estimate together with its estimated relative error; raises
    AccuracyError (carrying the best estimate) if the tolerance cannot be met.
    """
    if not (_REL_TOL_MIN <= rel_tol <= _REL_TOL_MAX):
        raise ValueError(
            f"rel_tol must lie in [{_REL_TOL_MIN:g}, {_REL_TOL_MAX:g}], got {rel_tol!r}")
    if not math.isfinite(a):
        raise ValueError(f"lower limit must be finite, got {a!r}")

    if math.isinf(b):
        def g(t: float) -> float:
            if t >= 1.0:
                return 0.0
            u = 1.0 - t
            return f(a + t / u) / (u * u)

        lo, hi = 0.0, 1.0
    else:
        g, lo, hi = f, a, b

    out = integrate.quad(g, lo, hi, epsabs=_ABS_FLOOR, epsrel=rel_tol,
                         limit=400, full_output=1)
    value, abserr = out[0], out[1]
    rel_err = abs(abserr) / max(abs(value), _ABS_FLOOR) if value != 0.0 else 0.0
    if len(out) > 3:  # quadpack appended a convergence complaint
        raise AccuracyError("adaptive integration did not converge",
                            best_estimate=value, rel_error=rel_err)
    return IntegralEstimate(value, rel_err)
