"""The quadrature order range and the adaptive reference integrator.

The metrics references call it on finite windows in y = ln z (rate) and in
the standard-normal eavesdropper variable v (outage), with breakpoints at the
endpoint means (mapped to v for the outage), at 0 and at the outage floor.
Its relative-tolerance range, [1e-12, 1e-4], is the one both references
accept, and a call that misses its tolerance raises: it never hands back a
best estimate as if it were a result.

QUADPACK (``scipy.integrate``, which pulls in ``scipy.optimize``, ``linalg``
and ``sparse``) is imported on the first reference call, not with the
package: no sweep method integrates adaptively.  ``scipy.special`` is
likewise imported on the first closed-form call or endpoint fit, so an
``mc-composite`` sweep loads numpy alone, and the analytic and ``mc-ln``
sweeps add ``scipy.special``.

Everything here is a pure function of its inputs, so concurrent use is safe.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import AccuracyError, ConfigurationError

__all__ = ["IntegralEstimate", "adaptive_integrate"]

MAX_QUADRATURE_ORDER = 128


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ConfigurationError(f"quadrature order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_QUADRATURE_ORDER:
        raise ConfigurationError(
            f"quadrature order must be in [1, {MAX_QUADRATURE_ORDER}], got {order}")


class IntegralEstimate(NamedTuple):
    value: float
    rel_error: float


_REL_TOL_MIN = 1e-12
_REL_TOL_MAX = 1e-4
# absolute floor so integrals that are numerically zero still converge
_ABS_FLOOR = 1e-300


def adaptive_integrate(f: Callable[[float], float], a: float, b: float,
                       rel_tol: float, points: Sequence[float] = ()) -> IntegralEstimate:
    """Adaptive Gauss-Kronrod quadrature (QUADPACK) of f over [a, b].

    b may be math.inf when there are no breakpoints; breakpoints outside
    (a, b) are dropped.  Returns the estimate together with its estimated
    relative error; raises AccuracyError (carrying the best estimate) if the
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
    return IntegralEstimate(value, rel_err)
