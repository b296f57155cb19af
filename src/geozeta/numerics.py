"""Deterministic complex accumulation and branch-safe log helpers.

All Euler products in this package are accumulated in log space.  The
vectorized evaluators sum their term arrays with ``fsum_complex``: each of
the real and imaginary parts is correctly rounded (``math.fsum``), so the
result does not depend on term order and rounding error does not grow with
the ~1e5 factors.  The scalar reference routes (the brute-force and
determinant oracles) feed terms in a fixed order to a Neumaier
``CompensatedSum``.  Either way every evaluation is bit-reproducible
regardless of how callers parallelize across grid points.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def fsum_complex(terms: np.ndarray) -> complex:
    """Correctly rounded sum of a complex array, real and imaginary parts apart."""
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _neumaier_step(s: float, c: float, x: float) -> tuple[float, float]:
    # Error-free transformation: s + x = t + (compensation added to c).
    t = s + x
    if abs(s) >= abs(x):
        c += (s - t) + x
    else:
        c += (x - t) + s
    return t, c


class CompensatedSum:
    """Neumaier accumulator for complex terms fed in a fixed order."""

    __slots__ = ("_sr", "_cr", "_si", "_ci")

    def __init__(self) -> None:
        self._sr = 0.0
        self._cr = 0.0
        self._si = 0.0
        self._ci = 0.0

    def add(self, z: complex) -> None:
        self._sr, self._cr = _neumaier_step(self._sr, self._cr, z.real)
        self._si, self._ci = _neumaier_step(self._si, self._ci, z.imag)

    @property
    def value(self) -> complex:
        return complex(self._sr + self._cr, self._si + self._ci)


_SERIES_CUTOFF = 0.5
_SERIES_MAX_TERMS = 256


def log1m(x: complex) -> complex:
    """log(1 - x), principal branch.

    Uses the power series -sum_{m>=1} x^m / m for |x| < 1/2 (the regime every
    convergent Euler-product factor lives in) and the principal log otherwise.
    Termination depends only on x, so results are deterministic.
    """
    if abs(x) < _SERIES_CUTOFF:
        term = x
        acc = -x
        for m in range(2, _SERIES_MAX_TERMS):
            term *= x
            delta = term / m
            acc -= delta
            if abs(delta) <= 1e-18 * max(abs(acc), 1e-300):
                return acc
        return acc
    return cmath.log(1.0 - x)
