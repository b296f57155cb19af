"""Scalar reference accumulators kept for the tests.

The package sums term arrays correctly rounded (``numerics.fsum_complex``)
and evaluates log(1 - x) on whole arrays (``numerics.log1m_array``).  The
per-term loops the tests compare against use these scalar helpers, the ones
the package ran before it was vectorized: a Neumaier accumulator fed in a
fixed order and a series/principal-log ``log1m``.
"""

from __future__ import annotations

import cmath


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
