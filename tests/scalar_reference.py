"""Scalar reference accumulators and loops kept for the tests.

The package sums term arrays correctly rounded (``numerics.fsum_complex``)
and evaluates log(1 - x) on whole arrays (``numerics.log1m_array``).  The
per-term loops the tests compare against use these scalar helpers, the ones
the package ran before it was vectorized: a Neumaier accumulator fed in a
fixed order and a series/principal-log ``log1m``.  ``double_product`` is the
brute-force Selberg oracle as it ran one class at a time, summed by
``math.fsum`` term by term.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from geozeta.chars import HolonomyClass, sigma_char
from geozeta.identities import _default_pq_max
from geozeta.numerics import log1m_array


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


def fsum_complex(terms) -> complex:
    """``math.fsum`` of the real and of the imaginary parts, term by term."""
    terms = np.ravel(terms)
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def double_product(spec, m: int, k: int, s: complex, pq_max: int | None) -> complex:
    """The brute-force Selberg oracle as it ran one class at a time.

    ``identities._double_product`` batches classes into chunks and sums each
    class row with ``numerics.fsum_rows``; both compute every factor with the
    same operations in the same order, so this loop is its bit-for-bit
    reference.
    """
    s = complex(s)
    if pq_max is None:
        pq_max = _default_pq_max(spec)
    exponents = np.arange(pq_max + 1)
    pp, qq = np.indices((pq_max + 1, pq_max + 1))
    keep = pp + qq <= pq_max
    pp, qq = pp[keep], qq[keep]
    weights = m - 2 * np.arange(m + 1)
    class_logs = []
    for cls in spec.primitive_classes():
        h = HolonomyClass(cls.length, cls.angle, cls.spin_sign)
        a = cmath.exp(-complex(cls.length, cls.angle))
        b = cmath.exp(-complex(cls.length, -cls.angle))
        c = (sigma_char(h, k) * (a ** exponents)[pp] * (b ** exponents)[qq]
             * cmath.exp(-s * cls.length))
        x = np.multiply.outer(h.eigenvalue() ** weights, c)
        class_logs.append(cls.multiplicity * fsum_complex(log1m_array(x)))
    return cmath.exp(fsum_complex(class_logs))
