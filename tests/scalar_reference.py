"""Scalar reference accumulators and loops kept for the tests.

The package sums term arrays correctly rounded (``numerics.fsum_complex``)
and evaluates log(1 - x) on whole arrays (``numerics.log1m_array``).  The
per-term loops the tests compare against use these scalar helpers, the ones
the package ran before it was vectorized: a Neumaier accumulator fed in a
fixed order and a series/principal-log ``log1m``.  ``double_product`` is the
brute-force Selberg oracle as it ran one class at a time, summed by
``math.fsum`` term by term.  ``zograf_direct_log`` is the Zograf direct
path's k-layer sum as it ran one layer at a time, and ``ruelle_rho_direct``
the determinant oracle as it rebuilt every class's Newton coefficients at
each s.  ``power_rows`` turns a power table's columns back into one
``GeodesicEntry`` per power, for the per-power loops.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from geozeta.chars import eigenvalue, sigma_char, trace_rho
from geozeta.identities import _default_pq_max
from geozeta.numerics import log1m_array
from geozeta.spectrum import GeodesicEntry, power_holonomy, powers_up_to
from geozeta.zeta import _k_top, _sigma_terms


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
        a = cmath.exp(-complex(cls.length, cls.angle))
        b = cmath.exp(-complex(cls.length, -cls.angle))
        c = (sigma_char(cls, k) * (a ** exponents)[pp] * (b ** exponents)[qq]
             * cmath.exp(-s * cls.length))
        x = np.multiply.outer(eigenvalue(cls) ** weights, c)
        class_logs.append(cls.multiplicity * fsum_complex(log1m_array(x)))
    return cmath.exp(fsum_complex(class_logs))


def zograf_direct_log(spec, s: complex, p, layer_char, layer_shift) -> complex:
    """The Zograf direct path's log value as it was summed one k-layer at a time.

    ``zeta._zograf`` builds the layers in blocks and sums a block's rows with
    one ``numerics.fsum_rows`` call; every term comes from the same operations
    in the same order as ``_sigma_terms``, so this loop is its bit-for-bit
    reference.
    """
    table = powers_up_to(spec, p.l_cut)
    k_top = _k_top(spec)
    # the literal k-layer sum, one vector per layer: never k_top x powers at once
    layers = [fsum_complex(_sigma_terms(table, layer_char(k), s + layer_shift(k)))
              for k in range(k_top + 1)]
    return fsum_complex(np.array(layers))


def ruelle_rho_direct(spec, m: int, s: complex) -> complex:
    """The determinant oracle as it rebuilt each class's Newton coefficients at every s.

    ``identities.ruelle_rho_direct`` takes the s-independent coefficients
    (-1)^j e_j from a cache and evaluates the same polynomial by the same
    operations, so this loop is its bit-for-bit reference.
    """
    s = complex(s)
    dim = m + 1
    class_logs = []
    for cls in spec.primitive_classes():
        power_sums = []
        for i in range(1, dim + 1):
            length, angle, sign = power_holonomy(cls.length, cls.angle, cls.spin_sign, i)
            power_sums.append(trace_rho(GeodesicEntry(length, angle, sign), m))
        elem = [1.0 + 0j]
        for j in range(1, dim + 1):
            total = 0j
            for i in range(1, j + 1):
                total += (-1) ** (i - 1) * elem[j - i] * power_sums[i - 1]
            elem.append(total / j)
        x = cmath.exp(-s * cls.length)
        det = 0j
        xp = 1.0 + 0j
        for j in range(dim + 1):
            det += (-1) ** j * elem[j] * xp
            xp *= x
        class_logs.append(cls.multiplicity * cmath.log(det))
    return cmath.exp(fsum_complex(class_logs))


def power_rows(table) -> list[tuple[GeodesicEntry, int, float]]:
    """Each row of a power table as (the power's GeodesicEntry, m, base_length).

    The entry carries the power's length, angle, spin_sign and multiplicity
    columns, so the ``chars`` functions take it as they take any class.
    """
    columns = (table.length, table.angle, table.spin_sign, table.multiplicity, table.m,
               table.base_length)
    return [(GeodesicEntry(length, angle, sign, mult), m, base)
            for length, angle, sign, mult, m, base in zip(*(c.tolist() for c in columns))]
