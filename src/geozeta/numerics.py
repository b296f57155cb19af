"""Correctly rounded complex sums and a vectorized log(1 - x).

All Euler products in this package are accumulated in log space as numpy
term arrays.  ``fsum_complex`` sums such an array with each of the real and
imaginary parts correctly rounded (``math.fsum``), so the result does not
depend on term order and rounding error does not grow with the number of
factors.  Every evaluation is therefore bit-reproducible regardless of how
callers parallelize across grid points.
"""

from __future__ import annotations

import math

import numpy as np


def fsum_complex(terms) -> complex:
    """Correctly rounded sum of a complex array of any shape, real and imaginary parts apart."""
    terms = np.ravel(terms)
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def log1m_array(x: np.ndarray) -> np.ndarray:
    """log(1 - x), principal branch, elementwise and accurate for tiny |x|.

    ``w = 1 - x`` loses the low bits of x, but log(w) / (w - 1) is smooth and
    is evaluated at the rounded w exactly, so log(w) * ((-x) / (w - 1))
    keeps the relative accuracy that numpy's complex ``log1p`` loses near
    zero (Goldberg's log1p device).  For |x| <= 2^-53, which includes every
    x with 1 - x rounding to 1, the two-term series -x - x^2/2 is already
    exact to working precision and the division is skipped: there w - 1 can
    be subnormal and its reciprocal overflow.
    """
    x = np.asarray(x, dtype=complex)
    tiny = np.abs(x) <= 2.0 ** -53
    w = np.where(tiny, 2.0, 1.0 - x)  # 2 is a placeholder, discarded below
    return np.where(tiny, -x - 0.5 * x * x, np.log(w) * ((-x) / (w - 1.0)))
