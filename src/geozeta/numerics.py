"""Correctly rounded sums and a vectorized log(1 - x).

All Euler products in this package are accumulated in log space as numpy
term arrays.  ``fsum_complex`` sums such an array with each of the real and
imaginary parts correctly rounded, ``fsum_complex_rows`` each row of a 2-D
complex array, and ``fsum_real`` sums a real array the same way, so the
result does not depend on term order and rounding error does not grow with
the number of factors.  Every evaluation is therefore bit-reproducible
regardless of how callers parallelize across grid points.

All are thin calls to ``fsum_rows``, which returns exactly ``math.fsum``'s
value for every row of a 2-D array: on ``tolist()`` for short rows, else
in a few contiguous numpy passes.  Per row of n terms with largest magnitude
M (Rump, Ogita and Oishi, *Accurate floating-point summation, part I*, SIAM
J. Sci. Comput. 31(1), 2008):

- sigma is a power of two with sigma >= 2 (n + 2) M, and each term splits
  exactly into hi = (sigma + x) - sigma and lo = x - hi.  Every hi is a
  multiple of 2^-53 sigma and their total stays below sigma, so the hi parts
  sum exactly in any order;
- |lo| <= 2^-53 sigma, and any summation order of the lo parts errs by at
  most B = 2n 2^-53 sum |lo|, which the factor 2 makes a bound of the
  computed sums too;
- the candidate r = fl(t_hi + t_lo) is the correctly rounded sum when its
  TwoSum remainder plus B lies strictly below half the gap to r's nearer
  neighbour (a quarter of ``spacing(r)`` when |r| is a power of two).

A row of zeros sums to a zero that is negative only when every term is
-0.0; its sign is taken from ``math.fsum`` of one such zero, so it follows
``math.fsum`` on every Python version.  Rows that fail the test go to
``math.fsum``: a zero candidate, non-finite terms, a sigma that would overflow, a
2^-53 sigma below the subnormal spacing, and rows whose cancellation leaves
the candidate uncertified.  So values and exceptions are those of
``math.fsum`` and numpy raises no floating-point warning.  The numpy passes
cost about 50-70 us per call and ``math.fsum`` about 0.1 us per term
(Python 3.11, numpy 2.4, x86-64), so rows shorter than ``FSUM_ROWS_MIN``
go to ``math.fsum`` unless the array holds two such rows' worth of terms:
a one-row complex sum costs no more than ``math.fsum``, and 40 rows of 100
terms take 76 us instead of 237 us.
"""

from __future__ import annotations

import math

import numpy as np

# shorter rows go to math.fsum unless the array holds twice this many terms
FSUM_ROWS_MIN = 600

_EPS = 2.0 ** -53


def fsum_rows(x) -> list[float]:
    """``[math.fsum(row) for row in x]`` for a 2-D float array, bit for bit."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"fsum_rows needs a 2-D array, got {x.ndim} dimensions")
    n_rows, n = x.shape
    # short rows go to math.fsum, unless the array holds two rows' worth
    if n < FSUM_ROWS_MIN and x.size < 2 * FSUM_ROWS_MIN:
        return [math.fsum(row) for row in x.tolist()]
    buf = np.abs(x)
    mag = buf.max(axis=1)
    # sigma = 2^e_sigma >= 2 (n + 2) M, since M < 2^(frexp exponent of M)
    e_sigma = np.frexp(mag)[1].astype(np.int64) + (2 * n + 3).bit_length()
    rows = np.flatnonzero(np.isfinite(mag) & (e_sigma <= 1023) & (e_sigma >= 53 - 1074))
    result = [None] * n_rows
    if rows.size:
        xs = x
        if rows.size < n_rows:
            xs, buf = x[rows], buf[rows]
        sigma = np.ldexp(1.0, e_sigma[rows])[:, None]
        hi = np.subtract(np.add(sigma, xs, out=buf), sigma, out=buf)
        lo = xs - hi
        t_hi = hi.sum(axis=1)
        t_lo = lo.sum(axis=1)
        bound = np.abs(lo, out=lo).sum(axis=1) * (2 * n * _EPS)
        r = t_hi + t_lo
        bv = r - t_hi
        rem = (t_hi - (r - bv)) + (t_lo - bv)
        # half the gap to r's nearer neighbour; it rounds to 0 for a zero or
        # subnormal r, so math.fsum decides those rows, signed zeros included
        half_gap = np.spacing(np.abs(r)) * np.where(np.abs(np.frexp(r)[0]) == 0.5, 0.25, 0.5)
        certified = np.abs(rem) + bound < half_gap
        for i, value in zip(rows[certified].tolist(), r[certified].tolist()):
            result[i] = value
    zeros = np.flatnonzero(mag == 0.0)
    for i, negative in zip(zeros.tolist(), np.signbit(x[zeros]).all(axis=1).tolist()):
        result[i] = math.fsum([-0.0 if negative else 0.0])
    todo = [i for i, value in enumerate(result) if value is None]
    for i, row in zip(todo, x[todo].tolist()):
        result[i] = math.fsum(row)
    return result


def fsum_real(terms) -> float:
    """Correctly rounded sum of a real array of any shape (``math.fsum``'s value)."""
    return fsum_rows(np.ravel(terms)[None, :])[0]


def fsum_complex_rows(x) -> list[complex]:
    """The correctly rounded sum of each row of a 2-D complex array, real and
    imaginary parts apart: one ``fsum_rows`` call over the real rows
    followed by the imaginary rows."""
    x = np.asarray(x)
    parts = fsum_rows(np.concatenate((x.real, x.imag)))
    return [complex(re, im) for re, im in zip(parts, parts[len(x):])]


def fsum_complex(terms) -> complex:
    """Correctly rounded sum of a complex array of any shape, real and imaginary parts apart."""
    return fsum_complex_rows(np.ravel(terms)[None, :])[0]


def log1m_array(x: np.ndarray) -> np.ndarray:
    """log(1 - x), principal branch, elementwise and accurate for tiny |x|.

    ``w = 1 - x`` loses the low bits of x, but log(w) / (w - 1) is smooth and
    is evaluated at the rounded w exactly, so log(w) * ((-x) / (w - 1))
    keeps the relative accuracy that numpy's complex ``log1p`` loses near
    zero (Goldberg's log1p device).  For |x| <= 2^-53, which includes every
    x with 1 - x rounding to 1, the two-term series -x - x^2/2 is already
    exact to working precision and the log and the division are computed
    only for the other entries: there w - 1 can be subnormal and its
    reciprocal overflow.
    """
    x = np.asarray(x, dtype=complex)
    out = -x - 0.5 * x * x
    rest = ~(np.abs(x) <= 2.0 ** -53)  # NaN takes the log branch
    xr = x[rest]
    w = 1.0 - xr
    out[rest] = np.log(w) * ((-xr) / (w - 1.0))
    return out
