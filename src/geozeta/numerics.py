"""Correctly rounded sums and a vectorized log(1 - x).

All Euler products in this package are accumulated in log space as numpy
term arrays.  ``fsum_complex`` sums such an array with each of the real and
imaginary parts correctly rounded, and ``fsum_real`` sums a real array the
same way, so the result does not depend on term order and rounding error
does not grow with the number of factors.  Every evaluation is therefore
bit-reproducible regardless of how callers parallelize across grid points.

Both return exactly what ``math.fsum`` returns.  Below ``FSUM_ROWS_MIN``
terms they call it on ``tolist()``; from there on they call ``fsum_rows``,
which sums every row of a 2-D array in a few contiguous numpy passes and
hands each row it cannot certify to ``math.fsum``.  Per row of n terms with
largest magnitude M (Rump, Ogita and Oishi, *Accurate floating-point
summation, part I*, SIAM J. Sci. Comput. 31(1), 2008):

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

Rows that fail the test go to ``math.fsum``: a zero candidate (its sign
follows ``math.fsum``), non-finite terms, a sigma that would overflow, a
2^-53 sigma below the subnormal spacing, and rows whose cancellation leaves
the candidate uncertified.  So values and exceptions are those of
``math.fsum`` and numpy raises no floating-point warning.  The kernel costs
about 70 us per call whatever the size, and ``math.fsum`` about 0.1 us per
term, so the kernel pays from about 600 terms on (Python 3.11, numpy 2.4,
x86-64).
"""

from __future__ import annotations

import math

import numpy as np

# terms from which fsum_complex and fsum_real call fsum_rows
FSUM_ROWS_MIN = 600

_EPS = 2.0 ** -53


def fsum_rows(x) -> list[float]:
    """``[math.fsum(row) for row in x]`` for a 2-D float array, bit for bit."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"fsum_rows needs a 2-D array, got {x.ndim} dimensions")
    n_rows, n = x.shape
    if n == 0:
        return [0.0] * n_rows
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
    for i, value in enumerate(result):
        if value is None:
            result[i] = math.fsum(x[i].tolist())
    return result


def _fsum_parts(*parts: np.ndarray) -> list[float]:
    # math.fsum of each equally long 1-D part, by whichever route is faster
    if parts[0].size < FSUM_ROWS_MIN:
        return [math.fsum(part.tolist()) for part in parts]
    return fsum_rows(np.stack(parts))


def fsum_real(terms) -> float:
    """Correctly rounded sum of a real array of any shape (``math.fsum``'s value)."""
    return _fsum_parts(np.ravel(terms))[0]


def fsum_complex(terms) -> complex:
    """Correctly rounded sum of a complex array of any shape, real and imaginary parts apart."""
    terms = np.ravel(terms)
    return complex(*_fsum_parts(terms.real, terms.imag))


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
