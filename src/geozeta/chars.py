"""Holonomy character algebra on loxodromic classes.

A loxodromic class is conjugate to a diagonal pair (a, m) with a carrying the
translation length and m the rotation; with the SL(2,C) lift the rotation
eigenvalue is spin_sign * exp(i*theta/2).  The torus characters of weight k
are evaluated on that half-angle eigenvalue, which is the normalization that
makes the weight-k Ruelle factors carry exp((k/2) i theta).  Even weights are
independent of the lift branch by construction; odd weights expose it.

Every function takes one class or power as a row with ``length``, ``angle``
and ``spin_sign``: a ``spectrum.GeodesicEntry``, whose construction validates
the three.  The power table applies the same formulas to its columns.
"""

from __future__ import annotations

import cmath
import math

from .spectrum import GeodesicEntry


def eigenvalue(h: GeodesicEntry) -> complex:
    """Lifted eigenvalue spin * exp((length + i*angle)/2)."""
    return h.spin_sign * cmath.exp(0.5 * complex(h.length, h.angle))


def sigma_char(h: GeodesicEntry, k: int) -> complex:
    """Weight-k character on the rotation part: spin^k * exp(i k angle / 2)."""
    sign = h.spin_sign if k % 2 else 1
    return sign * cmath.exp(0.5j * k * h.angle)


def trace_rho(h: GeodesicEntry, m: int) -> complex:
    """Trace of the m-th symmetric power on the class.

    The restriction to the diagonal torus splits into weights m, m-2, ..., -m,
    so the trace is the sum of the lifted eigenvalue raised to those weights.
    """
    if m < 0:
        raise ValueError(f"symmetric-power index must be >= 0, got {m}")
    lam = eigenvalue(h)
    total = 0j
    for j in range(m + 1):
        total += lam ** (m - 2 * j)
    return total


def discriminant_D(h: GeodesicEntry) -> float:
    """Poincare-map discriminant e^l * |1 - e^-(l + i*theta)|^2, always positive."""
    if not h.length > 0:
        raise ValueError(f"length must be positive, got {h.length!r}")
    w = 1.0 - cmath.exp(-complex(h.length, h.angle))
    return math.exp(h.length) * (w.real * w.real + w.imag * w.imag)
