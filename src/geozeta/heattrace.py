"""Geometric sides of the heat-trace formulas and their small-time asymptotics.

Only the geometric sides are computable from a length spectrum: an identity
contribution proportional to the volume (a closed-form Gaussian moment) plus
a sum over geodesic powers weighted by symmetric-power traces and the
Poincare-map discriminant.  The spectral sides - sums over generalized
eigenvalues of the flat Laplacians - require data this package never sees and
are deliberately absent; downstream consequences of the trace formulas are
exercised through the determinant-chain identity instead.

The hyperbolic sum runs through ``zeta._log_series``: tr rho_m sums
lambda^w = sigma_w e^(wL/2) over w = m, m-2, ..., -m, D = e^L x denominator
and multiplicity x base length = weight x L, so weight w is a Selberg row at
s = 1 - w/2 whose exponent (w/2 - 1)L - L^2/4t holds the Gaussian wave
factor, so no lambda^m is formed before the wave factor brings it down.

Conventions: p = 0 is the trace of exp(-t(Delta_0 - 1)); p = 1 is the
difference of the 1-form and 0-form traces.  The small-time fit folds the
e^(-t) shift back in so the fitted coefficients match the unshifted
Laplacians: (a1, a2) = (sqrt(pi)/2, -sqrt(pi)/2) for p = 0 and
(3 sqrt(pi)/2, 3 sqrt(pi)/2) for p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuation import ManifoldInvariants
from .numerics import fsum_complex
from .spectrum import DomainError, LengthSpectrum, powers_up_to
from .zeta import EvalParams, _growth_for, _log_series, _weight_budget

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class HeatTraceResult:
    """Geometric side of one heat trace at one time t."""

    t: float
    identity_term: float
    hyperbolic_term: complex
    total: complex
    truncation_flag: bool
    tail_bound: float


def _identity_term(p: int, dim: int, volume: float, t: float) -> float:
    try:
        if p == 0:
            # dim Vol / (4 pi^2) * integral of lambda^2 e^(-t lambda^2)
            term = dim * volume / (4.0 * math.pi ** 2) * (SQRT_PI / 2.0) * t ** -1.5
        else:
            # p = 1 difference: dim Vol / (2 pi^2) * integral of (lambda^2 + 1) e^(-t lambda^2)
            term = dim * volume / (2.0 * math.pi ** 2) * SQRT_PI * (0.5 * t ** -1.5 + t ** -0.5)
    except OverflowError:
        term = math.inf
    if not math.isfinite(term):
        raise DomainError(f"t={t!r} is too small: the identity term overflows")
    return term


def heat_trace_geometric(spec: LengthSpectrum, inv: ManifoldInvariants, m: int,
                         p: int, t: float, params: EvalParams | None = None) -> HeatTraceResult:
    """Identity plus hyperbolic contributions at time t.

    The hyperbolic sum runs over powers of total length <= l_cut; each carries
    base length * tr rho_m(power) / D(power) times the Gaussian wave factor,
    and for p = 1 the extra 2 cos(theta) rotation weight.  A term or a sum
    that overflows a double is refused with a ``DomainError``.
    """
    if p not in (0, 1):
        raise ValueError(f"p must be 0 or 1, got {p!r}")
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    params = params or EvalParams.for_spectrum(spec)
    ident = _identity_term(p, m + 1, inv.volume, t)
    gauss = 1.0 / math.sqrt(4.0 * math.pi * t)
    table = powers_up_to(spec, params.l_cut)
    _weight_budget(m, table)
    weight = 1.0 if p == 0 else 2.0 * np.cos(table.angle)
    ws = list(range(m, -m - 1, -2))
    wave = -table.length ** 2 / (4.0 * t)
    try:
        rows = _log_series(table, ws, [1.0 - 0.5 * w for w in ws], selberg=True,
                           shift=wave, factor=-table.length * weight * gauss)
        hyper = fsum_complex(np.array(rows))
    except (DomainError, OverflowError):
        length = float(table.length[np.argmax((0.5 * m - 1.0) * table.length + wave)])
        raise DomainError(f"m={m} is too large: the heat-trace terms of rho_{m} overflow a "
                          f"double at power length {length!r}") from None
    growth = _growth_for(spec, params)
    # every omitted power has length > l_cut, so its wave factor is below
    # gauss * e^(-l_cut^2 / 4t); the count comes from the growth envelope
    tail = gauss * math.exp(-params.l_cut ** 2 / (4.0 * t)) * growth.constant \
        * math.exp(2.0 * params.l_cut) if spec.entries else 0.0
    return HeatTraceResult(t, ident, hyper, ident + hyper,
                           bool(spec.entries) and not growth.rigorous, tail)


def _shifted_total(spec: LengthSpectrum, inv: ManifoldInvariants, m: int, p: int,
                   t: float, params: EvalParams | None) -> complex:
    """Tr e^(-t Delta_p) reconstructed from the geometric sides.

    p = 0: e^(-t) * [p=0 trace];  p = 1: [difference] + e^(-t) * [p=0 trace].
    """
    base = heat_trace_geometric(spec, inv, m, 0, t, params).total * math.exp(-t)
    if p == 0:
        return base
    return heat_trace_geometric(spec, inv, m, 1, t, params).total + base


DEFAULT_FIT_GRID = tuple(np.geomspace(1e-3, 1e-2, 8))


def small_time_fit(spec: LengthSpectrum, inv: ManifoldInvariants, m: int, p: int,
                   t_grid=None, params: EvalParams | None = None) -> tuple[float, float]:
    """Least-squares fit of 4 pi^2 Tr e^(-t Delta_p) / (dim Vol) against
    a1 t^(-3/2) + a2 t^(-1/2) on a small-time grid.

    The default grid sits in [1e-3, 1e-2], where the neglected O(t^(1/2))
    term biases the coefficients by well under 1%.
    """
    if p not in (0, 1):
        raise ValueError(f"p must be 0 or 1, got {p!r}")
    ts = np.asarray(DEFAULT_FIT_GRID if t_grid is None else list(t_grid), dtype=float)
    # distinct points counted with a set: np.unique would import numpy.ma, which
    # costs a fresh heat-trace process more than the whole fit
    if ts.size < 4 or not np.all((ts > 0) & (ts <= 0.5)) or len(set(ts.tolist())) < 4:
        raise ValueError("t_grid must hold >= 4 distinct points in (0, 0.5]")
    dim = m + 1
    scale = 4.0 * math.pi ** 2 / (dim * inv.volume)
    values = np.array([
        (_shifted_total(spec, inv, m, p, float(t), params) * scale).real
        for t in ts
    ])
    basis = np.stack([ts ** -1.5, ts ** -0.5], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return float(coeffs[0]), float(coeffs[1])
