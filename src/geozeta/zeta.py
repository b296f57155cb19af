"""Truncated Euler products: weight-k Ruelle and Selberg zeta functions,
their symmetric-power twists, and the even/odd Zograf infinite products.

Every evaluator sums the log of its product over the deterministic power
enumeration (ascending total length, ties by class index then power),
truncated at total length l_cut, and exponentiates once at the end.  The
enumeration is the cached ``PowerTable`` of the spectrum: each log series is
one numpy expression over its columns, summed correctly rounded
(``numerics.fsum_complex``, the value of ``math.fsum``), so results do not
depend on summation order.  The Selberg double product over (p, q) >= 0 is
summed in closed form per power, so a single table drives every object.

Calls outside a convergence half-plane do not raise: they return the formal
truncation flagged ``in_convergence_domain=False``, because the identity
checks need both sides of a formula on a common grid.  Double-precision
complex arithmetic throughout; no extended-precision mode in this version.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import fsum_complex, fsum_real, fsum_rows
from .spectrum import (DomainError, GrowthModel, LengthSpectrum, PowerTable, powers_up_to,
                       tail_bound)

FLAG_FORMAL = "formal-truncation"
FLAG_INCOMPLETE = "incomplete-spectrum"
FLAG_HEURISTIC = "heuristic-tail-bound"
FLAG_RATIO = "ratio-form"
FLAG_DIRECT = "direct-k-product"
FLAG_REFLECTED = "reflected"

# elements per block of k-layers x powers in the Zograf direct path: 256 kB
# per complex array
ZOGRAF_BLOCK = 2 ** 14


@dataclass(frozen=True)
class ZetaValue:
    """One evaluated zeta object.

    ``log_value`` is the accumulated log series (value = exp(log_value); the
    imaginary part is the series sum, not reduced to a principal branch).
    ``abs_error_bound`` bounds |delta log| from the omitted tail, hence the
    relative error of ``value`` up to second order; it is infinite when no
    bound is claimed (formal truncations outside the half-plane).
    """

    value: complex
    log_value: complex
    abs_error_bound: float
    heuristic_bound: bool
    in_convergence_domain: bool
    l_cut: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EvalParams:
    """Truncation cutoff and growth model for tail bounds."""

    l_cut: float
    growth: GrowthModel | None = None

    def __post_init__(self) -> None:
        if not self.l_cut > 0:
            raise ValueError(f"l_cut must be positive, got {self.l_cut!r}")

    @classmethod
    def for_spectrum(cls, spec: LengthSpectrum, l_cut: float | None = None,
                     growth: GrowthModel | None = None) -> "EvalParams":
        return cls(spec.l_max if l_cut is None else l_cut, growth)


def _growth_for(spec: LengthSpectrum, p: EvalParams) -> GrowthModel:
    return p.growth if p.growth is not None else GrowthModel.fit(spec)


def _base_flags(spec: LengthSpectrum, p: EvalParams) -> tuple[str, ...]:
    # l_cut beyond the completeness cutoff means unseen geodesics may be missing.
    return (FLAG_INCOMPLETE,) if p.l_cut > spec.l_max else ()


def _finish(spec: LengthSpectrum, p: EvalParams, log_value: complex, re_eff: float,
            in_domain: bool, extra_bound: float = 0.0, prefactor: float = 1.0,
            flags: tuple[str, ...] = (), re_top: float | None = None) -> ZetaValue:
    # the bound is rigorous only if the growth model covers every effective
    # exponent in [re_eff, re_top] the log series reaches
    flags = _base_flags(spec, p) + flags
    heuristic = False
    if not spec.entries:
        bound = 0.0
    elif re_eff > 2.0:
        growth = _growth_for(spec, p)
        bound = prefactor * tail_bound(spec, re_eff, p.l_cut, growth) + extra_bound
        heuristic = not (growth.covers(re_eff) and (re_top is None or growth.covers(re_top)))
        if heuristic:
            flags = flags + (FLAG_HEURISTIC,)
    else:
        bound = math.inf
        heuristic = True
    if not in_domain:
        flags = flags + (FLAG_FORMAL,)
    return ZetaValue(cmath.exp(log_value), log_value, bound, heuristic, in_domain,
                     p.l_cut, flags)


def _selberg_prefactor(spec: LengthSpectrum) -> float:
    """Bound on 1/|(1-e^-m(l+it))(1-e^-m(l-it))| over all classes and powers:
    each factor is at least 1 - e^-ml, least at the shortest length and m = 1."""
    gap = 1.0 - math.exp(-spec.min_length())
    if gap == 0.0:
        raise DomainError(f"shortest length {spec.min_length()!r} is too small for the "
                          "Selberg tail bound: 1 - e^-l rounds to 0")
    return gap ** -2


def _sigma_block(table: PowerTable, ks: list[int], ss: list[complex]) -> np.ndarray:
    # row i holds, per power, -(multiplicity/m) sigma_{ks[i]}(power) e^(-ss[i] L),
    # sigma_k as in chars.sigma_char
    chi = np.exp(np.array([0.5j * k for k in ks])[:, None] * table.angle)
    odd = np.array([k % 2 == 1 for k in ks])
    chi[odd] = table.spin_sign * chi[odd]
    return -table.weight * chi * np.exp(-np.array(ss)[:, None] * table.length)


def ruelle_sigma(spec: LengthSpectrum, k: int, s: complex, p: EvalParams) -> ZetaValue:
    """R(sigma_k, s) = prod over primitive classes of (1 - sigma_k(m_gamma) e^(-s l)).

    Convergent for Re(s) > 2; the log series runs over powers merged into the
    global enumeration, so each (class, m) contributes -sigma_k(power) e^(-s L) / m.
    """
    s = complex(s)
    log_value = fsum_complex(_sigma_block(powers_up_to(spec, p.l_cut), [k], [s])[0])
    return _finish(spec, p, log_value, s.real, s.real > 2.0)


def selberg_sigma(spec: LengthSpectrum, k: int, s: complex, p: EvalParams) -> ZetaValue:
    """Z(sigma_k, s), the double product over (p, q) >= 0 summed per power.

    Each (class, m) contributes
    -sigma_k(power) e^(-s L) / (m (1-e^-m(l+it)) (1-e^-m(l-it))).
    """
    s = complex(s)
    table = powers_up_to(spec, p.l_cut)
    log_value = fsum_complex(_sigma_block(table, [k], [s])[0] / table.denominator)
    return _finish(spec, p, log_value, s.real, s.real > 2.0,
                   prefactor=_selberg_prefactor(spec) if spec.entries else 1.0)


def _combine(p: EvalParams, num: list[ZetaValue], den: list[ZetaValue], in_domain: bool,
             flags: tuple[str, ...] = ()) -> ZetaValue:
    """The product of ``num`` over the product of ``den``.

    Logs add with their sign, error bounds add, one heuristic factor makes the
    result heuristic.  The factors' flags merge in first-seen order without
    duplicates, then ``flags``, then ``formal-truncation`` if out of domain.
    """
    log_value = 0j
    bound = 0.0
    for f in num:
        log_value += f.log_value
        bound += f.abs_error_bound
    for f in den:
        log_value -= f.log_value
        bound += f.abs_error_bound
    factors = num + den
    merged = dict.fromkeys(fl for f in factors for fl in f.flags if fl != FLAG_FORMAL)
    flags = tuple(merged) + flags + (() if in_domain else (FLAG_FORMAL,))
    return ZetaValue(cmath.exp(log_value), log_value, bound,
                     any(f.heuristic_bound for f in factors), in_domain, p.l_cut, flags)


def ruelle_rho(spec: LengthSpectrum, m: int, s: complex, p: EvalParams) -> ZetaValue:
    """Ruelle zeta of the m-th symmetric power, via the weight decomposition
    R_rho_m(s) = prod_{l=0..m} R(sigma_{m-2l}, s - m/2 + l).

    Fully convergent for Re(s) > 2 + m/2.
    """
    if m < 0:
        raise ValueError(f"symmetric-power index must be >= 0, got {m}")
    s = complex(s)
    factors = [ruelle_sigma(spec, m - 2 * l, s - m / 2 + l, p) for l in range(m + 1)]
    return _combine(p, factors, [], s.real > 2.0 + m / 2)


def selberg_rho(spec: LengthSpectrum, m: int, k: int, s: complex, p: EvalParams) -> ZetaValue:
    """Selberg zeta twisted by the m-th symmetric power:
    Z_rho_m(sigma_k, s) = prod_{l=0..m} Z(sigma_{m-2l+k}, s - m/2 + l).
    """
    if m < 0:
        raise ValueError(f"symmetric-power index must be >= 0, got {m}")
    s = complex(s)
    factors = [selberg_sigma(spec, m - 2 * l + k, s - m / 2 + l, p) for l in range(m + 1)]
    return _combine(p, factors, [], s.real > 2.0 + m / 2)


def _layer_count(spec: LengthSpectrum) -> int:
    # enough shifted-Ruelle layers that the next one is below double precision
    if not spec.entries:
        return 1
    return max(16, math.ceil(46.0 / spec.min_length()))


def _zograf(spec: LengthSpectrum, s: complex, p: EvalParams, method: str,
            in_domain: bool, ratio_ok: bool, ratio_factors, layer_char, layer_shift) -> ZetaValue:
    if method == "auto":
        method = "ratio" if ratio_ok else "direct"
    if method == "ratio":
        num, den = ratio_factors()
        return _combine(p, [num], [den], in_domain, (FLAG_RATIO,))
    if method != "direct":
        raise ValueError(f"method must be 'auto', 'ratio' or 'direct', got {method!r}")
    table = powers_up_to(spec, p.l_cut)
    k_top = _k_top(spec)
    # the literal k-layer sum, in blocks of layers x powers of at most
    # ZOGRAF_BLOCK elements (one layer when a row alone is longer)
    per_block = max(1, ZOGRAF_BLOCK // max(1, len(table)))
    layers = []
    for start in range(0, k_top + 1, per_block):
        ks = range(start, min(start + per_block, k_top + 1))
        terms = _sigma_block(table, [layer_char(k) for k in ks],
                             [s + layer_shift(k) for k in ks])
        sums = fsum_rows(np.concatenate((terms.real, terms.imag)))
        layers += [complex(re, im) for re, im in zip(sums, sums[len(ks):])]
    log_value = fsum_complex(np.array(layers))
    # remaining k-layers bounded by a geometric series in e^-L
    k_tail = fsum_real(table.weight * np.exp(-s.real * table.length)
                       * np.exp(-layer_shift(k_top + 1) * table.length)
                       / (1.0 - np.exp(-table.length)))
    # layer k sits at exponent Re(s) + layer_shift(k), up to the top layer's
    return _finish(spec, p, log_value, s.real + layer_shift(0), in_domain, extra_bound=k_tail,
                   flags=(FLAG_DIRECT,), re_top=s.real + layer_shift(k_top))


@lru_cache(maxsize=128)
def _k_top(spec: LengthSpectrum) -> int:
    return min(_layer_count(spec), 600)


def zograf_F(spec: LengthSpectrum, n: int, s: complex, p: EvalParams,
             method: str = "auto") -> ZetaValue:
    """Even Zograf product F_n(s) = prod_{k>=n} R(sigma_{-2k}, s+k), Re(s) > 2-n.

    Evaluated through the Selberg ratio Z(sigma_{-2n}, s+n) / Z(sigma_{-2(n-1)}, s+n+1)
    whenever both arguments converge, else by direct truncation of the k-product
    with the k-tail folded into the error bound.  ``method`` forces a path.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = complex(s)
    in_domain = s.real > 2.0 - n
    ratio_ok = s.real + n > 2.0

    def ratio_factors():
        return (selberg_sigma(spec, -2 * n, s + n, p),
                selberg_sigma(spec, -2 * (n - 1), s + n + 1, p))

    return _zograf(spec, s, p, method, in_domain, ratio_ok, ratio_factors,
                   layer_char=lambda j: -2 * (n + j), layer_shift=lambda j: n + j)


def zograf_G(spec: LengthSpectrum, n: int, s: complex, p: EvalParams,
             method: str = "auto") -> ZetaValue:
    """Odd Zograf product G_n(s) = prod_{k>=n} R(sigma_{-(2k+1)}, s+k+1/2),
    Re(s) > 3/2 - n; depends on the spin lift through the odd characters.

    Ratio form: Z(sigma_{-(2n+1)}, s+n+1/2) / Z(sigma_{-(2n-1)}, s+n+3/2).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    s = complex(s)
    in_domain = s.real > 1.5 - n
    ratio_ok = s.real + n + 0.5 > 2.0

    def ratio_factors():
        return (selberg_sigma(spec, -(2 * n + 1), s + n + 0.5, p),
                selberg_sigma(spec, -(2 * n - 1), s + n + 1.5, p))

    return _zograf(spec, s, p, method, in_domain, ratio_ok, ratio_factors,
                   layer_char=lambda j: -(2 * (n + j) + 1), layer_shift=lambda j: n + j + 0.5)
