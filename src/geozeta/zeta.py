"""Truncated Euler products: weight-k Ruelle and Selberg zeta functions,
their symmetric-power twists, and the even/odd Zograf infinite products.

The two Zograf products are one family,
prod_{k>=n} R(sigma_{-(2k+h)}, s + k + h/2): F_n for h = 0 and G_n for h = 1.
``_zograf`` evaluates it from (n, h) alone, through the Selberg ratio
Z(sigma_{-(2n+h)}, s+n+h/2) / Z(sigma_{-(2n-2+h)}, s+n+1+h/2) or the direct
k-layer sum, on the domain Re(s) > 2 - n - h/2; ``zograf_F`` and ``zograf_G``
name its two members.

Every evaluator sums the log of its product over the deterministic power
enumeration (ascending total length, ties by entry index then power),
truncated at total length l_cut, and exponentiates once at the end, in
``_exp``.  ``_combine`` builds every ``ZetaValue`` from its factors: a
Ruelle or Selberg sigma value and a symmetric-power product are one
``_weight_product`` of (k, s) rows, the Zograf ratio is the quotient of two
Selberg values and the direct Zograf sum is one factor.  One kernel,
``_log_series``, sums every such series over the spectrum's cached
``PowerTable``, rows (k, s) in blocks, each row correctly rounded by
``numerics.fsum_rows``.  A Ruelle or Selberg sigma series is one row (the
Selberg double product over (p, q) >= 0 summed in closed form per power), a
symmetric-power product one row per weight, the direct Zograf path one row
per k-layer and the heat trace one per weight.

A term is -(multiplicity/m) sigma_k(power) times factors that depend on the
power's length alone, so its coefficient column -(multiplicity/m) sigma_k
does not depend on s: ``_coefficients`` builds it once per (table, k) and
keeps it with the table, at most ``COLUMN_CACHE_BYTES`` per table; a column
past that is built for the call and dropped.  On an unoriented spectrum the
column is also where each row takes in its mirror: the mirror's power has
the character (-1)^(mk) conj(sigma_k), so the row's character is
sigma_k + (-1)^(mk) conj(sigma_k), that is 2 Re sigma_k or 2i Im sigma_k,
and the table and the kernel's work are half those of listing the mirrors.

The Ruelle and Selberg sigma log series are pure functions of (spectrum,
l_cut, k, s), and the identity checks ask for the same ones many times.
Each series is therefore summed once per process and kept in
``_SIGMA_LOGS``, a least-recently-used cache of at most
``LOG_SERIES_CACHE_SIZE`` (4096) entries of one complex each; a product of
m + 1 weights looks its rows up there and sums the missing ones in one
kernel call.  The error bound and flags are rebuilt on every call.  An s
with imaginary part -0.0 shares the entry of +0.0: both sum to the same
bits.

Calls outside a convergence half-plane do not raise: they return the formal
truncation flagged ``in_convergence_domain=False``, because the identity
checks need both sides of a formula on a common grid.  A log whose
exponential overflows a double raises ``DomainError`` from ``_exp`` instead,
naming the log value (the identity checks exponentiate through it too).
Double-precision complex arithmetic throughout; no extended-precision mode
in this version.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import fsum_complex, fsum_real, fsum_rows
from .spectrum import (POWER_BUDGET, DomainError, GrowthModel, LengthSpectrum, PowerTable,
                       powers_up_to, tail_bound)

FLAG_FORMAL = "formal-truncation"
FLAG_INCOMPLETE = "incomplete-spectrum"
FLAG_HEURISTIC = "heuristic-tail-bound"
FLAG_RATIO = "ratio-form"
FLAG_DIRECT = "direct-k-product"
FLAG_REFLECTED = "reflected"

# elements per block of log-series rows x powers: 256 kB per complex array
ZOGRAF_BLOCK = 2 ** 14
# distinct (spectrum, l_cut, k, s) sigma log series kept, one complex each
LOG_SERIES_CACHE_SIZE = 4096
# bytes of coefficient columns kept per power table, one complex per row
# each: a 10^5-entry unoriented census table (241,690 rows) keeps two
COLUMN_CACHE_BYTES = 2 ** 23


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


def _exp(log_value: complex) -> complex:
    try:
        return cmath.exp(log_value)
    except OverflowError:
        raise DomainError(f"exp of the log series {log_value!r} overflows a double") from None


class _Factor(NamedTuple):
    """One factor of a product before its exponential: the fields of a
    ``ZetaValue`` that ``_combine`` reads."""

    log_value: complex
    abs_error_bound: float
    heuristic_bound: bool
    flags: tuple[str, ...]


def _factor(spec: LengthSpectrum, p: EvalParams, log_value: complex, re_eff: float,
            in_domain: bool, extra_bound: float = 0.0, prefactor: float = 1.0,
            flags: tuple[str, ...] = (), re_top: float | None = None) -> _Factor:
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
    return _Factor(log_value, bound, heuristic, flags)


def _selberg_prefactor(spec: LengthSpectrum) -> float:
    """Bound on 1/|(1-e^-m(l+it))(1-e^-m(l-it))| over all classes and powers:
    each factor is at least 1 - e^-ml, least at the shortest length and m = 1."""
    gap = 1.0 - math.exp(-spec.min_length())
    if gap == 0.0:
        raise DomainError(f"shortest length {spec.min_length()!r} is too small for the "
                          "Selberg tail bound: 1 - e^-l rounds to 0")
    return gap ** -2


# per power table (held weakly, so a freed table drops its columns): k -> column
_COLUMNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_COLUMNS_LOCK = threading.Lock()


def _coefficients(table: PowerTable, ks: list[int]) -> np.ndarray:
    """Rows -(multiplicity/m) sigma_k(power) over the table, one per k in ``ks``.

    On a ``mirrored`` table each row's character is sigma_k + (-1)^(mk)
    conj(sigma_k), its own power's and its mirror's: 2 Re sigma_k where mk
    is even and 2i Im sigma_k where it is odd.  Such a column is kept as one
    real number per row, and the i is put back where mk is odd.  Each
    column is built once per (table, k) and kept while the table's columns
    fit in ``COLUMN_CACHE_BYTES``; a column past that is built and not kept,
    so a call over many weights flushes nothing.
    """
    with _COLUMNS_LOCK:
        kept = _COLUMNS.setdefault(table, {})
    missing = [k for k in dict.fromkeys(ks) if k not in kept]
    if missing:
        odd = np.array([k % 2 == 1 for k in missing])
        if table.mirrored:
            half = np.array([0.5 * k for k in missing])[:, None] * table.angle
            columns = 2.0 * np.where(odd[:, None] & (table.m % 2 == 1), np.sin(half), np.cos(half))
        else:
            columns = np.exp(np.array([0.5j * k for k in missing])[:, None] * table.angle)
        columns[odd] = table.spin_sign * columns[odd]
        columns = -table.weight * columns
        with _COLUMNS_LOCK:
            # every column of a table has the same size: its data and its header
            column_bytes = columns[0].nbytes + sys.getsizeof(np.empty(0))
            room = COLUMN_CACHE_BYTES // column_bytes - len(kept)
            if room > 0:
                frozen = columns[:room].copy()
                frozen.flags.writeable = False
                kept.update(zip(missing, frozen))
        if missing == ks:
            rows = columns
        else:
            at = dict(zip(missing, columns))
            rows = np.stack([at[k] if k in at else kept[k] for k in ks])
    elif len(ks) == 1:
        rows = kept[ks[0]][None]
    else:
        rows = np.stack([kept[k] for k in ks])
    odd = np.array([k % 2 == 1 for k in ks])
    if table.mirrored and odd.any():  # i where both k and m are odd
        rows = rows * np.where(odd[:, None] & (table.m % 2 == 1), 1j, 1.0)
    return rows


def _log_series(table: PowerTable, ks: list[int], ss: list[complex], selberg: bool = False,
                shift: np.ndarray | None = None,
                factor: np.ndarray | None = None) -> list[complex]:
    """Row i sums -(multiplicity/m) sigma_{ks[i]}(power) e^(-ss[i] L + shift)
    over the powers (sigma_k as in chars.sigma_char, a mirrored row's as in
    ``_coefficients``), each term over the ``denominator`` if ``selberg``,
    then times ``factor``.  Rows are built in blocks of at most
    ``ZOGRAF_BLOCK`` elements (or one row), and one ``fsum_rows`` call sums
    each block.  A term or a sum past a double's range raises ``DomainError``."""
    per_block = max(1, ZOGRAF_BLOCK // max(1, len(table)))
    sums = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(0, len(ks), per_block):
                exponent = -np.array(ss[i:i + per_block])[:, None] * table.length
                if shift is not None:
                    exponent += shift
                terms = _coefficients(table, ks[i:i + per_block]) * np.exp(exponent, out=exponent)
                del exponent  # only the terms stay alive through the sum
                if selberg:
                    terms /= table.denominator
                if factor is not None:
                    terms *= factor
                parts = fsum_rows(np.concatenate((terms.real, terms.imag)))
                sums += [complex(re, im) for re, im in zip(parts, parts[len(parts) // 2:])]
    except (FloatingPointError, OverflowError):
        s = min(ss, key=lambda x: x.real)
        raise DomainError(f"a log-series term or sum down to s={s!r} passes a double's "
                          "range") from None
    return sums


def _weight_budget(m: int, table: PowerTable) -> None:
    # refuse m before any of its m + 1 weight rows over the table is built
    if m < 0:
        raise ValueError(f"symmetric-power index must be >= 0, got {m}")
    if (m + 1) * max(1, len(table)) > POWER_BUDGET:
        raise DomainError(f"m={m} is too large: {m + 1} weights over {len(table)} power rows "
                          f"exceed the power budget of {POWER_BUDGET}")


class _SeriesCache:
    """The sigma log series summed so far, keyed (spectrum, l_cut, k, s,
    selberg): at most ``maxsize`` entries, the least recently used dropped
    first, and the hits and misses counted as ``functools.lru_cache`` counts
    them."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._logs: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = 0

    def __call__(self, spec: LengthSpectrum, l_cut: float, ks: list[int], ss: list[complex],
                 selberg: bool) -> list[complex]:
        # the Ruelle (selberg=False) or Selberg sigma_k log series at each (k, s);
        # a call of more rows than the cache holds would only flush it
        if len(ks) > self.maxsize:
            return _log_series(powers_up_to(spec, l_cut), ks, ss, selberg)
        keys = [(spec, l_cut, k, s, selberg) for k, s in zip(ks, ss)]
        with self._lock:
            logs = [self._logs.get(key) for key in keys]
            for key, log in zip(keys, logs):
                if log is not None:
                    self._logs.move_to_end(key)
            missing = [i for i, log in enumerate(logs) if log is None]
            self.hits += len(keys) - len(missing)
            self.misses += len(missing)
        if missing:
            sums = _log_series(powers_up_to(spec, l_cut), [ks[i] for i in missing],
                               [ss[i] for i in missing], selberg)
            with self._lock:
                for i, log in zip(missing, sums):
                    logs[i] = self._logs[keys[i]] = log
                while len(self._logs) > self.maxsize:
                    self._logs.popitem(last=False)
        return logs

    def cache_clear(self) -> None:
        with self._lock:
            self._logs.clear()
            self.hits = self.misses = 0


_SIGMA_LOGS = _SeriesCache(LOG_SERIES_CACHE_SIZE)


def ruelle_sigma(spec: LengthSpectrum, k: int, s: complex, p: EvalParams) -> ZetaValue:
    """R(sigma_k, s) = prod over primitive classes of (1 - sigma_k(m_gamma) e^(-s l)).

    Convergent for Re(s) > 2; the log series runs over powers merged into the
    global enumeration, so each (class, m) contributes -sigma_k(power) e^(-s L) / m.
    """
    s = complex(s)
    return _weight_product(spec, [k], [s], p, False, s.real > 2.0)


def selberg_sigma(spec: LengthSpectrum, k: int, s: complex, p: EvalParams) -> ZetaValue:
    """Z(sigma_k, s), the double product over (p, q) >= 0 summed per power.

    Each (class, m) contributes
    -sigma_k(power) e^(-s L) / (m (1-e^-m(l+it)) (1-e^-m(l-it))).
    """
    s = complex(s)
    return _weight_product(spec, [k], [s], p, True, s.real > 2.0)


def _combine(p: EvalParams, num: list[ZetaValue | _Factor], den: list[ZetaValue | _Factor],
             in_domain: bool, flags: tuple[str, ...] = ()) -> ZetaValue:
    """The product of ``num`` over the product of ``den``, as a ``ZetaValue``.

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
    return ZetaValue(_exp(log_value), log_value, bound,
                     any(f.heuristic_bound for f in factors), in_domain, p.l_cut, flags)


def _weight_product(spec: LengthSpectrum, ks: list[int], ss: list[complex], p: EvalParams,
                    selberg: bool, in_domain: bool) -> ZetaValue:
    """The product over rows i of the Ruelle or Selberg sigma_{ks[i]} value at
    ss[i], each row's log series looked up or summed in one kernel call, its
    factors combined by ``_combine``."""
    logs = _SIGMA_LOGS(spec, p.l_cut, ks, ss, selberg)
    prefactor = _selberg_prefactor(spec) if selberg and spec.entries else 1.0
    for row in logs:  # a factor whose value alone overflows a double is refused
        _exp(row)
    if p.growth is None and spec.entries and any(s.real > 2.0 for s in ss):
        p = EvalParams(p.l_cut, _growth_for(spec, p))  # fitted once, not per row
    factors = [_factor(spec, p, row, s.real, s.real > 2.0, prefactor=prefactor)
               for row, s in zip(logs, ss)]
    return _combine(p, factors, [], in_domain)


def ruelle_rho(spec: LengthSpectrum, m: int, s: complex, p: EvalParams) -> ZetaValue:
    """Ruelle zeta of the m-th symmetric power, via the weight decomposition
    R_rho_m(s) = prod_{l=0..m} R(sigma_{m-2l}, s - m/2 + l).

    Fully convergent for Re(s) > 2 + m/2.
    """
    _weight_budget(m, powers_up_to(spec, p.l_cut))
    s = complex(s)
    return _weight_product(spec, [m - 2 * l for l in range(m + 1)],
                           [s - m / 2 + l for l in range(m + 1)], p, False, s.real > 2.0 + m / 2)


def selberg_rho(spec: LengthSpectrum, m: int, k: int, s: complex, p: EvalParams) -> ZetaValue:
    """Selberg zeta twisted by the m-th symmetric power:
    Z_rho_m(sigma_k, s) = prod_{l=0..m} Z(sigma_{m-2l+k}, s - m/2 + l).
    """
    _weight_budget(m, powers_up_to(spec, p.l_cut))
    s = complex(s)
    return _weight_product(spec, [m - 2 * l + k for l in range(m + 1)],
                           [s - m / 2 + l for l in range(m + 1)], p, True, s.real > 2.0 + m / 2)


def _zograf(spec: LengthSpectrum, n: int, h: int, s: complex, p: EvalParams,
            method: str) -> ZetaValue:
    # prod_{k>=n} R(sigma_{-(2k+h)}, s+k+h/2): F_n for h = 0, G_n for h = 1
    if n < 1 - h:
        raise ValueError(f"n must be >= {1 - h}, got {n}")
    s = complex(s)
    in_domain = s.real > (2.0 - h / 2) - n
    if method == "auto":
        method = "ratio" if s.real + n + h / 2 > 2.0 else "direct"
    if method == "ratio":
        # whole selberg_sigma values, which the benchmark's tracer counts
        num = selberg_sigma(spec, -(2 * n + h), s + n + h / 2, p)
        den = selberg_sigma(spec, -(2 * (n - 1) + h), s + n + (1 + h / 2), p)
        return _combine(p, [num], [den], in_domain, (FLAG_RATIO,))
    if method != "direct":
        raise ValueError(f"method must be 'auto', 'ratio' or 'direct', got {method!r}")
    table = powers_up_to(spec, p.l_cut)
    k_top = _k_top(spec)
    # the literal k-layer sum, one log-series row per layer k = n + j
    js = range(k_top + 1)
    log_value = fsum_complex(np.array(_log_series(
        table, [-(2 * (n + j) + h) for j in js], [s + (n + j + h / 2) for j in js])))
    # remaining k-layers bounded by a geometric series in e^-L; e^(-Re(s) L)
    # alone overflows at large n, so there both exponents go in one exp
    lead, rest = -s.real * table.length, -(n + k_top + 1 + h / 2) * table.length
    lead, rest = np.where(lead > 700, lead + rest, lead), np.where(lead > 700, 0.0, rest)
    k_tail = fsum_real(table.weight * np.exp(lead) * np.exp(rest)
                       / (1.0 - np.exp(-table.length))) * (2 if table.mirrored else 1)
    # layer k sits at exponent Re(s) + k + h/2, up to the top layer's
    return _combine(p, [_factor(spec, p, log_value, s.real + (n + h / 2), in_domain,
                                extra_bound=k_tail, flags=(FLAG_DIRECT,),
                                re_top=s.real + (n + k_top + h / 2))], [], in_domain)


@lru_cache(maxsize=128)
def _k_top(spec: LengthSpectrum) -> int:
    # enough shifted-Ruelle layers that the next one is below double precision
    return min(max(16, math.ceil(46.0 / spec.min_length())), 600) if spec.entries else 1


def zograf_F(spec: LengthSpectrum, n: int, s: complex, p: EvalParams,
             method: str = "auto") -> ZetaValue:
    """Even Zograf product F_n(s) = prod_{k>=n} R(sigma_{-2k}, s+k), Re(s) > 2-n.

    Evaluated through the Selberg ratio Z(sigma_{-2n}, s+n) / Z(sigma_{-2(n-1)}, s+n+1)
    whenever both arguments converge, else by direct truncation of the k-product
    with the k-tail folded into the error bound.  ``method`` forces a path.
    """
    return _zograf(spec, n, 0, s, p, method)


def zograf_G(spec: LengthSpectrum, n: int, s: complex, p: EvalParams,
             method: str = "auto") -> ZetaValue:
    """Odd Zograf product G_n(s) = prod_{k>=n} R(sigma_{-(2k+1)}, s+k+1/2),
    Re(s) > 3/2 - n; depends on the spin lift through the odd characters.

    Ratio form: Z(sigma_{-(2n+1)}, s+n+1/2) / Z(sigma_{-(2n-1)}, s+n+3/2).
    """
    return _zograf(spec, n, 1, s, p, method)
