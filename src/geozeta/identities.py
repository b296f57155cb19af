"""Identity verification harness.

Each product identity of the zeta calculus becomes a residual computation on
a small grid of s-values inside its guaranteed convergence region: the two
sides are evaluated through deliberately different routes (weight
decomposition vs. determinant oracle, Selberg ratio vs. direct product,
direct Euler product vs. reflected functional-equation assembly) and the
relative residual is reported per point.  ``IDENTITIES`` registers every
check, the exact Gaussian-rational oracle last, with the parameters it reads
and its battery parameters; the battery and the CLI both run from it, and
every check reports as one ``IdentityReport``, which derives its verdict
from the points it is given.

Every check hands ``_run_grid`` the logs of its two sides, compared by the
one rule ``log_relative_residual``, and exponentiates nothing.  Only the two
oracles return values, through ``zeta._exp``: a log past a double's range,
above or below, raises ``DomainError`` there, and ``_run_grid`` flags its point.

The three Zograf checks (``zograf-ratio``, ``corollary-FG`` and
``main-theorem``) take a parity, read once as h (0 for F_n, 1 for G_n, by
``torsion.parity_h``), and each is written once in n, h and the symmetric
power m = 2n - 2 + h that the main theorem pairs with F_n or G_n.

The two oracles never read the power table the closed-form evaluators share.
Both are one kernel, ``_double_product``, which multiplies out the literal
(p, q) double product over primitive classes: the brute-force oracle takes
every pair with p + q <= pq_max, the determinant oracle the (p, q) = (0, 0)
slice, whose factors 1 - lambda^(m-2j) e^(-s l) make up
det(1 - e^(-s l) rho_m(gamma)).  The kernel's memory is bounded by
``ORACLE_CHUNK`` and ``ORACLE_ROW_MAX``, not by the spectrum, and its logs
are summed correctly rounded, so neither oracle depends on class order.

``battery_reports`` runs the 27 battery checks on two processes where it can:
when ``os.sched_getaffinity`` lists at least two CPUs and no other Python
thread runs, it builds the power table and growth model every check reads,
then forks one worker.  Both processes claim checks from one pipe holding
one byte per battery index, written in reverse registry order so that the
costliest check, the exact oracle, starts first.  The worker pickles its
reports back through a second pipe and ends with ``os._exit``; it is killed
when the caller ends (``PR_SET_PDEATHSIG``), and the caller reaps it on
every path.  A check that raised in either process, and every check of a
worker that died, then runs again in the caller, in registry order.  So no
exception crosses the process boundary, the reports are the serial loop's
and a failing battery raises the serial loop's exception: that of the first
failing check in registry order.  Elsewhere, and for a single check, all
runs in the calling process.

A note on circularity: the special-value checks that need continuation
(`main-theorem`, and `ruelle-feq`'s reflected side) consume the same volume
and eta data on both sides, so on synthetic inputs they validate the
implementation's algebra end to end rather than constraining the inputs.
Reports carry a flag saying so, and the mutation seams (``claimed``,
``reference_spectrum``, ``det_volume``) let callers split the two sides'
inputs when they want actual cross-checking of supplied data.
"""

from __future__ import annotations

import cmath
import ctypes
import math
import os
import pickle
import random
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chars import eigenvalue, sigma_char
from .continuation import (EtaNotSuppliedError, ManifoldInvariants, eta_lookup,
                           reflect_selberg, selberg_anywhere)
from .exact import exact_battery
from .numerics import fsum_complex, fsum_complex_rows, log1m_array
from .spectrum import DomainError, GrowthModel, LengthSpectrum, powers_up_to
from .torsion import parity_h
from .zeta import (EvalParams, _exp, _weight_budget, ruelle_rho, selberg_rho, selberg_sigma,
                   zograf_F, zograf_G)

# factors per chunk of classes in the brute-force oracle: 256 kB per complex array
ORACLE_CHUNK = 2 ** 14
# factors in one class's row, (m + 1) x (p, q) pairs, which is not split: 1 MB
# per complex array.  The battery's longest row is 3 x 4186 (m = 2 at the
# deepest pq_max, 90); a 50-class spectrum at this budget takes about 2 s,
# while the medium fixture's m = 448 row (449 x 378) took 5-7 s for a check.
ORACLE_ROW_MAX = 2 ** 16
FLAG_CIRCULAR = "circular-given-functional-equation"
# prctl option: the signal a process gets when its parent ends
PR_SET_PDEATHSIG = 1


def log_relative_residual(log_lhs: complex, log_rhs: complex) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|), evaluated from the two sides' logs.

    It is |1 - exp(-delta)| with delta = log_lhs - log_rhs signed so that
    Re(delta) >= 0: dividing by the larger side keeps the exponential
    bounded, so sides of any magnitude compare at full relative precision,
    and logs 2 pi i apart compare equal.
    """
    delta = log_lhs - log_rhs
    if delta.real >= 0:
        delta = -delta
    return abs(1.0 - cmath.exp(delta))


def default_grid(re_start: float, n_points: int = 8, step: float = 0.25,
                 im: float = 0.3) -> tuple[complex, ...]:
    """Horizontal segment of s-values; 8 points catches argument-shift bugs cheaply."""
    return tuple(complex(re_start + j * step, im) for j in range(n_points))


@dataclass(frozen=True)
class GridPoint:
    s: complex
    residual: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class IdentityReport:
    """Residuals, tolerance and verdict for one verified identity.

    The verdict is derived from the points: passed if and only if every
    residual is at most the tolerance (a NaN, which every error point
    carries, or an inf fails), and ``max_residual`` is the largest residual
    that is not NaN, or 0.0."""

    identity_id: str
    tolerance: float
    passed: bool = field(init=False)
    max_residual: float = field(init=False)
    points: tuple[GridPoint, ...]
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        residuals = [pt.residual for pt in self.points]
        object.__setattr__(self, "passed", all(r <= self.tolerance for r in residuals))
        object.__setattr__(self, "max_residual",
                           max((r for r in residuals if not math.isnan(r)), default=0.0))


def _run_grid(identity_id: str, grid, point_fn, tol: float,
              flags: tuple[str, ...] = (), re_min: float | None = None) -> IdentityReport:
    """Residuals of ``point_fn`` over ``grid``.

    ``point_fn(s)`` returns the logs of the identity's two sides and the
    point's flags; the residual is their ``log_relative_residual``.  A point
    with Re(s) <= ``re_min``, or one whose evaluation raises a domain or
    numerical error, is kept as a flagged error and fails the report.  A
    missing eta invariant is an input error and propagates.
    """
    points = []
    for s in map(complex, grid):
        try:
            if re_min is not None and not s.real > re_min:
                raise DomainError(f"grid point Re(s)={s.real} outside Re > {re_min}")
            log_lhs, log_rhs, pflags = point_fn(s)
            residual = log_relative_residual(log_lhs, log_rhs)
        except EtaNotSuppliedError:
            raise
        except (DomainError, ValueError) as exc:
            points.append(GridPoint(s, math.nan, ("error: " + str(exc),)))
            continue
        points.append(GridPoint(s, residual, pflags))
    return IdentityReport(identity_id, tol, tuple(points), flags)


# ---------------------------------------------------------------------------
# Independent oracles

def _default_pq_max(spec: LengthSpectrum) -> int:
    if not spec.entries:
        return 8
    return min(90, math.ceil(44.0 / spec.min_length()) + 4)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=complex)[:, None]


def _double_product(spec: LengthSpectrum, m: int, k: int, s: complex,
                    pq_max: int | None) -> complex:
    """Literal chi = sigma_k (x) rho_m double product over (p, q) >= 0, p + q <= pq_max.

    Per class, one array row holds the factor argument
    lam^(m-2j) sigma_k e^-(p (l+i theta) + q (l-i theta)) e^-s l for every
    eigenvalue weight j and every (p, q) pair; its logs are summed correctly
    rounded, and the class sums likewise.  Classes are taken in chunks of at
    most ``ORACLE_CHUNK`` factors (one class when a row alone is longer), so
    memory stays bounded whatever the spectrum's size; an m whose lam^m
    overflows a double on some class is refused first, then a row of more
    than ``ORACLE_ROW_MAX`` factors, and a factor 1 - x that is exactly 0
    raises ``DomainError`` naming its class before any log is taken.  The
    power table and the closed-form evaluators are not read, so this stays an
    independent route.
    """
    s = complex(s)
    classes = spec.primitive_classes()
    lams = [eigenvalue(cls) for cls in classes]
    for index, (cls, lam) in enumerate(zip(classes, lams)):
        try:
            abs(lam) ** m
        except OverflowError:
            raise DomainError(f"lambda^{m} of class {index} (length {cls.length!r}, m {m}) "
                              "overflows a double") from None
    if pq_max is None:
        pq_max = _default_pq_max(spec)
    pairs = (pq_max + 1) * (pq_max + 2) // 2
    if classes and (m + 1) * pairs > ORACLE_ROW_MAX:
        raise DomainError(f"the row of class 0 (length {classes[0].length!r}, m {m}) holds "
                          f"{m + 1} x {pairs} = {(m + 1) * pairs} factors, more than "
                          f"{ORACLE_ROW_MAX}")
    exponents = np.arange(pq_max + 1)
    pp, qq = np.indices((pq_max + 1, pq_max + 1))
    keep = pp + qq <= pq_max
    pp, qq = pp[keep], qq[keep]
    weights = m - 2 * np.arange(m + 1)
    per_chunk = max(1, ORACLE_CHUNK // (len(weights) * len(pp)))
    class_logs = []
    for start in range(0, len(classes), per_chunk):
        chunk = classes[start:start + per_chunk]
        a = _column([cmath.exp(-complex(cls.length, cls.angle)) for cls in chunk])
        b = _column([cmath.exp(-complex(cls.length, -cls.angle)) for cls in chunk])
        c = (_column([sigma_char(cls, k) for cls in chunk]) * (a ** exponents)[:, pp]
             * (b ** exponents)[:, qq] * _column([cmath.exp(-s * cls.length) for cls in chunk]))
        x = (_column(lams[start:start + per_chunk]) ** weights)[:, :, None] * c[:, None, :]
        vanishing = np.flatnonzero((x == 1).any(axis=(1, 2)))
        if vanishing.size:
            raise DomainError(f"a factor 1 - x of class {start + vanishing[0]} (length "
                              f"{chunk[vanishing[0]].length!r}, m {m}) is exactly 0; "
                              "its log is undefined")
        logs = log1m_array(x).reshape(len(chunk), -1)
        class_logs += [cls.multiplicity * log
                       for cls, log in zip(chunk, fsum_complex_rows(logs))]
    return _exp(fsum_complex(class_logs))


def ruelle_rho_direct(spec: LengthSpectrum, m: int, s: complex) -> complex:
    """Determinant route, no weight decomposition: per class, det(1 - e^(-s l) rho_m)
    as its m + 1 eigenvalue factors, the (p, q) = (0, 0) slice of the double product."""
    return _double_product(spec, m, 0, s, 0)


def selberg_sigma_bruteforce(spec: LengthSpectrum, k: int, s: complex,
                             pq_max: int | None = None) -> complex:
    """Literal (p, q) double product, truncated at p + q <= pq_max."""
    return _double_product(spec, 0, k, s, pq_max)


def selberg_rho_bruteforce(spec: LengthSpectrum, m: int, k: int, s: complex,
                           pq_max: int | None = None) -> complex:
    """Literal chi = rho_m double product with per-(p, q) determinant factors."""
    return _double_product(spec, m, k, s, pq_max)


# ---------------------------------------------------------------------------
# Product-identity checks

def verify_ruelle_decomposition(spec: LengthSpectrum, m: int, grid=None,
                                p: EvalParams | None = None, tol: float = 1e-8) -> IdentityReport:
    """Twisted Ruelle zeta: determinant oracle vs. the weight-decomposition product."""
    p = p or EvalParams.for_spectrum(spec)
    grid = grid if grid is not None else default_grid(3.0 + m / 2)

    def point(s: complex):
        log_lhs = cmath.log(ruelle_rho_direct(spec, m, s))
        rhs = ruelle_rho(spec, m, s, p)
        return log_lhs, rhs.log_value, rhs.flags

    return _run_grid("prop-ruelle-dec", grid, point, tol, (f"m={m}",), 2.0 + m / 2)


def verify_selberg_rho_decomposition(spec: LengthSpectrum, m: int, k: int = 0, grid=None,
                                     p: EvalParams | None = None, tol: float = 1e-8) -> IdentityReport:
    """Twisted Selberg zeta: brute-force double product vs. the shifted-weight product."""
    p = p or EvalParams.for_spectrum(spec)
    grid = grid if grid is not None else default_grid(3.0 + m / 2)

    def point(s: complex):
        log_lhs = cmath.log(selberg_rho_bruteforce(spec, m, k, s))
        rhs = selberg_rho(spec, m, k, s, p)
        return log_lhs, rhs.log_value, rhs.flags

    return _run_grid("selberg-rho-dec", grid, point, tol, (f"m={m}", f"k={k}"), 2.0 + m / 2)


def verify_four_selberg_quotient(spec: LengthSpectrum, m: int, grid=None,
                                 p: EvalParams | None = None, tol: float = 1e-8) -> IdentityReport:
    """R_rho_m as the four-Selberg quotient with arguments shifted by m/2."""
    p = p or EvalParams.for_spectrum(spec)
    grid = grid if grid is not None else default_grid(3.0 + m / 2)

    def point(s: complex):
        lhs = ruelle_rho(spec, m, s, p)
        log_rhs = (selberg_sigma(spec, m, s - m / 2, p).log_value
                   + selberg_sigma(spec, -m, s + m / 2 + 2, p).log_value
                   - selberg_sigma(spec, m + 2, s - m / 2 + 1, p).log_value
                   - selberg_sigma(spec, -(m + 2), s + m / 2 + 1, p).log_value)
        return lhs.log_value, log_rhs, lhs.flags

    return _run_grid("four-selberg", grid, point, tol, (f"m={m}",), 2.0 + m / 2)


def verify_rho_selberg_quotient(spec: LengthSpectrum, m: int, grid=None,
                                p: EvalParams | None = None, tol: float = 1e-8) -> IdentityReport:
    """R_rho_m as a quotient of four twisted Selberg zetas at weight 0 and +-2."""
    p = p or EvalParams.for_spectrum(spec)
    grid = grid if grid is not None else default_grid(3.0 + m / 2)

    def point(s: complex):
        lhs = ruelle_rho(spec, m, s, p)
        log_rhs = (selberg_rho(spec, m, 0, s, p).log_value
                   + selberg_rho(spec, m, 0, s + 2, p).log_value
                   - selberg_rho(spec, m, 2, s + 1, p).log_value
                   - selberg_rho(spec, m, -2, s + 1, p).log_value)
        return lhs.log_value, log_rhs, lhs.flags

    return _run_grid("rho-selberg", grid, point, tol, (f"m={m}",), 2.0 + m / 2)


def verify_zograf_ratio(spec: LengthSpectrum, n: int, parity: str, grid=None,
                        p: EvalParams | None = None, tol: float = 1e-8) -> IdentityReport:
    """Zograf product: direct k-truncation vs. the two-Selberg ratio form, on
    Re(s) > 2 - n - h/2, where both converge."""
    p = p or EvalParams.for_spectrum(spec)
    h = parity_h(parity)
    grid = grid if grid is not None else default_grid((3.0 + h / 2) - n)
    evaluator = (zograf_F, zograf_G)[h]

    def point(s: complex):
        direct = evaluator(spec, n, s, p, method="direct")
        ratio = evaluator(spec, n, s, p, method="ratio")
        return direct.log_value, ratio.log_value, direct.flags + ratio.flags

    return _run_grid("zograf-ratio", grid, point, tol, (f"n={n}", parity), (2.0 - h / 2) - n)


def verify_corollary_FG(spec: LengthSpectrum, n: int, parity: str, grid=None,
                        p: EvalParams | None = None, tol: float = 1e-8) -> IdentityReport:
    """F_n(s)^2 R_rho_m(s) (or the G_n odd analogue), m = 2n - 2 + h, as the
    four-Selberg quotient of weights m, -(m+2), -m and m+2.

    The Zograf side uses the direct k-product so the two routes stay independent.
    """
    p = p or EvalParams.for_spectrum(spec)
    h = parity_h(parity)
    m = 2 * n - 2 + h
    grid = grid if grid is not None else default_grid(n + (2.0 + h / 2))
    zograf = (zograf_F, zograf_G)[h]

    def point(s: complex):
        f = zograf(spec, n, s, p, method="direct")
        log_rhs = (selberg_sigma(spec, m, s - n + (1 - h / 2), p).log_value
                   + selberg_sigma(spec, -(m + 2), s + n + h / 2, p).log_value
                   - selberg_sigma(spec, -m, s + n + (1 + h / 2), p).log_value
                   - selberg_sigma(spec, m + 2, s - n + (2 - h / 2), p).log_value)
        return 2.0 * f.log_value + ruelle_rho(spec, m, s, p).log_value, log_rhs, f.flags

    return _run_grid("corollary-FG", grid, point, tol, (f"n={n}", parity), n + (1.0 + h / 2))


# ---------------------------------------------------------------------------
# Functional-equation checks (need invariants)

def _ruelle_reflected_log(spec: LengthSpectrum, inv: ManifoldInvariants, m: int,
                          s: complex, p: EvalParams) -> complex:
    """log R_rho_m(s) assembled from the four-Selberg quotient, every factor
    evaluated through selberg_anywhere (reflection where needed)."""
    return (selberg_anywhere(spec, inv, m, s - m / 2, p).log_value
            + selberg_anywhere(spec, inv, -m, s + m / 2 + 2, p).log_value
            - selberg_anywhere(spec, inv, m + 2, s - m / 2 + 1, p).log_value
            - selberg_anywhere(spec, inv, -(m + 2), s + m / 2 + 1, p).log_value)


def verify_ruelle_functional_equation(spec: LengthSpectrum, inv: ManifoldInvariants,
                                      m: int, grid=None, p: EvalParams | None = None,
                                      tol: float = 1e-8) -> IdentityReport:
    """R_rho(s) = R_rho(-s) exp(4 s dim(V_rho) Vol / pi), with R_rho(-s) reflected.

    dim(V_rho) = m + 1.  The grid must keep every reflected argument clear of
    the strip, which the Re(s) > 2 + m/2 precondition guarantees.
    """
    p = p or EvalParams.for_spectrum(spec)
    grid = grid if grid is not None else default_grid(3.0 + m / 2)
    dim = m + 1

    def point(s: complex):
        lhs = ruelle_rho(spec, m, s, p)
        log_rhs = (4.0 * s * dim * inv.volume / math.pi
                   + _ruelle_reflected_log(spec, inv, m, -s, p))
        return lhs.log_value, log_rhs, ("reflected",)

    return _run_grid("ruelle-feq", grid, point, tol, (f"m={m}", FLAG_CIRCULAR), 2.0 + m / 2)


def verify_det_chain(spec: LengthSpectrum, inv: ManifoldInvariants, m: int, grid=None,
                     p: EvalParams | None = None, tol: float = 1e-8,
                     det_volume: float | None = None) -> IdentityReport:
    """Chain the determinant expressions back into the twisted Ruelle zeta.

    The regularized determinants of the flat Laplacians are expressed through
    twisted Selberg zetas times explicit volume-cubic exponentials; feeding
    them into the Ruelle chain must cancel every exponential factor exactly.
    ``det_volume`` optionally decouples the volume used in the determinant
    expressions from the one in the chain factor, so tests can confirm a
    mismatched volume is actually detected; by default both come from ``inv``.
    """
    p = p or EvalParams.for_spectrum(spec)
    grid = grid if grid is not None else default_grid(3.5 + m / 2)
    dim = m + 1
    v_det = inv.volume if det_volume is None else det_volume
    v_chain = inv.volume

    def point(s: complex):
        # det(Delta_0 - 1 + x^2) at x = s -+ 1, from the Selberg side
        log_det_a = (selberg_rho(spec, m, 0, s, p).log_value
                     - dim * v_det * (s - 1) ** 3 / (6.0 * math.pi))
        log_det_b = (selberg_rho(spec, m, 0, s + 2, p).log_value
                     - dim * v_det * (s + 1) ** 3 / (6.0 * math.pi))
        # det(Delta_1 + s^2) / det(Delta_0 + s^2)
        log_ratio_10 = (selberg_rho(spec, m, 2, s + 1, p).log_value
                        + selberg_rho(spec, m, -2, s + 1, p).log_value
                        + dim * v_det * (s - s ** 3 / 3.0) / math.pi)
        log_lhs = log_det_a + log_det_b - log_ratio_10 \
            + 2.0 * s * dim * v_chain / math.pi
        rhs = ruelle_rho(spec, m, s, p)
        return log_lhs, rhs.log_value, rhs.flags

    return _run_grid("det-chain", grid, point, tol, (f"m={m}",), 2.0 + m / 2)


def verify_reflection_involution(samples: int = 1000, seed: int = 20240817,
                                 tol: float = 1e-12) -> IdentityReport:
    """reflect(-k, -s) after reflect(k, s) must return the input exactly:
    the volume cubic is odd and the eta phase antisymmetric, so the factors cancel."""
    rng = random.Random(seed)
    points = []
    for _ in range(samples):
        k = rng.randint(-8, 8)
        s = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        v = cmath.rect(rng.uniform(0.1, 10.0), rng.uniform(0.0, 2.0 * math.pi))
        inv = ManifoldInvariants(rng.uniform(0.5, 10.0), 0.0,
                                 {max(abs(k), 1): rng.uniform(-2.0, 2.0)})
        back = reflect_selberg(inv, -k, -s, reflect_selberg(inv, k, s, v))
        points.append(GridPoint(s, abs(back - v) / abs(v), (f"k={k}",)))
    return IdentityReport("reflect-involution", tol, tuple(points))


# ---------------------------------------------------------------------------
# Special values: the main-theorem pipeline

def main_theorem_residual(spec: LengthSpectrum, inv: ManifoldInvariants, n: int,
                          parity: str, p: EvalParams | None = None, tol: float = 1e-9,
                          claimed: ManifoldInvariants | None = None,
                          reference_spectrum: LengthSpectrum | None = None) -> IdentityReport:
    """Special value of F_n(s)^4 R^2 (or G_n(s)^4 R^2), R = R_rho_m with
    m = 2n - 2 + h, at s = 0 versus its closed form.

    The left side is the squared four-Selberg quotient with the two
    divergent-argument factors reflected; the two same-argument quotients at
    s = 0 are exactly 1 (their arguments sit in the zero-free convergence
    region for the allowed n).  The right side is the closed exponential in
    the volume and eta data.

    With the defaults both sides read the same inputs, so the residual is a
    tautology in the data (flagged "circular...") that validates the
    assembled algebra end to end.  The two seams turn it into an actual
    cross-check: ``claimed`` supplies independently asserted invariants for
    the closed form, and ``reference_spectrum`` supplies the spectrum used
    inside the reflected evaluations while the convergent factors read
    ``spec`` - so a corrupted spectrum or invariants file fed to one side is
    detected against the trusted other side.
    """
    p = p or EvalParams.for_spectrum(spec)
    cl = claimed if claimed is not None else inv
    ref = reference_spectrum if reference_spectrum is not None else spec
    h = parity_h(parity)
    if n < 3 - h:
        raise DomainError(f"n={n} below threshold for the {parity} main theorem (n >= {3 - h})")
    m = 2 * n - 2 + h
    coeff = (2 * n * n - 2 * n + 1.0 / 3.0, 2 * n * n - 1.0 / 6.0)[h]

    def point(s: complex):
        log_lhs = 2.0 * (selberg_anywhere(ref, inv, m, (1.0 - h / 2) - n, p).log_value
                         + selberg_anywhere(spec, inv, -(m + 2), n + h / 2, p).log_value
                         - selberg_anywhere(spec, inv, -m, n + (1.0 + h / 2), p).log_value
                         - selberg_anywhere(ref, inv, m + 2, (2.0 - h / 2) - n, p).log_value)
        log_rhs = (-(2.0 / math.pi) * coeff * cl.volume
                   - 2j * math.pi * (eta_lookup(cl, m + 2) - eta_lookup(cl, m)))
        return log_lhs, log_rhs, ("reflected",)

    flags = (f"n={n}", parity, "reflected")
    if claimed is None and reference_spectrum is None:
        flags = flags + (FLAG_CIRCULAR,)
    return _run_grid("main-theorem", (0j,), point, tol, flags)


def special_case_low_n(inv: ManifoldInvariants, which: str) -> complex:
    """Closed forms for the low-index special values the products cannot reach.

    "F1-even": F_1(s)^2 R_rho_0(s) at s=0 = -exp(-(Vol + i 3 pi^2 eta_2)/(3 pi)).
    "G0-odd":  G_0(s)^4 at s=0 = exp((Vol - i 12 pi^2 eta_1)/(3 pi)).
    The spectrum does not enter: the left sides involve limits at the zero of
    the weight-0 Selberg zeta, which are resolved analytically.
    """
    pi2 = math.pi * math.pi
    if which == "F1-even":
        return -cmath.exp(-(inv.volume + 3j * pi2 * eta_lookup(inv, 2)) / (3.0 * math.pi))
    if which == "G0-odd":
        return cmath.exp((inv.volume - 12j * pi2 * eta_lookup(inv, 1)) / (3.0 * math.pi))
    raise ValueError(f"which must be 'F1-even' or 'G0-odd', got {which!r}")


# ---------------------------------------------------------------------------
# Registry: one table drives the battery and the CLI

def verify_exact_oracle() -> IdentityReport:
    """The exact Gaussian-rational battery as one report: a point per check at its s,
    residual 0 or 1, flagged with its identity, parameters and first failing term."""
    points = []
    for r in exact_battery():
        flags = (r.identity_id,) + tuple(f"{name}={value}" for name, value in r.params)
        if r.first_failure is not None:
            f = r.first_failure
            flags += (f"first failure at class {f.class_index}, power {f.power}",)
        points.append(GridPoint(complex(r.s), 0.0 if r.passed else 1.0, flags))
    return IdentityReport("exact-oracle", 0.0, tuple(points), ("exact-rational-arithmetic",))


@dataclass(frozen=True)
class Identity:
    """One registered check.

    ``run(spec, inv, p, tol, **params)`` returns its report, calling the
    ``verify_*`` function by its module-global name so that a later rebinding
    of that name is honoured.  ``params`` are the parameters it reads; each
    dict in ``battery`` is one report of the default battery.  The tolerance
    is at least ``tol_floor``; the self-contained checks carry their own.
    ``n_min`` is the least product index for even and for odd parity.
    """

    run: Callable[..., IdentityReport]
    params: tuple[str, ...]
    battery: tuple[dict, ...]
    needs_spectrum: bool = True
    needs_invariants: bool = False
    tol_floor: float = 0.0
    n_min: tuple[int, int] | None = None


def _each(name: str, *values) -> tuple[dict, ...]:
    return tuple({name: v} for v in values)


_PARITIES = ({"n": 3, "parity": "even"}, {"n": 2, "parity": "odd"})

IDENTITIES: dict[str, Identity] = {
    "prop-ruelle-dec": Identity(
        lambda spec, inv, p, tol, m: verify_ruelle_decomposition(spec, m, p=p, tol=tol),
        ("m",), _each("m", 0, 1, 2)),
    "selberg-rho-dec": Identity(
        lambda spec, inv, p, tol, m, k: verify_selberg_rho_decomposition(
            spec, m, k, p=p, tol=tol),
        ("m", "k"), ({"m": 0, "k": 0}, {"m": 1, "k": 0}, {"m": 2, "k": 2})),
    "four-selberg": Identity(
        lambda spec, inv, p, tol, m: verify_four_selberg_quotient(spec, m, p=p, tol=tol),
        ("m",), _each("m", 0, 1, 2)),
    "rho-selberg": Identity(
        lambda spec, inv, p, tol, m: verify_rho_selberg_quotient(spec, m, p=p, tol=tol),
        ("m",), _each("m", 0, 1, 2)),
    "zograf-ratio": Identity(
        lambda spec, inv, p, tol, n, parity: verify_zograf_ratio(spec, n, parity, p=p, tol=tol),
        ("n", "parity"), _PARITIES, n_min=(1, 0)),
    "corollary-FG": Identity(
        lambda spec, inv, p, tol, n, parity: verify_corollary_FG(spec, n, parity, p=p, tol=tol),
        ("n", "parity"), _PARITIES, n_min=(1, 1)),
    "ruelle-feq": Identity(
        lambda spec, inv, p, tol, m: verify_ruelle_functional_equation(
            spec, inv, m, p=p, tol=tol),
        ("m",), _each("m", 0, 1, 2), needs_invariants=True),
    "det-chain": Identity(
        lambda spec, inv, p, tol, m: verify_det_chain(spec, inv, m, p=p, tol=tol),
        ("m",), _each("m", 0, 1), needs_invariants=True),
    "reflect-involution": Identity(
        lambda spec, inv, p, tol, samples: verify_reflection_involution(samples=samples),
        ("samples",), _each("samples", 1000), needs_spectrum=False),
    "main-theorem": Identity(
        lambda spec, inv, p, tol, n, parity, claimed=None, reference=None:
            main_theorem_residual(spec, inv, n, parity, p=p, tol=tol, claimed=claimed,
                                  reference_spectrum=reference),
        ("n", "parity", "claimed", "reference"),
        ({"n": 3, "parity": "even"}, {"n": 4, "parity": "even"},
         {"n": 2, "parity": "odd"}, {"n": 3, "parity": "odd"}),
        needs_invariants=True, tol_floor=1e-9),
    "exact-oracle": Identity(lambda spec, inv, p, tol: verify_exact_oracle(), (), ({},),
                             needs_spectrum=False),
}
# the ``verify --identity`` choices: one registered check, or the whole battery
IDENTITY_CHOICES = (*IDENTITIES, "all")


def run_identity(identity_id: str, spec: LengthSpectrum | None,
                 inv: ManifoldInvariants | None, p: EvalParams | None = None,
                 tol: float = 1e-8, **params) -> IdentityReport:
    """One registered check.  Its parameters are checked before any grid point
    runs, so a bad index raises ``ValueError`` instead of erroring every point,
    and so does an m (for corollary-FG, m = 2n - 2 + h) that ``zeta._weight_budget``
    refuses: past ``zeta.M_MAX``, or with m + 1 weight rows over the power
    table past the work limit; a table past the limit is left to the grid
    points."""
    entry = IDENTITIES[identity_id]
    m = params.get("m")
    if m is not None and m < 0:
        raise ValueError(f"{identity_id} needs m >= 0, got {m}")
    if entry.n_min is not None:
        h = parity_h(params["parity"])
        least = entry.n_min[h]
        if params["n"] < least:
            raise ValueError(f"{identity_id} with {params['parity']} parity needs "
                             f"n >= {least}, got {params['n']}")
        if identity_id == "corollary-FG":
            m = 2 * params["n"] - 2 + h
    if params.get("samples", 1) < 1:
        raise ValueError(f"{identity_id} needs samples >= 1, got {params['samples']}")
    if m is not None:
        try:
            table = powers_up_to(spec, (p or EvalParams.for_spectrum(spec)).l_cut)
        except DomainError:
            table = None  # a table past the budget is reported at each grid point
        _weight_budget(m, table)
    return entry.run(spec, inv, p, max(tol, entry.tol_floor), **params)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: stay serial
        return 1


def _claim(claims: int, run: Callable[[int], IdentityReport]) -> dict[int, IdentityReport]:
    # run checks by the index bytes read from the shared claims pipe until it
    # is empty; a check that raises is left out, to be run again serially
    done = {}
    while index := os.read(claims, 1):
        try:
            done[index[0]] = run(index[0])
        except Exception:
            pass
    return done


def _die_with_parent(parent: int) -> None:
    # the worker is killed when the process that forked it ends, however it ends
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # no prctl here: only the check below remains
        pass
    else:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent ended before the request took effect
        os._exit(1)


def _split(count: int, run: Callable[[int], IdentityReport]) -> dict[int, IdentityReport]:
    """Run checks 0..count-1 in this process and one forked worker, and return
    the reports that came back, by index."""
    claims, claims_in = os.pipe()
    # one byte per index, costliest first: the exact oracle is last in the registry
    os.write(claims_in, bytes(reversed(range(count))))
    os.close(claims_in)
    results, results_in = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: this one claims every check
        pid = -1
    if pid == 0:
        # the worker never returns into the caller, flushes no inherited
        # buffer and runs no exit handler
        try:
            _die_with_parent(parent)
            os.close(results)
            done = _claim(claims, run)
            with os.fdopen(results_in, "wb") as out:
                pickle.dump(done, out)
        finally:
            os._exit(0)
    os.close(results_in)
    try:
        done = _claim(claims, run)
        with os.fdopen(results, "rb", closefd=False) as worker:
            sent = worker.read()
    except BaseException:
        if pid > 0:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        os.close(results)
        if pid > 0:
            os.waitpid(pid, 0)
    try:
        done.update(pickle.loads(sent))
    except (EOFError, pickle.UnpicklingError):
        pass  # the worker died before its reports were all sent
    return done


def battery_reports(spec: LengthSpectrum, inv: ManifoldInvariants,
                    p: EvalParams | None = None, tol: float = 1e-8) -> list[IdentityReport]:
    """The default verification battery: every registered check over its
    battery parameters, in registry order, the exact oracle last.

    With two usable CPUs the checks are split between this process and one
    forked worker (see the module docstring); the reports, and the exception
    a failing battery raises, are those of the serial loop.
    """
    p = p or EvalParams.for_spectrum(spec)
    jobs = [(identity_id, params)
            for identity_id, entry in IDENTITIES.items() for params in entry.battery]

    def run(index: int) -> IdentityReport:
        identity_id, params = jobs[index]
        return run_identity(identity_id, spec, inv, p, tol, **params)

    done = {}
    # a lock held by another thread at the fork would stay held in the worker
    if _usable_cpus() >= 2 and threading.active_count() == 1:
        try:  # what every check reads, built once before the split
            powers_up_to(spec, p.l_cut)
            if p.growth is None:
                GrowthModel.fit(spec)
        except DomainError:
            pass  # each check meets it at its own grid points
        done = _split(len(jobs), run)
    return [done[i] if i in done else run(i) for i in range(len(jobs))]
