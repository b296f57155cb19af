"""Exact Gaussian-rational verification of the product identities, per term.

Model a primitive class with exact data: q = e^(-l) a rational square (so
e^(-l/2) is rational) and e^(i theta/2) a Gaussian rational of unit modulus
(a Pythagorean point; its square is e^(i theta)).  Then, at integer or
half-integer s, the log-series contribution of every zeta object at one
(class, power) pair is itself a Gaussian rational, and each product identity
reduces to term-by-term equalities decided by integer arithmetic.  This is
the strongest form of the identities (the whole-product versions follow by
summation) and it is the floating test suite's ground truth: no rounding
anywhere, so a failure is a formula bug, never noise.

Reflection and functional-equation identities are out of reach here: they
involve transcendental exp(Vol ...) factors.

A Gaussian rational is stored as three Python ints (a + b i) / d with d > 0,
and has that one state: arithmetic leaves its result unreduced and nothing
reduces it in place.  Equality cross-multiplies two raw triples, so deciding
a term computes no gcd; only ``hash`` reduces, into a new triple.

A check stops at the first (class, power) term whose sides differ and keeps
no decided side.  A quotient side sums its cores and divides once by the
shared denominator; where two sides share a factor they build it by
different routes (selberg-rho-dec sums the double product's two geometric
series on the left), so a wrong shared helper still shows as a failing term.

The factors of one (class, power) that do not depend on s are built once per
process: the powers q_sqrt^e and u_half^e of each class, the denominator
(1 - a)(1 - b) of each (class, power) and the symmetric-power trace of each
(class, power, m).  Each lives in an ``lru_cache`` of at most
``EXACT_CACHE_SIZE`` (4096) entries; the default battery fills them with 942
values in all.  Only these leaves are cached.  The per-(class, power) core
``_r_core`` and ``identity_terms`` are rebuilt on every call and reach the
cached ``_denominators`` through the module namespace, so a
helper replaced there (a fault injected by a test) is seen at once, and a
warm cache never holds a value computed from a replaced helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .spectrum import GeodesicEntry, LengthSpectrum


class GaussianRational:
    """Element (a + b i) / d of Q(i) with exact field arithmetic.

    The value is held as one triple of Python ints with d > 0.  ``+ - * /
    **`` build their result's triple with a few integer products and no gcd,
    so a result is not in lowest terms in general, and it stays as built.
    ``==`` cross-multiplies the two triples (x/e = a/d when x d = a e and
    y d = b e), with no gcd.  ``hash`` reads the lowest-terms triple
    (gcd(a, b, d) = 1), which is canonical, so equal values hash alike.
    ``re`` and ``im`` read back as Fractions; int and Fraction operands mix in
    on the right of + - / and either side of *.
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0) -> None:
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        self._t = (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(re, im)

    def _lowest(self) -> tuple[int, int, int]:
        # the triple in lowest terms, leaving the held one as it is
        a, b, d = self._t
        g = math.gcd(a, b, d)
        return (a // g, b // g, d // g)

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _lift(other)
        x, y, e = self._t
        a, b, d = other._t
        return _raw(x * d + a * e, y * d + b * e, e * d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _lift(other)
        x, y, e = self._t
        a, b, d = other._t
        return _raw(x * d - a * e, y * d - b * e, e * d)

    def __neg__(self) -> "GaussianRational":
        a, b, d = self._t
        return _raw(-a, -b, d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _lift(other)
        x, y, e = self._t
        a, b, d = other._t
        if b == 0:
            return _raw(x * a, y * a, e * d)
        return _raw(x * a - y * b, x * b + y * a, e * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _lift(other)
        x, y, e = self._t
        a, b, d = other._t
        if b == 0:
            if a == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            if a < 0:  # keep the denominator positive
                return _raw(-x * d, -y * d, -e * a)
            return _raw(x * d, y * d, e * a)
        # multiply by the conjugate over the norm a^2 + b^2 > 0
        return _raw((x * a + y * b) * d, (y * a - x * b) * d, e * (a * a + b * b))

    def __pow__(self, exponent: int) -> "GaussianRational":
        base = self if exponent >= 0 else GR_ONE / self
        x, y, d = base._t
        a, b = 1, 0
        e = abs(exponent)
        while e:
            if e & 1:
                a, b = a * x - b * y, a * y + b * x
            e >>= 1
            if e:
                x, y = x * x - y * y, 2 * x * y
        return _raw(a, b, d ** abs(exponent))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        x, y, e = self._t
        a, b, d = other._t
        return x * d == a * e and y * d == b * e

    def __hash__(self) -> int:
        return hash(self._lowest())

    def conj(self) -> "GaussianRational":
        a, b, d = self._t
        return _raw(a, -b, d)

    def norm2(self) -> Fraction:
        a, b, d = self._t
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        a, b, _ = self._t
        return a == 0 and b == 0

    def to_complex(self) -> complex:
        # int / int is correctly rounded whatever the common factor, as is float(Fraction)
        a, b, d = self._t
        return complex(a / d, b / d)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        return f"({self.re})+({self.im})i"


def _raw(a: int, b: int, d: int) -> GaussianRational:
    # wrap the triple (a + b i) / d, d > 0
    z = object.__new__(GaussianRational)
    z._t = (a, b, d)
    return z


def _lift(value) -> GaussianRational:
    # an int or Fraction operand, as a GaussianRational
    if isinstance(value, int):
        return _raw(value, 0, 1)
    value = Fraction(value)
    return _raw(value.numerator, 0, value.denominator)


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))


@dataclass(frozen=True)
class ExactClass:
    """Exact model of one primitive class.

    q_sqrt is e^(-l/2) (a rational in (0,1)); u_half is the lifted rotation
    eigenvalue e^(i theta/2) including the branch sign, a Gaussian rational on
    the unit circle (generate them from Pythagorean triples).  q = q_sqrt^2
    and u = u_half^2 follow.
    """

    q_sqrt: Fraction
    u_half: GaussianRational

    def __post_init__(self) -> None:
        if not (0 < self.q_sqrt < 1):
            raise ValueError(f"q_sqrt must lie in (0, 1), got {self.q_sqrt}")
        if self.u_half.norm2() != 1:
            raise ValueError(f"u_half must have unit modulus, |u_half|^2 = {self.u_half.norm2()}")
        # every exact cache is keyed on a class; hash the two Fractions once
        object.__setattr__(self, "_hash", hash((self.q_sqrt, self.u_half)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def q(self) -> Fraction:
        return self.q_sqrt * self.q_sqrt

    @property
    def u(self) -> GaussianRational:
        return self.u_half * self.u_half

    @classmethod
    def from_q(cls, q: Fraction, u: GaussianRational, u_half: GaussianRational) -> "ExactClass":
        """Build from (q, u, u_half), checking q is a rational square and u_half^2 = u."""
        q = Fraction(q)
        num_r = math.isqrt(q.numerator)
        den_r = math.isqrt(q.denominator)
        if num_r * num_r != q.numerator or den_r * den_r != q.denominator:
            raise ValueError(f"q={q} is not the square of a rational")
        if u_half * u_half != u:
            raise ValueError("u_half^2 != u")
        return cls(Fraction(num_r, den_r), u_half)

    def to_entry(self) -> GeodesicEntry:
        """Floating image: length = -ln q, angle = arg u in [0, 2 pi), matching lift sign."""
        length = -2.0 * math.log(float(self.q_sqrt))
        angle = math.atan2(float(self.u.im), float(self.u.re)) % (2.0 * math.pi)
        half_phase = math.atan2(float(self.u_half.im), float(self.u_half.re)) % (2.0 * math.pi)
        spin = 1 if abs(half_phase - angle / 2.0) < 1e-9 else -1
        return GeodesicEntry(length, angle, spin, 1)


def to_length_spectrum(classes: Sequence[ExactClass], l_max: float,
                       label: str = "exact-image") -> LengthSpectrum:
    return LengthSpectrum.build([c.to_entry() for c in classes], l_max, True, label)


# Built-in fixtures: unit-circle points from Pythagorean triples, q from small
# rational squares.  The third class has a negative-real half eigenvalue, so
# odd characters see a nontrivial branch.
FIXTURE_CLASSES = (
    ExactClass(Fraction(1, 2), GaussianRational.of(Fraction(3, 5), Fraction(4, 5))),
    ExactClass(Fraction(2, 3), GaussianRational.of(Fraction(5, 13), Fraction(12, 13))),
    ExactClass(Fraction(3, 5), GaussianRational.of(Fraction(-15, 17), Fraction(8, 17))),
)

EXACT_PARAMS = {"ruelle-dec": ("m",), "selberg-rho-dec": ("m", "k"), "four-selberg": ("m",),
                "rho-selberg": ("m",), "zograf-F": ("n",), "zograf-G": ("n",)}
EXACT_IDENTITIES = tuple(EXACT_PARAMS)


@dataclass(frozen=True)
class TermFailure:
    class_index: int
    power: int
    lhs: GaussianRational
    rhs: GaussianRational


@dataclass(frozen=True)
class ExactCheckResult:
    """One check's verdict: it passed if and only if no term failed.  ``params``
    holds the (name, value) pairs of the parameters the identity reads."""

    identity_id: str
    s: int | Fraction
    params: tuple[tuple[str, int], ...]
    first_failure: TermFailure | None

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def _two_s(s) -> int:
    """Validate the evaluation point: 2s must be an integer so every exponent
    q_sqrt^(2 s mu + integer) stays exact."""
    if type(s) is int:
        return 2 * s
    two = Fraction(s) * 2
    if two.denominator != 1:
        raise ValueError(f"s={s} is not exactable: need integer or half-integer")
    return two.numerator


# Bound of each exact cache below, in entries.  The default battery keeps 486
# q_sqrt powers, 276 u_half powers, 36 denominators and 144 traces.
EXACT_CACHE_SIZE = 4096


@lru_cache(maxsize=EXACT_CACHE_SIZE)
def _q_sqrt_power(cls: ExactClass, e: int) -> GaussianRational:
    """q_sqrt^e as a Gaussian rational, for any integer e."""
    return GaussianRational.of(cls.q_sqrt ** e)


@lru_cache(maxsize=EXACT_CACHE_SIZE)
def _u_half_power(cls: ExactClass, e: int) -> GaussianRational:
    """u_half^e, for any integer e."""
    return cls.u_half ** e


def _r_core(cls: ExactClass, mu: int, two_s: int, k: int, two_shift: int) -> GaussianRational:
    """Per-(class, power) log-series core of R(sigma_k, s + shift):
    u_half^(k mu) q_sqrt^((2s + 2 shift) mu), with 2*shift integer.  Over the
    (class, power)'s ``_denominators`` (1-a)(1-b) it is the core of
    Z(sigma_k, s + shift)."""
    return _u_half_power(cls, k * mu) * _q_sqrt_power(cls, (two_s + two_shift) * mu)


@lru_cache(maxsize=EXACT_CACHE_SIZE)
def _denominators(cls: ExactClass, mu: int) -> GaussianRational:
    # (1 - e^-mu(l+it)) (1 - e^-mu(l-it)); nonzero since 0 < q < 1
    h2 = _q_sqrt_power(cls, 2 * mu)
    u_mu = _u_half_power(cls, 2 * mu)
    a = h2 * u_mu.conj()
    b = h2 * u_mu
    return (GR_ONE - a) * (GR_ONE - b)


@lru_cache(maxsize=EXACT_CACHE_SIZE)
def _trace_core(cls: ExactClass, mu: int, m: int) -> GaussianRational:
    """Trace of the m-th symmetric power on the mu-th power of the class:
    sum of (u_half / q_sqrt)^((m - 2j) mu)."""
    total = GR_ZERO
    for j in range(m + 1):
        e = (m - 2 * j) * mu
        total = total + _u_half_power(cls, e) * _q_sqrt_power(cls, -e)
    return total


def identity_terms(identity_id: str, cls: ExactClass, mu: int, s,
                   m: int = 0, k: int = 0, n: int = 3) -> tuple[GaussianRational, GaussianRational]:
    """(lhs, rhs) exact log-series contributions of one identity at one (class, power).

    The common factor -multiplicity/mu is dropped from both sides.
    """
    two_s = _two_s(s)
    if identity_id == "ruelle-dec":
        lhs = _trace_core(cls, mu, m) * _q_sqrt_power(cls, two_s * mu)
        rhs = GR_ZERO
        for l in range(m + 1):
            rhs = rhs + _r_core(cls, mu, two_s, m - 2 * l, 2 * l - m)
        return lhs, rhs
    if identity_id == "selberg-rho-dec":
        # the left side sums the (p, q) double product as two geometric series,
        # apart from the right side's _denominators
        h2, u_mu = _q_sqrt_power(cls, 2 * mu), _u_half_power(cls, 2 * mu)
        lhs = (_trace_core(cls, mu, m) * _u_half_power(cls, k * mu)
               * _q_sqrt_power(cls, two_s * mu)) / (GR_ONE - u_mu.conj() * h2) / (GR_ONE - u_mu * h2)
        rhs = GR_ZERO
        for l in range(m + 1):
            rhs = rhs + _r_core(cls, mu, two_s, m - 2 * l + k, 2 * l - m)
        return lhs, rhs / _denominators(cls, mu)
    if identity_id == "four-selberg":
        lhs = _trace_core(cls, mu, m) * _q_sqrt_power(cls, two_s * mu)
        rhs = (_r_core(cls, mu, two_s, m, -m)
               + _r_core(cls, mu, two_s, -m, m + 4)
               - _r_core(cls, mu, two_s, m + 2, -m + 2)
               - _r_core(cls, mu, two_s, -(m + 2), m + 2))
        return lhs, rhs / _denominators(cls, mu)
    if identity_id == "rho-selberg":
        tr = _trace_core(cls, mu, m)
        lhs = tr * _q_sqrt_power(cls, two_s * mu)
        rhs = tr * (_r_core(cls, mu, two_s, 0, 0)
                    + _r_core(cls, mu, two_s, 0, 4)
                    - _r_core(cls, mu, two_s, 2, 2)
                    - _r_core(cls, mu, two_s, -2, 2))
        return lhs, rhs / _denominators(cls, mu)
    if identity_id in ("zograf-F", "zograf-G"):
        # sum over k >= n of the R(sigma_-(2k+h), s+k+h/2) cores, h = 0 for F and
        # 1 for G, as an exact geometric series; the right side is the Selberg ratio
        h = int(identity_id == "zograf-G")
        half_a = _q_sqrt_power(cls, mu) * _u_half_power(cls, mu).conj()
        lhs = _q_sqrt_power(cls, two_s * mu) * half_a ** (2 * n + h) / (GR_ONE - half_a * half_a)
        rhs = (_r_core(cls, mu, two_s, -(2 * n + h), 2 * n + h)
               - _r_core(cls, mu, two_s, -(2 * n - 2 + h), 2 * n + 2 + h))
        return lhs, rhs / _denominators(cls, mu)
    raise ValueError(f"unknown exact identity {identity_id!r}; "
                     f"one of {', '.join(EXACT_IDENTITIES)}")


def exact_identity_check(classes: Sequence[ExactClass], identity_id: str, s,
                         max_power: int, m: int = 0, k: int = 0,
                         n: int = 3) -> ExactCheckResult:
    """Check one identity term-by-term for every (class, power <= max_power).

    Returns at the earliest offending term (lowest class index, then lowest
    power), building no later term.
    """
    params = tuple((p, dict(m=m, k=k, n=n)[p]) for p in EXACT_PARAMS.get(identity_id, ()))
    for ci, cls in enumerate(classes):
        for mu in range(1, max_power + 1):
            lhs, rhs = identity_terms(identity_id, cls, mu, s, m=m, k=k, n=n)
            if lhs != rhs:
                return ExactCheckResult(identity_id, s, params, TermFailure(ci, mu, lhs, rhs))
    return ExactCheckResult(identity_id, s, params, None)


def exact_battery(classes: Sequence[ExactClass] = FIXTURE_CLASSES,
                  s_values: Sequence = (4, 5, 6),
                  max_power: int = 12) -> list[ExactCheckResult]:
    """The acceptance matrix: decomposition and quotient identities for small
    symmetric powers, Zograf ratios for F n=3..5 and G n=2..4, at every given
    s (plus the admissible half-integers for the odd chain)."""
    results: list[ExactCheckResult] = []
    for s in s_values:
        for m in (0, 1, 2, 3):
            results.append(exact_identity_check(classes, "ruelle-dec", s, max_power, m=m))
            results.append(exact_identity_check(classes, "four-selberg", s, max_power, m=m))
            results.append(exact_identity_check(classes, "rho-selberg", s, max_power, m=m))
        for m, kk in ((0, 0), (1, 0), (2, 1), (3, 2)):
            results.append(exact_identity_check(classes, "selberg-rho-dec", s, max_power,
                                                m=m, k=kk))
        for nn in (3, 4, 5):
            results.append(exact_identity_check(classes, "zograf-F", s, max_power, n=nn))
        for nn in (2, 3, 4):
            results.append(exact_identity_check(classes, "zograf-G", s, max_power, n=nn))
            results.append(exact_identity_check(classes, "zograf-G",
                                                Fraction(s) + Fraction(1, 2),
                                                max_power, n=nn))
    return results
