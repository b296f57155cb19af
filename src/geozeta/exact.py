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

A Gaussian rational is stored as three Python ints (a + b i) / d in lowest
terms, so each field operation is a few integer products and one gcd, and
equality is a comparison of triples.  Where an identity's two sides share a
factor, they build it by different routes (selberg-rho-dec sums the double
product's two geometric series on the left and divides by the shared
denominator on the right), so a wrong shared helper still shows as a failing
term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .spectrum import GeodesicEntry, LengthSpectrum

Rational = Fraction


class GaussianRational:
    """Element (a + b i) / d of Q(i) with exact field arithmetic.

    The three Python ints are kept with d > 0 and gcd(a, b, d) = 1.  That form
    is canonical, so == and hash are exact, and each operation costs a few
    integer products and one gcd.  ``re`` and ``im`` read back as Fractions;
    int and Fraction operands mix in on the right of + - / and either side of *.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0) -> None:
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators the triple is already coprime
        d = math.lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        a, b, d = _triple(other)
        return _reduced(self._a * d + a * self._d, self._b * d + b * self._d, self._d * d)

    def __sub__(self, other):
        a, b, d = _triple(other)
        return _reduced(self._a * d - a * self._d, self._b * d - b * self._d, self._d * d)

    def __neg__(self) -> "GaussianRational":
        return _canonical(-self._a, -self._b, self._d)

    def __mul__(self, other):
        a, b, d = _triple(other)
        if b == 0:
            return _reduced(self._a * a, self._b * a, self._d * d)
        return _reduced(self._a * a - self._b * b, self._a * b + self._b * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d = _triple(other)
        if b == 0:
            if a == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _reduced(self._a * d, self._b * d, self._d * a)
        # multiply by the conjugate over the norm a^2 + b^2 > 0
        return _reduced((self._a * a + self._b * b) * d, (self._b * a - self._a * b) * d,
                        self._d * (a * a + b * b))

    def __pow__(self, exponent: int) -> "GaussianRational":
        base = self if exponent >= 0 else GR_ONE / self
        x, y = base._a, base._b
        a, b = 1, 0
        e = abs(exponent)
        while e:
            if e & 1:
                a, b = a * x - b * y, a * y + b * x
            e >>= 1
            if e:
                x, y = x * x - y * y, 2 * x * y
        return _reduced(a, b, base._d ** abs(exponent))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def conj(self) -> "GaussianRational":
        return _canonical(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as is float(Fraction)
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        return f"({self.re})+({self.im})i"


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    # wrap a triple already in canonical form
    z = object.__new__(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    # (a + b i) / d for any nonzero d, brought to canonical form
    g = math.gcd(a, b, d)
    if d < 0:
        g = -g
    return _canonical(a // g, b // g, d // g)


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, GaussianRational):
        return value._a, value._b, value._d
    if isinstance(value, int):
        return value, 0, 1
    value = Fraction(value)
    return value.numerator, 0, value.denominator


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

EXACT_IDENTITIES = ("ruelle-dec", "selberg-rho-dec", "four-selberg", "rho-selberg",
                    "zograf-F", "zograf-G")


@dataclass(frozen=True)
class TermFailure:
    class_index: int
    power: int
    lhs: GaussianRational
    rhs: GaussianRational


@dataclass(frozen=True)
class ExactCheckResult:
    identity_id: str
    passed: bool
    first_failure: TermFailure | None
    ledger: dict


def _two_s(s) -> int:
    """Validate the evaluation point: 2s must be an integer so every exponent
    q_sqrt^(2 s mu + integer) stays exact."""
    two = Fraction(s) * 2
    if two.denominator != 1:
        raise ValueError(f"s={s} is not exactable: need integer or half-integer")
    return two.numerator


def _z_core(cls: ExactClass, mu: int, two_s: int, k: int, two_shift: int,
            denom: GaussianRational) -> GaussianRational:
    """Per-(class, power) log-series core of Z(sigma_k, s + shift):
    u_half^(k mu) q_sqrt^((2s + 2 shift) mu) / ((1-a)(1-b)), with 2*shift integer."""
    w_k = cls.u_half ** (k * mu)
    radial = cls.q_sqrt ** ((two_s + two_shift) * mu)
    return w_k * radial / denom


def _r_core(cls: ExactClass, mu: int, two_s: int, k: int, two_shift: int) -> GaussianRational:
    """Per-(class, power) log-series core of R(sigma_k, s + shift)."""
    w_k = cls.u_half ** (k * mu)
    return w_k * cls.q_sqrt ** ((two_s + two_shift) * mu)


def _denominators(cls: ExactClass, mu: int) -> GaussianRational:
    # (1 - e^-mu(l+it)) (1 - e^-mu(l-it)); nonzero since 0 < q < 1
    h2 = GaussianRational.of(cls.q ** mu)
    u_mu = cls.u ** mu
    a = h2 * u_mu.conj()
    b = h2 * u_mu
    return (GR_ONE - a) * (GR_ONE - b)


def _trace_core(cls: ExactClass, mu: int, m: int) -> GaussianRational:
    """Trace of the m-th symmetric power on the mu-th power of the class:
    sum of (u_half / q_sqrt)^((m - 2j) mu)."""
    lam = cls.u_half / GaussianRational.of(cls.q_sqrt)
    total = GR_ZERO
    for j in range(m + 1):
        total = total + lam ** ((m - 2 * j) * mu)
    return total


def identity_terms(identity_id: str, cls: ExactClass, mu: int, s,
                   m: int = 0, k: int = 0, n: int = 3) -> tuple[GaussianRational, GaussianRational]:
    """(lhs, rhs) exact log-series contributions of one identity at one (class, power).

    The common factor -multiplicity/mu is dropped from both sides.
    """
    two_s = _two_s(s)
    if identity_id == "ruelle-dec":
        lhs = _trace_core(cls, mu, m) * cls.q_sqrt ** (two_s * mu)
        rhs = GR_ZERO
        for l in range(m + 1):
            rhs = rhs + _r_core(cls, mu, two_s, m - 2 * l, 2 * l - m)
        return lhs, rhs
    if identity_id == "selberg-rho-dec":
        # the left side sums the (p, q) double product as two geometric series,
        # apart from the right side's _denominators
        h2, u_mu = cls.q ** mu, cls.u ** mu
        lhs = (_trace_core(cls, mu, m) * (cls.u_half ** (k * mu))
               * cls.q_sqrt ** (two_s * mu)) / (GR_ONE - u_mu.conj() * h2) / (GR_ONE - u_mu * h2)
        denom = _denominators(cls, mu)
        rhs = GR_ZERO
        for l in range(m + 1):
            rhs = rhs + _z_core(cls, mu, two_s, m - 2 * l + k, 2 * l - m, denom)
        return lhs, rhs
    if identity_id == "four-selberg":
        denom = _denominators(cls, mu)
        lhs = _trace_core(cls, mu, m) * cls.q_sqrt ** (two_s * mu)
        rhs = (_z_core(cls, mu, two_s, m, -m, denom)
               + _z_core(cls, mu, two_s, -m, m + 4, denom)
               - _z_core(cls, mu, two_s, m + 2, -m + 2, denom)
               - _z_core(cls, mu, two_s, -(m + 2), m + 2, denom))
        return lhs, rhs
    if identity_id == "rho-selberg":
        denom = _denominators(cls, mu)
        tr = _trace_core(cls, mu, m)
        lhs = tr * cls.q_sqrt ** (two_s * mu)
        rhs = (tr * (_r_core(cls, mu, two_s, 0, 0)
                     + _r_core(cls, mu, two_s, 0, 4)
                     - _r_core(cls, mu, two_s, 2, 2)
                     - _r_core(cls, mu, two_s, -2, 2))) / denom
        return lhs, rhs
    if identity_id == "zograf-F":
        # sum over k >= n of the R(sigma_-2k, s+k) cores, as an exact geometric series
        denom = _denominators(cls, mu)
        a = GaussianRational.of(cls.q ** mu) * (cls.u ** mu).conj()
        t = GaussianRational.of(cls.q_sqrt ** (two_s * mu))
        lhs = t * a ** n / (GR_ONE - a)
        rhs = (_z_core(cls, mu, two_s, -2 * n, 2 * n, denom)
               - _z_core(cls, mu, two_s, -2 * (n - 1), 2 * (n + 1), denom))
        return lhs, rhs
    if identity_id == "zograf-G":
        denom = _denominators(cls, mu)
        half_a = GaussianRational.of(cls.q_sqrt ** mu) * (cls.u_half ** mu).conj()
        a = half_a * half_a
        t = GaussianRational.of(cls.q_sqrt ** (two_s * mu))
        lhs = t * half_a ** (2 * n + 1) / (GR_ONE - a)
        rhs = (_z_core(cls, mu, two_s, -(2 * n + 1), 2 * n + 1, denom)
               - _z_core(cls, mu, two_s, -(2 * n - 1), 2 * n + 3, denom))
        return lhs, rhs
    raise ValueError(f"unknown exact identity {identity_id!r}; "
                     f"one of {', '.join(EXACT_IDENTITIES)}")


def exact_identity_check(classes: Sequence[ExactClass], identity_id: str, s,
                         max_power: int, m: int = 0, k: int = 0,
                         n: int = 3) -> ExactCheckResult:
    """Check one identity term-by-term for every (class, power <= max_power).

    Returns the earliest offending term on failure (lowest class index, then
    lowest power) and a ledger of both sides' exact contributions.
    """
    ledger: dict = {}
    failure: TermFailure | None = None
    for ci, cls in enumerate(classes):
        for mu in range(1, max_power + 1):
            lhs, rhs = identity_terms(identity_id, cls, mu, s, m=m, k=k, n=n)
            ledger[(ci, mu)] = {"lhs": lhs, "rhs": rhs}
            if lhs != rhs and failure is None:
                failure = TermFailure(ci, mu, lhs, rhs)
    return ExactCheckResult(identity_id, failure is None, failure, ledger)


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
