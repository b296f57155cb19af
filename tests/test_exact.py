from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geozeta.exact as exact
from geozeta.exact import (EXACT_IDENTITIES, FIXTURE_CLASSES, ExactClass,
                           GaussianRational, exact_battery, exact_identity_check,
                           identity_terms, to_length_spectrum)
from geozeta.identities import (verify_four_selberg_quotient,
                                verify_rho_selberg_quotient,
                                verify_ruelle_decomposition,
                                verify_selberg_rho_decomposition,
                                verify_zograf_ratio)
from geozeta.zeta import EvalParams

GR = GaussianRational.of


@dataclass(frozen=True)
class FractionPairGR:
    """Reference Q(i) element as a pair of Fractions: the representation the
    integer-triple class replaced, with the same public operations."""

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re, im=0):
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other):
        return FractionPairGR(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPairGR(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionPairGR(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, FractionPairGR):
            return FractionPairGR(self.re * other.re - self.im * other.im,
                                  self.re * other.im + self.im * other.re)
        return FractionPairGR(self.re * Fraction(other), self.im * Fraction(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FractionPairGR):
            norm = other.re * other.re + other.im * other.im
            if norm == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return self * FractionPairGR(other.re / norm, -other.im / norm)
        return FractionPairGR(self.re / Fraction(other), self.im / Fraction(other))

    def __pow__(self, exponent):
        if exponent < 0:
            return FractionPairGR(Fraction(1)) / self.__pow__(-exponent)
        out = FractionPairGR(Fraction(1))
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conj(self):
        return FractionPairGR(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0


def pair(z):
    return (z.re, z.im)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
nonzero_pairs = st.tuples(fractions, fractions).filter(lambda t: t != (0, 0))


class TestAgainstFractionPairs:
    @settings(max_examples=200, deadline=None)
    @given(fractions, fractions, fractions, fractions)
    def test_ring_operations(self, a, b, c, d):
        x, y = GR(a, b), GR(c, d)
        rx, ry = FractionPairGR.of(a, b), FractionPairGR.of(c, d)
        assert pair(x + y) == pair(rx + ry)
        assert pair(x - y) == pair(rx - ry)
        assert pair(x * y) == pair(rx * ry)
        assert pair(-x) == pair(-rx)
        assert pair(x.conj()) == pair(rx.conj())
        assert x.norm2() == rx.norm2()
        assert x.is_zero() == rx.is_zero()
        assert pair(x * c) == pair(rx * c) and pair(c * x) == pair(c * rx)
        assert x.to_complex() == complex(rx.re, rx.im)
        if (c, d) != (0, 0):
            assert pair(x / y) == pair(rx / ry)
        if c != 0:
            assert pair(x / c) == pair(rx / c)

    @settings(max_examples=100, deadline=None)
    @given(nonzero_pairs, st.integers(-7, 9))
    def test_powers(self, parts, exponent):
        x, rx = GR(*parts), FractionPairGR.of(*parts)
        assert pair(x ** exponent) == pair(rx ** exponent)

    @settings(max_examples=100, deadline=None)
    @given(fractions, fractions, st.integers(1, 40))
    def test_canonical_form(self, a, b, scale):
        # the same number built from unreduced parts is == and hashes alike
        unreduced = GR(Fraction(a.numerator * scale, a.denominator * scale),
                       Fraction(b.numerator * scale, b.denominator * scale))
        via_ops = (GR(a, b) * scale) / scale
        assert unreduced == GR(a, b) == via_ops
        assert hash(unreduced) == hash(GR(a, b)) == hash(via_ops)

    def test_lowest_terms_spot_check(self):
        assert GR(2 / 4, 6 / 8) == GR(Fraction(1, 2), Fraction(3, 4))
        assert hash(GR(2 / 4, 6 / 8)) == hash(GR(Fraction(1, 2), Fraction(3, 4)))
        assert GR(Fraction(2, 4), Fraction(6, 8)).re == Fraction(1, 2)
        assert len({GR(Fraction(2, 4), Fraction(6, 8)), GR(Fraction(1, 2), Fraction(3, 4))}) == 1
        # (1 + i) / 2 squared is i / 2: a power can leave a common factor to cancel
        assert GR(Fraction(1, 2), Fraction(1, 2)) ** 2 == GR(0, Fraction(1, 2))

    def test_scalars_and_str(self):
        x = GR(Fraction(3, 5), Fraction(-4, 5))
        assert x + 1 == GR(Fraction(8, 5), Fraction(-4, 5))
        assert x - Fraction(1, 5) == GR(Fraction(2, 5), Fraction(-4, 5))
        assert GR(1) / x == x.conj()
        assert x / Fraction(-3, 5) == GR(-1, Fraction(4, 3))
        assert str(x) == "(3/5)+(-4/5)i"
        assert x != Fraction(3, 5)
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(ZeroDivisionError):
            GR(0) ** -1

    def test_battery_ledgers_match_fraction_pairs(self, monkeypatch):
        got = exact_battery(s_values=(4,), max_power=6)
        # rerun the same formulas on the Fraction-pair representation
        monkeypatch.setattr(exact, "GaussianRational", FractionPairGR)
        monkeypatch.setattr(exact, "GR_ZERO", FractionPairGR.of(0))
        monkeypatch.setattr(exact, "GR_ONE", FractionPairGR.of(1))
        classes = [ExactClass(c.q_sqrt, FractionPairGR.of(c.u_half.re, c.u_half.im))
                   for c in FIXTURE_CLASSES]
        want = exact_battery(classes, s_values=(4,), max_power=6)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.identity_id, a.passed) == (b.identity_id, b.passed)
            assert a.ledger.keys() == b.ledger.keys()
            for key in a.ledger:
                for side in ("lhs", "rhs"):
                    assert pair(a.ledger[key][side]) == pair(b.ledger[key][side])


class TestGaussianRational:
    def test_field_arithmetic(self):
        a = GR(Fraction(3, 5), Fraction(4, 5))
        b = GR(Fraction(1, 2), Fraction(-1, 3))
        assert (a * b) / b == a
        assert a * a.conj() == GR(1)
        assert a ** 0 == GR(1)
        assert a ** -2 == GR(1) / (a * a)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GR(1) / GR(0)


class TestExactClass:
    def test_fixture_consistency(self):
        for cls in FIXTURE_CLASSES:
            assert cls.u_half * cls.u_half == cls.u
            assert cls.u.norm2() == 1
            assert 0 < cls.q < 1

    def test_from_q_checks_square(self):
        u_half = GR(Fraction(3, 5), Fraction(4, 5))
        u = u_half * u_half
        cls = ExactClass.from_q(Fraction(1, 4), u, u_half)
        assert cls.q_sqrt == Fraction(1, 2)
        with pytest.raises(ValueError, match="square"):
            ExactClass.from_q(Fraction(1, 3), u, u_half)
        with pytest.raises(ValueError, match="u_half"):
            ExactClass.from_q(Fraction(1, 4), u, GR(Fraction(5, 13), Fraction(12, 13)))

    def test_non_unit_half_rejected(self):
        # the analogue of (1+i)/sqrt(2) cannot be represented: any candidate
        # with |u_half| != 1 exactly is refused
        with pytest.raises(ValueError, match="unit modulus"):
            ExactClass(Fraction(1, 2), GR(Fraction(1, 2), Fraction(1, 2)))

    def test_floating_image_respects_branch(self):
        for cls in FIXTURE_CLASSES:
            e = cls.to_entry()
            lam = cls.u_half.to_complex() / float(cls.q_sqrt)
            import cmath
            lam_float = e.spin_sign * cmath.exp(0.5 * complex(e.length, e.angle))
            assert abs(lam - lam_float) <= 1e-12 * abs(lam)


class TestExactChecks:
    def test_vacuous_empty_class_list(self):
        result = exact_identity_check([], "four-selberg", 5, 6, m=2)
        assert result.passed
        assert result.first_failure is None

    def test_all_identities_one_point(self):
        for identity in EXACT_IDENTITIES:
            result = exact_identity_check(FIXTURE_CLASSES, identity, 5, 8, m=2, k=1, n=3)
            assert result.passed, identity

    def test_half_integer_s_for_odd_chain(self):
        result = exact_identity_check(FIXTURE_CLASSES, "zograf-G", Fraction(9, 2), 8, n=2)
        assert result.passed

    def test_non_exactable_s_rejected(self):
        with pytest.raises(ValueError, match="not exactable"):
            exact_identity_check(FIXTURE_CLASSES, "ruelle-dec", Fraction(1, 3), 4, m=1)

    def test_corrupted_character_exponent_caught(self, monkeypatch):
        # corrupt one side's character weight by one unit: the earliest
        # offending term must be (class 0, power 1)
        real_r_core = exact._r_core

        def corrupted(cls, mu, two_s, k, two_shift):
            return real_r_core(cls, mu, two_s, k + 1, two_shift)

        monkeypatch.setattr(exact, "_r_core", corrupted)
        result = exact_identity_check(FIXTURE_CLASSES, "ruelle-dec", 5, 6, m=1)
        assert not result.passed
        assert (result.first_failure.class_index, result.first_failure.power) == (0, 1)

    def test_corrupted_denominator_caught(self, monkeypatch):
        # the left side sums the double product as two geometric series, so a
        # wrong (1 - a)(1 - b) on the right side shows at the first term
        real_denominators = exact._denominators

        def corrupted(cls, mu):
            return real_denominators(cls, mu) * Fraction(1001, 1000)

        monkeypatch.setattr(exact, "_denominators", corrupted)
        for m, k in ((0, 0), (2, 1)):
            result = exact_identity_check(FIXTURE_CLASSES, "selberg-rho-dec", 5, 6, m=m, k=k)
            assert not result.passed
            assert (result.first_failure.class_index, result.first_failure.power) == (0, 1)

    def test_ledger_deterministic(self):
        a = exact_identity_check(FIXTURE_CLASSES, "four-selberg", 4, 10, m=3)
        b = exact_identity_check(FIXTURE_CLASSES, "four-selberg", 4, 10, m=3)
        assert a.ledger == b.ledger
        assert len(a.ledger) == len(FIXTURE_CLASSES) * 10

    def test_battery_matrix(self):
        results = exact_battery(s_values=(4,), max_power=6)
        assert results and all(r.passed for r in results)


class TestFloatingAgreement:
    def test_identities_agree_with_float_pipeline(self):
        # map the exact classes to a floating spectrum and rerun each identity
        # there; whenever the exact check passes the float residual is noise
        spec = to_length_spectrum(FIXTURE_CLASSES, l_max=40.0)
        p = EvalParams(40.0)
        s = 4.0
        assert exact_identity_check(FIXTURE_CLASSES, "ruelle-dec", s, 12, m=2).passed
        assert verify_ruelle_decomposition(spec, 2, grid=[complex(s, 0)], p=p,
                                           tol=1e-10).passed
        assert exact_identity_check(FIXTURE_CLASSES, "selberg-rho-dec", s, 12, m=1).passed
        assert verify_selberg_rho_decomposition(spec, 1, 0, grid=[complex(s, 0)], p=p,
                                                tol=1e-10).passed
        assert exact_identity_check(FIXTURE_CLASSES, "four-selberg", s, 12, m=2).passed
        assert verify_four_selberg_quotient(spec, 2, grid=[complex(s, 0)], p=p,
                                            tol=1e-10).passed
        assert exact_identity_check(FIXTURE_CLASSES, "rho-selberg", s, 12, m=2).passed
        assert verify_rho_selberg_quotient(spec, 2, grid=[complex(s, 0)], p=p,
                                           tol=1e-10).passed
        assert exact_identity_check(FIXTURE_CLASSES, "zograf-F", s, 12, n=3).passed
        assert verify_zograf_ratio(spec, 3, "even", grid=[complex(s, 0)], p=p,
                                   tol=1e-10).passed
        assert exact_identity_check(FIXTURE_CLASSES, "zograf-G", s, 12, n=2).passed
        assert verify_zograf_ratio(spec, 2, "odd", grid=[complex(s, 0)], p=p,
                                   tol=1e-10).passed


def test_identity_terms_unknown_id():
    with pytest.raises(ValueError, match="unknown exact identity"):
        identity_terms("nope", FIXTURE_CLASSES[0], 1, 4)
