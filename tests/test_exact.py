import hashlib
import math
import tracemalloc
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


def terms(result, classes=FIXTURE_CLASSES, max_power=12):
    """Both sides of every (class, power) term of a check, rebuilt through
    ``identity_terms`` from the result's identity, s and parameters."""
    params = dict(result.params)
    return {(ci, mu): identity_terms(result.identity_id, cls, mu, result.s, **params)
            for ci, cls in enumerate(classes) for mu in range(1, max_power + 1)}


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

    @settings(max_examples=100, deadline=None)
    @given(fractions, fractions, fractions, fractions, st.integers(-5, 6))
    def test_unreduced_results(self, a, b, c, d, exponent):
        # operations leave triples unreduced, but never with d <= 0
        x, y = GR(a, b), GR(c, d)
        results = [x + y, x - y, x * y, -x, x.conj(), x * c, c * x, x + c, x - c]
        if (c, d) != (0, 0):
            results.append(x / y)
        if c != 0:
            results.append(x / c)
        if (a, b) != (0, 0) or exponent >= 0:
            results.append(x ** exponent)
        # == decides by cross-multiplication, on unreduced triples too
        assert (x == y) == (pair(x) == pair(y))
        assert x * y == GR(*pair(x * y)) and x - y == GR(*pair(x - y))
        assert x + GR(0, 1) != x and x + 1 != x and (x * 2 == x) == x.is_zero()
        for z in results:
            assert z._t[2] > 0
            raw = z._t
            lowest = z._lowest()
            assert lowest[2] > 0 and math.gcd(*lowest) == 1
            assert raw[0] * lowest[2] == lowest[0] * raw[2]
            assert raw[1] * lowest[2] == lowest[1] * raw[2]
            # reading the lowest terms, comparing and hashing leave the triple as built
            assert z == GR(*pair(z)) and hash(z) == hash(GR(*pair(z))) and z._t is raw

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

    def test_battery_terms_match_fraction_pairs(self, monkeypatch):
        got = exact_battery(s_values=(4,), max_power=6)
        got_terms = [terms(r, max_power=6) for r in got]
        # rerun the same formulas on the Fraction-pair representation
        monkeypatch.setattr(exact, "GaussianRational", FractionPairGR)
        monkeypatch.setattr(exact, "GR_ZERO", FractionPairGR.of(0))
        monkeypatch.setattr(exact, "GR_ONE", FractionPairGR.of(1))
        classes = [ExactClass(c.q_sqrt, FractionPairGR.of(c.u_half.re, c.u_half.im))
                   for c in FIXTURE_CLASSES]
        want = exact_battery(classes, s_values=(4,), max_power=6)
        assert len(got) == len(want) == 25
        for a, a_terms, b in zip(got, got_terms, want):
            assert (a.identity_id, a.s, a.params, a.passed) == (b.identity_id, b.s, b.params,
                                                                b.passed)
            b_terms = terms(b, classes, max_power=6)
            assert a_terms.keys() == b_terms.keys() and len(a_terms) == 18
            for key, sides in a_terms.items():
                assert [pair(z) for z in sides] == [pair(z) for z in b_terms[key]]


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
        # with no class there is no term, and a check that decides nothing is refused
        with pytest.raises(ValueError, match="^four-selberg decides no term with max_power 6 "
                                             "and 0 classes$"):
            exact_identity_check([], "four-selberg", 5, 6, m=2)

    @pytest.mark.parametrize("classes, identity, s, max_power, params, message", [
        ([], "nope", Fraction(1, 3), 6, {}, "^unknown exact identity 'nope'; one of "),
        ([], "ruelle-dec", Fraction(1, 3), 6, {}, "^s=1/3 is not exactable"),
        (FIXTURE_CLASSES, "ruelle-dec", 5, 6, {"m": -3}, "^ruelle-dec needs m >= 0, got -3$"),
        (FIXTURE_CLASSES, "selberg-rho-dec", 5, 6, {"m": -1, "k": 1},
         "^selberg-rho-dec needs m >= 0, got -1$"),
        (FIXTURE_CLASSES, "zograf-F", 5, 6, {"n": 0}, "^zograf-F needs n >= 1, got 0$"),
        (FIXTURE_CLASSES, "zograf-G", 5, 6, {"n": -1}, "^zograf-G needs n >= 0, got -1$"),
        (FIXTURE_CLASSES, "ruelle-dec", 5, 0, {"m": 2},
         "^ruelle-dec decides no term with max_power 0 and 3 classes$"),
    ], ids=["identity", "s", "m", "m-selberg", "n-F", "n-G", "max-power"])
    def test_a_check_that_decides_nothing_is_refused(self, monkeypatch, classes, identity, s,
                                                     max_power, params, message):
        # each of these returned passed with no term decided; now no term is built
        monkeypatch.setattr(exact, "identity_terms", None)
        with pytest.raises(ValueError, match=message):
            exact_identity_check(classes, identity, s, max_power, **params)

    def test_the_least_admitted_parameters_pass(self):
        assert exact_identity_check(FIXTURE_CLASSES, "zograf-F", 5, 4, n=1).passed
        assert exact_identity_check(FIXTURE_CLASSES, "zograf-G", 5, 4, n=0).passed
        assert exact_identity_check(FIXTURE_CLASSES, "ruelle-dec", 5, 4, m=0).passed

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

    def test_check_deterministic(self):
        a = exact_identity_check(FIXTURE_CLASSES, "four-selberg", 4, 10, m=3)
        b = exact_identity_check(FIXTURE_CLASSES, "four-selberg", 4, 10, m=3)
        assert a == b and a.passed
        assert (a.identity_id, a.s, a.params) == ("four-selberg", 4, (("m", 3),))
        assert terms(a, max_power=10) == terms(b, max_power=10)
        assert len(terms(a, max_power=10)) == len(FIXTURE_CLASSES) * 10

    def test_result_keeps_s_and_the_parameters_read(self):
        checks = [("ruelle-dec", 5, {"m": 2}, (("m", 2),)),
                  ("selberg-rho-dec", 4, {"m": 2, "k": 1}, (("m", 2), ("k", 1))),
                  ("zograf-G", Fraction(9, 2), {"n": 2}, (("n", 2),))]
        for identity, s, given, params in checks:
            result = exact_identity_check(FIXTURE_CLASSES, identity, s, 4, **given)
            assert (result.s, result.params, result.passed) == (s, params, True)
        assert [r.params for r in exact_battery()
                if (r.identity_id, r.s) == ("selberg-rho-dec", 4)] == [
            (("m", m), ("k", k)) for m, k in ((0, 0), (1, 0), (2, 1), (3, 2))]

    def test_a_failing_check_stops_at_its_first_failing_term(self, monkeypatch):
        # break one term, (class 1, power 3): the check builds the 12 terms of
        # class 0 and 3 of class 1, and none after the failing one
        real_terms = exact.identity_terms
        calls = []

        def broken(identity_id, cls, mu, s, **params):
            calls.append((cls, mu))
            lhs, rhs = real_terms(identity_id, cls, mu, s, **params)
            return lhs, (rhs + 1 if (cls, mu) == (FIXTURE_CLASSES[1], 3) else rhs)

        monkeypatch.setattr(exact, "identity_terms", broken)
        result = exact_identity_check(FIXTURE_CLASSES, "rho-selberg", 5, 12, m=2)
        assert not result.passed
        f = result.first_failure
        assert (f.class_index, f.power) == (1, 3) and f.lhs != f.rhs
        assert f.lhs == real_terms("rho-selberg", FIXTURE_CLASSES[1], 3, 5, m=2)[0]
        assert calls == [(FIXTURE_CLASSES[0], mu) for mu in range(1, 13)] + [
            (FIXTURE_CLASSES[1], mu) for mu in range(1, 4)]

    def test_battery_matrix(self):
        results = exact_battery(s_values=(4,), max_power=6)
        assert results and all(r.passed for r in results)


EXACT_CACHES = (exact._q_sqrt_power, exact._u_half_power, exact._denominators,
                exact._trace_core)

# SHA-256 over every (identity_id, passed, class, power, lhs triple, rhs triple)
# of the default battery, each side in lowest terms, from the uncached
# implementation that divided each quotient term by its denominator separately
DEFAULT_BATTERY_SHA256 = "0d98f59d06c73bcdf2f34dce38edbc84bbd8758fd457989c1d46254f3e45c9f9"


class TestExactCaches:
    def test_faults_caught_after_caches_are_warm(self, monkeypatch):
        assert all(r.passed for r in exact_battery())
        real_denominators, real_r_core = exact._denominators, exact._r_core
        monkeypatch.setattr(exact, "_denominators",
                            lambda cls, mu: real_denominators(cls, mu) * Fraction(1001, 1000))
        monkeypatch.setattr(exact, "_r_core", lambda cls, mu, two_s, k, two_shift:
                            real_r_core(cls, mu, two_s, k + 1, two_shift))
        for identity, m, k in (("selberg-rho-dec", 0, 0), ("selberg-rho-dec", 2, 1),
                               ("ruelle-dec", 1, 0)):
            result = exact_identity_check(FIXTURE_CLASSES, identity, 5, 12, m=m, k=k)
            assert not result.passed
            assert (result.first_failure.class_index, result.first_failure.power) == (0, 1)
        monkeypatch.undo()
        assert all(r.passed for r in exact_battery())

    def test_each_denominator_built_once(self, monkeypatch):
        for cache in EXACT_CACHES:
            cache.cache_clear()
        real_terms, calls = exact.identity_terms, []
        monkeypatch.setattr(exact, "identity_terms",
                            lambda *args, **kw: calls.append(1) or real_terms(*args, **kw))
        results = exact_battery()
        # 75 checks of 3 classes x 12 powers, each term built once
        assert len(results) == 75 and all(r.passed for r in results)
        assert len(calls) == 2700
        # 3 classes x 12 powers, and 144 (class, power, m) traces
        assert exact._denominators.cache_info().misses == 36
        assert exact._trace_core.cache_info().misses == 144

    def test_cache_sizes_bounded(self):
        exact_battery()
        misses = [cache.cache_info().misses for cache in EXACT_CACHES]
        exact_battery()
        for cache, before in zip(EXACT_CACHES, misses):
            info = cache.cache_info()
            assert info.misses == before  # a second battery builds nothing
            assert info.maxsize == exact.EXACT_CACHE_SIZE
            assert info.currsize <= exact.EXACT_CACHE_SIZE

    def test_default_battery_pinned(self):
        digest = hashlib.sha256()
        for r in exact_battery():
            for (ci, mu), (lhs, rhs) in terms(r).items():
                row = (r.identity_id, r.passed, ci, mu, lhs._lowest(), rhs._lowest())
                digest.update(repr(row).encode() + b"\n")
        assert digest.hexdigest() == DEFAULT_BATTERY_SHA256

    def test_cold_battery_keeps_little(self):
        # the caches' 942 leaves and no decided term; keeping both sides of
        # every term would take 3.4 MB
        for cache in EXACT_CACHES:
            cache.cache_clear()
        tracemalloc.start()
        try:
            assert all(r.passed for r in exact_battery())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000, peak


# unit-circle points ((p^2 - q^2) + 2pq i) / (p^2 + q^2) of Pythagorean triples
pythagorean = st.tuples(st.integers(1, 9), st.integers(0, 9), st.sampled_from([1, -1]),
                        st.booleans())


def unit_point(p, q, sign, swap):
    r = p * p + q * q
    re, im = Fraction(p * p - q * q, r), Fraction(2 * p * q, r)
    if swap:
        re, im = im, re
    return GR(sign * re, im)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(EXACT_IDENTITIES),
       st.one_of(st.sampled_from(FIXTURE_CLASSES),
                 st.builds(lambda q, u: ExactClass(q, unit_point(*u)),
                           st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                                        max_denominator=20).filter(lambda q: 0 < q < 1),
                           pythagorean)),
       st.integers(1, 12), st.integers(4, 14), st.integers(0, 3), st.integers(-3, 3),
       st.integers(2, 5))
def test_term_triples_are_in_lowest_terms(identity, cls, mu, two_s, m, k, n):
    # both sides of every term: d > 0 before and after reduction, and
    # gcd(a, b, d) = 1 once read
    lhs, rhs = identity_terms(identity, cls, mu, Fraction(two_s, 2), m=m, k=k, n=n)
    for z in (lhs, rhs):
        assert z._t[2] > 0
        a, b, d = z._lowest()
        assert d > 0 and math.gcd(a, b, d) == 1
    assert lhs == rhs


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
