import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geozeta.chars import discriminant_D, eigenvalue, sigma_char, trace_rho
from geozeta.spectrum import GeodesicEntry, LengthSpectrum, power_holonomy

TWO_PI = 2.0 * math.pi

holonomies = st.builds(GeodesicEntry, st.floats(0.1, 4.0),
                       st.floats(0.0, TWO_PI - 1e-9), st.sampled_from([1, -1]))


class TestSigma:
    def test_trivial_character(self):
        assert sigma_char(GeodesicEntry(1.0, 2.3, -1), 0) == 1

    def test_even_weight(self):
        assert sigma_char(GeodesicEntry(1.0, math.pi, 1), 2) == pytest.approx(-1.0)

    def test_odd_weight_sees_spin(self):
        assert sigma_char(GeodesicEntry(1.0, 0.0, -1), 1) == pytest.approx(-1.0)

    @given(holonomies, st.integers(-9, 9))
    def test_unit_modulus_and_conjugate(self, h, k):
        value = sigma_char(h, k)
        assert abs(abs(value) - 1.0) <= 1e-12
        assert abs(sigma_char(h, -k) - value.conjugate()) <= 1e-12

    @given(holonomies, st.integers(-6, 6))
    def test_even_weight_spin_independent(self, h, k):
        flipped = GeodesicEntry(h.length, h.angle, -h.spin_sign)
        if k % 2 == 0:
            assert sigma_char(h, k) == sigma_char(flipped, k)
        else:
            assert sigma_char(h, k) == -sigma_char(flipped, k)

    def test_multiplicative_on_powers(self):
        spec = LengthSpectrum.build(
            [GeodesicEntry(0.7, 2.9, -1, 1), GeodesicEntry(1.2, 5.1, 1, 1)], 20.0)
        for base in spec.primitive_classes():
            for m in range(1, int(15.0 / base.length) + 1):
                pw = GeodesicEntry(*power_holonomy(base.length, base.angle, base.spin_sign, m))
                for k in range(-5, 6):
                    assert abs(sigma_char(pw, k) - sigma_char(base, k) ** m) <= 1e-12


def same_bits(got: complex, want: complex) -> bool:
    return (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@given(holonomies, st.integers(-9, 9), st.integers(0, 6))
def test_functions_of_a_row_keep_their_formulas(h, k, m):
    # the cmath expressions the character functions have always evaluated
    lam = h.spin_sign * cmath.exp(0.5 * complex(h.length, h.angle))
    assert same_bits(eigenvalue(h), lam)
    sign = h.spin_sign if k % 2 else 1
    assert same_bits(sigma_char(h, k), sign * cmath.exp(0.5j * k * h.angle))
    total = 0j
    for j in range(m + 1):
        total += lam ** (m - 2 * j)
    assert same_bits(trace_rho(h, m), total)


class TestTraceRho:
    def test_trivial_rep(self):
        assert trace_rho(GeodesicEntry(1.3, 0.8, -1), 0) == 1

    def test_three_term_sum(self):
        h = GeodesicEntry(0.9, 1.7, 1)
        c = complex(0.9, 1.7)
        expected = cmath.exp(c) + 1 + cmath.exp(-c)
        assert trace_rho(h, 2) == pytest.approx(expected)

    def test_half_eigenvalue_two(self):
        h = GeodesicEntry(2.0 * math.log(2.0), 0.0, 1)
        assert trace_rho(h, 1) == pytest.approx(2.5)

    @given(st.builds(GeodesicEntry, st.floats(0.1, 4.0), st.floats(1e-3, TWO_PI - 1e-3),
                     st.sampled_from([1, -1])),
           st.integers(0, 6))
    def test_mirror_angle_conjugates_even_powers(self, h, m):
        # theta -> 2 pi - theta conjugates the trace for even m; odd m also flips
        # sign because the half-angle crosses the branch.  theta = 0 is excluded:
        # there the substitution wraps and the flip moves into the spin bit.
        mirror = GeodesicEntry(h.length, TWO_PI - h.angle, h.spin_sign)
        got = trace_rho(mirror, m)
        want = trace_rho(h, m).conjugate() * (-1) ** m
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            trace_rho(GeodesicEntry(1.0, 0.0, 1), -1)


class TestDiscriminant:
    def test_angle_zero(self):
        assert discriminant_D(GeodesicEntry(math.log(2.0), 0.0, 1)) == pytest.approx(0.5)

    def test_angle_pi(self):
        assert discriminant_D(GeodesicEntry(math.log(2.0), math.pi, 1)) == pytest.approx(4.5)

    @given(holonomies)
    def test_positive(self, h):
        assert discriminant_D(h) > 0.0

    @given(st.floats(0.4, 3.0), st.floats(0.0, TWO_PI - 1e-9))
    def test_geometric_series_oracle(self, length, angle):
        # 1/D = e^-l sum_{p,q >= 0} e^-p(l+it) e^-q(l-it), truncated far enough
        # that the brute-force double sum matches to 1e-12
        h = GeodesicEntry(length, angle, 1)
        x = cmath.exp(-complex(length, angle))
        y = cmath.exp(-complex(length, -angle))
        top = int(90.0 / length) + 2
        total = 0j
        for p in range(top):
            for q in range(top):
                total += x ** p * y ** q
        series = (math.exp(-length) * total).real
        assert series == pytest.approx(1.0 / discriminant_D(h), abs=1e-12, rel=1e-10)
