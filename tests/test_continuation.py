import cmath
import math
import random

import pytest

from geozeta.continuation import (ComplexVolume, EtaNotSuppliedError,
                                  ManifoldInvariants, eta_lookup, parse_invariants,
                                  reflect_selberg, selberg_anywhere,
                                  serialize_invariants)
from geozeta.spectrum import DomainError
from geozeta.zeta import EvalParams, selberg_sigma

INV = ManifoldInvariants(4.0, 0.125, {1: 0.2, 2: 0.3, 4: -0.7}, "t")


class TestEtaLookup:
    def test_weight_zero(self):
        assert eta_lookup(INV, 0) == 0.0

    def test_antisymmetry(self):
        assert eta_lookup(INV, -2) == -0.3

    def test_missing_names_weight(self):
        with pytest.raises(EtaNotSuppliedError, match="k=3"):
            eta_lookup(INV, 3)
        with pytest.raises(EtaNotSuppliedError, match="k=5"):
            eta_lookup(INV, -5)


class TestComplexVolume:
    def test_equivalence_mod_pi_squared(self):
        a = ComplexVolume(2.0, 1.0)
        assert a.equivalent(ComplexVolume(2.0, 1.0 + 3 * math.pi ** 2))
        assert not a.equivalent(ComplexVolume(2.0, 1.0 + 0.5 * math.pi ** 2))
        assert not a.equivalent(ComplexVolume(2.5, 1.0))

    def test_from_invariants(self):
        cv = INV.complex_volume
        assert cv.re == 4.0
        assert cv.im == pytest.approx(2.0 * math.pi ** 2 * 0.125)


class TestReflect:
    def test_weight_zero_origin_is_fixed_point(self):
        v = 0.7 - 0.2j
        assert reflect_selberg(INV, 0, 0.0, v) == v

    def test_direct_substitution(self):
        inv = ManifoldInvariants(math.pi, 0.0, {2: 0.25})
        v = 1.3 + 0.4j
        got = reflect_selberg(inv, 2, 2.0, v)
        expected = cmath.exp(1j * math.pi / 4) * math.exp(8.0 / 3.0 - 2.0) * v
        assert got == pytest.approx(expected, rel=1e-14)

    def test_double_reflection_identity(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randint(-6, 6)
            inv = ManifoldInvariants(rng.uniform(0.5, 9.0), 0.0,
                                     {max(abs(k), 1): rng.uniform(-2, 2)})
            s = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            v = cmath.rect(rng.uniform(0.2, 5.0), rng.uniform(0, 6.28))
            back = reflect_selberg(inv, -k, -s, reflect_selberg(inv, k, s, v))
            assert abs(back - v) <= 1e-12 * abs(v)


class TestSelbergAnywhere:
    def test_direct_delegation(self, small_spec, invariants):
        p = EvalParams.for_spectrum(small_spec)
        a = selberg_anywhere(small_spec, invariants, -4, 3.0, p)
        b = selberg_sigma(small_spec, -4, 3.0, p)
        assert a.value == b.value and a.log_value == b.log_value

    def test_reflected_value(self, small_spec, invariants):
        # k=4 at s=-1: phase * exp((V/pi)((-2)^3/3 - 4*(-2))) * Z(sigma_-4, 3)
        p = EvalParams.for_spectrum(small_spec)
        got = selberg_anywhere(small_spec, invariants, 4, -1.0, p)
        base = selberg_sigma(small_spec, -4, 3.0, p).value
        factor = cmath.exp(1j * math.pi * invariants.eta[4]) \
            * cmath.exp((invariants.volume / math.pi) * (-8.0 / 3.0 + 8.0))
        assert got.value == pytest.approx(factor * base, rel=1e-13)
        assert "reflected" in got.flags
        assert not got.in_convergence_domain

    def test_strip_rejected(self, small_spec, invariants):
        p = EvalParams.for_spectrum(small_spec)
        for s in (0.0, 1.0, 2.0, 1.3 + 4.0j):
            with pytest.raises(DomainError, match="strip"):
                selberg_anywhere(small_spec, invariants, 2, s, p)

    def test_missing_eta_propagates(self, small_spec):
        inv = ManifoldInvariants(3.0, 0.0, {})
        p = EvalParams.for_spectrum(small_spec)
        with pytest.raises(EtaNotSuppliedError):
            selberg_anywhere(small_spec, inv, 2, -1.0, p)

    def test_deterministic(self, small_spec, invariants):
        p = EvalParams.for_spectrum(small_spec)
        a = selberg_anywhere(small_spec, invariants, 4, -1.5 + 0.2j, p)
        b = selberg_anywhere(small_spec, invariants, 4, -1.5 + 0.2j, p)
        assert a == b


class TestInvariantsIO:
    def test_round_trip(self, invariants):
        again = parse_invariants(serialize_invariants(invariants))
        assert again == invariants

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_invariants("nope")
        with pytest.raises(ValueError, match="volume"):
            parse_invariants('{"cs": 0.0}')
        with pytest.raises(ValueError):
            parse_invariants('{"volume": -1.0, "cs": 0.0}')
        with pytest.raises(ValueError):
            parse_invariants('{"volume": 1.0, "cs": 0.0, "eta": {"x": 1}}')

    @pytest.mark.parametrize("doc", [
        '{"volume": null, "cs": 0.0}',
        '{"volume": 1.0, "cs": null}',
        '{"volume": 1.0, "cs": 0.0, "eta": {"1": null}}',
        '{"volume": 1.0, "cs": 0.0, "eta": {"1": [0.5]}}',
    ])
    def test_null_or_non_numeric_is_value_error(self, doc):
        with pytest.raises(ValueError, match="must be a real number"):
            parse_invariants(doc)
