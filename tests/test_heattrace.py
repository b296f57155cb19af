import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from geozeta.chars import discriminant_D, trace_rho
from geozeta.continuation import ManifoldInvariants
from geozeta.heattrace import heat_trace_geometric, small_time_fit
from geozeta.spectrum import (DomainError, GeodesicEntry, LengthSpectrum,
                              power_holonomy, powers_up_to)
from geozeta.zeta import EvalParams
from scalar_reference import power_rows

EMPTY = LengthSpectrum((), 1.0)
SQRT_PI = math.sqrt(math.pi)


class TestIdentityTerm:
    def test_gaussian_moment_closed_form(self):
        inv = ManifoldInvariants(4 * math.pi ** 2, 0.0, {})
        result = heat_trace_geometric(EMPTY, inv, 0, 0, 1.0, EvalParams(1.0))
        assert result.identity_term == pytest.approx(SQRT_PI / 2.0, rel=1e-14)
        assert result.hyperbolic_term == 0j

    @pytest.mark.parametrize("p,t", [(0, 0.3), (0, 1.7), (1, 0.3), (1, 1.7)])
    def test_quadrature_oracle(self, p, t):
        inv = ManifoldInvariants(3.3, 0.0, {})
        dim = 3  # m = 2
        result = heat_trace_geometric(EMPTY, inv, 2, p, t, EvalParams(1.0))
        if p == 0:
            integrand = lambda lam: lam ** 2 * math.exp(-t * lam ** 2)
            scale = dim * inv.volume / (4 * math.pi ** 2)
        else:
            integrand = lambda lam: (lam ** 2 + 1) * math.exp(-t * lam ** 2)
            scale = dim * inv.volume / (2 * math.pi ** 2)
        quad, _ = integrate.quad(integrand, -np.inf, np.inf)
        assert result.identity_term == pytest.approx(scale * quad, rel=1e-12)


class TestHyperbolicTerm:
    def test_small_time_suppression(self, small_spec, invariants):
        p = EvalParams.for_spectrum(small_spec)
        l_min = small_spec.min_length()
        for t in (0.05, 0.02, 0.01):
            result = heat_trace_geometric(small_spec, invariants, 1, 0, t, p)
            envelope = math.exp(-l_min ** 2 / (4 * t))
            assert abs(result.hyperbolic_term) <= 10.0 * envelope

    def test_brute_force_resummation(self, small_spec, invariants):
        # independent re-summation straight from the entries
        m, t = 2, 0.2
        p = EvalParams.for_spectrum(small_spec)
        result = heat_trace_geometric(small_spec, invariants, m, 1, t, p)
        total = 0j
        for e in small_spec.entries:
            mu = 1
            while mu * e.length <= p.l_cut:
                length, angle, sign = power_holonomy(e.length, e.angle, e.spin_sign, mu)
                h = GeodesicEntry(length, angle, sign)
                total += (e.multiplicity * e.length * trace_rho(h, m) / discriminant_D(h)
                          * 2.0 * math.cos(angle)
                          / math.sqrt(4 * math.pi * t) * math.exp(-length ** 2 / (4 * t)))
                mu += 1
        assert result.hyperbolic_term == pytest.approx(total, rel=1e-12)

    def test_real_for_even_m_unoriented(self, medium_spec, invariants):
        p = EvalParams.for_spectrum(medium_spec)
        for m, pform in ((0, 0), (2, 0), (2, 1)):
            result = heat_trace_geometric(medium_spec, invariants, m, pform, 0.6, p)
            assert abs(result.hyperbolic_term.imag) <= 1e-12 * max(1.0, abs(result.hyperbolic_term))

    def test_monotone_truncation(self, invariants):
        spec = LengthSpectrum.build(
            [GeodesicEntry(0.9, 0.7, 1, 1), GeodesicEntry(1.4, 2.1, -1, 1)], 30.0)
        t = 0.8
        gauss = 1.0 / math.sqrt(4 * math.pi * t)
        for cut1, cut2 in ((3.0, 6.0), (6.0, 12.0), (12.0, 30.0)):
            a = heat_trace_geometric(spec, invariants, 1, 0, t, EvalParams(cut1))
            b = heat_trace_geometric(spec, invariants, 1, 0, t, EvalParams(cut2))
            delta = abs(b.hyperbolic_term - a.hyperbolic_term)
            # every added term carries the wave factor below the cut threshold
            added = [(pw, base) for pw, _, base in power_rows(powers_up_to(spec, cut2))
                     if pw.length > cut1]
            cap = gauss * math.exp(-cut1 ** 2 / (4 * t)) * sum(
                pw.multiplicity * base
                * abs(trace_rho(pw, 1)) / discriminant_D(pw) for pw, base in added)
            assert delta <= cap + 1e-18

    def test_rejects_bad_time(self, small_spec, invariants):
        with pytest.raises(DomainError):
            heat_trace_geometric(small_spec, invariants, 0, 0, 0.0)
        with pytest.raises(ValueError):
            heat_trace_geometric(small_spec, invariants, 0, 2, 1.0)

    @pytest.mark.parametrize("p", [0, 1])
    def test_refuses_m_whose_traces_overflow(self, small_spec, invariants, p):
        # the fixture's longest power has length 12: e^(118 * 6) still fits a
        # double, e^(119 * 6) does not; below the limit no warning is raised
        result = heat_trace_geometric(small_spec, invariants, 118, p, 1.0)
        assert cmath.isfinite(result.total)
        with pytest.raises(DomainError, match=r"m=119 .* at power length 12\.0$"):
            heat_trace_geometric(small_spec, invariants, 119, p, 1.0)


class TestSmallTimeFit:
    def test_p0_coefficients(self, invariants):
        a1, a2 = small_time_fit(EMPTY, invariants, 0, 0, params=EvalParams(1.0))
        assert a1 == pytest.approx(SQRT_PI / 2, rel=0.01)
        assert a2 == pytest.approx(-SQRT_PI / 2, rel=0.01)

    def test_p1_coefficients(self, invariants):
        a1, a2 = small_time_fit(EMPTY, invariants, 0, 1, params=EvalParams(1.0))
        assert a1 == pytest.approx(1.5 * SQRT_PI, rel=0.01)
        assert a2 == pytest.approx(1.5 * SQRT_PI, rel=0.01)

    def test_dim_invariance_of_normalized_fit(self, invariants):
        # the 4 pi^2 / (dim Vol) normalization makes the coefficients m-independent
        a = small_time_fit(EMPTY, invariants, 0, 0, params=EvalParams(1.0))
        b = small_time_fit(EMPTY, invariants, 3, 0, params=EvalParams(1.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_hyperbolic_contamination_negligible(self, invariants):
        spec = LengthSpectrum.build([GeodesicEntry(3.0, 1.0, 1, 1)], 12.0)
        grid = list(np.geomspace(0.01, 0.1, 8))
        for p in (0, 1):
            clean = small_time_fit(EMPTY, invariants, 0, p, grid, EvalParams(12.0))
            dirty = small_time_fit(spec, invariants, 0, p, grid, EvalParams(12.0))
            assert abs(clean[0] - dirty[0]) < 1e-6
            assert abs(clean[1] - dirty[1]) < 1e-6

    def test_grid_validation(self, invariants):
        with pytest.raises(ValueError):
            small_time_fit(EMPTY, invariants, 0, 0, [0.1, 0.2])
        with pytest.raises(ValueError):
            small_time_fit(EMPTY, invariants, 0, 0, [0.1, 0.2, 0.3, 0.9])
        with pytest.raises(ValueError, match="distinct points"):
            small_time_fit(EMPTY, invariants, 0, 0, [0.1, 0.2, 0.3, 0.3])
        with pytest.raises(ValueError, match="distinct points"):
            small_time_fit(EMPTY, invariants, 0, 0, [0.1, 0.2, 0.3, 0.4, math.nan])
