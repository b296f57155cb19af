import cmath
import math

import pytest

from geozeta.identities import selberg_rho_bruteforce, selberg_sigma_bruteforce
from geozeta.spectrum import GeodesicEntry, GrowthModel, LengthSpectrum, flip_spins
from geozeta.zeta import (EvalParams, ruelle_rho, ruelle_sigma, selberg_rho,
                          selberg_sigma, zograf_F, zograf_G)

EMPTY = LengthSpectrum((), 1.0)
P_EMPTY = EvalParams(1.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
def test_eval_params_refuse_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        EvalParams(1.0, tol)


def single(length=1.0, angle=0.5, spin=1, l_max=40.0):
    return LengthSpectrum.build([GeodesicEntry(length, angle, spin, 1)], l_max)


class TestEmptyProducts:
    @pytest.mark.parametrize("value", [
        lambda: ruelle_sigma(EMPTY, 2, 3.0, P_EMPTY),
        lambda: selberg_sigma(EMPTY, -1, 4.0, P_EMPTY),
        lambda: ruelle_rho(EMPTY, 2, 5.0, P_EMPTY),
        lambda: selberg_rho(EMPTY, 1, 0, 5.0, P_EMPTY),
        lambda: zograf_F(EMPTY, 3, 0.0, P_EMPTY),
        lambda: zograf_G(EMPTY, 2, 0.0, P_EMPTY),
    ])
    def test_value_one_bound_zero(self, value):
        zv = value()
        assert zv.value == 1.0 + 0j
        assert zv.abs_error_bound == 0.0


class TestRuelleSigma:
    def test_single_factor_weight_zero(self):
        spec = single(1.0, 0.73)
        got = ruelle_sigma(spec, 0, 3.0, EvalParams(spec.l_max)).value
        assert got == pytest.approx(1.0 - math.exp(-3.0), abs=1e-14)

    def test_single_factor_weight_two(self):
        spec = single(1.0, math.pi / 2, 1)
        got = ruelle_sigma(spec, 2, 3.0, EvalParams(spec.l_max)).value
        assert got == pytest.approx(1.0 - 1j * math.exp(-3.0), abs=1e-14)

    def test_conjugate_symmetry_real_s(self, medium_spec):
        p = EvalParams.for_spectrum(medium_spec)
        for k in (1, 2, 5):
            a = ruelle_sigma(medium_spec, k, 3.1, p).value
            b = ruelle_sigma(medium_spec, -k, 3.1, p).value
            assert abs(a - b.conjugate()) <= 1e-12 * abs(a)

    def test_formal_truncation_flagged(self, small_spec):
        zv = ruelle_sigma(small_spec, 0, 1.5, EvalParams.for_spectrum(small_spec))
        assert not zv.in_convergence_domain
        assert "formal-truncation" in zv.flags
        assert zv.abs_error_bound == math.inf

    def test_incomplete_flagged(self, small_spec):
        zv = ruelle_sigma(small_spec, 0, 3.0, EvalParams(small_spec.l_max + 5.0))
        assert "incomplete-spectrum" in zv.flags


class TestSelbergSigma:
    def test_against_triple_loop(self):
        # brute-force (p, q, power) oracle on one class
        spec = single(0.9, 2.2, -1, l_max=60.0)
        p = EvalParams(60.0)
        for k, s in [(0, 3.0), (1, 2.5 + 0.4j), (-3, 4.0 - 0.2j)]:
            closed = selberg_sigma(spec, k, s, p).value
            brute = selberg_sigma_bruteforce(spec, k, s, pq_max=60)
            assert abs(closed - brute) <= 1e-10 * abs(brute)

    def test_even_weight_spin_flip_invariant(self, small_spec):
        p = EvalParams.for_spectrum(small_spec)
        a = selberg_sigma(small_spec, 0, 3.3 + 0.1j, p).value
        b = selberg_sigma(flip_spins(small_spec), 0, 3.3 + 0.1j, p).value
        assert a == b

    def test_multiplicity_counts_twice(self):
        one = single(1.1, 0.9)
        two = LengthSpectrum.build([GeodesicEntry(1.1, 0.9, 1, 2)], 40.0)
        p = EvalParams(40.0)
        a = selberg_sigma(one, 2, 3.0, p)
        b = selberg_sigma(two, 2, 3.0, p)
        assert b.log_value == pytest.approx(2.0 * a.log_value, rel=1e-14)


class TestRuelleRho:
    def test_m_zero_collapses(self, small_spec):
        p = EvalParams.for_spectrum(small_spec)
        assert ruelle_rho(small_spec, 0, 3.7, p).value == ruelle_sigma(small_spec, 0, 3.7, p).value

    def test_single_class_m2_explicit(self):
        length, angle = 1.3, 2.4
        spec = single(length, angle, l_max=60.0)
        s = 4.1 + 0.2j
        c = complex(length, angle)
        expected = ((1 - cmath.exp(c) * cmath.exp(-s * length))
                    * (1 - cmath.exp(-s * length))
                    * (1 - cmath.exp(-c) * cmath.exp(-s * length)))
        got = ruelle_rho(spec, 2, s, EvalParams(60.0)).value
        assert got == pytest.approx(expected, rel=1e-12)

    def test_decomposition_exact_per_class(self):
        # single primitive class: the (m+1)-factor eigenvalue product is exact
        length, angle, spin = 0.8, 3.9, -1
        spec = single(length, angle, spin, l_max=80.0)
        p = EvalParams(80.0)
        lam = spin * cmath.exp(0.5 * complex(length, angle))
        for m in range(5):
            for j in range(8):
                s = 3.0 + m / 2 + 0.25 * j + 0.3j
                x = cmath.exp(-s * length)
                explicit = 1.0 + 0j
                for i in range(m + 1):
                    explicit *= 1 - lam ** (m - 2 * i) * x
                got = ruelle_rho(spec, m, s, p).value
                assert abs(got - explicit) <= 1e-12 * abs(explicit)


class TestSelbergRho:
    def test_m_zero_collapses(self, small_spec):
        p = EvalParams.for_spectrum(small_spec)
        assert (selberg_rho(small_spec, 0, 3, 4.0, p).value
                == selberg_sigma(small_spec, 3, 4.0, p).value)

    def test_single_class_vs_bruteforce(self):
        spec = single(1.0, 1.1, -1, l_max=60.0)
        got = selberg_rho(spec, 1, 0, 3.4 + 0.25j, EvalParams(60.0)).value
        brute = selberg_rho_bruteforce(spec, 1, 0, 3.4 + 0.25j, pq_max=60)
        assert abs(got - brute) <= 1e-10 * abs(brute)


class TestZograf:
    def test_two_paths_agree(self, small_spec, medium_spec):
        for spec in (small_spec, medium_spec):
            p = EvalParams.for_spectrum(spec)
            fd = zograf_F(spec, 3, 0.0, p, method="direct").value
            fr = zograf_F(spec, 3, 0.0, p, method="ratio").value
            assert abs(fd - fr) <= 1e-10 * abs(fr)
            gd = zograf_G(spec, 2, 0.0, p, method="direct").value
            gr = zograf_G(spec, 2, 0.0, p, method="ratio").value
            assert abs(gd - gr) <= 1e-10 * abs(gr)

    def test_single_class_infinite_product(self):
        # one primitive class at s=0: F_n(0) = prod_{k>=n} (1 - e^-k(l+it)),
        # a q-Pochhammer-style product evaluated literally
        length, angle = 2.0, 0.8
        spec = single(length, angle, l_max=40.0)
        expected = 1.0 + 0j
        for k in range(3, 200):
            expected *= 1 - cmath.exp(-k * complex(length, angle))
        got = zograf_F(spec, 3, 0.0, EvalParams(40.0)).value
        assert got == pytest.approx(expected, rel=1e-12)

    def test_spin_flip_moves_G_not_F(self, small_spec):
        p = EvalParams.for_spectrum(small_spec)
        flipped = flip_spins(small_spec)
        assert (zograf_F(small_spec, 3, 0.0, p).value
                == zograf_F(flipped, 3, 0.0, p).value)
        assert (zograf_G(small_spec, 2, 0.0, p).value
                != zograf_G(flipped, 2, 0.0, p).value)

    def test_domain_flags(self, small_spec):
        p = EvalParams.for_spectrum(small_spec)
        zv = zograf_F(small_spec, 1, 0.5, p)
        assert not zv.in_convergence_domain
        assert "formal-truncation" in zv.flags
        ok = zograf_G(small_spec, 2, 0.0, p)
        assert ok.in_convergence_domain


class TestTruncationConsistency:
    def test_tail_bound_covers_refinement(self):
        # rigorous growth: enlarging l_cut moves the log by less than the
        # reported bound at the smaller cutoff
        spec = LengthSpectrum.build(
            [GeodesicEntry(0.9, 0.4, 1, 1), GeodesicEntry(1.3, 2.8, -1, 1),
             GeodesicEntry(2.1, 5.0, 1, 1)], 30.0)
        growth = GrowthModel.rigorous_envelope(spec)
        p_small = EvalParams(6.0, growth=growth)
        p_large = EvalParams(28.0, growth=growth)
        for fn, args in [(ruelle_sigma, (2,)), (selberg_sigma, (-1,)),
                         (ruelle_sigma, (0,))]:
            for s in (2.6, 4.0 + 0.3j, 7.0):
                a = fn(spec, *args, s, p_small)
                b = fn(spec, *args, s, p_large)
                assert not a.heuristic_bound
                assert abs(b.log_value - a.log_value) <= a.abs_error_bound

    def test_value_matches_exp_log(self, medium_spec):
        p = EvalParams.for_spectrum(medium_spec)
        for zv in (ruelle_sigma(medium_spec, 1, 2.5 + 1.0j, p),
                   selberg_rho(medium_spec, 2, 0, 4.0, p),
                   zograf_G(medium_spec, 2, 0.0, p)):
            assert abs(zv.value - cmath.exp(zv.log_value)) <= 1e-12 * abs(zv.value)
