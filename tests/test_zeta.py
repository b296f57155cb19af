import cmath
import math
import random
import time

import pytest

from geozeta import zeta
from geozeta.heattrace import heat_trace_geometric
from geozeta.identities import selberg_rho_bruteforce, selberg_sigma_bruteforce
from geozeta.spectrum import (POWER_BUDGET, GeodesicEntry, GrowthModel, LengthSpectrum,
                              flip_spins, powers_up_to)
from geozeta.zeta import (EvalParams, ruelle_rho, ruelle_sigma, selberg_rho,
                          selberg_sigma, zograf_F, zograf_G)
from scalar_reference import zograf_direct_log

EMPTY = LengthSpectrum((), 1.0)
P_EMPTY = EvalParams(1.0)


def single(length=1.0, angle=0.5, spin=1, l_max=40.0):
    return LengthSpectrum.build([GeodesicEntry(length, angle, spin, 1)], l_max)


@pytest.mark.parametrize("k", [1, 3])
def test_unoriented_odd_weight_is_continuous_at_angle_zero(k):
    # the mirror of (theta, s) is (2*pi - theta, s); at theta = 0, or once
    # 2*pi - theta rounds to 2*pi, its reduction must flip the lift
    p = EvalParams(10.0)
    for evaluate in (ruelle_sigma, selberg_sigma):
        values = [evaluate(LengthSpectrum.build([GeodesicEntry(1.0, theta, 1, 1)], 10.0,
                                                oriented=False), k, 3.0, p).value
                  for theta in (0.0, 5e-324, 1e-12)]
        assert max(abs(v - values[2]) for v in values) <= 1e-10 * abs(values[2])


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


def zograf_layers(parity: str, n: int):
    """layer_char and layer_shift of F_n (even) or G_n (odd), as ``zeta`` defines them."""
    if parity == "even":
        return (lambda j: -2 * (n + j)), (lambda j: n + j)
    return (lambda j: -(2 * (n + j) + 1)), (lambda j: n + j + 0.5)


def same_bits(got: complex, want: complex) -> bool:
    return (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def assert_direct_matches_layer_loop(spec, parity, n, s, p):
    evaluator = zograf_F if parity == "even" else zograf_G
    got = evaluator(spec, n, s, p, method="direct")
    want = zograf_direct_log(spec, complex(s), p, *zograf_layers(parity, n))
    assert same_bits(got.log_value, want)
    assert same_bits(got.value, cmath.exp(want))


class TestZografBlocks:
    """The log-series kernel sums its rows in blocks: the Zograf direct path's
    k-layers against the per-layer loop, the heat trace's weights against one block."""

    @pytest.mark.parametrize("parity,n", [("even", 3), ("even", 1), ("odd", 2), ("odd", 0)])
    def test_fixtures_match_the_layer_loop(self, small_spec, medium_spec, parity, n):
        for spec in (small_spec, flip_spins(small_spec), medium_spec, flip_spins(medium_spec)):
            p = EvalParams.for_spectrum(spec)
            for s in (0.0, 0.5 + 0.3j, 2.25 - 1.1j, -0.4):
                assert_direct_matches_layer_loop(spec, parity, n, s, p)

    @pytest.mark.parametrize("per_block", [1, 2, 3, 5])
    @pytest.mark.parametrize("parity,n", [("even", 3), ("odd", 2)])
    def test_block_boundaries(self, monkeypatch, small_spec, medium_spec, per_block, parity, n):
        # both fixtures have 24 layers: 5 per block leaves a short last block
        for spec in (small_spec, medium_spec):
            p = EvalParams.for_spectrum(spec)
            rows = len(powers_up_to(spec, p.l_cut))
            monkeypatch.setattr(zeta, "ZOGRAF_BLOCK", per_block * rows + rows - 1)
            assert_direct_matches_layer_loop(spec, parity, n, 0.5 + 0.2j, p)

    @pytest.mark.parametrize("per_block", [1, 2, 3, 5])
    @pytest.mark.parametrize("form", [0, 1])
    def test_heat_trace_block_boundaries(self, monkeypatch, small_spec, medium_spec, invariants,
                                         per_block, form):
        # m = 4 has 5 weight rows: each blocking must sum to the bits of one block
        for spec in (small_spec, medium_spec):
            p = EvalParams.for_spectrum(spec)
            rows = len(powers_up_to(spec, p.l_cut))
            monkeypatch.setattr(zeta, "ZOGRAF_BLOCK", 5 * rows)
            want = heat_trace_geometric(spec, invariants, 4, form, 0.7, p).hyperbolic_term
            monkeypatch.setattr(zeta, "ZOGRAF_BLOCK", per_block * rows + rows - 1)
            got = heat_trace_geometric(spec, invariants, 4, form, 0.7, p).hyperbolic_term
            assert same_bits(got, want)

    def test_long_table_two_layers_per_block(self):
        # 2800 unoriented entries: over 6000 rows (one per mirror pair), so
        # the budget takes two layers per block, each row past the fsum_rows
        # crossover
        rng = random.Random(3)
        lengths = sorted({2.0 + 0.5 * math.log1p(rng.random() * math.expm1(5.0))
                          for _ in range(2800)})
        spec = LengthSpectrum.build(
            [GeodesicEntry(length, rng.uniform(0.0, math.pi), rng.choice((1, -1)),
                           rng.randint(1, 2)) for length in lengths], 12.0, oriented=False)
        p = EvalParams.for_spectrum(spec)
        assert zeta.ZOGRAF_BLOCK // len(powers_up_to(spec, p.l_cut)) == 2
        for parity, n in (("even", 3), ("odd", 2)):
            assert_direct_matches_layer_loop(spec, parity, n, 0.75 + 0.3j, p)

    def test_empty_spectrum(self):
        assert_direct_matches_layer_loop(EMPTY, "even", 3, 0.5, P_EMPTY)
        assert_direct_matches_layer_loop(EMPTY, "odd", 2, 0.5, P_EMPTY)


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

    def test_rigorous_only_inside_the_scanned_exponents(self, medium_spec):
        # at s = 60 the observed error was 1.017 times a bound claimed rigorous
        growth = GrowthModel.rigorous_envelope(medium_spec)
        assert (growth.a_min, growth.a_max) == (2.05, 16.0)
        for s, rigorous in ((2.03, False), (2.05, True), (16.0, True), (20.0, False),
                            (60.0, False)):
            a = ruelle_sigma(medium_spec, 0, s, EvalParams(2.0, growth=growth))
            assert a.heuristic_bound is not rigorous
            assert ("heuristic-tail-bound" in a.flags) is not rigorous
            if rigorous:
                b = ruelle_sigma(medium_spec, 0, s, EvalParams(40.0, growth=growth))
                assert abs(b.log_value - a.log_value) <= a.abs_error_bound

    def test_direct_zograf_rigorous_only_if_every_layer_is_covered(self, medium_spec):
        # at s = 0.5 the layers of F_3 reach exponents 3.5 to 3.5 + k_top = 26.5,
        # those of G_2 3.0 to 26.0
        assert zeta._k_top(medium_spec) == 23
        for a_max, rigorous_f, rigorous_g in ((16.0, False, False), (26.0, False, True),
                                              (40.0, True, True)):
            growth = GrowthModel.rigorous_envelope(medium_spec, a_max=a_max, n_a=40)
            p = EvalParams(12.0, growth=growth)
            for zv, rigorous in ((zograf_F(medium_spec, 3, 0.5, p, method="direct"), rigorous_f),
                                 (zograf_G(medium_spec, 2, 0.5, p, method="direct"), rigorous_g)):
                assert zv.heuristic_bound is not rigorous
                assert ("heuristic-tail-bound" in zv.flags) is not rigorous

    def test_value_matches_exp_log(self, medium_spec):
        p = EvalParams.for_spectrum(medium_spec)
        for zv in (ruelle_sigma(medium_spec, 1, 2.5 + 1.0j, p),
                   selberg_rho(medium_spec, 2, 0, 4.0, p),
                   zograf_G(medium_spec, 2, 0.0, p)):
            assert abs(zv.value - cmath.exp(zv.log_value)) <= 1e-12 * abs(zv.value)


def test_a_symmetric_power_point_is_one_kernel_call(monkeypatch, small_spec):
    # m = 66665 is the largest m the work limit admits over the small
    # fixture's 15 rows; its m + 1 weight rows take one kernel call, against
    # the route of one call and one finished factor per row, with no column
    # kept by either
    m = 66665
    p = EvalParams.for_spectrum(small_spec)
    table = powers_up_to(small_spec, p.l_cut)
    assert (m + 2) * len(table) > POWER_BUDGET >= (m + 1) * len(table)
    monkeypatch.setattr(zeta, "COLUMN_CACHE_BYTES", 0)
    s = complex(3.0 + m / 2, 0.3)
    rows = [(m - 2 * l, s - m / 2 + l) for l in range(m + 1)]
    start = time.perf_counter()
    want = zeta._combine(p, [zeta._factor(small_spec, p, zeta._log_series(table, [k], [x])[0],
                                          x.real, x.real > 2.0) for k, x in rows], [], True)
    per_row = time.perf_counter() - start
    calls = []
    kernel = zeta._log_series
    monkeypatch.setattr(zeta, "_log_series", lambda *args: calls.append(len(args[1])) or
                        kernel(*args))
    batched = math.inf
    for _ in range(2):  # the better of two runs, as neither keeps a row or a column
        start = time.perf_counter()
        got = ruelle_rho(small_spec, m, s, p)
        batched = min(batched, time.perf_counter() - start)
    assert calls == [m + 1] * 2
    assert same_bits(got.log_value, want.log_value) and got == want
    assert batched <= per_row / 4, (batched, per_row)
