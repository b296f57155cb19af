import cmath
import math
import pickle
import re
import warnings
from fractions import Fraction

import pytest

from geozeta import exact, identities, spectrum
from geozeta.commands import _strict
from geozeta.continuation import EtaNotSuppliedError, ManifoldInvariants
from geozeta.exact import ExactCheckResult, GaussianRational, TermFailure, exact_battery
from geozeta.identities import (IDENTITIES, GridPoint, IdentityReport,
                                _ruelle_reflected_log, battery_reports,
                                default_grid, run_identity, verify_exact_oracle,
                                log_relative_residual, main_theorem_residual,
                                special_case_low_n, verify_corollary_FG, verify_det_chain,
                                verify_four_selberg_quotient,
                                verify_reflection_involution,
                                verify_rho_selberg_quotient,
                                verify_ruelle_decomposition,
                                verify_ruelle_functional_equation,
                                verify_selberg_rho_decomposition, verify_zograf_ratio)
from geozeta.spectrum import TWO_PI, DomainError, GeodesicEntry, LengthSpectrum, flip_spins
from geozeta.torsion import predict_torsion_ratio, theta_even, theta_odd
from geozeta.zeta import (EvalParams, ruelle_rho, selberg_rho, selberg_sigma, zograf_F,
                          zograf_G)
import scalar_reference

EMPTY = LengthSpectrum((), 1.0)
P_EMPTY = EvalParams(1.0)
INV = ManifoldInvariants(4.125, 0.1875,
                         {k: v for k, v in enumerate(
                             (0.21, -0.34, 0.055, 0.47, -0.125, 0.2905, 0.06, -0.41,
                              0.17, 0.033), start=1)})


class TestEmptySpectrum:
    # every identity degenerates to an exact cancellation of explicit factors
    @pytest.mark.parametrize("run", [
        lambda: verify_ruelle_decomposition(EMPTY, 2, p=P_EMPTY),
        lambda: verify_selberg_rho_decomposition(EMPTY, 1, 0, p=P_EMPTY),
        lambda: verify_four_selberg_quotient(EMPTY, 1, p=P_EMPTY),
        lambda: verify_rho_selberg_quotient(EMPTY, 2, p=P_EMPTY),
        lambda: verify_zograf_ratio(EMPTY, 3, "even", p=P_EMPTY),
        lambda: verify_corollary_FG(EMPTY, 2, "odd", p=P_EMPTY),
        lambda: verify_ruelle_functional_equation(EMPTY, INV, 1, p=P_EMPTY),
        lambda: main_theorem_residual(EMPTY, INV, 3, "even", p=P_EMPTY),
        lambda: main_theorem_residual(EMPTY, INV, 2, "odd", p=P_EMPTY),
    ])
    def test_passes(self, run):
        report = run()
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_det_chain_pure_exponent_cancellation(self):
        report = verify_det_chain(EMPTY, INV, 1, p=P_EMPTY, tol=1e-12)
        assert report.passed
        assert report.max_residual <= 1e-12


class TestDecompositions:
    def test_m0_same_code_path(self, small_spec):
        report = verify_ruelle_decomposition(small_spec, 0)
        assert report.passed

    def test_small_spectrum(self, small_spec):
        for m in (1, 2):
            assert verify_ruelle_decomposition(small_spec, m, tol=1e-10).passed
        assert verify_selberg_rho_decomposition(small_spec, 1, 0, tol=1e-10).passed
        assert verify_selberg_rho_decomposition(small_spec, 2, 1, tol=1e-10).passed

    def test_spin_flip_stability(self, small_spec):
        flipped = flip_spins(small_spec)
        assert verify_ruelle_decomposition(flipped, 1, tol=1e-10).passed
        # even total weight: flipping the lift leaves both sides unchanged
        a = verify_selberg_rho_decomposition(small_spec, 2, 0, tol=1e-10)
        b = verify_selberg_rho_decomposition(flipped, 2, 0, tol=1e-10)
        assert a.passed and b.passed
        assert [pt.residual for pt in a.points] == [pt.residual for pt in b.points]

    def test_out_of_domain_grid_point_errors(self, small_spec):
        report = verify_ruelle_decomposition(small_spec, 2, grid=[1.0 + 0j])
        assert not report.passed
        assert any("error" in f for pt in report.points for f in pt.flags)


class TestQuotients:
    def test_four_selberg_small(self, small_spec):
        for m in (0, 1, 2):
            assert verify_four_selberg_quotient(small_spec, m, tol=1e-10).passed

    def test_rho_selberg_small(self, small_spec):
        for m in (0, 1, 2):
            assert verify_rho_selberg_quotient(small_spec, m, tol=1e-10).passed

    def test_quotient_chain_consistency(self, small_spec):
        # Z_rho(sigma_0, s) / Z_rho(sigma_-2, s+1) telescopes to two plain factors
        p = EvalParams.for_spectrum(small_spec)
        for m in (1, 2):
            s = 4.0 + m / 2 + 0.3j
            lhs = (selberg_rho(small_spec, m, 0, s, p).log_value
                   - selberg_rho(small_spec, m, -2, s + 1, p).log_value)
            rhs = (selberg_sigma(small_spec, m, s - m / 2, p).log_value
                   - selberg_sigma(small_spec, -(m + 2), s + m / 2 + 1, p).log_value)
            assert cmath.exp(lhs) == pytest.approx(cmath.exp(rhs), rel=1e-12)


class TestZografAndCorollary:
    def test_ratio_small(self, small_spec):
        assert verify_zograf_ratio(small_spec, 3, "even", tol=1e-10).passed
        assert verify_zograf_ratio(small_spec, 2, "odd", tol=1e-10).passed

    def test_corollary_small(self, small_spec):
        assert verify_corollary_FG(small_spec, 3, "even", tol=1e-10).passed
        assert verify_corollary_FG(small_spec, 2, "odd", tol=1e-10).passed

    def test_parity_validation(self, small_spec):
        with pytest.raises(ValueError):
            verify_zograf_ratio(small_spec, 3, "both")


class TestParityMessages:
    """The parity-dependent refusals, pinned word for word for both parities."""

    @staticmethod
    def raises(exc, message):
        return pytest.raises(exc, match=f"^{re.escape(message)}$")

    @pytest.mark.parametrize("n, parity, least", [(2, "even", 3), (1, "odd", 2)])
    def test_main_theorem_below_threshold(self, small_spec, invariants, n, parity, least):
        with self.raises(DomainError, f"n={n} below threshold for the {parity} main theorem "
                                      f"(n >= {least})"):
            main_theorem_residual(small_spec, invariants, n, parity)

    @pytest.mark.parametrize("n, parity", [(2, "even"), (1, "odd")])
    def test_predict_torsion_below_threshold(self, small_spec, invariants, n, parity):
        with self.raises(DomainError, f"n={n} below threshold: s=0 outside convergence "
                                      "domain; use special-case evaluator"):
            predict_torsion_ratio(small_spec, invariants, n, parity)

    @pytest.mark.parametrize("zograf, n, least", [(zograf_F, 0, 1), (zograf_G, -1, 0)])
    def test_zograf_index_below_least(self, small_spec, zograf, n, least):
        with self.raises(ValueError, f"n must be >= {least}, got {n}"):
            zograf(small_spec, n, 3.0, EvalParams.for_spectrum(small_spec))

    @pytest.mark.parametrize("check", [
        lambda spec, inv: verify_zograf_ratio(spec, 3, "both"),
        lambda spec, inv: verify_corollary_FG(spec, 3, "both"),
        lambda spec, inv: main_theorem_residual(spec, inv, 3, "both"),
        lambda spec, inv: predict_torsion_ratio(spec, inv, 3, "both"),
    ], ids=["zograf-ratio", "corollary-FG", "main-theorem", "predict-torsion"])
    def test_unknown_parity(self, small_spec, invariants, check):
        with self.raises(ValueError, "parity must be 'even' or 'odd', got 'both'"):
            check(small_spec, invariants)


class TestRuelleFunctionalEquation:
    def test_small_spectrum(self, small_spec, invariants):
        for m in (0, 1, 2):
            report = verify_ruelle_functional_equation(small_spec, invariants, m)
            assert report.passed, (m, report.max_residual)

    def test_eta_contributions_cancel(self, small_spec, invariants):
        # zeroing every eta leaves the reflected assembly unchanged: the
        # reflection phases enter in antisymmetric pairs
        p = EvalParams.for_spectrum(small_spec)
        zeroed = ManifoldInvariants(invariants.volume, invariants.cs,
                                    {k: 0.0 for k in invariants.eta})
        for m in (0, 2):
            s = complex(4.0 + m / 2, 0.3)
            a = _ruelle_reflected_log(small_spec, invariants, m, -s, p)
            b = _ruelle_reflected_log(small_spec, zeroed, m, -s, p)
            assert cmath.exp(a) == pytest.approx(cmath.exp(b), rel=1e-12)

    def test_dim_factor_slope(self, small_spec, invariants):
        # d/ds log(R(s)/R_reflected(-s)) = 4 dim Vol / pi; doubling dim doubles it
        p = EvalParams.for_spectrum(small_spec)
        slopes = []
        for m in (0, 1):
            def phi(s):
                return (ruelle_rho(small_spec, m, s, p).log_value
                        - _ruelle_reflected_log(small_spec, invariants, m, -s, p))
            h = 1e-4
            s0 = complex(4.0 + m / 2, 0.2)
            slopes.append((phi(s0 + h) - phi(s0 - h)) / (2 * h))
        expected = 4.0 * invariants.volume / math.pi
        assert slopes[0] == pytest.approx(expected, rel=1e-6)
        assert slopes[1] == pytest.approx(2.0 * expected, rel=1e-6)


class TestDetChain:
    def test_small_spectrum(self, small_spec, invariants):
        for m in (0, 1):
            assert verify_det_chain(small_spec, invariants, m, tol=1e-9).passed

    def test_wrong_volume_detected(self, small_spec, invariants):
        # shifting the volume only inside the determinant expressions breaks the
        # cancellation by exactly exp(-2 s dim dV / pi) per point
        m, dv = 1, 1.0
        report = verify_det_chain(small_spec, invariants, m,
                                  det_volume=invariants.volume + dv)
        assert not report.passed
        dim = m + 1
        for pt in report.points:
            c = cmath.exp(-2.0 * pt.s * dim * dv / math.pi)
            predicted = abs(c - 1.0) / max(1.0, abs(c))
            assert pt.residual == pytest.approx(predicted, rel=1e-6)


class TestReflectionInvolution:
    def test_battery(self):
        report = verify_reflection_involution(samples=300)
        assert report.passed
        assert len(report.points) == 300


class TestThetas:
    def test_even_n1_vanishes(self, invariants):
        assert theta_even(invariants, 1) == pytest.approx(0.0, abs=1e-15)

    def test_even_n2_linear_combination(self):
        inv = ManifoldInvariants(1.0, 0.0, {2: 0.11, 4: 0.77})
        assert theta_even(inv, 2) == pytest.approx(0.77 - 14 * 0.11)

    def test_odd_n1_linear_combination(self):
        inv = ManifoldInvariants(1.0, 0.0, {1: 0.13, 3: 0.29})
        assert theta_odd(inv, 1) == pytest.approx(0.29 - 0.13 - 5.5 * 0.13)


class TestPredictTorsion:
    def test_even_empty_spectrum_closed_form(self, invariants):
        pred = predict_torsion_ratio(EMPTY, invariants, 3, "even", P_EMPTY)
        theta = theta_even(invariants, 3)
        vol = complex(invariants.volume, 2 * math.pi ** 2 * invariants.cs)
        expected = cmath.exp(6j * math.pi * theta) * cmath.exp((2 / math.pi) * 37 * vol)
        assert pred.value == pytest.approx(expected, rel=1e-12)
        assert pred.f_or_g == 1.0 + 0j

    def test_odd_empty_spectrum_closed_form(self, invariants):
        pred = predict_torsion_ratio(EMPTY, invariants, 2, "odd", P_EMPTY)
        theta = theta_odd(invariants, 2)
        inner = complex(invariants.volume, 3 * math.pi ** 2 * invariants.eta[1])
        expected = cmath.exp(2j * math.pi * theta) \
            * cmath.exp((2 / math.pi) * (8 - 1 / 6) * inner)
        assert pred.value == pytest.approx(expected, rel=1e-12)

    def test_cs_shift_invariance(self, small_spec, invariants):
        p = EvalParams.for_spectrum(small_spec)
        a = predict_torsion_ratio(small_spec, invariants, 3, "even", p)
        b = predict_torsion_ratio(small_spec, invariants.with_cs(invariants.cs + 0.5),
                                  3, "even", p)
        assert abs(a.value - b.value) <= 1e-10 * abs(a.value)

    def test_eta_shift_invariance(self, small_spec, invariants):
        p = EvalParams.for_spectrum(small_spec)
        for parity, n, k in (("even", 3, 6), ("even", 3, 2), ("odd", 2, 1), ("odd", 2, 5)):
            a = predict_torsion_ratio(small_spec, invariants, n, parity, p)
            shifted = invariants.with_eta(k, invariants.eta[k] + 2.0)
            b = predict_torsion_ratio(small_spec, shifted, n, parity, p)
            assert abs(a.value - b.value) <= 1e-10 * abs(a.value), (parity, n, k)

    def test_modulus_depends_only_on_volume_and_product(self, small_spec, invariants):
        p = EvalParams.for_spectrum(small_spec)
        stripped = ManifoldInvariants(invariants.volume, 0.0,
                                      {k: 0.0 for k in invariants.eta})
        for parity, n in (("even", 3), ("odd", 2)):
            a = predict_torsion_ratio(small_spec, invariants, n, parity, p)
            b = predict_torsion_ratio(small_spec, stripped, n, parity, p)
            assert abs(a.value) == pytest.approx(abs(b.value), rel=1e-10)

    def test_below_threshold_rejected(self, small_spec, invariants):
        with pytest.raises(DomainError, match="special-case"):
            predict_torsion_ratio(small_spec, invariants, 2, "even")
        with pytest.raises(DomainError, match="special-case"):
            predict_torsion_ratio(small_spec, invariants, 1, "odd")


class TestMainTheorem:
    def test_passes_both_parities(self, small_spec, invariants):
        for n, parity in ((3, "even"), (4, "even"), (2, "odd"), (3, "odd")):
            report = main_theorem_residual(small_spec, invariants, n, parity)
            assert report.passed, (n, parity, report.max_residual)
            assert "circular-given-functional-equation" in report.flags

    def test_spin_flip_invariance_even(self, small_spec, invariants):
        a = main_theorem_residual(small_spec, invariants, 3, "even")
        b = main_theorem_residual(flip_spins(small_spec), invariants, 3, "even")
        assert a.max_residual == b.max_residual

    def test_claimed_eta_perturbation_moves_residual(self, small_spec, invariants):
        n = 3
        claimed = invariants.with_eta(2 * n, invariants.eta[2 * n] + 0.1)
        report = main_theorem_residual(small_spec, invariants, n, "even",
                                       claimed=claimed)
        assert not report.passed
        predicted = abs(cmath.exp(-0.2j * math.pi) - 1.0)
        assert report.max_residual == pytest.approx(predicted, rel=1e-9)

    def test_claimed_volume_perturbation_fails(self, small_spec, invariants):
        claimed = invariants.with_volume(invariants.volume + 1.0)
        report = main_theorem_residual(small_spec, invariants, 2, "odd",
                                       claimed=claimed)
        assert not report.passed
        assert report.max_residual > 0.9

    def test_below_threshold(self, small_spec, invariants):
        with pytest.raises(DomainError):
            main_theorem_residual(small_spec, invariants, 2, "even")
        with pytest.raises(DomainError):
            main_theorem_residual(small_spec, invariants, 1, "odd")


@pytest.mark.parametrize("identity, params", [("ruelle-feq", {"m": 1}),
                                              ("main-theorem", {"n": 2, "parity": "odd"})])
def test_reflected_checks_read_selberg_anywhere_by_its_global_name(
        monkeypatch, small_spec, invariants, identity, params):
    # the seam that fault tests and the benchmark's tracer rebind: four
    # continued Selberg factors per point, at least one of them reflected
    calls = []
    original = identities.selberg_anywhere
    monkeypatch.setattr(identities, "selberg_anywhere",
                        lambda *args: calls.append(args[3]) or original(*args))
    report = run_identity(identity, small_spec, invariants, **params)
    assert report.passed
    assert len(calls) == 4 * len(report.points)
    assert any(complex(s).real < 0 for s in calls)


class TestSpecialCases:
    def test_f1_closed_form(self):
        inv = ManifoldInvariants(3 * math.pi, 0.0, {1: 0.0, 2: 0.0})
        assert special_case_low_n(inv, "F1-even") == pytest.approx(-math.exp(-1.0))

    def test_g0_closed_form(self):
        inv = ManifoldInvariants(3 * math.pi, 0.0, {1: 0.0, 2: 0.0})
        assert special_case_low_n(inv, "G0-odd") == pytest.approx(math.exp(1.0))

    def test_f1_negative_real_ray(self):
        for vol in (1.0, 2.5, 12.0):
            inv = ManifoldInvariants(vol, 0.3, {2: 0.0})
            value = special_case_low_n(inv, "F1-even")
            assert value.real < 0
            assert abs(value.imag) <= 1e-15

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            special_case_low_n(INV, "F2-even")


def test_log_relative_residual():
    # the residual reads the logs alone: equal logs compare exactly, logs one
    # turn apart compare equal, and a difference of 1e-9 reads 1e-9 whether
    # the values would underflow, fit or overflow a double
    assert log_relative_residual(0.3 + 2j, 0.3 + 2j) == 0.0
    for base in (0j, 1e5 + 7j, -1e5 - 7j):
        assert log_relative_residual(base, base + 2j * math.pi) <= 1e-15
        for delta in (1e-9, -1e-9, 1e-9j):
            assert log_relative_residual(base + delta, base) == pytest.approx(1e-9, rel=1e-2)
            assert log_relative_residual(base, base + delta) == pytest.approx(1e-9, rel=1e-2)


def test_report_json_shape(small_spec):
    report = verify_four_selberg_quotient(small_spec, 1)
    doc = _strict(report)
    assert list(doc) == ["identity_id", "tolerance", "passed", "max_residual",
                         "points", "flags"]
    assert len(doc["points"]) == len(default_grid(3.5))
    assert all(list(pt) == ["s", "residual", "flags"] for pt in doc["points"])
    assert all(len(pt["s"]) == 2 for pt in doc["points"])


@pytest.mark.parametrize("residuals, passed, max_residual", [
    ((), True, 0.0),
    ((1e-9, 1e-8), True, 1e-8),
    ((1e-9, 2e-8), False, 2e-8),
    # a NaN (every error point carries one) or an inf fails the report
    ((1e-9, math.nan), False, 1e-9),
    ((math.nan,), False, 0.0),
    ((1e-9, math.inf), False, math.inf),
])
def test_the_verdict_is_derived_from_the_points(residuals, passed, max_residual):
    report = IdentityReport("x", 1e-8, tuple(GridPoint(0j, r) for r in residuals))
    # the battery's worker sends its reports back pickled
    for r in (report, pickle.loads(pickle.dumps(report))):
        assert r.passed is passed and r.max_residual == max_residual
    with pytest.raises(TypeError):
        IdentityReport("x", 1e-8, True, 0.0, ())


class TestNewtonOracle:
    # the determinant oracle is the (p, q) = (0, 0) slice of the double
    # product; Newton's identities on power-sum traces, in the scalar
    # reference, are the independent route it is held to
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_the_per_class_loop(self, small_spec, medium_spec, m):
        for spec in (small_spec, flip_spins(small_spec), medium_spec, flip_spins(medium_spec),
                     EMPTY):
            for s in (3.0 + m / 2 + 0.3j, 4.1 - 1.2j, 2.6 + m / 2):
                got = identities.ruelle_rho_direct(spec, m, s)
                want = scalar_reference.ruelle_rho_direct(spec, m, s)
                assert abs(cmath.log(got / want)) <= 1e-13

    @pytest.mark.parametrize("identity, params", [
        ("prop-ruelle-dec", {"m": 2}), ("selberg-rho-dec", {"m": 2, "k": 2})],
        ids=["prop-ruelle-dec", "selberg-rho-dec"])
    def test_an_injected_eigenvalue_fault_fails_both_oracles(self, small_spec, monkeypatch,
                                                             identity, params):
        # both oracles read the lifted eigenvalue through the one kernel
        real = identities.eigenvalue
        monkeypatch.setattr(identities, "eigenvalue", lambda h: real(h) * 1.001)
        report = run_identity(identity, small_spec, None, **params)
        assert not report.passed and report.max_residual > 1e-6
        monkeypatch.undo()
        assert run_identity(identity, small_spec, None, **params).passed

    @pytest.mark.parametrize("oracle", [
        lambda spec: identities.ruelle_rho_direct(spec, 1, 3.0),
        lambda spec: identities.selberg_sigma_bruteforce(spec, 1, 3.0),
        lambda spec: identities.selberg_rho_bruteforce(spec, 1, 0, 3.0)],
        ids=["determinant", "selberg-sigma", "selberg-rho"])
    def test_a_factor_that_is_exactly_0_names_its_class(self, oracle):
        # e^(-3 l) rounds to 1.0 on both classes; at angle 0 the eigenvalue
        # and sigma_1 are 1.0 too, so class 1 has a factor 1 - x = 0, which is
        # named before any log is taken, with no numpy warning
        tiny = LengthSpectrum.build([GeodesicEntry(1e-300, 0.5, 1, 1),
                                     GeodesicEntry(2e-300, 0.0, 1, 1)], 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^a factor 1 - x of class 1 \(length "
                               r"2e-300, m [01]\) is exactly 0; its log is undefined$"):
                oracle(tiny)


# unoriented, with two angle-0 entries: each mirror is (0, flipped sign)
ANGLE_ZERO = LengthSpectrum.build([GeodesicEntry(1.1, 0.0, 1, 1), GeodesicEntry(1.7, 0.0, -1, 2)],
                                  12.0, oriented=False)


class TestAngleZeroMirrors:
    def test_battery_passes(self, invariants):
        failed = [r.identity_id for r in battery_reports(ANGLE_ZERO, invariants) if not r.passed]
        assert failed == []

    @pytest.mark.parametrize("identity, params", [
        ("prop-ruelle-dec", {"m": 1}), ("selberg-rho-dec", {"m": 1, "k": 0})])
    def test_an_unflipped_mirror_fails_the_battery(self, monkeypatch, identity, params):
        # the oracles read the classes of spectrum._expanded_classes, the
        # evaluators the power table, which builds its mirrors on its own
        def unflipped(spec):
            # the mirror as (fmod(2*pi - theta, 2*pi), same sign): at theta = 0
            # a turn is taken off and the lift kept
            return tuple(c for e in spec.entries for c in (e, GeodesicEntry(
                e.length, math.fmod(TWO_PI - e.angle, TWO_PI), e.spin_sign, e.multiplicity)))

        assert run_identity(identity, ANGLE_ZERO, None, **params).passed
        monkeypatch.setattr(spectrum, "_expanded_classes", unflipped)
        report = run_identity(identity, ANGLE_ZERO, None, **params)
        assert not report.passed and report.max_residual > 1e-3


class TestRegistry:
    def test_battery_follows_registry(self, small_spec, invariants):
        reports = battery_reports(small_spec, invariants)
        want = [ident for ident, entry in IDENTITIES.items() for _ in entry.battery]
        assert [r.identity_id for r in reports] == want
        assert want[-1] == "exact-oracle" and len(want) == 27
        assert all(r.passed for r in reports)

    def test_calls_through_module_globals(self, small_spec, monkeypatch):
        # a wrapper bound over the verify_* name later (say, a tracer) sees the call
        seen = []
        original = identities.verify_four_selberg_quotient

        def wrapper(*args, **kwargs):
            seen.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(identities, "verify_four_selberg_quotient", wrapper)
        assert run_identity("four-selberg", small_spec, None, m=1).passed
        assert seen == [1]

    @pytest.mark.parametrize("ident, params, message", [
        ("prop-ruelle-dec", {"m": -1}, "m >= 0"),
        ("selberg-rho-dec", {"m": -1, "k": 0}, "m >= 0"),
        ("zograf-ratio", {"n": 0, "parity": "even"}, "n >= 1"),
        ("zograf-ratio", {"n": -1, "parity": "odd"}, "n >= 0"),
        ("corollary-FG", {"n": 0, "parity": "odd"}, "n >= 1"),
        ("reflect-involution", {"samples": 0}, "samples >= 1"),
    ])
    def test_parameters_checked_before_the_grid(self, small_spec, ident, params, message):
        with pytest.raises(ValueError, match=message):
            run_identity(ident, small_spec, INV, **params)

    def test_main_theorem_tolerance_floor(self, small_spec, invariants):
        report = run_identity("main-theorem", small_spec, invariants, tol=1e-12,
                              n=3, parity="even")
        assert report.tolerance == 1e-9

    def test_precondition_message(self, small_spec):
        report = verify_det_chain(small_spec, INV, 2, grid=[3.0 + 0.3j, 4.5 + 0.3j])
        assert report.points[0].flags == ("error: grid point Re(s)=3.0 outside Re > 3.0",)
        assert report.points[1].residual <= 1e-8
        assert not report.passed

    def test_missing_eta_propagates(self, small_spec):
        with pytest.raises(EtaNotSuppliedError, match="k=2"):
            verify_ruelle_functional_equation(small_spec, ManifoldInvariants(2.0, 0.0, {}), 0)

    def test_exact_oracle_report(self, monkeypatch):
        report = verify_exact_oracle()
        assert report.passed and report.tolerance == 0.0 and report.max_residual == 0.0
        assert report.flags == ("exact-rational-arithmetic",)
        assert [(pt.s, pt.flags) for pt in report.points] == [
            (complex(r.s), (r.identity_id, *(f"{k}={v}" for k, v in r.params)))
            for r in exact_battery()]
        assert {pt.s for pt in report.points} == {4, 5, 6, 4.5, 5.5, 6.5}
        failure = TermFailure(2, 5, GaussianRational.of(1), GaussianRational.of(0))
        monkeypatch.setattr(identities, "exact_battery", lambda: [
            ExactCheckResult("ruelle-dec", 4, (("m", 0),), None),
            ExactCheckResult("zograf-G", Fraction(9, 2), (("n", 2),), failure)])
        report = verify_exact_oracle()
        assert not report.passed and report.max_residual == 1.0
        assert [pt.residual for pt in report.points] == [0.0, 1.0]
        assert report.points[0].flags == ("ruelle-dec", "m=0")
        assert report.points[1].flags == ("zograf-G", "n=2", "first failure at class 2, power 5")
        assert [pt.s for pt in report.points] == [4 + 0j, 4.5 + 0j]

    def test_exact_oracle_names_each_failing_check(self, monkeypatch):
        # a fault at m = 2 only fails the four m = 2 checks at each s, and
        # each failing point names its identity, m (and k) and its s
        real_terms = exact.identity_terms

        def broken(identity_id, cls, mu, s, m=0, k=0, n=3):
            lhs, rhs = real_terms(identity_id, cls, mu, s, m=m, k=k, n=n)
            return lhs, (rhs + 1 if m == 2 else rhs)

        monkeypatch.setattr(exact, "identity_terms", broken)
        report = verify_exact_oracle()
        assert not report.passed and len(report.points) == 75
        failed = [(pt.s, pt.flags) for pt in report.points if pt.residual != 0.0]
        first = "first failure at class 0, power 1"
        assert failed == [
            (complex(s), flags + (first,)) for s in (4, 5, 6)
            for flags in (("ruelle-dec", "m=2"), ("four-selberg", "m=2"),
                          ("rho-selberg", "m=2"), ("selberg-rho-dec", "m=2", "k=1"))]
        assert all(pt.residual in (0.0, 1.0) for pt in report.points)
