"""Acceptance battery.

One test per criterion, each printing a PASS line with its headline numbers.
All tolerances are pinned here, straight from the criteria:

  1. exact-oracle term equalities: exact, zero tolerance
  2. floating identity battery on the 25-class fixture: 1e-8, < 60 s
  3. Zograf two-path agreement at s=0: 1e-10 relative
  4. reflection involution, 1000 samples: 1e-12 relative
  5. twisted Ruelle functional equation, m in {0,1,2}: 1e-8
  6. main-theorem special value: 1e-9, plus single-input mutation detection
  7. torsion-prediction invariances: 1e-10 relative
  8. small-time heat coefficients vs their closed-form values: 1 percent
  9. CLI byte-determinism across fresh processes with different PYTHONHASHSEED
"""

import cmath
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import geozeta as gz
from geozeta.exact import FIXTURE_CLASSES, exact_identity_check
from geozeta.spectrum import GeodesicEntry, LengthSpectrum

EMPTY = LengthSpectrum((), 1.0)


def _corrupt_length(spec, delta=1e-3):
    entries = list(spec.entries)
    e0 = entries[0]
    entries[0] = GeodesicEntry(e0.length + delta, e0.angle, e0.spin_sign, e0.multiplicity)
    return LengthSpectrum.build(entries, spec.l_max, spec.oriented, spec.label)


def test_criterion_1_exact_oracle_battery():
    checks = 0
    for s in (4, 5, 6):
        for m in (0, 1, 2, 3):
            for ident in ("ruelle-dec", "four-selberg", "rho-selberg"):
                assert exact_identity_check(FIXTURE_CLASSES, ident, s, 12, m=m).passed
                checks += 1
        for m, k in ((0, 0), (1, 0), (2, 1), (3, 2)):
            assert exact_identity_check(FIXTURE_CLASSES, "selberg-rho-dec", s, 12,
                                        m=m, k=k).passed
            checks += 1
        for n in (3, 4, 5):
            assert exact_identity_check(FIXTURE_CLASSES, "zograf-F", s, 12, n=n).passed
            checks += 1
        for n in (2, 3, 4):
            assert exact_identity_check(FIXTURE_CLASSES, "zograf-G", s, 12, n=n).passed
            # admissible half-integers for the odd chain
            assert exact_identity_check(FIXTURE_CLASSES, "zograf-G",
                                        Fraction(2 * s + 1, 2), 12, n=n).passed
            checks += 2
    print(f"\nACCEPTANCE 1 PASS exact oracle: {checks} term-level checks, "
          "exact equality over Q(i)")


def test_criterion_2_floating_battery(medium_spec, invariants):
    start = time.monotonic()
    reports = gz.battery_reports(medium_spec, invariants, tol=1e-8)
    elapsed = time.monotonic() - start
    failures = [(r.identity_id, r.flags, r.max_residual) for r in reports if not r.passed]
    assert not failures, failures
    assert elapsed < 60.0
    worst = max(r.max_residual for r in reports)
    print(f"\nACCEPTANCE 2 PASS floating battery: {len(reports)} reports on the "
          f"25-class fixture, worst residual {worst:.2e} <= 1e-8, {elapsed:.1f}s < 60s")


def test_criterion_3_zograf_two_path(small_spec, medium_spec):
    worst = 0.0
    for spec in (small_spec, medium_spec):
        p = gz.EvalParams.for_spectrum(spec)
        fd = gz.zograf_F(spec, 3, 0.0, p, method="direct").value
        fr = gz.zograf_F(spec, 3, 0.0, p, method="ratio").value
        gd = gz.zograf_G(spec, 2, 0.0, p, method="direct").value
        gr = gz.zograf_G(spec, 2, 0.0, p, method="ratio").value
        worst = max(worst, abs(fd - fr) / abs(fr), abs(gd - gr) / abs(gr))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 3 PASS Zograf two-path: F(3,0) and G(2,0) on both fixtures, "
          f"worst relative gap {worst:.2e} <= 1e-10")


def test_criterion_4_reflection_involution():
    report = gz.verify_reflection_involution(samples=1000)
    assert report.passed
    assert len(report.points) == 1000
    print(f"\nACCEPTANCE 4 PASS reflection involution: 1000 samples, "
          f"worst residual {report.max_residual:.2e} <= 1e-12")


def test_criterion_5_ruelle_functional_equation(medium_spec, invariants):
    worst = 0.0
    for m in (0, 1, 2):
        report = gz.verify_ruelle_functional_equation(medium_spec, invariants, m, tol=1e-8)
        assert report.passed, (m, report.max_residual)
        worst = max(worst, report.max_residual)
    # eta cancellation: zeroing every eta leaves the even-m reports unchanged
    zeroed = gz.ManifoldInvariants(invariants.volume, invariants.cs,
                                   {k: 0.0 for k in invariants.eta})
    for m in (0, 2):
        a = gz.verify_ruelle_functional_equation(medium_spec, invariants, m, tol=1e-8)
        b = gz.verify_ruelle_functional_equation(medium_spec, zeroed, m, tol=1e-8)
        assert b.passed
        for pa, pb in zip(a.points, b.points):
            assert pa.residual == pytest.approx(pb.residual, abs=1e-12)
    print(f"\nACCEPTANCE 5 PASS Ruelle functional equation: m in {{0,1,2}}, "
          f"worst residual {worst:.2e} <= 1e-8; eta-cancellation confirmed")


def test_criterion_6_main_theorem_and_mutations(small_spec, medium_spec, invariants):
    combos = ((3, "even"), (4, "even"), (2, "odd"), (3, "odd"))
    worst = 0.0
    for spec in (small_spec, medium_spec):
        for n, parity in combos:
            report = gz.main_theorem_residual(spec, invariants, n, parity, tol=1e-9)
            assert report.passed, (spec.label, n, parity, report.max_residual)
            worst = max(worst, report.max_residual)
    # mutation detection, each single input corrupted against the trusted side
    predicted_eta = abs(cmath.exp(-0.2j * math.pi) - 1.0)
    for spec in (small_spec, medium_spec):
        for n, parity in combos:
            weight = 2 * n if parity == "even" else 2 * n + 1
            eta_mut = gz.main_theorem_residual(
                spec, invariants, n, parity,
                claimed=invariants.with_eta(weight, invariants.eta[weight] + 0.1))
            assert not eta_mut.passed
            assert eta_mut.max_residual == pytest.approx(predicted_eta, rel=1e-9)
            vol_mut = gz.main_theorem_residual(
                spec, invariants, n, parity,
                claimed=invariants.with_volume(invariants.volume + 1.0))
            assert not vol_mut.passed and vol_mut.max_residual > 0.9
            len_mut = gz.main_theorem_residual(
                _corrupt_length(spec), invariants, n, parity, reference_spectrum=spec)
            assert not len_mut.passed
            assert len_mut.max_residual > 1e-7
    print(f"\nACCEPTANCE 6 PASS main theorem: residual <= 1e-9 on both fixtures "
          f"(worst {worst:.2e}); eta+0.1 / Vol+1 / length+1e-3 each detected")


def test_criterion_7_torsion_prediction_invariances(small_spec, invariants):
    p = gz.EvalParams.for_spectrum(small_spec)
    for parity, n in (("even", 3), ("even", 4), ("odd", 2), ("odd", 3)):
        base = gz.predict_torsion_ratio(small_spec, invariants, n, parity, p)
        shifted_cs = gz.predict_torsion_ratio(
            small_spec, invariants.with_cs(invariants.cs + 0.5), n, parity, p)
        assert abs(base.value - shifted_cs.value) <= 1e-10 * abs(base.value)
        for k in sorted(invariants.eta):
            shifted = gz.predict_torsion_ratio(
                small_spec, invariants.with_eta(k, invariants.eta[k] + 2.0), n, parity, p)
            assert abs(base.value - shifted.value) <= 1e-10 * abs(base.value), (parity, n, k)
        stripped = gz.ManifoldInvariants(invariants.volume, 0.0,
                                         {k: 0.0 for k in invariants.eta})
        plain = gz.predict_torsion_ratio(small_spec, stripped, n, parity, p)
        assert abs(base.value) == pytest.approx(abs(plain.value), rel=1e-10)
    print("\nACCEPTANCE 7 PASS torsion prediction: cs+1/2 and eta+2 invariance at "
          "1e-10; modulus independent of cs and eta")


def test_criterion_8_heat_trace_coefficients(invariants):
    sqrt_pi = math.sqrt(math.pi)
    a1, a2 = gz.small_time_fit(EMPTY, invariants, 0, 0, params=gz.EvalParams(1.0))
    assert a1 == pytest.approx(sqrt_pi / 2, rel=0.01)
    assert a2 == pytest.approx(-sqrt_pi / 2, rel=0.01)
    b1, b2 = gz.small_time_fit(EMPTY, invariants, 0, 1, params=gz.EvalParams(1.0))
    assert b1 == pytest.approx(1.5 * sqrt_pi, rel=0.01)
    assert b2 == pytest.approx(1.5 * sqrt_pi, rel=0.01)
    print(f"\nACCEPTANCE 8 PASS heat-trace coefficients: "
          f"({a1:.4f}, {a2:.4f}) vs (sqrt(pi)/2, -sqrt(pi)/2) and "
          f"({b1:.4f}, {b2:.4f}) vs (3 sqrt(pi)/2, 3 sqrt(pi)/2), within 1%")


def test_criterion_9_cli_determinism(tmp_path):
    src = str(Path(gz.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    spectrum = str(Path(src) / "geozeta" / "fixtures" / "spectrum_small.json")
    inv = str(Path(src) / "geozeta" / "fixtures" / "invariants_synthetic.json")
    outputs = []
    # string hashes, and with them the iteration order of sets of strings, differ per seed
    for hash_seed in ("0", "1", "2", "3"):
        out = tmp_path / f"report_{len(outputs)}.json"
        cmd = [sys.executable, "-m", "geozeta", "verify", "--identity", "all",
               "--spectrum", spectrum, "--invariants", inv, "--output", str(out)]
        proc = subprocess.run(cmd, env=dict(env, PYTHONHASHSEED=hash_seed),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    assert json.loads(outputs[0])["passed"] is True
    print(f"\nACCEPTANCE 9 PASS determinism: 4 CLI battery runs (PYTHONHASHSEED 0-3) "
          f"produced byte-identical {len(outputs[0])}-byte reports")
