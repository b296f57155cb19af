import argparse
import dataclasses
import json
import math
import time
import tracemalloc
from pathlib import Path

import pytest

from geozeta import entry, exact, fixtures, identities, spectrum, zeta
from geozeta.commands import GRID_POINTS_MAX, INDEX_MAX, SAMPLES_MAX, _emit, _strict
from geozeta.continuation import serialize_invariants
from geozeta.entry import main
from geozeta.heattrace import heat_trace_geometric
from geozeta.identities import IDENTITIES, IDENTITY_CHOICES, verify_ruelle_decomposition
from geozeta.spectrum import DomainError, serialize_spectrum
from geozeta.torsion import predict_torsion_ratio

EMPTY_DOC = json.dumps({"label": "empty", "oriented": True, "l_max": 1.0, "entries": []})
SINGLE_DOC = json.dumps({"label": "one", "oriented": True, "l_max": 40.0,
                         "entries": [{"length": 1.0, "angle": 0.5, "spin_sign": 1,
                                      "multiplicity": 1}]})


@pytest.fixture
def spec_file(tmp_path, small_spec):
    path = tmp_path / "spec.json"
    path.write_text(serialize_spectrum(small_spec))
    return str(path)


@pytest.fixture
def inv_file(tmp_path, invariants):
    path = tmp_path / "inv.json"
    path.write_text(serialize_invariants(invariants))
    return str(path)


class TestValidate:
    def test_ok(self, spec_file, inv_file):
        assert main(["validate", "--spectrum", spec_file, "--invariants", inv_file]) == 0

    def test_negative_length(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"l_max": 2.0, "entries": [
            {"length": -1.0, "angle": 0.0, "spin_sign": 1, "multiplicity": 1}]}))
        assert main(["validate", "--spectrum", str(bad)]) == 2
        assert "entries[0]" in capsys.readouterr().err

    def test_require_eta_missing(self, spec_file, tmp_path, capsys):
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps({"volume": 2.0, "cs": 0.0, "eta": {"1": 0.1}}))
        code = main(["validate", "--spectrum", spec_file, "--invariants", str(inv),
                     "--require-eta", "1,2"])
        assert code == 2
        assert "[2]" in capsys.readouterr().err

    def test_csv_needs_l_max(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text("length,angle,spin_sign,multiplicity\n1.0,0.5,1,1\n")
        assert main(["validate", "--spectrum", str(csv)]) == 2
        assert main(["validate", "--spectrum", str(csv), "--l-max", "5.0"]) == 0


class TestEval:
    def run(self, tmp_path, argv):
        out = tmp_path / "out.json"
        code = main(argv + ["--output", str(out)])
        return code, json.loads(out.read_text()) if out.exists() else None

    def test_empty_spectrum_everything_is_one(self, tmp_path):
        spec = tmp_path / "empty.json"
        spec.write_text(EMPTY_DOC)
        for kind, flag in [("ruelle-sigma", "--k"), ("selberg-sigma", "--k"),
                           ("ruelle-rho", "--m"), ("selberg-rho", "--m"),
                           ("F", "--n"), ("G", "--n")]:
            code, doc = self.run(tmp_path, ["eval", "--spectrum", str(spec),
                                            "--kind", kind, flag, "3", "--s", "4,0"])
            assert code == 0
            assert doc[0]["value"] == [1.0, 0.0]

    def test_single_class_closed_form(self, tmp_path):
        spec = tmp_path / "one.json"
        spec.write_text(SINGLE_DOC)
        code, doc = self.run(tmp_path, ["eval", "--spectrum", str(spec),
                                        "--kind", "ruelle-sigma", "--k", "0",
                                        "--s", "3,0"])
        assert code == 0
        assert doc[0]["value"][0] == pytest.approx(1 - math.exp(-3), abs=1e-13)

    def test_grid_point_count(self, tmp_path, spec_file):
        code, doc = self.run(tmp_path, ["eval", "--spectrum", spec_file,
                                        "--kind", "selberg-sigma", "--k", "2",
                                        "--grid", "3.0,4.0,5,0.3"])
        assert code == 0
        assert len(doc) == 5
        assert doc[0]["s"] == [3.0, 0.3] and doc[-1]["s"] == [4.0, 0.3]

    def test_missing_index_flag(self, tmp_path, spec_file, capsys):
        code = main(["eval", "--spectrum", spec_file, "--kind", "F", "--s", "0,0"])
        assert code == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--grid", "3,inf,3,0"), ("--grid", "3,4,3,nan"), ("--grid", "-1e308,1e308,3,0"),
        ("--grid", "inf,inf,1,0"), ("--s", "nan,0"), ("--s", "3,-inf"), ("--s", "inf")])
    def test_non_finite_point_is_usage_error(self, spec_file, capsys, flag, value):
        # these printed null coordinates and a numpy RuntimeWarning, and exited 0
        code = main(["eval", "--spectrum", spec_file, "--kind", "selberg-sigma", "--k", "0",
                     f"{flag}={value}"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must give finite points, got {value!r}\n"

    @pytest.mark.parametrize("value", ["3,0.5,junk", "3,0.5,1", "1,2,3,4,5"])
    def test_s_with_more_than_two_fields_is_usage_error(self, spec_file, capsys, value):
        # the fields past the second were dropped: 3,0.5,junk evaluated at 3+0.5i
        code = main(["eval", "--spectrum", spec_file, "--kind", "selberg-sigma", "--k", "0",
                     f"--s={value}"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --s expects 're' or 're,im', got {value!r}\n"

    def test_csv_export(self, tmp_path, spec_file):
        out = tmp_path / "out.csv"
        code = main(["eval", "--spectrum", spec_file, "--kind", "ruelle-sigma",
                     "--k", "0", "--grid", "3.0,4.0,3,0.0", "--csv",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("s_re,s_im,value_re")
        assert len(lines) == 4

    def test_csv_unwritable_output(self, tmp_path, spec_file, capsys):
        code = main(["eval", "--spectrum", spec_file, "--kind", "ruelle-sigma",
                     "--k", "0", "--s", "3,0", "--csv",
                     "--output", str(tmp_path / "missing" / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write output file" in err and len(err.strip().splitlines()) == 1


class TestVerify:
    def test_single_identity_passes(self, tmp_path, spec_file):
        out = tmp_path / "r.json"
        code = main(["verify", "--identity", "four-selberg", "--spectrum", spec_file,
                     "--m", "1", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["identity_id"] == "four-selberg"

    def test_exact_oracle_self_contained(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--identity", "exact-oracle", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_reflect_involution_self_contained(self):
        assert main(["verify", "--identity", "reflect-involution", "--samples", "64"]) == 0

    def test_main_theorem_mismatched_claim_fails(self, tmp_path, spec_file, inv_file,
                                                 invariants):
        claimed = tmp_path / "claimed.json"
        claimed.write_text(serialize_invariants(
            invariants.with_eta(6, invariants.eta[6] + 0.1)))
        code = main(["verify", "--identity", "main-theorem", "--spectrum", spec_file,
                     "--invariants", inv_file, "--n", "3", "--parity", "even",
                     "--claimed-invariants", str(claimed)])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--claimed-invariants", "--reference-spectrum"])
    def test_main_theorem_side_file_missing(self, tmp_path, spec_file, inv_file, capsys,
                                            flag):
        code = main(["verify", "--identity", "main-theorem", "--spectrum", spec_file,
                     "--invariants", inv_file, "--n", "3", "--parity", "even",
                     flag, str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--claimed-invariants", "--reference-spectrum"])
    def test_main_theorem_side_file_malformed(self, tmp_path, spec_file, inv_file, capsys,
                                              flag):
        bad = tmp_path / "bad.json"
        bad.write_text('{"volume": null, "cs": 0.0}')
        code = main(["verify", "--identity", "main-theorem", "--spectrum", spec_file,
                     "--invariants", inv_file, "--n", "3", "--parity", "even",
                     flag, str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and len(err.strip().splitlines()) == 1

    def test_unwritable_output(self, tmp_path, spec_file, inv_file, capsys):
        code = main(["verify", "--identity", "all", "--spectrum", spec_file,
                     "--invariants", inv_file,
                     "--output", str(tmp_path / "missing" / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write output file" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--identity", "prop-ruelle-dec", "--m", "-1"], "m >= 0"),
        (["--identity", "four-selberg", "--m", "-2"], "m >= 0"),
        (["--identity", "zograf-ratio", "--n", "0"], "n >= 1"),
        (["--identity", "corollary-FG", "--n", "0", "--parity", "odd"], "n >= 1"),
        (["--identity", "reflect-involution", "--samples", "-5"], "samples >= 1"),
        (["--identity", "reflect-involution", "--samples", "0"], "samples >= 1"),
    ])
    def test_bad_parameter_is_usage_error(self, spec_file, capsys, argv, message):
        assert main(["verify", "--spectrum", spec_file, *argv]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("identity", ["ruelle-feq", "main-theorem"])
    def test_missing_eta_is_input_error(self, tmp_path, spec_file, capsys, identity):
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps({"volume": 2.0, "cs": 0.0, "eta": {"1": 0.1}}))
        code = main(["verify", "--identity", identity, "--spectrum", spec_file,
                     "--invariants", str(inv)])
        assert code == 2
        err = capsys.readouterr().err
        assert "eta not supplied" in err and len(err.strip().splitlines()) == 1

    def test_det_chain_reads_no_eta(self, tmp_path, spec_file):
        # the determinant chain cancels volume exponentials only; no eta enters it
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps({"volume": 2.0, "cs": 0.0, "eta": {}}))
        assert main(["verify", "--identity", "det-chain", "--spectrum", spec_file,
                     "--invariants", str(inv), "--output", str(tmp_path / "r.json")]) == 0

    def test_all_runs_the_registry_in_order(self, tmp_path, spec_file, inv_file):
        assert IDENTITY_CHOICES == (*IDENTITIES, "all")
        out = tmp_path / "r.json"
        assert main(["verify", "--identity", "all", "--spectrum", spec_file,
                     "--invariants", inv_file, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        counts = [("prop-ruelle-dec", 3), ("selberg-rho-dec", 3), ("four-selberg", 3),
                  ("rho-selberg", 3), ("zograf-ratio", 2), ("corollary-FG", 2),
                  ("ruelle-feq", 3), ("det-chain", 2), ("reflect-involution", 1),
                  ("main-theorem", 4), ("exact-oracle", 1)]
        assert [r["identity_id"] for r in doc["reports"]] == [
            ident for ident, count in counts for _ in range(count)]
        assert sum(len(r["points"]) for r in doc["reports"]) == 1247
        assert doc["passed"] is True

    def test_identity_needing_invariants(self, spec_file, capsys):
        code = main(["verify", "--identity", "ruelle-feq", "--spectrum", spec_file,
                     "--m", "0"])
        assert code == 2
        assert "--invariants" in capsys.readouterr().err


class TestPredictAndHeat:
    def test_predict_runs(self, tmp_path, spec_file, inv_file):
        out = tmp_path / "p.json"
        code = main(["predict-torsion", "--spectrum", spec_file, "--invariants",
                     inv_file, "--n", "3", "--parity", "even", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 3 and len(doc["value"]) == 2

    def test_predict_below_threshold(self, spec_file, inv_file, capsys):
        code = main(["predict-torsion", "--spectrum", spec_file, "--invariants",
                     inv_file, "--n", "2", "--parity", "even"])
        assert code == 2
        assert "below threshold" in capsys.readouterr().err

    def test_heat_trace_point_and_errors(self, tmp_path, spec_file, inv_file):
        out = tmp_path / "h.json"
        code = main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                     "--m", "0", "--p", "0", "--t", "0.5", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["t"] == 0.5 and doc["identity_term"] > 0
        assert main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                     "--t", "-1.0"]) == 2

    @pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
    def test_heat_trace_non_finite_t(self, spec_file, inv_file, capsys, t):
        # --t inf exited 0 with "t": null
        code = main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                     f"--t={t}"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --t must be finite and positive, got {float(t)!r}\n"

    @pytest.mark.parametrize("t_grid", ["0,1,5", "-1,1,5", "1,2,x"])
    def test_heat_trace_bad_t_grid(self, spec_file, inv_file, capsys, t_grid):
        # a zero end divided, a negative one made a complex ratio, a bad count
        # was reported without naming the flag
        code = main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                     "--fit", f"--t-grid={t_grid}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--t-grid" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--t", "1e-300"],
                                      ["--fit", "--t-grid", "1e-300,1e-299,4"]],
                             ids=["point", "fit"])
    def test_heat_trace_t_too_small(self, spec_file, inv_file, capsys, argv):
        # t ** -1.5 overflowed into a traceback with exit 1
        code = main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file, *argv])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: t=1e-300 is too small: the identity term overflows\n"

    @pytest.mark.parametrize("argv, message", [
        # at t = 1 the rho_127 terms of the length-12 power overflow a double;
        # m = 126 still fits
        (["--m", "127", "--t", "1"], "m=127 is too large: the heat-trace terms of rho_127 "
                                     "overflow a double at power length 12.0"),
        # at fit times the Gaussian keeps the terms small: the work limit refuses m
        (["--m", "100000000", "--fit"], "m=100000000 is too large: 100000001 weights over "
                                        "15 power rows exceed the power budget of 1000000"),
    ], ids=["point", "fit"])
    def test_heat_trace_overflowing_traces_exit_2(self, spec_file, inv_file, capsys, argv,
                                                  message):
        code = entry.main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                           "--p", "0", *argv])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_heat_trace_m_past_the_work_limit_on_an_empty_table(self, spec_file, inv_file,
                                                                 capsys):
        # below the shortest length nothing can overflow; m + 1 weight rows ran
        # until a timeout
        code = entry.main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                           "--m", "100000000", "--t", "1", "--l-cut", "0.1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: m=100000000 is too large: 100000001 weights over 0 power rows "
                       "exceed the power budget of 1000000\n")

    def test_heat_trace_fit(self, tmp_path, spec_file, inv_file):
        out = tmp_path / "f.json"
        code = main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                     "--m", "0", "--p", "0", "--fit", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["a1"] == pytest.approx(math.sqrt(math.pi) / 2, rel=0.01)


def test_l_cut_beyond_l_max_needs_flag(spec_file, capsys):
    code = main(["eval", "--spectrum", spec_file, "--kind", "ruelle-sigma",
                 "--k", "0", "--s", "3,0", "--l-cut", "99"])
    assert code == 2
    assert "--allow-incomplete" in capsys.readouterr().err
    code = main(["eval", "--spectrum", spec_file, "--kind", "ruelle-sigma",
                 "--k", "0", "--s", "3,0", "--l-cut", "99", "--allow-incomplete"])
    assert code == 0


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
@pytest.mark.parametrize("argv, with_spectrum", [
    (["eval", "--kind", "ruelle-sigma", "--k", "0", "--s", "3"], True),
    (["verify", "--identity", "prop-ruelle-dec"], True),
    (["verify", "--identity", "reflect-involution"], False),
    (["verify", "--identity", "exact-oracle"], False),
], ids=["eval", "spectrum-identity", "reflect-involution", "exact-oracle"])
def test_tol_must_be_finite_and_positive(spec_file, capsys, argv, with_spectrum, tol):
    # --tol is verify's pass tolerance alone: eval refuses it as an unknown option
    if with_spectrum:
        argv = [*argv, "--spectrum", spec_file]
    try:
        code = main([*argv, f"--tol={tol}"])
    except SystemExit as exc:  # a usage error
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "--tol" in err and len(err.strip().splitlines()) == 1


def test_power_budget_refuses_before_allocating(tmp_path, capsys):
    # one valid entry of length 1e-6 asks for 1.2e7 powers up to l_cut 12
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({"label": "tiny", "oriented": True, "l_max": 12.0,
                                "entries": [{"length": 1e-6, "angle": 0.5, "spin_sign": 1,
                                             "multiplicity": 1}]}))
    tracemalloc.start()
    try:
        code = main(["eval", "--spectrum", str(spec), "--kind", "ruelle-sigma", "--k", "0",
                     "--s", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "power budget" in err and "12000000" in err and "entries[0]" in err
    assert peak < 10_000_000  # the table would take about 0.8 GB


def test_shortest_length_too_small_for_the_selberg_bound(tmp_path, capsys):
    # 1 - e^-l rounds to 0 for a class of length 1e-300; l_cut 1e-301 keeps
    # the power table empty, so only the tail bound's prefactor sees it
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({"l_max": 1.0, "entries": [
        {"length": 1e-300, "angle": 0.5, "spin_sign": 1, "multiplicity": 1}]}))
    assert entry.main(["eval", "--spectrum", str(spec), "--kind", "selberg-sigma", "--k", "0",
                       "--s", "3", "--l-cut", "1e-301"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "shortest length 1e-300" in err


def test_vanishing_determinant_names_the_class(tmp_path):
    # det(1 - x rho_1) of a class of length 1e-300 is about 1e-601 at every
    # point: no factor 1 - x is exactly 0 (x = 1 - 3e-301 i), but the log of
    # their product underflows a double when it is exponentiated
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({"l_max": 2.0, "entries": [
        {"length": 1e-300, "angle": 0.0, "spin_sign": 1, "multiplicity": 1}]}))
    out = tmp_path / "report.json"
    assert main(["verify", "--identity", "prop-ruelle-dec", "--m", "1",
                 "--spectrum", str(spec), "--output", str(out)]) == 1
    points = json.loads(out.read_text())["points"]
    assert len(points) == 8
    for point in points:
        assert point["flags"] == ["error: exp of the log series "
                                  "(-1383.9590014050793+3.141592653589793j) underflows a double"]


def test_grid_cap_refuses_before_allocating(spec_file, capsys):
    # a million points took 40 MB before the first evaluation
    tracemalloc.start()
    try:
        code = main(["eval", "--spectrum", spec_file, "--kind", "ruelle-sigma", "--k", "0",
                     "--grid", "3,4,1000000,0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --grid allows at most {GRID_POINTS_MAX} points, got 1000000\n"
    assert peak < 1_000_000
    assert main(["eval", "--spectrum", spec_file, "--kind", "ruelle-sigma", "--k", "0",
                 "--grid", f"3,4,{GRID_POINTS_MAX + 1},0"]) == 2


def test_t_grid_cap_refuses_before_allocating(spec_file, inv_file, capsys):
    # a million points ran past 8 s, and 10^8 would build a list of 10^8 floats
    tracemalloc.start()
    try:
        code = main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                     "--fit", "--t-grid", "1e-3,1e-2,100000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --t-grid allows at most {GRID_POINTS_MAX} points, got 100000000\n"
    assert peak < 1_000_000
    assert main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                 "--fit", "--t-grid", f"1e-3,1e-2,{GRID_POINTS_MAX + 1}"]) == 2
    assert main(["heat-trace", "--spectrum", spec_file, "--invariants", inv_file,
                 "--fit", "--t-grid", "1e-3,1e-2,40"]) == 0


def test_samples_over_the_limit_exit_2_before_sampling(capsys, monkeypatch):
    monkeypatch.setattr(identities, "verify_reflection_involution",
                        lambda **kwargs: pytest.fail("sampled"))
    assert main(["verify", "--identity", "reflect-involution",
                 "--samples", str(SAMPLES_MAX + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --samples allows at most {SAMPLES_MAX}, got {SAMPLES_MAX + 1}\n"


def test_ruelle_rho_m_past_the_work_limit_exits_2(spec_file, capsys):
    # 10^7 + 1 Ruelle factors ran past a 15 s timeout
    assert entry.main(["eval", "--kind", "ruelle-rho", "--m", "10000000", "--s", "5000010",
                       "--spectrum", spec_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: m=10000000 is too large: 10000001 weights over 15 power rows "
                   "exceed the power budget of 1000000\n")


@pytest.mark.parametrize("argv, m", [
    (["--identity", "four-selberg", "--m", "100000000"], 100000000),
    (["--identity", "corollary-FG", "--n", "100000000", "--parity", "even"], 199999998),
    (["--identity", "corollary-FG", "--n", "100000000", "--parity", "odd"], 199999999),
    # the brute-force oracle would first build 577 MiB of factors
    (["--identity", "selberg-rho-dec", "--m", "100000"], 100000),
], ids=["four-selberg", "corollary-FG-even", "corollary-FG-odd", "selberg-rho-dec"])
def test_verify_m_past_the_work_limit_exits_2(spec_file, capsys, argv, m):
    assert entry.main(["verify", "--spectrum", spec_file, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: m={m} is too large: {m + 1} weights over 15 power rows "
                   "exceed the power budget of 1000000\n")


def test_verify_on_a_table_past_the_work_limit_flags_every_point(tmp_path, capsys):
    # the table itself is refused, so the check reports it at each grid point
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({"label": "tiny", "oriented": True, "l_max": 12.0,
                                "entries": [{"length": 1e-6, "angle": 0.5, "spin_sign": 1,
                                             "multiplicity": 1}]}))
    assert entry.main(["verify", "--spectrum", str(spec), "--identity", "four-selberg",
                       "--m", "1"]) == 1
    doc = strict_loads(capsys.readouterr().out)
    assert len(doc["points"]) == 8
    assert all(pt["flags"][0].startswith("error: power budget exceeded: l_cut 12.0 needs "
                                         "12000000 powers") for pt in doc["points"])
    # the limit on m needs no table: refused before any grid point
    assert entry.main(["verify", "--spectrum", str(spec), "--identity", "four-selberg",
                       "--m", str(zeta.M_MAX + 1)]) == 2
    assert capsys.readouterr() == (
        "", f"error: m={zeta.M_MAX + 1} is too large: the limit on m is {zeta.M_MAX}\n")


def test_the_determinant_oracle_overflows_only_at_lambda_m(spec_file, capsys):
    # rho_25 traces of the fixture's longer powers pass 1e308, but the
    # determinant oracle multiplies eigenvalue factors and reads no trace:
    # m = 25 passes, and only lambda^600 = e^870 of the class of length 2.9
    # is past a double
    assert entry.main(["verify", "--identity", "prop-ruelle-dec", "--m", "25",
                       "--spectrum", spec_file]) == 0
    doc = strict_loads(capsys.readouterr().out)
    assert doc["passed"] and len(doc["points"]) == 8 and doc["max_residual"] <= 1e-14
    assert entry.main(["verify", "--identity", "prop-ruelle-dec", "--m", "600",
                       "--spectrum", spec_file]) == 1
    doc = strict_loads(capsys.readouterr().out)
    assert not doc["passed"] and len(doc["points"]) == 8
    assert all(pt["residual"] is None and pt["flags"] == [
        "error: lambda^600 of class 2 (length 2.9, m 600) overflows a double"]
        for pt in doc["points"])


@pytest.mark.parametrize("m, index, length", [(700, 1, 2.3), (1000, 0, 2.0)])
def test_an_overflowing_oracle_power_flags_every_point(spec_file, small_spec, capsys, m,
                                                       index, length):
    # lambda^m = e^(mL/2) passes a double from m = 618 on at length 2.3, and
    # from m = 710 on at length 2.0; the oracle refuses it before building any
    # array (m = 20000 took 34 s and 792 MB when it did not)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"^lambda\^20000 of class 0 "):
            identities.selberg_rho_bruteforce(small_spec, 20000, 0, 10003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    tracemalloc.start()
    try:
        code = entry.main(["verify", "--identity", "selberg-rho-dec", "--m", str(m),
                           "--spectrum", spec_file])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    out, err = capsys.readouterr()
    assert err == ""
    doc = strict_loads(out)
    assert doc["passed"] is False and doc["max_residual"] == 0.0 and len(doc["points"]) == 8
    assert all(pt["residual"] is None and pt["flags"] == [
        f"error: lambda^{m} of class {index} (length {length}, m {m}) overflows a double"]
        for pt in doc["points"])
    assert peak < 1_000_000


def test_an_oracle_row_past_its_budget_flags_every_point(capsys):
    # m = 448 on the medium fixture, the last m before lambda^m overflows:
    # 449 x 378 factors per class row over 50 classes took 5-7 s unrefused
    medium = str(Path(fixtures.__file__).parent / "spectrum_medium.json")
    start = time.perf_counter()
    code = entry.main(["verify", "--identity", "selberg-rho-dec", "--m", "448",
                       "--spectrum", medium])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1 and err == "" and elapsed < 1.0
    doc = strict_loads(out)
    assert len(doc["points"]) == 8 and all(pt["residual"] is None and pt["flags"] == [
        "error: the row of class 0 (length 2.010939, m 448) holds 449 x 378 = 169722 "
        "factors, more than 65536"] for pt in doc["points"])


@pytest.fixture
def volume8_file(tmp_path):
    # volume 8 with eta for weights 1-20: the shipped invariants stop at weight
    # 10, so they cannot reach a reflected Selberg value past a double
    path = tmp_path / "volume8.json"
    path.write_text(json.dumps({"volume": 8.0, "cs": 0.1,
                                "eta": {str(k): 0.1 for k in range(1, 21)}}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["main-theorem", "--n", "8", "--parity", "even"],
    ["main-theorem", "--n", "8", "--parity", "odd"],
    ["ruelle-feq", "--m", "16"],
], ids=["main-theorem-even", "main-theorem-odd", "ruelle-feq"])
def test_a_reflected_value_past_a_double_keeps_its_log(spec_file, volume8_file, capsys, argv):
    # a reflected Selberg factor's log passes 709.78, the largest a double's
    # exponential takes (849.7 for main-theorem, 730-890 for ruelle-feq);
    # the checks add logs and never exponentiate such a factor alone
    assert entry.main(["verify", "--identity", *argv,
                       "--spectrum", spec_file, "--invariants", volume8_file]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    doc = strict_loads(out)
    assert doc["passed"] and all(pt["residual"] <= 1e-11 for pt in doc["points"])


@pytest.mark.parametrize("n, parity", [(6, "even"), (9, "odd")])
def test_a_prediction_past_a_double_exits_2(spec_file, volume8_file, capsys, n, parity):
    # with volume 8 the closed form's volume exponential passes a double's range
    # at even n >= 6 and odd n >= 9, and the products of its factors ended in an
    # OverflowError; the n before still fits and reports
    argv = ["predict-torsion", "--spectrum", spec_file, "--invariants", volume8_file,
            "--parity", parity]
    assert entry.main([*argv, "--n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the {parity} prediction at n={n} overflows a double\n"
    assert entry.main([*argv, "--n", str(n - 1)]) == 0
    assert all(math.isfinite(x) for x in strict_loads(capsys.readouterr().out)["value"])


@pytest.mark.parametrize("identity", ["prop-ruelle-dec", "selberg-rho-dec", "all"])
def test_an_oracle_past_a_double_flags_its_points(tmp_path, inv_file, capsys, identity):
    # one class of multiplicity 10^6: the oracles' class-log sums pass 709.78
    # at m = 1, and their exponentials ended in an OverflowError traceback
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"label": "one", "oriented": True, "l_max": 12.0,
                                "entries": [{"length": 1.0, "angle": 0.0, "spin_sign": -1,
                                             "multiplicity": 10 ** 6}]}))
    assert entry.main(["verify", "--identity", identity, "--m", "1", "--spectrum", str(spec),
                       "--invariants", inv_file]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    doc = strict_loads(out)
    reports = doc["reports"] if identity == "all" else [doc]
    overflowed = [pt for r in reports for pt in r["points"]
                  if pt["flags"][0].startswith("error: exp of the log series")]
    assert overflowed and all(pt["residual"] is None for pt in overflowed)
    if identity != "all":
        assert len(overflowed) == len(doc["points"])


def test_main_theorem_adds_the_logs_of_factors_past_a_double(tmp_path, inv_file, capsys):
    # one class of multiplicity 10^6: the Selberg value under one reflected
    # factor has log 74973.6, and the check, which only adds logs, was refused
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"label": "one", "oriented": True, "l_max": 12.0,
                                "entries": [{"length": 1.0, "angle": 0.0, "spin_sign": -1,
                                             "multiplicity": 10 ** 6}]}))
    assert entry.main(["verify", "--identity", "main-theorem", "--n", "2", "--parity", "odd",
                       "--spectrum", str(spec), "--invariants", inv_file]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    (point,) = strict_loads(out)["points"]
    assert math.isfinite(point["residual"]) and point["flags"] == ["reflected"]


# the checks that compare the logs of two evaluated sides, without an oracle
LOG_CHECKS = ("four-selberg", "rho-selberg", "zograf-ratio", "corollary-FG", "ruelle-feq",
              "det-chain")


def one_entry_file(tmp_path, spin, multiplicity=10 ** 6):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"oriented": True, "l_max": 3.0, "entries": [
        {"length": 1.0, "angle": 0.0, "spin_sign": spin, "multiplicity": multiplicity}]}))
    return str(path)


def verify_all(path, inv_file, capsys):
    code = entry.main(["verify", "--identity", "all", "--spectrum", path,
                       "--invariants", inv_file])
    out, err = capsys.readouterr()
    assert err == ""
    return code, strict_loads(out)["reports"]


@pytest.mark.parametrize("spin", [1, -1])
def test_sides_past_a_double_decide_by_their_logs(tmp_path, inv_file, capsys, spin):
    # multiplicity 10^6: every side's log lies far past a double's range, below
    # it for spin +1 and on odd weights above it for spin -1.  Compared as
    # values, both sides underflowed to 0 and passed at residual 0.0, and the
    # odd-weight sides overflowed and failed
    code, reports = verify_all(one_entry_file(tmp_path, spin), inv_file, capsys)
    assert code == 1
    for report in reports:
        if report["identity_id"] in LOG_CHECKS:
            assert report["passed"] and 0.0 < report["max_residual"] <= report["tolerance"]
        elif report["identity_id"] in ("prop-ruelle-dec", "selberg-rho-dec"):
            assert not report["passed"]
            for point in report["points"]:
                (flag,) = point["flags"]
                assert point["residual"] is None and flag.startswith(
                    "error: exp of the log series (")
                assert flag.endswith(" underflows a double" if spin == 1 else "flows a double")
    assert {r["identity_id"] for r in reports} >= set(LOG_CHECKS)


def test_a_wrong_log_past_a_double_fails(tmp_path, inv_file, capsys, monkeypatch):
    # a Ruelle evaluator whose log is 1.5 times the true one passed four-selberg
    # at residual 0.0 when both sides underflowed
    true_rho = identities.ruelle_rho

    def wrong_rho(*args):
        zv = true_rho(*args)
        return dataclasses.replace(zv, log_value=1.5 * zv.log_value)
    monkeypatch.setattr(identities, "ruelle_rho", wrong_rho)
    code, reports = verify_all(one_entry_file(tmp_path, 1), inv_file, capsys)
    assert code == 1
    # every check that reads the Ruelle evaluator fails, and the oracles stay flagged
    failing = {"four-selberg", "rho-selberg", "corollary-FG", "ruelle-feq", "det-chain",
               "prop-ruelle-dec", "selberg-rho-dec"}
    assert all(r["passed"] is (r["identity_id"] not in failing) for r in reports)


def test_a_value_below_a_double_exits_2(tmp_path, capsys):
    # R(sigma_0, 3.5) = e^(-30662.5) printed [0.0, 0.0] with exit 0
    assert entry.main(["eval", "--kind", "ruelle-sigma", "--k", "0", "--s", "3.5",
                       "--spectrum", one_entry_file(tmp_path, 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: exp of the log series (-30662.503221545674+0j) underflows a double\n"


def test_a_prediction_below_a_double_exits_2(tmp_path, inv_file, capsys):
    # F_3(0) = 5.0e-46 on one class of multiplicity 1300: its 12th power
    # rounded to 0, and the prediction [0.0, 0.0] exited 0
    assert entry.main(["predict-torsion", "--spectrum", one_entry_file(tmp_path, 1, 1300),
                       "--invariants", inv_file, "--n", "3", "--parity", "even"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the even prediction at n=3 underflows a double\n"


def test_a_zograf_check_at_large_n_warns_nothing(spec_file, capsys, recwarn):
    # at Re(s) near 2 - n, e^(-Re(s) L) alone overflows in the direct product's k-tail
    assert entry.main(["verify", "--identity", "zograf-ratio", "--n", "100",
                       "--spectrum", spec_file]) == 0
    assert strict_loads(capsys.readouterr().out)["passed"]
    assert not recwarn.list


def test_verify_m_past_the_check_limit_exits_2(spec_file, capsys):
    # up to 40 symmetric-power products of m + 1 weight rows per check:
    # det-chain took 90 s at m = 66665, which the work limit admits on this table
    assert entry.main(["verify", "--identity", "four-selberg", "--m", str(zeta.M_MAX + 1),
                       "--spectrum", spec_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: m={zeta.M_MAX + 1} is too large: the limit on m is {zeta.M_MAX}\n"
    # at the limit the check runs, and the determinant oracle's traces overflow
    assert entry.main(["verify", "--identity", "prop-ruelle-dec", "--m", str(zeta.M_MAX),
                       "--spectrum", spec_file]) == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--kind", "ruelle-sigma", "--k", str(INDEX_MAX + 1), "--s", "3"],
    ["eval", "--kind", "F", "--n", str(-INDEX_MAX - 1), "--s", "3"],
    ["verify", "--identity", "selberg-rho-dec", "--k", str(10 ** 400)],
    ["verify", "--identity", "zograf-ratio", "--n", str(10 ** 400)],
], ids=["eval-k", "eval-n", "verify-k", "verify-n"])
def test_an_index_past_two_to_the_53_is_usage_error(spec_file, capsys, argv):
    # 10^400 ended in an OverflowError when converted to a float
    with pytest.raises(SystemExit) as exc:
        entry.main([*argv, "--spectrum", spec_file])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "invalid index value: '" in err


@pytest.mark.parametrize("where", ["--s=-1", "--grid=-1,3,5,0"])
def test_an_overflowing_value_exits_2(spec_file, capsys, where):
    assert entry.main(["eval", "--kind", "ruelle-sigma", "--k", "1", where,
                       "--spectrum", spec_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: exp of the log series (") and err.count("\n") == 1
    assert err.endswith(") overflows a double\n")


def strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_reports_are_strict_json(tmp_path, spec_file, small_spec):
    out = tmp_path / "e.json"
    # outside the half-plane no bound is claimed: the bound is infinite
    assert main(["eval", "--spectrum", spec_file, "--kind", "ruelle-sigma", "--k", "0",
                 "--s", "1.5,0", "--output", str(out)]) == 0
    doc = strict_loads(out.read_text())
    assert doc[0]["abs_error_bound"] is None
    assert "formal-truncation" in doc[0]["flags"]
    # a grid point outside the half-plane errors: its residual is NaN
    _emit(verify_ruelle_decomposition(small_spec, 0, grid=[1.0]), str(out))
    doc = strict_loads(out.read_text())
    assert all(pt["residual"] is None for pt in doc["points"])
    assert all(pt["flags"][0].startswith("error: ") for pt in doc["points"])


def test_csv_writes_non_finite_as_empty_field(tmp_path, spec_file):
    out = tmp_path / "e.csv"
    # 1.5 lies outside the half-plane (infinite bound); 3.0 inside (finite bound)
    assert main(["eval", "--spectrum", spec_file, "--kind", "ruelle-sigma", "--k", "0",
                 "--grid", "1.5,3.0,2,0.0", "--csv", "--output", str(out)]) == 0
    header, outside, inside = out.read_text().splitlines()
    fields = dict(zip(header.split(","), outside.split(",")))
    assert fields["abs_error_bound"] == ""
    assert "formal-truncation" in fields["flags"]
    assert "inf" not in outside and "nan" not in outside
    bound = dict(zip(header.split(","), inside.split(",")))["abs_error_bound"]
    assert math.isfinite(float(bound))


def test_verify_all_writes_the_same_bytes_cold_and_warm(tmp_path, monkeypatch):
    # the second run in one process reuses the exact and power-table caches
    # the first one filled, and must not change a byte of the report;
    # serial, so that every check fills and reads this process's caches
    monkeypatch.setattr(identities, "_usable_cpus", lambda: 1)
    caches = (exact._q_sqrt_power, exact._u_half_power, exact._denominators, exact._trace_core,
              spectrum._power_table, spectrum._expanded_classes, spectrum._fit_growth,
              zeta._k_top, zeta._SIGMA_LOGS)
    for cache in caches:
        cache.cache_clear()
    here = Path(fixtures.__file__).parent
    for name in ("small", "medium"):
        runs = []
        for run in ("cold", "warm"):
            out = tmp_path / f"{name}-{run}.json"
            assert main(["verify", "--identity", "all",
                         "--spectrum", str(here / f"spectrum_{name}.json"),
                         "--invariants", str(here / "invariants_synthetic.json"),
                         "--output", str(out)]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
    for cache in (exact._denominators, spectrum._power_table):
        assert cache.cache_info().hits > 0
    assert zeta._SIGMA_LOGS.hits > 0


def test_report_keys_are_the_dataclass_fields(small_spec, invariants):
    # a report is its dataclass written field by field: a new field changes
    # the schema, so these key lists pin it (IdentityReport's are pinned in
    # test_identities.py::test_report_json_shape)
    prediction = _strict(predict_torsion_ratio(small_spec, invariants, 3, "even"))
    assert list(prediction) == ["n", "parity", "value", "theta", "f_or_g", "complex_volume"]
    assert list(prediction["complex_volume"]) == ["re", "im"]
    assert len(prediction["value"]) == len(prediction["f_or_g"]) == 2
    heat = _strict(heat_trace_geometric(small_spec, invariants, 1, 0, 0.5))
    assert list(heat) == ["t", "identity_term", "hyperbolic_term", "total", "truncation_flag",
                          "tail_bound"]
    assert len(heat["hyperbolic_term"]) == len(heat["total"]) == 2
    assert _strict(complex(math.inf, 1.0)) == [None, 1.0]


INPUT_OPTIONS = {"--spectrum", "--l-max", "--unoriented", "--invariants"}
EVALUATING_OPTIONS = {"--output", "--l-cut", "--allow-incomplete"}
COMMAND_OPTIONS = {
    "validate": INPUT_OPTIONS | {"--require-eta"},
    "eval": INPUT_OPTIONS - {"--invariants"} | EVALUATING_OPTIONS
    | {"--kind", "--k", "--m", "--n", "--s", "--grid", "--method", "--csv"},
    "verify": INPUT_OPTIONS | EVALUATING_OPTIONS
    | {"--tol", "--identity", "--m", "--k", "--n", "--parity", "--samples",
       "--claimed-invariants", "--reference-spectrum"},
    "predict-torsion": INPUT_OPTIONS | EVALUATING_OPTIONS | {"--n", "--parity"},
    "heat-trace": INPUT_OPTIONS | EVALUATING_OPTIONS | {"--m", "--p", "--t", "--t-grid", "--fit"},
}


def _options(parser) -> set[str]:
    return {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_takes_only_the_options_it_reads():
    assert {command: _options(_subparsers(entry.build_parser(command))[command])
            for command in entry.COMMANDS} == COMMAND_OPTIONS
    assert [len(options) for options in COMMAND_OPTIONS.values()] == [5, 14, 16, 9, 12]
    # the parser entry.main builds for one command sets up no other
    for command in (None, *entry.COMMANDS):
        subparsers = _subparsers(entry.build_parser(command))
        assert list(subparsers) == list(entry.COMMANDS)
        assert [name for name, sp in subparsers.items() if _options(sp)] \
            == ([] if command is None else [command])
