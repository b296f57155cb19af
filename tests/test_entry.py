"""The entry point's command table and the lazy package exports.

``geozeta validate`` must start without numpy or any evaluator module, every
command must load only the modules it runs, and a run in a fresh process,
loading only those, must behave exactly as the same call to ``cli.main`` in
this process, where every module is loaded; ``import geozeta.cli`` must still
load every module a function-wrapping tracer patches.
"""

import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import geozeta
from geozeta import cli, entry
from geozeta.continuation import EtaNotSuppliedError
from geozeta.spectrum import DomainError, SpectrumError

SRC = Path(geozeta.__file__).resolve().parent.parent
FIXTURES = SRC / "geozeta" / "fixtures"
SPECTRA = [str(FIXTURES / "spectrum_small.json"), str(FIXTURES / "spectrum_medium.json")]
INVARIANTS = str(FIXTURES / "invariants_synthetic.json")
NOT_ON_VALIDATE = ("numpy", "geozeta.zeta", "geozeta.identities", "geozeta.exact")
TRACED_MODULES = ("spectrum", "zeta", "continuation", "identities", "exact", "heattrace")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _imported(stderr: str) -> set[str]:
    """Module names from the ``-X importtime`` lines of a child's stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def _script_target() -> tuple[str, str]:
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^geozeta\s*=\s*"([\w.]+):(\w+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no geozeta console script"
    return match.group(1), match.group(2)


@pytest.mark.parametrize("spectrum", SPECTRA, ids=["small", "medium"])
def test_python_m_validate_loads_no_numpy(spectrum):
    proc = _python("-X", "importtime", "-m", "geozeta", "validate", "--spectrum", spectrum,
                   "--invariants", INVARIANTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("spectrum ok:")
    loaded = _imported(proc.stderr)
    assert "geozeta.entry" in loaded
    assert not loaded & set(NOT_ON_VALIDATE)


@pytest.mark.parametrize("spectrum", SPECTRA, ids=["small", "medium"])
def test_console_script_validate_loads_no_numpy(spectrum):
    module, function = _script_target()
    code = (f"import json, sys; from {module} import {function}; "
            f"rc = {function}(); print(json.dumps(sorted(sys.modules))); sys.exit(rc)")
    proc = _python("-c", code, "validate", "--spectrum", spectrum)
    assert proc.returncode == 0, proc.stderr
    first, modules = proc.stdout.splitlines()[0], proc.stdout.splitlines()[-1]
    assert first.startswith("spectrum ok:")
    assert not set(json.loads(modules)) & set(NOT_ON_VALIDATE)


def test_cli_import_loads_every_traced_module():
    proc = _python("-c", "import json, sys, geozeta.cli; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert {f"geozeta.{name}" for name in TRACED_MODULES} <= set(json.loads(proc.stdout))


def test_lazy_exports_are_the_defining_modules_objects():
    listed = dir(geozeta)
    for name in geozeta.__all__:
        module = importlib.import_module(f"geozeta.{geozeta._MODULE_OF[name]}")
        assert getattr(geozeta, name) is getattr(module, name), name
        assert name in listed
    from geozeta import parse_spectrum, selberg_sigma
    assert parse_spectrum is geozeta.spectrum.parse_spectrum
    assert selberg_sigma is geozeta.zeta.selberg_sigma
    assert geozeta.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        geozeta.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from geozeta import no_such_name  # noqa: F401


def _validate_cases(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"l_max": 2.0, "entries": [
        {"length": -1.0, "angle": 0.0, "spin_sign": 1, "multiplicity": 1}]}))
    no_eta = tmp_path / "inv.json"
    no_eta.write_text(json.dumps({"volume": 2.0, "cs": 0.0, "eta": {"1": 0.1}}))
    good = ["--spectrum", SPECTRA[1], "--invariants", INVARIANTS]
    return {
        "good": [*good, "--require-eta", "1,-2,0"],
        "missing-spectrum": ["--invariants", INVARIANTS],
        "malformed-spectrum": ["--spectrum", str(bad)],
        "missing-eta": ["--spectrum", SPECTRA[0], "--invariants", str(no_eta),
                        "--require-eta", "1,2"],
        "removed-option": [*good, "--tol", "nan"],
        "unrecognized": [*good, "extra"],
        "help": ["-h"],
    }


def _both_routes(argv, capsys) -> int:
    """Run ``argv`` through ``cli.main`` here, with every module loaded, and
    ``python -m geozeta`` in a child, which loads only what the command runs;
    assert the same exit status, stdout and stderr, and return the status."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors and -h
        rc = exc.code
    out, err = capsys.readouterr()
    proc = _python("-m", "geozeta", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err), argv
    return rc


def test_validate_route_matches_full_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the same width in both
    for case, argv in _validate_cases(tmp_path).items():
        rc = _both_routes(["validate", *argv], capsys)
        assert rc == (0 if case in ("good", "help") else 2), case


# Each command with a bad int, a bad float, a bad choice, a missing required
# option and an unknown option, where it has such an option (``validate`` has
# no int or choice option), plus no command, an unknown command and an
# unrecognized argument holding a line break.
USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["nope"],
    "validate-float": ["validate", "--spectrum", SPECTRA[0], "--l-max", "abc"],
    "validate-missing": ["validate", "--invariants", INVARIANTS],
    "validate-unknown": ["validate", "--spectrum", SPECTRA[0], "--bogus"],
    "validate-line-break": ["validate", "--spectrum", SPECTRA[0], "a\nb"],
    "eval-int": ["eval", "--spectrum", SPECTRA[0], "--kind", "F", "--n", "x"],
    "eval-float": ["eval", "--spectrum", SPECTRA[0], "--kind", "F", "--l-cut", "x"],
    "eval-choice": ["eval", "--spectrum", SPECTRA[0], "--kind", "nope"],
    "eval-missing": ["eval", "--spectrum", SPECTRA[0]],
    "eval-unknown": ["eval", "--spectrum", SPECTRA[0], "--kind", "F", "--bogus", "1"],
    "verify-int": ["verify", "--identity", "all", "--m", "x"],
    "verify-float": ["verify", "--identity", "all", "--l-cut", "x"],
    "verify-choice": ["verify", "--identity", "nope"],
    "verify-missing": ["verify", "--spectrum", SPECTRA[0]],
    "verify-unknown": ["verify", "--identity", "all", "--bogus"],
    "predict-int": ["predict-torsion", "--spectrum", SPECTRA[0], "--n", "x",
                    "--parity", "even"],
    "predict-float": ["predict-torsion", "--spectrum", SPECTRA[0], "--n", "3",
                      "--parity", "even", "--l-cut", "x"],
    "predict-choice": ["predict-torsion", "--spectrum", SPECTRA[0], "--n", "3",
                       "--parity", "nope"],
    "predict-missing": ["predict-torsion", "--spectrum", SPECTRA[0], "--n", "3"],
    "predict-unknown": ["predict-torsion", "--spectrum", SPECTRA[0], "--n", "3",
                        "--parity", "even", "--bogus"],
    "heat-int": ["heat-trace", "--spectrum", SPECTRA[0], "--m", "x"],
    "heat-float": ["heat-trace", "--spectrum", SPECTRA[0], "--t", "x"],
    "heat-choice": ["heat-trace", "--spectrum", SPECTRA[0], "--p", "3"],
    "heat-missing": ["heat-trace", "--t", "1.0"],
    "heat-unknown": ["heat-trace", "--spectrum", SPECTRA[0], "--bogus"],
}


# One good run of each evaluating command on the small fixture, and the
# modules it must not load: those of the commands it does not run, and
# numpy.ma, which np.unique would import for a heat-trace fit.
GOOD_RUNS = {
    "eval": (["eval", "--spectrum", SPECTRA[0], "--kind", "selberg-sigma", "--k", "0",
              "--grid", "3,4,3,0.3"],
             ("geozeta.identities", "geozeta.exact", "geozeta.heattrace",
              "geozeta.continuation", "geozeta.cli")),
    "verify": (["verify", "--spectrum", SPECTRA[0], "--invariants", INVARIANTS,
                "--identity", "det-chain"],
               ("geozeta.heattrace", "geozeta.cli")),
    "predict-torsion": (["predict-torsion", "--spectrum", SPECTRA[0], "--invariants",
                         INVARIANTS, "--n", "3", "--parity", "even"],
                        ("geozeta.identities", "geozeta.exact", "geozeta.cli")),
    "heat-trace": (["heat-trace", "--spectrum", SPECTRA[0], "--invariants", INVARIANTS,
                    "--m", "1", "--p", "1", "--fit"],
                   ("geozeta.identities", "geozeta.exact", "geozeta.cli", "numpy.ma")),
}


@pytest.mark.parametrize("command", GOOD_RUNS)
def test_each_command_loads_only_what_it_runs(command):
    argv, not_loaded = GOOD_RUNS[command]
    proc = _python("-X", "importtime", "-m", "geozeta", *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = _imported(proc.stderr)
    assert {"geozeta.entry", "geozeta.commands"} <= loaded
    assert not loaded & set(not_loaded)


@pytest.mark.parametrize("argv", [["-h"], [], ["nope"]],
                         ids=["help", "no-command", "unknown-command"])
def test_no_command_loads_no_command_module(argv):
    proc = _python("-X", "importtime", "-m", "geozeta", *argv)
    assert proc.returncode == (0 if argv == ["-h"] else 2)
    loaded = _imported(proc.stderr)
    assert "geozeta.entry" in loaded
    assert not loaded & {*NOT_ON_VALIDATE, "geozeta.commands", "geozeta.cli"}


@pytest.mark.parametrize("command", GOOD_RUNS)
def test_every_command_route_matches_full_cli(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the same width in both
    assert _both_routes(GOOD_RUNS[command][0], capsys) == 0
    assert _both_routes([command, "-h"], capsys) == 0


@pytest.mark.parametrize("argv", [*USAGE_ERRORS.values(), ["-h"]], ids=[*USAGE_ERRORS, "help"])
def test_usage_errors_and_top_level_help_match_full_cli(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _both_routes(argv, capsys) == (0 if argv == ["-h"] else 2)


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_print_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        entry.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith("geozeta") and ": error: " in err


@pytest.mark.parametrize("make, attrs", [
    (lambda: SpectrumError("entries[0]: bad length"), {}),
    (lambda: DomainError("l_cut must be positive, got 0.0"), {}),
    (lambda: entry.CliError("this command needs --spectrum"), {}),
    (lambda: EtaNotSuppliedError(2), {"k": 2}),
])
def test_package_exceptions_survive_pickling(make, attrs):
    # a process pool sends a worker's exception back pickled
    exc = make()
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert {name: getattr(back, name) for name in attrs} == attrs
