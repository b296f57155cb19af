"""The stdlib-only entry point and the lazy package exports.

``geozeta validate`` must start without numpy or any evaluator module, and
must behave exactly as the full CLI does; ``import geozeta.cli`` must still
load every module a function-wrapping tracer patches.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import geozeta
from geozeta import cli, entry

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


def test_validate_route_matches_full_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the same width in both
    for case, argv in _validate_cases(tmp_path).items():
        argv = ["validate", *argv]
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors and -h
            rc = exc.code
        out, err = capsys.readouterr()
        proc = _python("-m", "geozeta", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err), case
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


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_print_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        entry.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith("geozeta") and ": error: " in err
