"""Tests of the benchmark's own parts: generator, output checks, tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run
import specgen

WORKLOAD_MAKERS = [(name, spec[0], spec[1]) for name, spec in sorted(run.WORKLOADS.items())]


def _one_cycle(make, cycle: int, work: Path, seed: int) -> list[run.Request]:
    return [make(work, seed * 100_000 + i, i) for i in range(cycle)]


@pytest.mark.parametrize("name,make,cycle", WORKLOAD_MAKERS)
def test_same_seed_gives_byte_identical_files(tmp_path, name, make, cycle):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for a, b in zip(_one_cycle(make, cycle, first, 7), _one_cycle(make, cycle, second, 7)):
        assert a.spectrum.read_bytes() == b.spectrum.read_bytes()
        assert a.invariants.read_bytes() == b.invariants.read_bytes()
        assert a.argv[:2] == b.argv[:2] and a.params == b.params
    other = make(tmp_path, 8 * 100_000, 0)
    assert other.spectrum.read_bytes() != (first / f"spectrum-{7 * 100_000}.json").read_bytes()


@pytest.mark.parametrize("name,make,cycle", WORKLOAD_MAKERS)
def test_every_generated_file_passes_geozeta_validate(tmp_path, name, make, cycle):
    for req in _one_cycle(make, cycle, tmp_path, 3):
        proc = subprocess.run(
            [sys.executable, "-m", "geozeta", "validate", "--spectrum", str(req.spectrum),
             "--invariants", str(req.invariants), "--require-eta", "1,2,3,4,5,6,7,8"],
            env=run._child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_spectrum_shape():
    doc = specgen.spectrum_doc(5, 300, 2.0, 2.5, oriented=False, mult_spread=2)
    lengths = [e["length"] for e in doc["entries"]]
    assert len(lengths) == 300 and lengths == sorted(lengths)
    assert lengths[0] == 2.0 and max(lengths) <= 4.5
    assert all(0.0 <= e["angle"] <= math.pi for e in doc["entries"])
    assert {e["multiplicity"] for e in doc["entries"]} <= {1, 2, 3}
    # density grows like e^(2L): the upper half of the window holds most entries
    assert sum(x > 3.25 for x in lengths) > 0.8 * len(lengths)


def test_strict_loads_rejects_non_finite_tokens():
    assert run.strict_loads(b'{"a": [1.5, -2]}') == {"a": [1.5, -2]}
    for token in (b"NaN", b"Infinity", b"-Infinity"):
        with pytest.raises(ValueError):
            run.strict_loads(b'{"a": ' + token + b"}")


def test_checks_catch_a_wrong_value(tmp_path):
    req = run.eval_grid(tmp_path, 11, 1)  # ruelle-rho slot
    outcome = run.execute(req, tmp_path, traced=False)
    assert outcome.rc == 0
    assert run.check_report(req, outcome.report) == ("", req.params["points"])
    doc = json.loads(outcome.report)
    j = req.params["sampled"][0]
    doc[j]["value"][0] *= 1.0 + 1e-6
    error, _ = run.check_report(req, json.dumps(doc).encode())
    assert "relative difference" in error


def test_traced_run_matches_untraced_and_nests_spans(tmp_path):
    req = run.census_sweep(tmp_path, 12, 0)  # predict-torsion slot
    outcome = run.execute(req, tmp_path, traced=True)
    run.judge(outcome, traced=True)
    assert outcome.error == ""
    assert outcome.report == outcome.traced_report
    spans = outcome.spans["spans"]
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[2] == 0]
    assert [s[1] for s in roots] == ["cli.main"]
    names = {s[1] for s in spans}
    assert {"spectrum.parse_spectrum", "zeta.zograf", "zeta.selberg_sigma",
            "spectrum.powers_up_to", "spectrum.growth_fit"} <= names
    for span_id, name, parent, start, end, self_s, _ in spans:
        assert start <= end and self_s >= 0.0
        if parent:
            assert by_id[parent][3] <= start and end <= by_id[parent][4]
    metrics = run.layer_metrics([outcome])
    assert metrics["zeta.zograf.calls"][0] == 1
    assert metrics["spectrum.power_rebuild_ratio"][0] >= 1.0


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile([1.0] * 10) is None
    q, value = run.tail_percentile(list(range(1, 101)))
    assert q == 90 and value == 90


def test_tracer_skips_missing_names_and_counts_each_powers_tuple_once(monkeypatch):
    import geozeta.cli  # noqa: F401  (loads every module the tracer patches)
    import geozeta.spectrum
    import tracelaunch

    cached = (1, 2, 3)
    monkeypatch.setattr(geozeta.spectrum, "powers_up_to", lambda spec, l_cut: cached)
    monkeypatch.setitem(tracelaunch.SPANNED, ("spectrum", "no_such_function"), "spectrum.gone")
    monkeypatch.setitem(tracelaunch.SPANNED, ("spectrum", "NoSuchClass.fit"), "spectrum.gone")
    monkeypatch.setattr(tracelaunch, "COUNTED", {})
    for key, module in list(sys.modules.items()):  # undo every rebinding afterwards
        if key == "geozeta" or key.startswith("geozeta."):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)
    monkeypatch.setattr(geozeta.spectrum.GrowthModel, "fit",
                        vars(geozeta.spectrum.GrowthModel)["fit"])
    tracer = tracelaunch.Tracer()
    tracer.install()
    geozeta.spectrum.powers_up_to(None, 1.0)
    geozeta.spectrum.powers_up_to(None, 1.0)
    assert [s[6] for s in tracer.spans] == [3, 3]  # powers_built counts every call
    assert tracer.counts == {"spectrum.powers_new": 3}  # the same tuple is built once
