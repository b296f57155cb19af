"""Fuzzing of ``geozeta verify``'s arguments, in process through ``entry.main``.

Whatever identity, spectrum, invariants and parameters ``verify`` is given,
it either reports (exit 0 or 1, strict JSON on stdout whose ``passed``
agrees with the exit code, nothing on stderr) or refuses (exit 2, nothing on
stdout and exactly one line on stderr), raises nothing, warns nothing and
ends within the deadline.

Small values are drawn for speed.  Each explicit limit is drawn on both of
its sides, as a mark resolved against the drawn spectrum, cutoff, identity
and parity: the work limit (``zeta._weight_budget``), ``CHECK_M_MAX``, the
brute-force oracle's overflow refusal, the n thresholds, ``SAMPLES_MAX`` and
``INDEX_MAX``.  An m limit drawn for ``--n`` is taken through m = 2n - 2 + h.
"""

import json
import math
import sys
import warnings
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geozeta import entry, fixtures
from geozeta.chars import eigenvalue
from geozeta.commands import INDEX_MAX, SAMPLES_MAX
from geozeta.identities import CHECK_M_MAX, IDENTITIES, IDENTITY_CHOICES
from geozeta.spectrum import POWER_BUDGET, DomainError, parse_spectrum, powers_up_to

HERE = Path(fixtures.__file__).parent
SPECTRA = {name: parse_spectrum((HERE / f"spectrum_{name}.json").read_text())
           for name in ("small", "medium")}

# each limit as (name, offset): the last value on its admitted side, then the
# first refused one
MARKS = [(name, offset) for name in ("work", "check_m", "overflow", "samples_max", "index")
         for offset in (0, 1)] + [("n_min", -1), ("n_min", 0), ("index", -1)]
ints = st.one_of(st.integers(-2, 4), st.sampled_from(MARKS))
FUZZ = settings(max_examples=60, deadline=timedelta(seconds=30), derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@pytest.fixture(scope="module")
def invariants_files(tmp_path_factory):
    # the shipped invariants, and a volume-8 set with eta for weights 1-20,
    # whose reflected Selberg values pass a double at larger n and m
    big = tmp_path_factory.mktemp("inv") / "volume8.json"
    big.write_text(json.dumps({"label": "volume-8", "volume": 8.0, "cs": 0.1,
                               "eta": {str(k): 0.1 for k in range(1, 21)}}))
    return (str(HERE / "invariants_synthetic.json"), str(big))


def work_limit(spec, l_cut) -> int:
    # the largest m whose m + 1 weight rows over the table stay in the budget
    try:
        rows = len(powers_up_to(spec, l_cut))
    except DomainError:  # the table itself is refused, at every grid point
        rows = 0
    return POWER_BUDGET // max(1, rows) - 1


def overflow_limit(spec) -> int:
    # the largest m whose lambda^m stays finite on every class
    top = max(abs(eigenvalue(cls)) for cls in spec.primitive_classes())
    m = int(math.log(sys.float_info.max) / math.log(top)) + 1
    while True:
        try:
            top ** m
            return m
        except OverflowError:
            m -= 1


def resolve(mark, name, identity, parity, spec, l_cut) -> int:
    if isinstance(mark, int):
        return mark
    limit, offset = mark
    h = int(parity == "odd")
    if limit == "n_min":
        # the main theorem's n >= 3 - h stands in for the checks without a threshold
        return (getattr(IDENTITIES.get(identity), "n_min", None) or (3, 2))[h] + offset
    value = {"work": lambda: work_limit(spec, l_cut), "check_m": lambda: CHECK_M_MAX,
             "overflow": lambda: overflow_limit(spec), "samples_max": lambda: SAMPLES_MAX,
             "index": lambda: INDEX_MAX}[limit]()
    if name == "n" and limit in ("work", "check_m", "overflow"):
        return (value + 2 - h) // 2 + offset  # the n whose m = 2n - 2 + h is at the limit
    return -value if offset < 0 else value + offset


def assert_verify_contract(capsys, argv):
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = entry.main(["verify", *argv])
        except SystemExit as exc:  # an argparse usage error
            rc = exc.code
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    if rc == 2:
        assert out == "" and err.endswith("\n") and len(err.splitlines()) == 1, (out, err)
        return
    assert rc in (0, 1) and err == "", (rc, err)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    doc = json.loads(out, parse_constant=reject)
    assert doc["passed"] is (rc == 0)


@FUZZ
@given(identity=st.sampled_from(IDENTITY_CHOICES), spectrum=st.sampled_from(sorted(SPECTRA)),
       volume8=st.booleans(), parity=st.sampled_from(("even", "odd")),
       m=ints, k=ints, n=ints, samples=ints,
       tol=st.one_of(st.none(), st.sampled_from([1e-300, 1e-12, 1e-8, 1.0, 0.0, -1.0,
                                                 math.inf, math.nan])),
       l_cut=st.one_of(st.none(), st.sampled_from([1e-3, 0.5, 2.0, 6.0, 12.0, 13.0, 100.0,
                                                   0.0, -1.0, math.inf])),
       allow_incomplete=st.booleans())
def test_verify_arguments(capsys, invariants_files, identity, spectrum, volume8, parity, m,
                          k, n, samples, tol, l_cut, allow_incomplete):
    spec = SPECTRA[spectrum]
    cut = l_cut if l_cut is not None and 0 < l_cut < math.inf else spec.l_max
    argv = ["--identity", identity, "--spectrum", str(HERE / f"spectrum_{spectrum}.json"),
            "--invariants", invariants_files[volume8], "--parity", parity]
    for name, mark in (("m", m), ("k", k), ("n", n), ("samples", samples)):
        argv += [f"--{name}", str(resolve(mark, name, identity, parity, spec, cut))]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    if l_cut is not None:
        argv += ["--l-cut", repr(l_cut)]
    if allow_incomplete:
        argv.append("--allow-incomplete")
    assert_verify_contract(capsys, argv)
