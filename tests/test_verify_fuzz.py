"""Fuzzing of ``geozeta verify``'s arguments, in process through ``entry.main``.

Whatever identity, spectrum, invariants and parameters ``verify`` is given,
it either reports (exit 0 or 1, strict JSON on stdout whose ``passed``
agrees with the exit code, nothing on stderr) or refuses (exit 2, nothing on
stdout and exactly one line on stderr), raises nothing, warns nothing and
ends within the deadline.  ``assert_contract`` checks this for any command.
The arguments are fuzzed on the two fixture spectra, and the spectrum's
contents on one-entry spectra: any length, angle, spin and multiplicity up
to 10^9, whose log sums pass a double's range in either direction.

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

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geozeta import entry, fixtures
from geozeta.chars import eigenvalue
from geozeta.commands import INDEX_MAX, SAMPLES_MAX
from geozeta.identities import CHECK_M_MAX, IDENTITIES, IDENTITY_CHOICES
from geozeta.spectrum import TWO_PI, POWER_BUDGET, DomainError, parse_spectrum, powers_up_to

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


def assert_contract(capsys, argv):
    """Run ``geozeta *argv`` in process: it reports (exit 0, or 1 for a
    failed verification, strict JSON or a ``--csv`` table on stdout, nothing
    on stderr) or refuses (exit 2, nothing on stdout, one stderr line), and
    warns nothing."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = entry.main(argv)
        except SystemExit as exc:  # an argparse usage error
            rc = exc.code
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    if rc == 2:
        assert out == "" and err.endswith("\n") and len(err.splitlines()) == 1, (out, err)
        return
    assert rc in ((0, 1) if argv[0] == "verify" else (0,)) and err == "", (rc, err)
    if "--csv" in argv:
        assert out.startswith("s_re,s_im,")
        return

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    doc = json.loads(out, parse_constant=reject)
    if argv[0] == "verify":
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
    assert_contract(capsys, ["verify", *argv])


@FUZZ
@given(identity=st.sampled_from(IDENTITY_CHOICES),
       length=st.one_of(st.floats(1e-3, 12.0), st.sampled_from([1e-300, 1e-17, 0.05, 1.0, 12.0])),
       angle=st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), st.sampled_from([0.0, math.pi])),
       spin=st.sampled_from((1, -1)),
       multiplicity=st.one_of(st.integers(1, 10 ** 9), st.sampled_from([1, 10 ** 6, 10 ** 9])),
       oriented=st.booleans(), volume8=st.booleans(), parity=st.sampled_from(("even", "odd")),
       m=st.integers(0, 3), k=st.integers(-2, 2), n=st.integers(0, 5))
# the determinant oracle's class-log sum passed a double's range in an
# OverflowError traceback
@example(identity="prop-ruelle-dec", length=1.0, angle=0.0, spin=-1, multiplicity=10 ** 6,
         oriented=True, volume8=False, parity="even", m=1, k=0, n=3)
# both sides finite, of modulus past a double's range: |lhs| raised OverflowError
@example(identity="prop-ruelle-dec", length=1.0, angle=0.8999999999999999, spin=-1,
         multiplicity=11548, oriented=True, volume8=False, parity="even", m=1, k=0, n=3)
def test_verify_one_entry_spectra(capsys, invariants_files, tmp_path_factory, identity, length,
                                  angle, spin, multiplicity, oriented, volume8, parity, m, k, n):
    path = tmp_path_factory.getbasetemp() / "one-entry.json"
    path.write_text(json.dumps({"label": "one", "oriented": oriented, "l_max": 12.0,
                                "entries": [{"length": length, "angle": angle, "spin_sign": spin,
                                             "multiplicity": multiplicity}]}))
    assert_contract(capsys, ["verify", "--identity", identity, "--spectrum", str(path),
                             "--invariants", invariants_files[volume8], "--parity", parity,
                             "--m", str(m), "--k", str(k), "--n", str(n), "--samples", "20"])
