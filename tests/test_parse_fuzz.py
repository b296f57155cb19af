"""Fuzzing of the input parsers through ``geozeta validate``.

Whatever a spectrum (JSON or CSV) or invariants file holds, ``validate``
either accepts it (exit 0, nothing on stderr) or refuses it with exit 2 and
exactly one line on stderr: never a traceback.  Documents are drawn near
the valid shape, with fields swapped for huge integers, non-finite floats,
strings, nulls and nested values.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geozeta import entry

BIG = 10 ** 400  # an integer literal too large for a float
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

numbers = st.one_of(st.floats(0.0, 13.0), st.integers(-3, 3), st.integers(),
                    st.sampled_from([BIG, -BIG, 2 ** 53, 2 ** 53 + 1, 2 ** 63]),
                    st.floats(allow_nan=True, allow_infinity=True))
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6))
json_values = st.recursive(
    scalars, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                     st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
fields = st.one_of(numbers, numbers, json_values)
FIELD_NAMES = ("length", "angle", "spin_sign", "multiplicity")
entries = st.fixed_dictionaries({}, optional={name: fields for name in FIELD_NAMES})
spectrum_docs = st.one_of(
    json_values,
    st.fixed_dictionaries({"l_max": fields,
                           "entries": st.one_of(st.lists(entries, max_size=4), json_values)},
                          optional={"oriented": json_values, "label": json_values}))
invariants_docs = st.one_of(
    json_values,
    st.fixed_dictionaries({"volume": fields, "cs": fields},
                          optional={"eta": st.one_of(
                              st.dictionaries(st.one_of(st.text(max_size=4),
                                                        st.integers().map(str),
                                                        st.just(str(BIG))), fields, max_size=3),
                              json_values),
                              "label": json_values}))
cells = st.one_of(numbers.map(str), st.sampled_from(["1e400", "-1e400", "nan", "inf", str(BIG), ""]),
                  st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
csv_rows = st.lists(st.lists(cells, min_size=1, max_size=5), max_size=4)
no_surrogates = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


def assert_exit_contract(capsys, argv):
    capsys.readouterr()
    rc = entry.main(["validate", *argv])
    out, err = capsys.readouterr()
    if rc == 0:
        assert err == ""
    else:
        assert rc == 2
        assert err.endswith("\n") and len(err.splitlines()) == 1, err


def dumps(doc) -> str:
    return json.dumps(doc, allow_nan=True)  # NaN and Infinity tokens, as json.loads reads them


@FUZZ
@given(st.one_of(spectrum_docs.map(dumps), no_surrogates))
def test_spectrum_json(tmp_path, capsys, text):
    path = tmp_path / "spectrum.json"
    path.write_text(text, encoding="utf-8")
    assert_exit_contract(capsys, ["--spectrum", str(path)])


@FUZZ
@given(st.booleans(), csv_rows, st.sampled_from(["12", "0.5", "1e400", "nan", "-1"]),
       st.booleans())
def test_spectrum_csv(tmp_path, capsys, header, rows, l_max, unoriented):
    lines = [",".join(FIELD_NAMES)] if header else []
    lines += [",".join(row) for row in rows]
    path = tmp_path / "spectrum.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["--spectrum", str(path), "--l-max", l_max]
    assert_exit_contract(capsys, argv + ["--unoriented"] if unoriented else argv)


@FUZZ
@given(st.one_of(invariants_docs.map(dumps), no_surrogates))
def test_invariants(tmp_path, capsys, text):
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text(dumps({"l_max": 12.0, "entries": [
        {"length": 2.0, "angle": 1.0, "spin_sign": 1, "multiplicity": 1}]}), encoding="utf-8")
    path = tmp_path / "invariants.json"
    path.write_text(text, encoding="utf-8")
    assert_exit_contract(capsys, ["--spectrum", str(spectrum), "--invariants", str(path)])


def test_oversized_numbers_exit_2(tmp_path, capsys):
    # each of these ended in an OverflowError traceback
    entry_doc = {"length": 2.0, "angle": 1.0, "spin_sign": 1, "multiplicity": 1}
    spectra = [{"l_max": BIG, "entries": []}]
    for name, value in (("length", BIG), ("multiplicity", BIG), ("multiplicity", math.inf),
                        ("spin_sign", math.inf), ("multiplicity", 1e300)):
        spectra.append({"l_max": 12.0, "entries": [dict(entry_doc, **{name: value})]})
    for doc in spectra:
        path = tmp_path / "spectrum.json"
        path.write_text(dumps(doc).replace("Infinity", "1e400"), encoding="utf-8")
        assert_exit_contract(capsys, ["--spectrum", str(path)])
        assert entry.main(["validate", "--spectrum", str(path)]) == 2
    for row in ("2,1,1,1e400", "2,1,1e400,1"):
        path = tmp_path / "spectrum.csv"
        path.write_text(",".join(FIELD_NAMES) + "\n" + row + "\n", encoding="utf-8")
        assert entry.main(["validate", "--spectrum", str(path), "--l-max", "12"]) == 2
    spectrum = tmp_path / "ok.json"
    spectrum.write_text(dumps({"l_max": 12.0, "entries": []}), encoding="utf-8")
    for doc in ({"volume": BIG, "cs": 0.0}, {"volume": 1.0, "cs": BIG},
                {"volume": 1.0, "cs": math.inf}, {"volume": 1.0, "cs": 0.0, "eta": {"1": BIG}}):
        path = tmp_path / "invariants.json"
        path.write_text(dumps(doc), encoding="utf-8")
        assert entry.main(["validate", "--spectrum", str(spectrum),
                           "--invariants", str(path)]) == 2
    capsys.readouterr()


def test_deep_nesting_and_huge_csv_fields_exit_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert entry.main(["validate", "--spectrum", str(deep)]) == 2
    ok = tmp_path / "ok.json"
    ok.write_text(dumps({"l_max": 12.0, "entries": []}), encoding="utf-8")
    assert entry.main(["validate", "--spectrum", str(ok), "--invariants", str(deep)]) == 2
    wide = tmp_path / "wide.csv"
    wide.write_text(",".join(FIELD_NAMES) + "\n2,1,1," + "1" * 200_000 + "\n", encoding="utf-8")
    assert entry.main(["validate", "--spectrum", str(wide), "--l-max", "12"]) == 2
