"""Fuzzing of the arguments of ``geozeta eval``, ``predict-torsion`` and
``heat-trace``, in process through ``entry.main``, with the property of
``test_verify_fuzz.assert_contract``: each command reports (exit 0, strict
JSON or ``eval --csv``'s table on stdout, nothing on stderr) or refuses
(exit 2, one stderr line), raises nothing, warns nothing and ends within the
deadline.

Each run takes one of the two fixture spectra and one of the two invariants
files: the shipped one, and a volume-8 set whose closed forms pass a
double's range at moderate n.  Each explicit limit is drawn on both of its
sides: ``INDEX_MAX`` for every index, ``GRID_POINTS_MAX`` for ``--grid`` and
``--t-grid``, and the work limit (``zeta._weight_budget``) for m.
"""

import math

from hypothesis import example, given
from hypothesis import strategies as st

from geozeta.commands import EVAL_KINDS, GRID_POINTS_MAX, INDEX_MAX
from test_verify_fuzz import FUZZ, HERE, SPECTRA, assert_contract, work_limit

# each limit as (name, offset): the last value on its admitted side, then the
# first refused one
MARKS = [("work", 0), ("work", 1), ("index", 0), ("index", 1), ("index", -1)]
ints = st.one_of(st.integers(-2, 12), st.sampled_from(MARKS))
counts = st.one_of(st.integers(-1, 12),
                   st.sampled_from([GRID_POINTS_MAX, GRID_POINTS_MAX + 1, 10 ** 6]))
reals = st.one_of(st.floats(-5.0, 8.0),
                  st.sampled_from([-800.0, 1e-300, 0.0, 1e6, math.inf, -math.inf, math.nan]))
# small times as well, for a --t-grid that small_time_fit admits
times = st.one_of(st.floats(1e-4, 0.5), reals)
l_cuts = st.one_of(st.none(), st.sampled_from([1e-3, 2.0, 6.0, 13.0, 0.0, math.inf]))


def resolve(mark, spectrum, l_cut) -> int:
    if isinstance(mark, int):
        return mark
    limit, offset = mark
    if limit == "work":
        spec = SPECTRA[spectrum]
        cut = l_cut if l_cut is not None and 0 < l_cut < math.inf else spec.l_max
        return work_limit(spec, cut) + offset
    return -INDEX_MAX if offset < 0 else INDEX_MAX + offset


def common(spectrum, l_cut, allow_incomplete) -> list[str]:
    argv = ["--spectrum", str(HERE / f"spectrum_{spectrum}.json")]
    if l_cut is not None:
        argv += ["--l-cut", repr(l_cut)]
    if allow_incomplete:
        argv.append("--allow-incomplete")
    return argv


@FUZZ
@given(kind=st.sampled_from(EVAL_KINDS), spectrum=st.sampled_from(sorted(SPECTRA)),
       k=st.one_of(st.none(), ints), m=st.one_of(st.none(), ints), n=st.one_of(st.none(), ints),
       grid=st.booleans(), re0=reals, re1=reals, count=counts, im=reals,
       method=st.sampled_from(("auto", "ratio", "direct")), csv=st.booleans(),
       l_cut=l_cuts, allow_incomplete=st.booleans())
# the weight rows' terms passed a double's range in numpy warnings and a
# "-inf + inf in fsum" error
@example(kind="ruelle-rho", spectrum="medium", k=None, m=("work", 0), n=None, grid=False,
         re0=0.0, re1=0.0, count=1, im=0.0, method="auto", csv=True, l_cut=None,
         allow_incomplete=False)
def test_eval_arguments(capsys, kind, spectrum, k, m, n, grid, re0, re1, count, im, method, csv,
                        l_cut, allow_incomplete):
    argv = ["eval", "--kind", kind, "--method", method,
            *common(spectrum, l_cut, allow_incomplete)]
    for name, mark in (("k", k), ("m", m), ("n", n)):
        if mark is not None:
            argv += [f"--{name}", str(resolve(mark, spectrum, l_cut))]
    argv += ["--grid", f"{re0!r},{re1!r},{count},{im!r}"] if grid else ["--s", f"{re0!r},{im!r}"]
    if csv:
        argv.append("--csv")
    assert_contract(capsys, argv)


@FUZZ
@given(spectrum=st.sampled_from(sorted(SPECTRA)), volume8=st.booleans(), n=ints,
       parity=st.sampled_from(("even", "odd")), l_cut=l_cuts, allow_incomplete=st.booleans())
# the closed form passed a double's range in an OverflowError traceback
@example(spectrum="small", volume8=True, n=6, parity="even", l_cut=None, allow_incomplete=False)
def test_predict_torsion_arguments(capsys, invariants_files, spectrum, volume8, n, parity, l_cut,
                                   allow_incomplete):
    assert_contract(capsys, ["predict-torsion", *common(spectrum, l_cut, allow_incomplete),
                             "--invariants", invariants_files[volume8], "--parity", parity,
                             "--n", str(resolve(n, spectrum, l_cut))])


@FUZZ
@given(spectrum=st.sampled_from(sorted(SPECTRA)), volume8=st.booleans(), m=ints,
       p=st.sampled_from((0, 1, 2, -1)), fit=st.booleans(), t=st.one_of(st.none(), times),
       t_grid=st.one_of(st.none(), st.tuples(times, times, counts)), l_cut=l_cuts,
       allow_incomplete=st.booleans())
# a million fit points were built and evaluated for 48 s, past the deadline
@example(spectrum="small", volume8=False, m=0, p=0, fit=True, t=None, t_grid=(1e-3, 1e-2, 10 ** 6),
         l_cut=None, allow_incomplete=False)
def test_heat_trace_arguments(capsys, invariants_files, spectrum, volume8, m, p, fit, t, t_grid,
                              l_cut, allow_incomplete):
    argv = ["heat-trace", *common(spectrum, l_cut, allow_incomplete),
            "--invariants", invariants_files[volume8], "--m", str(resolve(m, spectrum, l_cut)),
            "--p", str(p)]
    if fit:
        argv.append("--fit")
    if t is not None:
        argv += ["--t", repr(t)]
    if t_grid is not None:
        t0, t1, count = t_grid
        argv += ["--t-grid", f"{t0!r},{t1!r},{count}"]
    assert_contract(capsys, argv)
