"""The evaluating commands: ``eval``, ``verify``, ``predict-torsion`` and
``heat-trace``, each with its argument-setup function.

Exit-status contract, stable across commands: 0 success / verification pass,
1 verification failure, 2 input or usage error.  Outputs are byte-identical
for identical inputs: a report is its dataclass written field by field in
declaration order (the dataclass is its only schema), floats print in
shortest round-trip form, and every check computes in one fixed sequence,
whichever process of a two-process ``verify --identity all`` runs it.
``verify`` reads its checks from the identity registry
(``identities.IDENTITIES``).  Report rendering is data-only (JSON); plotting
is out of scope.

At load time this module imports only ``entry`` and ``spectrum``, neither
of which loads numpy.  Each ``cmd_*`` imports the evaluator modules it runs
when it runs, and ``verify_arguments`` imports ``identities`` for the check
names, so ``entry.main`` serving one command loads that command's modules
and no others.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .entry import EXIT_OK, CliError, _load_invariants, _load_spectrum, input_options
from .spectrum import LengthSpectrum

if TYPE_CHECKING:
    from .zeta import EvalParams

EXIT_VERIFY_FAIL = 1

EVAL_KINDS = ("ruelle-sigma", "selberg-sigma", "ruelle-rho", "selberg-rho", "F", "G")

# Most points one ``eval --grid`` may ask for, refused before any is built.
# The benchmark's largest grid has 80.
GRID_POINTS_MAX = 10_000
# Most samples ``verify --samples`` may ask for, refused before any is drawn.
# The battery draws 1000.
SAMPLES_MAX = 10_000
# Largest magnitude of --k, --m and --n: the evaluators mix indices into float
# arithmetic, and every integer up to it is exact in a double.
INDEX_MAX = 2 ** 53


def _strict(obj):
    # reports are strict JSON: a dataclass is its fields in declaration order, a
    # complex is [re, im], and non-finite floats become null (the flags say why)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return [_strict(obj.real), _strict(obj.imag)]
    if dataclasses.is_dataclass(obj):
        return {f.name: _strict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def index(text: str) -> int:
    """The value of an index option: an int of magnitude at most ``INDEX_MAX``."""
    if abs(value := int(text)) > INDEX_MAX:
        raise ValueError(text)
    return value


def _csv_number(x: float) -> str:
    # the CSV counterpart of the JSON null: a non-finite number is an empty field
    return repr(x) if math.isfinite(x) else ""


def _write(text: str, output: str | None) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write output file: {exc}") from None


def _emit(doc, output: str | None) -> None:
    _write(json.dumps(_strict(doc), indent=2, allow_nan=False) + "\n", output)


def _params(args, spec: LengthSpectrum) -> EvalParams:
    from .zeta import EvalParams
    l_cut = args.l_cut if args.l_cut is not None else spec.l_max
    if l_cut > spec.l_max and not args.allow_incomplete:
        raise CliError(
            f"l_cut {l_cut} exceeds the spectrum's completeness cutoff {spec.l_max}; "
            "pass --allow-incomplete to proceed with flagged results")
    return EvalParams(l_cut)


def _grid_points(args) -> list[complex]:
    if args.s is not None and args.grid is not None:
        raise CliError("--s and --grid are mutually exclusive")
    if args.s is not None:
        flag, text = "--s", args.s
        usage = f"--s expects 're' or 're,im', got {text!r}"
        parts = text.split(",")
        if len(parts) > 2:
            raise CliError(usage)
        try:
            re = float(parts[0])
            im = float(parts[1]) if len(parts) > 1 else 0.0
        except ValueError:
            raise CliError(usage) from None
        points = [complex(re, im)]
    elif args.grid is not None:
        flag, text = "--grid", args.grid
        parts = text.split(",")
        if len(parts) != 4:
            raise CliError(f"--grid expects 're0,re1,n-points,im', got {text!r}")
        try:
            re0, re1, npts, im = float(parts[0]), float(parts[1]), int(parts[2]), float(parts[3])
        except ValueError:
            raise CliError(f"--grid expects 're0,re1,n-points,im', got {text!r}") from None
        if npts < 1:
            raise CliError("--grid needs at least one point")
        if npts > GRID_POINTS_MAX:
            raise CliError(f"--grid allows at most {GRID_POINTS_MAX} points, got {npts}")
        if npts == 1:
            points = [complex(re0, im)]
        else:
            step = (re1 - re0) / (npts - 1)
            points = [complex(re0 + j * step, im) for j in range(npts)]
    else:
        raise CliError("one of --s or --grid is required")
    if not all(cmath.isfinite(s) for s in points):
        raise CliError(f"{flag} must give finite points, got {text!r}")
    return points


def _t_grid_points(t_grid: str) -> list[float]:
    usage = f"--t-grid expects 't0,t1,n-points' with t0, t1 finite and positive, got {t_grid!r}"
    parts = t_grid.split(",")
    if len(parts) != 3:
        raise CliError(usage)
    try:
        t0, t1, npts = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliError(usage) from None
    if not all(0 < t < math.inf for t in (t0, t1)):
        raise CliError(usage)
    if npts < 4:
        raise CliError("--t-grid needs >= 4 points for a fit")
    ratio = (t1 / t0) ** (1.0 / (npts - 1))
    return [t0 * ratio ** j for j in range(npts)]


def _evaluating_options(sp) -> None:
    """Add the options of every evaluating command: report file and cutoff."""
    sp.add_argument("--output", default=None, help="write the report here instead of stdout")
    sp.add_argument("--l-cut", type=float, default=None,
                    help="truncation cutoff (default: the spectrum's l_max)")
    sp.add_argument("--allow-incomplete", action="store_true",
                    help="permit l_cut beyond l_max (results flagged)")


# ---------------------------------------------------------------------------
# eval

def _zeta_point(spec, p, args, s: complex):
    from .zeta import ruelle_rho, ruelle_sigma, selberg_rho, selberg_sigma, zograf_F, zograf_G
    kind = args.kind
    if kind == "ruelle-sigma":
        return ruelle_sigma(spec, _need(args, "k"), s, p)
    if kind == "selberg-sigma":
        return selberg_sigma(spec, _need(args, "k"), s, p)
    if kind == "ruelle-rho":
        return ruelle_rho(spec, _need(args, "m"), s, p)
    if kind == "selberg-rho":
        return selberg_rho(spec, _need(args, "m"), args.k if args.k is not None else 0, s, p)
    if kind == "F":
        return zograf_F(spec, _need(args, "n"), s, p, method=args.method)
    if kind == "G":
        return zograf_G(spec, _need(args, "n"), s, p, method=args.method)
    raise CliError(f"unknown kind {kind!r}")


def _need(args, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        raise CliError(f"--kind {args.kind} requires --{name}")
    return value


def cmd_eval(args) -> int:
    spec = _load_spectrum(args)
    p = _params(args, spec)
    points = _grid_points(args)
    values = [_zeta_point(spec, p, args, s) for s in points]
    if args.csv:
        # lossy export: log_value and per-flag structure dropped
        lines = ["s_re,s_im,value_re,value_im,abs_error_bound,in_convergence_domain,flags"]
        for s, zv in zip(points, values):
            nums = (s.real, s.imag, zv.value.real, zv.value.imag, zv.abs_error_bound)
            lines.append(",".join(_csv_number(x) for x in nums)
                         + f",{int(zv.in_convergence_domain)},{';'.join(zv.flags)}")
        _write("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    doc = [
        {
            "s": s,
            "value": zv.value,
            "abs_error_bound": zv.abs_error_bound,
            "in_convergence_domain": zv.in_convergence_domain,
            "flags": zv.flags,
        }
        for s, zv in zip(points, values)
    ]
    _emit(doc, args.output)
    return EXIT_OK


def eval_arguments(sp) -> None:
    """Set up the ``eval`` (sub)parser ``sp``."""
    input_options(sp, invariants=False)
    _evaluating_options(sp)
    sp.add_argument("--kind", required=True, choices=EVAL_KINDS)
    sp.add_argument("--k", type=index, default=None, help="character weight")
    sp.add_argument("--m", type=index, default=None, help="symmetric-power index")
    sp.add_argument("--n", type=index, default=None, help="Zograf product index")
    sp.add_argument("--s", default=None, help="evaluation point 're,im'")
    sp.add_argument("--grid", default=None, help="'re0,re1,n-points,im'")
    sp.add_argument("--method", default="auto", choices=("auto", "ratio", "direct"),
                    help="evaluation path for F/G")
    sp.add_argument("--csv", action="store_true",
                    help="lossy CSV table instead of the canonical JSON")
    sp.set_defaults(fn=cmd_eval)


# ---------------------------------------------------------------------------
# verify

def _identity_param(args, name: str):
    # the main theorem's side files are loaded only when given
    if name == "claimed":
        path = args.claimed_invariants
        return _load_invariants(args, name=path) if path else None
    if name == "reference":
        path = args.reference_spectrum
        return _load_spectrum(args, name=path) if path else None
    return getattr(args, name)


def cmd_verify(args) -> int:
    from .identities import IDENTITIES, battery_reports, run_identity
    if not 0 < args.tol < math.inf:
        raise CliError(f"--tol must be finite and positive, got {args.tol!r}")
    if args.samples > SAMPLES_MAX:
        raise CliError(f"--samples allows at most {SAMPLES_MAX}, got {args.samples}")
    entries = list(IDENTITIES.values()) if args.identity == "all" else [IDENTITIES[args.identity]]
    spec = inv = p = None
    if any(entry.needs_spectrum for entry in entries):
        spec = _load_spectrum(args)
        inv = _load_invariants(args, required=False)
        p = _params(args, spec)
    if inv is None and any(entry.needs_invariants for entry in entries):
        raise CliError("this identity needs --invariants")
    if args.identity == "all":
        reports = battery_reports(spec, inv, p=p, tol=args.tol)
        passed = all(r.passed for r in reports)
        doc = {"passed": passed, "reports": reports}
    else:
        params = {name: _identity_param(args, name) for name in entries[0].params}
        doc = run_identity(args.identity, spec, inv, p, args.tol, **params)
        passed = doc.passed
    _emit(doc, args.output)
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def verify_arguments(sp) -> None:
    """Set up the ``verify`` (sub)parser ``sp``."""
    from .identities import IDENTITY_CHOICES
    input_options(sp, spectrum_required=False)  # exact-oracle, reflect-involution read none
    _evaluating_options(sp)
    sp.add_argument("--tol", type=float, default=1e-8, help="pass tolerance of each identity")
    sp.add_argument("--identity", required=True, choices=IDENTITY_CHOICES)
    sp.add_argument("--m", type=index, default=0)
    sp.add_argument("--k", type=index, default=0)
    sp.add_argument("--n", type=index, default=3)
    sp.add_argument("--parity", default="even", choices=("even", "odd"))
    sp.add_argument("--samples", type=int, default=1000,
                    help="sample count for reflect-involution")
    sp.add_argument("--claimed-invariants", default=None,
                    help="main-theorem only: compare the pipeline against these "
                         "independently asserted invariants")
    sp.add_argument("--reference-spectrum", default=None,
                    help="main-theorem only: trusted spectrum for the reflected "
                         "factors, cross-checked against --spectrum")
    sp.set_defaults(fn=cmd_verify)


# ---------------------------------------------------------------------------
# predict-torsion and heat-trace

def cmd_predict_torsion(args) -> int:
    from .torsion import predict_torsion_ratio
    spec = _load_spectrum(args)
    inv = _load_invariants(args)
    p = _params(args, spec)
    _emit(predict_torsion_ratio(spec, inv, args.n, args.parity, p), args.output)
    return EXIT_OK


def predict_torsion_arguments(sp) -> None:
    """Set up the ``predict-torsion`` (sub)parser ``sp``."""
    input_options(sp)
    _evaluating_options(sp)
    sp.add_argument("--n", type=index, required=True)
    sp.add_argument("--parity", required=True, choices=("even", "odd"))
    sp.set_defaults(fn=cmd_predict_torsion)


def cmd_heat_trace(args) -> int:
    from .heattrace import heat_trace_geometric, small_time_fit
    spec = _load_spectrum(args)
    inv = _load_invariants(args)
    p = _params(args, spec)
    if args.fit:
        grid = _t_grid_points(args.t_grid) if args.t_grid else None
        a1, a2 = small_time_fit(spec, inv, args.m, args.p, grid, p)
        _emit({"m": args.m, "p": args.p, "a1": a1, "a2": a2}, args.output)
        return EXIT_OK
    if args.t is None:
        raise CliError("heat-trace needs --t (or --fit with an optional --t-grid)")
    if not math.isfinite(args.t):
        raise CliError(f"--t must be finite and positive, got {args.t!r}")
    _emit(heat_trace_geometric(spec, inv, args.m, args.p, args.t, p), args.output)
    return EXIT_OK


def heat_trace_arguments(sp) -> None:
    """Set up the ``heat-trace`` (sub)parser ``sp``."""
    input_options(sp)
    _evaluating_options(sp)
    sp.add_argument("--m", type=index, default=0, help="symmetric-power index")
    sp.add_argument("--p", type=int, default=0, choices=(0, 1), help="form degree")
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--t-grid", default=None, help="'t0,t1,n-points' geometric grid for --fit")
    sp.add_argument("--fit", action="store_true", help="fit small-time coefficients")
    sp.set_defaults(fn=cmd_heat_trace)
