"""Command-line front end: validation, evaluation grids, verification
batteries, torsion prediction, and heat traces, all as machine-readable JSON.

Exit-status contract, stable across commands: 0 success / verification pass,
1 verification failure, 2 input or usage error.  Outputs are byte-identical
for identical inputs: every dict is built in a fixed key order, floats print
in shortest round-trip form, and every computation runs in one fixed
sequence.  ``verify`` reads its checks from the identity registry
(``identities.IDENTITIES``).  Report rendering is data-only (JSON); plotting
is out of scope.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .continuation import ManifoldInvariants, parse_invariants
from .heattrace import heat_trace_geometric, small_time_fit
from .identities import IDENTITIES, battery_reports, predict_torsion_ratio, run_identity
from .spectrum import LengthSpectrum, SpectrumError, parse_spectrum, parse_spectrum_csv
from .zeta import EvalParams, ruelle_rho, ruelle_sigma, selberg_rho, selberg_sigma, zograf_F, zograf_G

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2

IDENTITY_CHOICES = (*IDENTITIES, "all")

EVAL_KINDS = ("ruelle-sigma", "selberg-sigma", "ruelle-rho", "selberg-rho", "F", "G")


class CliError(Exception):
    """Input/usage error; maps to exit status 2."""


def _strict(obj):
    # reports are strict JSON: non-finite floats become null, the flags say why
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


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


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}") from None


def _load_spectrum(args, name: str | None = None) -> LengthSpectrum:
    """The --spectrum file, or the spectrum file ``name`` read the same way."""
    name = args.spectrum if name is None else name
    if name is None:
        raise CliError("this command needs --spectrum")
    path = Path(name)
    text = _read_text(path, "spectrum")
    try:
        if path.suffix.lower() == ".csv":
            if args.l_max is None:
                raise CliError("CSV spectra need --l-max (the completeness cutoff)")
            return parse_spectrum_csv(text, args.l_max,
                                      oriented=not args.unoriented,
                                      label=path.stem)
        return parse_spectrum(text)
    except SpectrumError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_invariants(args, required: bool = True,
                     name: str | None = None) -> ManifoldInvariants | None:
    """The --invariants file, or the invariants file ``name`` read the same way."""
    name = args.invariants if name is None else name
    if name is None:
        if required:
            raise CliError("this command needs --invariants")
        return None
    text = _read_text(Path(name), "invariants")
    try:
        return parse_invariants(text)
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from None


def _params(args, spec: LengthSpectrum) -> EvalParams:
    l_cut = args.l_cut if args.l_cut is not None else spec.l_max
    if l_cut > spec.l_max and not args.allow_incomplete:
        raise CliError(
            f"l_cut {l_cut} exceeds the spectrum's completeness cutoff {spec.l_max}; "
            "pass --allow-incomplete to proceed with flagged results")
    return EvalParams(l_cut, args.tol)


def _grid_points(args) -> list[complex]:
    if args.s is not None and args.grid is not None:
        raise CliError("--s and --grid are mutually exclusive")
    if args.s is not None:
        parts = args.s.split(",")
        try:
            re = float(parts[0])
            im = float(parts[1]) if len(parts) > 1 else 0.0
        except (ValueError, IndexError):
            raise CliError(f"--s expects 're' or 're,im', got {args.s!r}") from None
        return [complex(re, im)]
    if args.grid is not None:
        parts = args.grid.split(",")
        if len(parts) != 4:
            raise CliError(f"--grid expects 're0,re1,n-points,im', got {args.grid!r}")
        try:
            re0, re1, npts, im = float(parts[0]), float(parts[1]), int(parts[2]), float(parts[3])
        except ValueError:
            raise CliError(f"--grid expects 're0,re1,n-points,im', got {args.grid!r}") from None
        if npts < 1:
            raise CliError("--grid needs at least one point")
        if npts == 1:
            return [complex(re0, im)]
        step = (re1 - re0) / (npts - 1)
        return [complex(re0 + j * step, im) for j in range(npts)]
    raise CliError("one of --s or --grid is required")


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


# ---------------------------------------------------------------------------
# Commands

def cmd_validate(args) -> int:
    try:
        spec = _load_spectrum(args)
    except CliError as exc:
        print(f"invalid spectrum: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"spectrum ok: {len(spec.entries)} entries, l_max={spec.l_max}, "
          f"oriented={spec.oriented}, label={spec.label!r}")
    inv = None
    if args.invariants is not None:
        try:
            inv = _load_invariants(args)
        except CliError as exc:
            print(f"invalid invariants: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"invariants ok: volume={inv.volume}, cs={inv.cs}, "
              f"eta weights={sorted(inv.eta)}")
    if args.require_eta:
        if inv is None:
            print("--require-eta given but no --invariants file", file=sys.stderr)
            return EXIT_INPUT
        try:
            wanted = [int(x) for x in args.require_eta.split(",") if x.strip()]
        except ValueError:
            print(f"--require-eta expects comma-separated integers, got {args.require_eta!r}",
                  file=sys.stderr)
            return EXIT_INPUT
        missing = [k for k in wanted if abs(k) not in inv.eta and k != 0]
        if missing:
            print(f"missing eta invariants for weights: {missing}", file=sys.stderr)
            return EXIT_INPUT
    return EXIT_OK


def _zeta_point(spec, p, args, s: complex):
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
            "s": [s.real, s.imag],
            "value": [zv.value.real, zv.value.imag],
            "abs_error_bound": zv.abs_error_bound,
            "in_convergence_domain": zv.in_convergence_domain,
            "flags": list(zv.flags),
        }
        for s, zv in zip(points, values)
    ]
    _emit(doc, args.output)
    return EXIT_OK


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
        doc = {"passed": all(r.passed for r in reports),
               "reports": [r.to_json_dict() for r in reports]}
    else:
        params = {name: _identity_param(args, name) for name in entries[0].params}
        doc = run_identity(args.identity, spec, inv, p, args.tol, **params).to_json_dict()
    _emit(doc, args.output)
    return EXIT_OK if doc["passed"] else EXIT_VERIFY_FAIL


def cmd_predict_torsion(args) -> int:
    spec = _load_spectrum(args)
    inv = _load_invariants(args)
    p = _params(args, spec)
    prediction = predict_torsion_ratio(spec, inv, args.n, args.parity, p)
    _emit(prediction.to_json_dict(), args.output)
    return EXIT_OK


def cmd_heat_trace(args) -> int:
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
    result = heat_trace_geometric(spec, inv, args.m, args.p, args.t, p)
    _emit({
        "t": result.t,
        "identity_term": result.identity_term,
        "hyperbolic_term": [result.hyperbolic_term.real, result.hyperbolic_term.imag],
        "total": [result.total.real, result.total.imag],
        "truncation_flag": result.truncation_flag,
        "tail_bound": result.tail_bound,
    }, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geozeta",
        description="Geodesic zeta functions of closed hyperbolic 3-manifolds: "
                    "evaluation, identity verification, torsion prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, spectrum=True, invariants=True, spectrum_required=True):
        if spectrum:
            sp.add_argument("--spectrum", required=spectrum_required,
                            help="spectrum JSON (or CSV with --l-max)")
            sp.add_argument("--l-max", type=float, default=None,
                            help="completeness cutoff for CSV spectra")
            sp.add_argument("--unoriented", action="store_true",
                            help="treat a CSV spectrum as unoriented")
        if invariants:
            sp.add_argument("--invariants", default=None, help="invariants JSON file")
        sp.add_argument("--output", default=None, help="write JSON here instead of stdout")
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--l-cut", type=float, default=None,
                        help="truncation cutoff (default: the spectrum's l_max)")
        sp.add_argument("--allow-incomplete", action="store_true",
                        help="permit l_cut beyond l_max (results flagged)")

    sp = sub.add_parser("validate", help="parse and validate input files")
    common(sp)
    sp.add_argument("--require-eta", default=None,
                    help="comma-separated eta weights that must be present")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("eval", help="evaluate one zeta object on a point or grid")
    common(sp, invariants=False)
    sp.add_argument("--kind", required=True, choices=EVAL_KINDS)
    sp.add_argument("--k", type=int, default=None, help="character weight")
    sp.add_argument("--m", type=int, default=None, help="symmetric-power index")
    sp.add_argument("--n", type=int, default=None, help="Zograf product index")
    sp.add_argument("--s", default=None, help="evaluation point 're,im'")
    sp.add_argument("--grid", default=None, help="'re0,re1,n-points,im'")
    sp.add_argument("--method", default="auto", choices=("auto", "ratio", "direct"),
                    help="evaluation path for F/G")
    sp.add_argument("--csv", action="store_true",
                    help="lossy CSV table instead of the canonical JSON")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("verify", help="run an identity check or the whole battery")
    common(sp, spectrum_required=False)  # exact-oracle / reflect-involution are self-contained
    sp.add_argument("--identity", required=True, choices=IDENTITY_CHOICES)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--n", type=int, default=3)
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

    sp = sub.add_parser("predict-torsion", help="assemble the torsion-ratio prediction")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--parity", required=True, choices=("even", "odd"))
    sp.set_defaults(fn=cmd_predict_torsion)

    sp = sub.add_parser("heat-trace", help="geometric heat-trace values and small-time fits")
    common(sp)
    sp.add_argument("--m", type=int, default=0, help="symmetric-power index")
    sp.add_argument("--p", type=int, default=0, choices=(0, 1), help="form degree")
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--t-grid", default=None, help="'t0,t1,n-points' geometric grid for --fit")
    sp.add_argument("--fit", action="store_true", help="fit small-time coefficients")
    sp.set_defaults(fn=cmd_heat_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 < args.tol < math.inf:
            raise CliError(f"--tol must be finite and positive, got {args.tol!r}")
        return args.fn(args)
    except (CliError, ValueError) as exc:
        # SpectrumError, DomainError and EtaNotSuppliedError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
