"""Entry point of the ``geozeta`` command; imports the standard library only.

``python -m geozeta`` and the installed ``geozeta`` script both call
``main``.  ``COMMANDS`` is the command table: each command's help line and
the module and name of its argument-setup function.  ``main`` parses with
the one ``geozeta`` parser, a subparser per command, and sets up only the
subparser of the command named, so a run imports only the modules that
command runs:

- ``validate`` is served here, over the parsers of ``spectrum`` and
  ``continuation``, which import no numpy: it loads neither numpy nor any
  evaluator module and costs little more than the interpreter's own start-up;
- ``eval``, ``verify``, ``predict-torsion`` and ``heat-trace`` are set up and
  run by ``commands``, whose command functions import their evaluator modules
  when they run;
- no command, an unknown command and a top-level ``-h`` set up no command and
  load no evaluator module.

What every command shares lives here: the input loaders, the input options
every command takes, ``cmd_validate`` and ``run`` (the mapping of input
errors to one line and exit status 2).  ``continuation`` is imported only
when an invariants file is read.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .spectrum import LengthSpectrum, SpectrumError, parse_spectrum, parse_spectrum_csv

if TYPE_CHECKING:
    from .continuation import ManifoldInvariants

EXIT_OK = 0
EXIT_INPUT = 2


class CliError(Exception):
    """Input/usage error; maps to exit status 2."""


class ArgumentParser(argparse.ArgumentParser):
    """``argparse.ArgumentParser`` whose usage errors print one line, not the
    usage block, and exit 2; subparsers are built from this class too."""

    def error(self, message: str):
        # an unrecognized argument is echoed as given and may hold a line break
        message = "\\n".join(message.splitlines())
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


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
    from .continuation import parse_invariants
    text = _read_text(Path(name), "invariants")
    try:
        return parse_invariants(text)
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from None


def input_options(sp, invariants=True, spectrum_required=True) -> None:
    """Add the input options: the spectrum file, how to read a CSV one, invariants."""
    sp.add_argument("--spectrum", required=spectrum_required,
                    help="spectrum JSON (or CSV with --l-max)")
    sp.add_argument("--l-max", type=float, default=None,
                    help="completeness cutoff for CSV spectra")
    sp.add_argument("--unoriented", action="store_true",
                    help="treat a CSV spectrum as unoriented")
    if invariants:
        sp.add_argument("--invariants", default=None, help="invariants JSON file")


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


def validate_arguments(sp) -> None:
    """Set up the ``validate`` (sub)parser ``sp``."""
    input_options(sp)
    sp.add_argument("--require-eta", default=None,
                    help="comma-separated eta weights that must be present")
    sp.set_defaults(fn=cmd_validate)


def run(args) -> int:
    """Run the parsed command; an input or usage error prints one line and exits 2."""
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:
        # SpectrumError, DomainError and EtaNotSuppliedError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


# command -> (help line, module, name of its argument-setup function)
COMMANDS = {
    "validate": ("parse and validate input files", "entry", "validate_arguments"),
    "eval": ("evaluate one zeta object on a point or grid", "commands", "eval_arguments"),
    "verify": ("run an identity check or the whole battery", "commands", "verify_arguments"),
    "predict-torsion": ("assemble the torsion-ratio prediction", "commands",
                        "predict_torsion_arguments"),
    "heat-trace": ("geometric heat-trace values and small-time fits", "commands",
                   "heat_trace_arguments"),
}


def command_arguments(command: str):
    """The argument-setup function of ``command``, importing only its module."""
    _, module, name = COMMANDS[command]
    # the import statement's own route, which ``-X importtime`` reports
    return getattr(__import__(module, globals(), None, (name,), 1), name)


def build_parser(command: str | None) -> ArgumentParser:
    """The ``geozeta`` parser: a subparser per command, only ``command``'s set up."""
    parser = ArgumentParser(
        prog="geozeta",
        description="Geodesic zeta functions of closed hyperbolic 3-manifolds: "
                    "evaluation, identity verification, torsion prediction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        if name == command:
            command_arguments(name)(sp)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse runs the first command named (any word before it is refused)
    command = next((arg for arg in argv if arg in COMMANDS), None)
    return run(build_parser(command).parse_args(argv))
