"""Entry point of the ``geozeta`` command; imports the standard library only.

``python -m geozeta`` and the installed ``geozeta`` script both call
``main``.  ``validate`` only reads and checks input files, so ``main`` serves
it with a validate-only parser over the parsers of ``spectrum`` and
``continuation``, which import no numpy: a ``validate`` run loads neither
numpy nor any evaluator module and costs little more than the interpreter's
own start-up.  Every other command goes to ``cli.main``, which imports them
all.

What both routes share lives here: the input loaders, the options common to
every command, ``cmd_validate`` and ``run`` (the ``--tol`` check and the
mapping of input errors to one line and exit status 2), so a ``validate``
run prints the same bytes and exits with the same status either way.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .continuation import ManifoldInvariants, parse_invariants
from .spectrum import LengthSpectrum, SpectrumError, parse_spectrum, parse_spectrum_csv

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
    text = _read_text(Path(name), "invariants")
    try:
        return parse_invariants(text)
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from None


def common(sp, spectrum=True, invariants=True, spectrum_required=True) -> None:
    """Add the input, output and tolerance options every command takes."""
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
    common(sp)
    sp.add_argument("--require-eta", default=None,
                    help="comma-separated eta weights that must be present")
    sp.set_defaults(fn=cmd_validate)


def run(args) -> int:
    """Run the parsed command; an input or usage error prints one line and exits 2."""
    try:
        if not 0 < args.tol < math.inf:
            raise CliError(f"--tol must be finite and positive, got {args.tol!r}")
        return args.fn(args)
    except (CliError, ValueError) as exc:
        # SpectrumError, DomainError and EtaNotSuppliedError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["validate"]:
        # the prog of cli's validate subparser, so usage and errors read the same
        parser = ArgumentParser(prog="geozeta validate")
        validate_arguments(parser)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return run(args)
        # cli's top-level parser words the unrecognized-arguments error
    from . import cli
    return cli.main(argv)
