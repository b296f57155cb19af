"""The full ``geozeta`` parser: one subparser per entry of the command table.

``build_parser`` composes the subparsers from the setup functions of
``entry.COMMANDS``, the same ones ``entry.main`` uses, so no option list
exists twice.  ``entry.main`` serves every command it can parse on its own
and comes here only for what a one-command parser cannot word alike: no
command, an unknown command, a top-level ``-h`` and unrecognized arguments.
The commands themselves live in ``commands``.

This module imports every evaluator module at load time on purpose: a tracer
that wraps functions in the loaded modules (the benchmark's
``perfbench/tracelaunch.py``) finds them all after ``import geozeta.cli``
and then calls ``main`` here.
"""

from __future__ import annotations

import sys

from . import heattrace, identities  # noqa: F401  and through them every other module
from .commands import GRID_POINTS_MAX, SAMPLES_MAX, _emit, _strict  # noqa: F401
from .entry import COMMANDS, ArgumentParser, command_arguments, run
from .identities import IDENTITY_CHOICES  # noqa: F401


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="geozeta",
        description="Geodesic zeta functions of closed hyperbolic 3-manifolds: "
                    "evaluation, identity verification, torsion prediction.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _, _) in COMMANDS.items():
        command_arguments(command)(sub.add_parser(command, help=help_line))
    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
