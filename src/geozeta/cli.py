"""Every module the ``geozeta`` command can run, loaded at once.

Importing this module imports every evaluator module on purpose: a tracer
that wraps functions in the loaded modules (the benchmark's
``perfbench/tracelaunch.py``) finds them all after ``import geozeta.cli`` and
then calls ``main`` here, which is ``entry.main``: the parser and the
commands are the same whichever module the call goes through.  The commands
themselves live in ``commands``.
"""

from __future__ import annotations

import sys

from . import commands, heattrace, identities, torsion  # noqa: F401  and through them the rest
from .entry import main

if __name__ == "__main__":
    sys.exit(main())
