"""Run the geozeta CLI with spans around calls into each package module.

Usage: python tracelaunch.py SPANS_FILE REQUEST_ID <geozeta arguments...>

The package is not edited: after import, every binding of a traced public
function in every ``geozeta`` module namespace is replaced by a wrapper that
records a span (layer name, parent span, wall start and end, self time).
Parents come from a per-thread stack; a span opened on a worker thread with
an empty stack is a child of the ``cli.main`` span, because the CLI's thread
pool runs on behalf of that one call.  Self time is the span's thread CPU
time minus that of its children on the same thread: with the interpreter
lock, two threads' wall-clock spans overlap and would count the same second
twice, while their CPU times add up to the process's.  Spans stay in memory
and are written as JSON when the CLI returns, together with the import time
and the in-process wall time.  A traced name the package no longer defines is
skipped, so its metrics read zero and every other layer is still measured.

Besides the spans, the tracer counts the powers in each distinct tuple that
``powers_up_to`` returns (``spectrum.powers_new``): a tuple handed out again,
say from a cache, was not rebuilt and is not counted twice.

``numerics`` and ``chars`` are left alone: they are called millions of times
per request and a wrapper there would mostly measure itself.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

# (module, attribute) -> span name.  Attributes with a dot are classmethods.
SPANNED = {
    ("spectrum", "parse_spectrum"): "spectrum.parse_spectrum",
    ("spectrum", "powers_up_to"): "spectrum.powers_up_to",
    ("spectrum", "GrowthModel.fit"): "spectrum.growth_fit",
    ("zeta", "selberg_sigma"): "zeta.selberg_sigma",
    ("zeta", "ruelle_sigma"): "zeta.ruelle_sigma",
    ("zeta", "zograf_F"): "zeta.zograf",
    ("zeta", "zograf_G"): "zeta.zograf",
    ("zeta", "selberg_rho"): "zeta.twisted",
    ("zeta", "ruelle_rho"): "zeta.twisted",
    ("continuation", "selberg_anywhere"): "continuation.selberg_anywhere",
    ("identities", "selberg_rho_bruteforce"): "identities.bruteforce",
    ("identities", "selberg_sigma_bruteforce"): "identities.bruteforce",
    ("identities", "ruelle_rho_direct"): "identities.newton_det",
    ("identities", "verify_ruelle_decomposition"): "identities.harness",
    ("identities", "verify_selberg_rho_decomposition"): "identities.harness",
    ("identities", "verify_four_selberg_quotient"): "identities.harness",
    ("identities", "verify_rho_selberg_quotient"): "identities.harness",
    ("identities", "verify_zograf_ratio"): "identities.harness",
    ("identities", "verify_corollary_FG"): "identities.harness",
    ("identities", "verify_ruelle_functional_equation"): "identities.harness",
    ("identities", "verify_det_chain"): "identities.harness",
    ("identities", "verify_reflection_involution"): "identities.harness",
    ("identities", "main_theorem_residual"): "identities.harness",
    ("exact", "exact_battery"): "exact.exact_battery",
    ("heattrace", "heat_trace_geometric"): "heattrace.heat_trace_geometric",
    ("heattrace", "small_time_fit"): "heattrace.small_time_fit",
    ("cli", "main"): "cli.main",
}

# Called thousands of times from inside one span; counted, not spanned, so
# their time stays in the caller's self time.
COUNTED = {("exact", "identity_terms"): "exact.identity_terms"}


def _span_extra(name: str, result) -> int:
    """The count a span carries: powers built, grid points checked, reflections."""
    if name == "spectrum.powers_up_to":
        return len(result)
    if name == "identities.harness":
        return len(result.points)
    if name == "continuation.selberg_anywhere":
        return int("reflected" in result.flags)
    return 0


class Tracer:
    """Spans and counters of one CLI run, held in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, parent, start, end, self_cpu, extra)
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = 0
        self._kept: dict[int, tuple] = {}  # id -> powers_up_to result, kept alive

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else self._root
            if not stack and not self._root:
                self._root = span_id
            frame = [span_id, 0.0]  # id, CPU time of children on this thread
            stack.append(frame)
            result = None
            start, cpu_start = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = time.thread_time() - cpu_start
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                extra = 0 if result is None else _span_extra(name, result)
                if name == "spectrum.powers_up_to" and result is not None:
                    self._note_powers(result)
                self.spans.append((span_id, name, parent, start, end, cpu - frame[1], extra))
        return wrapper

    def _note_powers(self, powers: tuple) -> None:
        with self._lock:
            if id(powers) not in self._kept:
                self._kept[id(powers)] = powers
                self.counts["spectrum.powers_new"] = (
                    self.counts.get("spectrum.powers_new", 0) + len(powers))

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in every geozeta module."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "geozeta" or key.startswith("geozeta."))]
        table = [(key, name, self.spanned) for key, name in SPANNED.items()]
        table += [(key, name, self.counted) for key, name in COUNTED.items()]
        for (module, attr), name, make in table:
            owner = sys.modules.get(f"geozeta.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(getattr(cls, meth, None), "__func__", None)
                if original is not None:
                    setattr(cls, meth, classmethod(make(name, original)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path: str, request_id: str, import_s: float, inproc_s: float) -> None:
        doc = {"request_id": request_id, "import_s": import_s, "inproc_s": inproc_s,
               "counts": self.counts, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main() -> int:
    spans_path, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import geozeta.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    rc = geozeta.cli.main(argv)
    tracer.dump(spans_path, request_id, import_s, time.perf_counter() - T_START)
    return rc


if __name__ == "__main__":
    sys.exit(main())
