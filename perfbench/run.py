"""End-to-end benchmark of the geozeta CLI on generated length spectra.

    python3 perfbench/run.py --workload verify-battery --seed 1 --seconds 30 --trace 0

One client keeps one request in flight (a closed loop).  Every request is a
fresh ``python -m geozeta ...`` process with ``GEOZETA_JOBS=2`` in its
environment, because every CLI user starts with cold in-process caches.
Each request gets its own spectrum, generated from the run seed and the
request index.  Before the request is timed, ``geozeta validate`` runs on its
files in fresh processes; a request whose files fail is counted as failed,
and the wall times of those runs are the ``setup_s`` samples.  The loop stops
issuing requests at the first end of a cycle of the workload's request slots
after the timed request wall time reaches ``--seconds``; generation,
validation and output checks sit outside that time.  Outputs are checked
after the loop, and a request whose output fails a check counts as failed.

With ``--trace 1`` every request runs twice, untraced and under
``tracelaunch.py``; the two reports must be byte-identical, and the spans of
the traced run give the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))
import specgen  # noqa: E402

JOBS = "2"
CHILD_TIMEOUT_S = 45.0   # a request that runs longer is killed and fails
RUN_CAP_S = 90.0        # no request starts after this much run wall time
REL_TOL = 1e-8
SQRT_PI = math.sqrt(math.pi)


@dataclass
class Request:
    index: int
    seed: int
    argv: list[str]          # geozeta arguments, without --output
    spectrum: Path
    invariants: Path
    check: str               # verify | eval | predict | heat
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    request: Request
    wall_s: float
    rc: int
    report: bytes
    stderr: bytes
    rss_kb: int
    traced_wall_s: float = 0.0
    traced_rc: int = 0
    traced_report: bytes = b""
    spans: dict | None = None
    distinct_powers: int = 0
    work: int = 0
    error: str = ""


# ---------------------------------------------------------------------------
# Workloads.  A workload maps (run seed, request index) to one request.  Its
# slots are a fixed cycle and a run measures whole cycles, so every run covers
# the same mix; the seed draws every length, angle, sign and invariant.

def _files(work: Path, seed: int, doc: dict) -> tuple[Path, Path]:
    spectrum = work / f"spectrum-{seed}.json"
    invariants = work / f"invariants-{seed}.json"
    spectrum.write_text(specgen.dumps(doc), encoding="utf-8")
    invariants.write_text(specgen.dumps(specgen.invariants_doc(seed)), encoding="utf-8")
    return spectrum, invariants


# (entries, systole): spans 15-40 entries and systoles 1.8-2.2.  The two
# middle-cost slots cost about the same, so the median request sits between
# close values instead of across a gap.
VERIFY_SLOTS = ((29, 2.0), (15, 1.8), (40, 2.2), (26, 1.9))


def verify_battery(work: Path, seed: int, index: int) -> Request:
    entries, systole = VERIFY_SLOTS[index % len(VERIFY_SLOTS)]
    doc = specgen.spectrum_doc(seed, entries, systole, 1.0, oriented=False)
    spectrum, invariants = _files(work, seed, doc)
    argv = ["verify", "--identity", "all", "--spectrum", str(spectrum),
            "--invariants", str(invariants)]
    return Request(index, seed, argv, spectrum, invariants, "verify")


# (kind, entries, extra arguments, grid start, grid end, points).  Every grid
# lies inside its object's convergence half-plane; point counts are sized so
# each request takes about 1.6 s at the seed commit, which keeps the median
# request inside one cluster of times.
EVAL_SLOTS = (
    ("selberg-sigma", 500, ["--k", "2"], 2.5, 4.0, 80),
    ("ruelle-rho", 2000, ["--m", "2"], 3.1, 4.5, 6),
    ("G", 1000, ["--n", "2", "--method", "ratio"], 0.0, 1.5, 20),
    ("F", 1400, ["--n", "3", "--method", "direct"], 0.0, 1.5, 4),
)
EVAL_IM = 0.3


def eval_grid(work: Path, seed: int, index: int) -> Request:
    kind, entries, extra, re0, re1, points = EVAL_SLOTS[index % len(EVAL_SLOTS)]
    doc = specgen.spectrum_doc(seed, entries, 2.0, 2.5, oriented=False)
    spectrum, invariants = _files(work, seed, doc)
    argv = ["eval", "--spectrum", str(spectrum), "--kind", kind, *extra,
            "--grid", f"{re0},{re1},{points},{EVAL_IM}"]
    sampled = sorted(random.Random(seed).sample(range(points), 2))
    params = {"kind": kind, "points": points, "sampled": sampled,
              "arg": int(extra[1]), "method": extra[3] if len(extra) > 2 else ""}
    return Request(index, seed, argv, spectrum, invariants, "eval", params)


# (command, parameters, entries, oriented): predict-torsion and heat-trace
# --fit alternate; the sizes span 200-3000 entries, smaller ones being more
# common as in a census.  Five of the eight slots cost about the same, so the
# median request lies inside that cluster rather than in the gap above it.
CENSUS_SLOTS = (
    ("predict", ("even", 3), 3000, False),
    ("heat", (0, 0), 200, True),
    ("predict", ("odd", 2), 1200, True),
    ("heat", (1, 1), 300, True),
    ("predict", ("even", 4), 600, False),
    ("heat", (1, 0), 2000, True),
    ("predict", ("odd", 3), 400, True),
    ("heat", (0, 1), 800, False),
)


def census_sweep(work: Path, seed: int, index: int) -> Request:
    command, args, entries, oriented = CENSUS_SLOTS[index % len(CENSUS_SLOTS)]
    doc = specgen.spectrum_doc(seed, entries, 2.0, 2.5, oriented=oriented, mult_spread=1)
    spectrum, invariants = _files(work, seed, doc)
    common = ["--spectrum", str(spectrum), "--invariants", str(invariants)]
    if command == "predict":
        parity, n = args
        argv = ["predict-torsion", *common, "--n", str(n), "--parity", parity]
        return Request(index, seed, argv, spectrum, invariants, "predict",
                       {"parity": parity, "n": n})
    m, p = args
    argv = ["heat-trace", *common, "--m", str(m), "--p", str(p), "--fit"]
    return Request(index, seed, argv, spectrum, invariants, "heat", {"m": m, "p": p})


# name -> (request maker, slots per cycle, throughput name, work unit,
# validate runs per request).  The validate count gives every run some 16 or
# more setup_s samples spread over the whole loop.
WORKLOADS = {
    "verify-battery": (verify_battery, len(VERIFY_SLOTS), "verify_points_per_s",
                       "identity grid points", 4),
    "eval-grid": (eval_grid, len(EVAL_SLOTS), "eval_points_per_s", "zeta values", 2),
    "census-sweep": (census_sweep, len(CENSUS_SLOTS), "commands_per_s", "CLI commands", 1),
}


# ---------------------------------------------------------------------------
# Child processes

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GEOZETA_JOBS"] = JOBS
    return env


def run_child(cmd: list[str], stderr_path: Path) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB).

    The child is reaped with wait4 so its own resource usage is read; a
    timer kills it if it overruns CHILD_TIMEOUT_S.
    """
    env = _child_env()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def validate(req: Request, work: Path, runs: int) -> tuple[list[float], int, str]:
    """Run ``geozeta validate`` on the request's files ``runs`` times, each in
    a fresh process: (wall times, largest RSS in KiB, '' or the failure)."""
    cmd = [sys.executable, "-m", "geozeta", "validate", "--spectrum", str(req.spectrum),
           "--invariants", str(req.invariants)]
    err = work / "validate.err"
    walls, rss = [], 0
    for _ in range(runs):
        wall, rc, kb = run_child(cmd, err)
        walls.append(wall)
        rss = max(rss, kb)
        if rc != 0:
            return walls, rss, f"validate exit {rc}: {err.read_text(errors='replace').strip()}"
    return walls, rss, ""


# ---------------------------------------------------------------------------
# Output checks (run after the timed loop)

def strict_loads(data: bytes):
    """JSON parse that rejects the NaN and Infinity tokens Python would accept."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(data, parse_constant=reject)


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _finite(pair) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in pair)


def check_report(req: Request, report: bytes) -> tuple[str, int]:
    """(error or '', work units) for one request's report bytes."""
    import geozeta as gz
    try:
        doc = strict_loads(report)
    except ValueError as exc:
        return f"report is not strict JSON: {exc}", 0
    if req.check == "verify":
        points = sum(len(r["points"]) for r in doc["reports"])
        if doc.get("passed") is not True:
            failed = [r["identity_id"] for r in doc["reports"] if not r["passed"]]
            return f"verify reported passed=false: {failed}", points
        return "", points
    spec = gz.parse_spectrum(req.spectrum.read_text(encoding="utf-8"))
    p = gz.EvalParams.for_spectrum(spec)
    if req.check == "eval":
        par = req.params
        if not isinstance(doc, list) or len(doc) != par["points"]:
            return f"expected {par['points']} values", 0
        for j, row in enumerate(doc):
            if not (_finite(row["value"]) and math.isfinite(row["abs_error_bound"])):
                return f"non-finite value at grid point {j}", 0
        for j in par["sampled"]:
            s = complex(*doc[j]["s"])
            got = complex(*doc[j]["value"])
            kind, arg = par["kind"], par["arg"]
            if kind == "selberg-sigma":
                want = gz.selberg_sigma_bruteforce(spec, arg, s)
            elif kind == "ruelle-rho":
                want = gz.ruelle_rho_direct(spec, arg, s)
            else:
                other = "direct" if par["method"] == "ratio" else "ratio"
                fn = gz.zograf_F if kind == "F" else gz.zograf_G
                want = fn(spec, arg, s, p, method=other).value
            if _rel(got, want) > REL_TOL:
                return f"{kind} at s={s}: relative difference {_rel(got, want):.3g}", 0
        return "", len(doc)
    inv = gz.parse_invariants(req.invariants.read_text(encoding="utf-8"))
    if req.check == "predict":
        n, parity = req.params["n"], req.params["parity"]
        if not (_finite(doc["value"]) and _finite(doc["f_or_g"])):
            return "non-finite prediction", 1
        fn = gz.zograf_F if parity == "even" else gz.zograf_G
        want = fn(spec, n, 0.0, p, method="direct").value
        got = complex(*doc["f_or_g"])
        if _rel(got, want) > REL_TOL:
            return f"f_or_g differs from the direct k-product by {_rel(got, want):.3g}", 1
        return "", 1
    # heat-trace --fit: the closed forms of the small-time coefficients
    want = (SQRT_PI / 2, -SQRT_PI / 2) if req.params["p"] == 0 else (1.5 * SQRT_PI, 1.5 * SQRT_PI)
    for name, w in zip(("a1", "a2"), want):
        if not abs(doc[name] - w) <= 0.01 * abs(w):
            return f"{name}={doc[name]!r} not within 1% of {w:.6f}", 1
    return "", 1


# ---------------------------------------------------------------------------
# Trace aggregation

def distinct_powers(spectrum: Path) -> int:
    import geozeta as gz
    spec = gz.parse_spectrum(spectrum.read_text(encoding="utf-8"))
    return len(gz.powers_up_to(spec, spec.l_max))


# Span names from tracelaunch.SPANNED whose self time and call count are
# reported as <name>.self_s and <name>.calls.
SELF_SPANS = (
    "identities.bruteforce", "identities.newton_det", "identities.harness",
    "exact.exact_battery", "zeta.selberg_sigma", "zeta.ruelle_sigma", "zeta.zograf",
    "zeta.twisted", "spectrum.powers_up_to", "spectrum.parse_spectrum",
    "spectrum.growth_fit", "cli.main", "continuation.selberg_anywhere",
    "heattrace.heat_trace_geometric", "heattrace.small_time_fit",
)
CALL_SPANS = (
    "identities.bruteforce", "identities.newton_det", "zeta.selberg_sigma",
    "zeta.ruelle_sigma", "zeta.zograf", "spectrum.powers_up_to",
    "continuation.selberg_anywhere", "heattrace.heat_trace_geometric",
)
EXTRA_METRICS = {  # metric -> span name whose per-span counts it sums
    "identities.grid_points": "identities.harness",
    "spectrum.powers_built": "spectrum.powers_up_to",
    "continuation.reflected": "continuation.selberg_anywhere",
}


def layer_metrics(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Per-request means of every per-layer metric over the traced runs."""
    traced = [o for o in outcomes if o.spans is not None]
    n = max(len(traced), 1)
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    ratios = []
    for o in traced:
        spans = o.spans["spans"]
        for _, name, _, _, _, self_s, extra in spans:
            add(f"self:{name}", self_s)
            add(f"calls:{name}", 1)
            add(f"extra:{name}", extra)
        if o.distinct_powers:  # tuples returned again, e.g. from a cache, are not rebuilt
            ratios.append(o.spans["counts"].get("spectrum.powers_new", 0) / o.distinct_powers)
        add("identity_terms", o.spans["counts"].get("exact.identity_terms", 0))
        add("import", o.spans["import_s"])
        add("startup", o.traced_wall_s - o.spans["inproc_s"])
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = (totals.get(f"self:{name}", 0.0) / n, "s")
    for name in CALL_SPANS:
        out[f"{name}.calls"] = (totals.get(f"calls:{name}", 0.0) / n, "count")
    for metric, name in EXTRA_METRICS.items():
        out[metric] = (totals.get(f"extra:{name}", 0.0) / n, "count")
    out["exact.identity_terms.calls"] = (totals.get("identity_terms", 0.0) / n, "count")
    out["spectrum.power_rebuild_ratio"] = (statistics.fmean(ratios) if ratios else 0.0, "ratio")
    out["process.import_s"] = (totals.get("import", 0.0) / n, "s")
    out["process.startup_s"] = (totals.get("startup", 0.0) / n, "s")
    if traced:
        untraced_p50 = statistics.median(o.wall_s for o in traced)
        traced_p50 = statistics.median(o.traced_wall_s for o in traced)
        out["trace.request_p50_s"] = (traced_p50, "s")
        out["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    else:
        out["trace.request_p50_s"] = (0.0, "s")
        out["trace.overhead_s"] = (0.0, "s")
    return out


# ---------------------------------------------------------------------------
# The run

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    q = min(99, math.floor(100 * (n - 10) / n))
    ordered = sorted(values)
    return q, ordered[max(0, math.ceil(q / 100 * n) - 1)]


def execute(req: Request, work: Path, traced: bool) -> Outcome:
    """Run the request, and with ``traced`` run it again under the tracer.

    The pair alternates which run goes first, so neither side of the tracing
    overhead always meets the machine in the same state.
    """
    spans = work / f"spans-{req.seed}.json"
    runs = [("plain", [sys.executable, "-m", "geozeta"])]
    if traced:
        runs.append(("traced", [sys.executable, str(BENCH / "tracelaunch.py"), str(spans),
                                str(req.seed)]))
        if req.index % 2:
            runs.reverse()
    done = {}
    for tag, prefix in runs:
        out = work / f"report-{req.seed}-{tag}.json"
        err = work / f"stderr-{req.seed}-{tag}.txt"
        wall, rc, kb = run_child([*prefix, *req.argv, "--output", str(out)], err)
        done[tag] = (wall, rc, kb, out.read_bytes() if out.exists() else b"", err.read_bytes())
    wall, rc, kb, report, stderr = done["plain"]
    outcome = Outcome(req, wall, rc, report, stderr, kb)
    if traced:
        outcome.traced_wall_s, outcome.traced_rc, kb_t, outcome.traced_report, _ = done["traced"]
        outcome.rss_kb = max(kb, kb_t)
        if spans.exists():
            outcome.spans = json.loads(spans.read_text(encoding="utf-8"))
    return outcome


def judge(o: Outcome, traced: bool) -> None:
    """Fill in ``o.error`` and ``o.work`` from the request's outputs."""
    if o.rc != 0:
        o.error = f"exit {o.rc}: {o.stderr.decode(errors='replace').strip()[-300:]}"
        return
    try:
        if traced:
            o.distinct_powers = distinct_powers(o.request.spectrum)
        o.error, o.work = check_report(o.request, o.report)
    except Exception as exc:  # a malformed report or a failing oracle fails this request only
        o.error = f"check raised {exc!r}"
        return
    if traced and not o.error:
        if o.traced_rc != 0 or o.spans is None or o.spans["request_id"] != str(o.request.seed):
            o.error = f"traced run exit {o.traced_rc}"
        elif hashlib.sha256(o.report).digest() != hashlib.sha256(o.traced_report).digest():
            o.error = "traced and untraced reports differ"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed request wall time after which the current cycle of "
                         "requests is the last")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "geozeta" / "cli.py").is_file():
        print(f"error: package source not found at {SRC / 'geozeta'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    make, cycle, work_name, work_unit, validates = WORKLOADS[args.workload]
    traced = bool(args.trace)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        def request(i: int) -> Request:
            # each request's spectrum seed is unique within and across run seeds
            return make(work, args.seed * 100_000 + i, i)

        outcomes: list[Outcome] = []
        setup_walls: list[float] = []
        busy = 0.0
        # whole cycles only, so every run covers the same mix of slots; the cap
        # keeps a run that has gone badly slow inside its time limit
        started = time.perf_counter()
        while not outcomes or ((busy < args.seconds or len(outcomes) % cycle)
                               and time.perf_counter() - started < RUN_CAP_S):
            req = request(len(outcomes))
            walls, rss, problem = validate(req, work, validates)
            setup_walls += walls
            if problem:
                outcomes.append(Outcome(req, 0.0, -1, b"", b"", rss, error=problem))
                continue
            o = execute(req, work, traced)
            o.rss_kb = max(o.rss_kb, rss)
            outcomes.append(o)
            busy += o.wall_s + o.traced_wall_s
        for o in outcomes:
            if not o.error:
                judge(o, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = [o for o in outcomes if o.error]
    walls = [o.wall_s for o in outcomes if o.rc != -1]
    work_done = sum(o.work for o in outcomes)
    untraced_busy = sum(walls)
    p50 = statistics.median(walls) if walls else 0.0
    tail = tail_percentile(walls)
    peak_mb = max(o.rss_kb for o in outcomes) / 1024.0
    e2e = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "request_p50_s": (p50, "s"),
        "work_per_s": (work_done / untraced_busy if untraced_busy else 0.0, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {len(outcomes)}  timed {busy:.2f} s")
    print(f"setup_s              {e2e['setup_s'][0]:.4f} s   (median of {len(setup_walls)} "
          f"fresh `geozeta validate` runs, {validates} before each request)")
    tail_txt = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 samples above it"
    print(f"request_p50_s        {p50:.4f} s   ({tail_txt}; n={len(walls)})")
    print(f"{work_name:<20} {e2e['work_per_s'][0]:.4f} 1/s ({work_done} {work_unit} in "
          f"{untraced_busy:.2f} s untraced request time; reported as work_per_s)")
    print(f"peak_rss_mb          {peak_mb:.1f} MB")
    print(f"failed_ratio         {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)})")
    for o in failed:  # file names are spectrum-<seed>.json and invariants-<seed>.json
        argv = " ".join(o.request.argv).replace(f"{work}{os.sep}", "")
        print(f"FAILED request seed {o.request.seed}: geozeta {argv} :: {o.error}")

    if traced:
        metrics = layer_metrics(outcomes)
        for name, (value, unit) in metrics.items():
            print(f"{name:<40} {value:.6g} {unit}")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
