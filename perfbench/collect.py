"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --out baseline.json

Every workload runs once per seed with tracing off, then once with tracing
on (first seed) for the per-layer table, each run measuring the
``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end metric the
summary gives the median, the quartiles of ``statistics.quantiles(n=4)``, the
spread (interquartile distance over the median) and the sample count, next
to the facts of the machine that measured them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "unit": unit, "values": values}


def machine() -> dict:
    import numpy
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="inclusive range such as 1-10")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {"machine": machine(), "run_seconds": seconds, "seeds": args.seeds,
           "workloads": {}}
    for workload in run.WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        traced = run_once(workload, args.seeds[0], seconds, 1)
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs],
                                 runs[0]["metrics"][name]["unit"])
                   for name in runs[0]["metrics"]}
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_attempted": traced["attempted"],
            "per_layer_failed": traced["failed"],
        }
        for name, m in metrics.items():
            print(f"{workload:15} {name:14} median {m['median']:.4f} {m['unit']:5} "
                  f"spread {m['spread']:.4f} (n={m['n']})", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
