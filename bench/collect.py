"""Run the benchmark over several seeds and summarize every metric.

Usage (from the root of a checkout):

    python3 bench/collect.py --workloads corr-grid,cli-single --seeds 10 --seconds 20

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints one JSON object: the machine, and for each workload and metric its
unit, the values, their median, first and third quartiles (``statistics.quantiles``,
n=4) and spread (interquartile distance over the median).
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

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "cpu": model}


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    out = {
        "machine": machine(),
        "seconds": args.seconds,
        "trace": int(args.trace),
        "first_seed": args.first_seed,
        "workloads": {},
    }
    for wl in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{wl} seed {seed}: correct={runs[-1]['correct']}", file=sys.stderr, flush=True)
        metrics = {
            name: {"unit": m["unit"], **summarize([r["metrics"][name]["value"] for r in runs])}
            for name, m in runs[0]["metrics"].items()
        }
        out["workloads"][wl] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
