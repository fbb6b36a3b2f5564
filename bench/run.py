"""orbivertex benchmark: one workload, end-to-end or traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload corr-grid --seed 1 --seconds 20 --trace 0

Workloads: corr-grid, framing-roundtrip, abelian-lift, cli-single (see
bench/README.md).  The seed shuffles the order of the workload's fixed pool
in every pass.  With ``--trace 0`` the run repeats whole passes until
``--seconds`` have gone by (cli-single: also until it has 110 requests) and
reports the end-to-end metrics; with ``--trace 1`` it makes one untraced and
one traced pass and reports the per-layer metrics.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 21
SETUP_PROBE = "import orbivertex, time; print(time.monotonic())"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup(env) -> float:
    """Median time from launching an interpreter to ``import orbivertex``
    done, over SETUP_LAUNCHES launches made one after another."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        if out.returncode != 0:
            raise RuntimeError(f"import orbivertex failed: {out.stderr.strip()}")
        samples.append(float(out.stdout) - t0)
    return statistics.median(samples)


def shuffled(n: int, rng: random.Random) -> list:
    order = list(range(n))
    rng.shuffle(order)
    return order


def end_to_end(wl, rng, seconds, caches, workloads, env) -> tuple:
    result = workloads.PassResult()
    setup_s = measure_setup(env)
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds or result.attempted < wl.min_samples:
        workloads.run_pass(wl, shuffled(len(wl.items), rng), caches, result)
        passes += 1
    samples = [t for ts in result.times.values() for t in ts]
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        # One pass over the pool, each item at its median time.
        "wall_s": sum(statistics.median(ts) for ts in result.times.values()),
        "setup_s": setup_s,
        "req_p50_s": statistics.median(samples),
        "req_p90_s": statistics.quantiles(samples, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = [f"passes {passes}, requests {len(samples)} ({len(wl.items)} per pass)"]
    return result, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def traced(wl, rng, caches, workloads, tracing, spans_path) -> tuple:
    plain = workloads.PassResult()
    workloads.run_pass(wl, shuffled(len(wl.items), rng), caches, plain)
    trace = tracing.Tracer()
    result = workloads.PassResult()
    workloads.run_pass(wl, shuffled(len(wl.items), rng), caches, result, tracer=trace)
    trace.output_bytes = result.output_bytes
    untraced_s = sum(t for ts in plain.times.values() for t in ts)
    traced_s = sum(t for ts in result.times.values() for t in ts)
    result.attempted += plain.attempted
    result.failed += plain.failed
    result.failures += plain.failures
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({"fields": ["id", "name", "parent", "start_s", "end_s", "self_s"], "spans": trace.spans}))
    values = trace.per_layer(traced_s / untraced_s)
    notes = [
        f"untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s,"
        f" {len(trace.spans)} spans in {spans_path.relative_to(ROOT)}"
    ]
    return result, {k: (v, tracing.PER_LAYER[k]) for k, v in values.items()}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbivertex" / "__init__.py").is_file():
        print(f"error: no orbivertex sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.workload(args.workload)
    caches = tracing.lru_caches()
    rng = random.Random(args.seed)
    if args.trace:
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        result, metrics, notes = traced(wl, rng, caches, workloads, tracing, spans_path)
    else:
        result, metrics, notes = end_to_end(wl, rng, args.seconds, caches, workloads, workloads.child_env())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for label, message in result.failures:
        print(f"  FAILED {label}: {message}")
    print(f"  fail_ratio {result.failed / result.attempted:.4f} ({result.failed} of {result.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
