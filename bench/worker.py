"""One workload run in a fresh interpreter: the benchmark's inner process.

    python3 bench/worker.py --workload W --seed N --seconds S
        [--passes P] [--trace] [--setup-only] [--scale full|smoke]

bench/run.py starts it with dualbch's src/ on PYTHONPATH and every thread
count at 1.  It prints ``ready`` once dualbch is imported and the inputs are
generated (the parent times set-up up to that line), then runs whole passes
over the workload's units until --seconds have gone by, or exactly --passes
passes, and prints one JSON line: timings, operation counts, failed checks,
the inputs, and with --trace the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads


def run_passes(units, seconds, passes, run):
    """Run units in order, pass after pass; return the whole passes done.

    Without a pass count, stops at the first unit boundary after --seconds,
    but never before one whole pass.  The reference kernel is timed before
    the first unit and after each unit.
    """
    t0 = time.perf_counter()
    done = 0
    run.calibrate()
    while True:
        for unit in units:
            unit()
            run.calibrate()
            if passes is None and done and time.perf_counter() - t0 >= seconds:
                return done
        done += 1
        if done == passes or (passes is None and time.perf_counter() - t0 >= seconds):
            return done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    inputs = workloads.generate(args.workload, args.seed, args.scale)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = workloads.Run(tracer)
    units = workloads.units(args.workload, inputs, run)
    t0 = time.perf_counter()
    passes = run_passes(units, args.seconds, args.passes, run)
    wall = time.perf_counter() - t0

    result = {
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "messages": run.messages,
        "passes": passes,
        "wall_s": wall,
        "part_a_ref": run.part_ref("a"),
        "part_b_ref": run.part_ref("b"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "details": workloads.details(args.workload, run),
        "inputs": inputs,
    }
    if tracer is not None:
        layers = tracer.summary()
        layers["cli.bytes_out"] = run.counts["cli.bytes_out"]
        layers["mindist.cert_gap"] = sum(run.gaps.values())
        layers["trace.spans"] = len(tracer.spans)
        result["layers"] = layers
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"spans-{args.workload}-{args.scale}.tsv.gz",
                     f"workload={args.workload} seed={args.seed} scale={args.scale}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
