"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload {sweep,certify,large-n} --seed N
        --seconds S --trace {0,1} [--scale full|smoke]
    python3 bench/run.py --workload all [--seed N]

Run it from the root of a checkout: dualbch is imported from src/, and the
metric names and units come from BENCHMARK.json.  Every workload runs in
fresh interpreters (bench/worker.py) with DUALBCH_THREADS=1, --threads 1 and
the BLAS/OpenMP thread counts at 1, as one closed-loop client.

--trace 0 times set-up in nine fresh interpreters (median), then runs the
workload for --seconds and reports the end-to-end metrics.  --trace 1 runs
one pass untraced and one pass traced, each in its own interpreter, and
reports the per-layer metrics; trace.overhead_s is the difference of their
wall times.  ``--workload all`` runs every workload both ways and prints
every figure.  The last line of standard output is the JSON result; the
lines before it give the inputs and each figure with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Same as workloads.WORKLOADS; this process does not import workloads, so
# that it stays free of dualbch and numpy and can refuse without them.
WORKLOADS = ("sweep", "certify", "large-n")
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 20
RUN_TIMEOUT_S = 150
THREAD_VARS = ("DUALBCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args: list, timeout: float):
    """Start a worker, wait for its ready line; (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)],
        stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(), text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line != "ready\n":
        finish(proc, timeout)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc, timeout: float) -> str:
    """Wait for a worker and return its remaining output; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run_worker(args: list) -> tuple:
    proc, setup = spawn(args, RUN_TIMEOUT_S)
    lines = finish(proc, RUN_TIMEOUT_S).splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), setup


def measure(workload, seed, seconds, trace, scale, spec) -> dict:
    base = ["--workload", workload, "--seed", seed, "--seconds", seconds,
            "--scale", scale]
    if not trace:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = spawn(base + ["--setup-only"], SETUP_TIMEOUT_S)
            finish(proc, SETUP_TIMEOUT_S)
            setups.append(setup)
        result, setup = run_worker(base)
        setups.append(setup)
        figures = {"setup_s": statistics.median(setups),
                   "part_a_ref": result["part_a_ref"],
                   "part_b_ref": result["part_b_ref"],
                   "peak_rss_mb": result["peak_rss_mb"]}
        metrics = spec["end_to_end"]
        checked = [result]
    else:
        plain, _ = run_worker(base + ["--passes", 1])
        result, _ = run_worker(base + ["--passes", 1, "--trace"])
        figures = dict(result["layers"])
        figures["trace.overhead_s"] = result["wall_s"] - plain["wall_s"]
        metrics = spec["per_layer"]
        checked = [plain, result]
    missing = [m["name"] for m in metrics if m["name"] not in figures]
    if missing:
        raise BenchError(f"no figure for metrics {missing}")
    return {
        "workload": workload, "seed": seed, "trace": trace, "result": result,
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "messages": [m for r in checked for m in r["messages"]],
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def report(outcome: dict) -> None:
    """Human-readable lines: inputs, then every figure with its unit."""
    result = outcome["result"]
    print(f"workload {outcome['workload']}  seed {outcome['seed']}  "
          f"trace {outcome['trace']}  passes {result['passes']}  "
          f"wall {result['wall_s']:.2f} s")
    print("inputs " + json.dumps(result["inputs"], separators=(",", ":")))
    rows = dict(outcome["metrics"])
    if not outcome["trace"]:
        rows.update({k: {"value": v, "unit": u} for k, (v, u) in result["details"].items()})
    for name, m in rows.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  operations attempted {outcome['attempted']}, failed {outcome['failed']}")
    for message in outcome["messages"]:
        print(f"  FAILED: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke runs tiny inputs, for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "dualbch" / "__init__.py").is_file():
        print("bench: no src/dualbch here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    try:
        outcomes = [measure(w, args.seed, seconds, t, args.scale, spec) for w, t in jobs]
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        report(outcome)
    for outcome in outcomes:
        print(json.dumps({"correct": outcome["failed"] == 0,
                          "attempted": outcome["attempted"],
                          "failed": outcome["failed"],
                          "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
