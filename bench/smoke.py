"""Self-test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Run from the root of a checkout.  It
  * re-derives every pinned distance in pinned.json by naive enumeration
    (all q^k messages times the generator matrix), except the simplex code
    2,14,3, whose weight 2^(m-1) is a theorem;
  * runs every workload through run.py at --scale smoke, untraced once and
    traced twice with one seed, and requires a correct result, every metric
    of BENCHMARK.json, and count metrics that repeat exactly;
  * feeds each workload's checks a wrong answer and requires a failure;
  * requires run.py to refuse, without a result line, in a directory that
    holds only BENCHMARK.json and bench/.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import dualbch  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def naive_distance(q: int, m: int, delta: int) -> int:
    spec = dualbch.bch_spec(q, m, delta, lam=1)
    params = dualbch.dual_code_params(spec, dualbch.field_new(q, m),
                                      dualbch.coset_table(spec.n, q))
    gen = dualbch.generator_matrix(params).astype(np.int64)
    msgs = np.array(list(itertools.product(range(q), repeat=params.k))[1:], dtype=np.int64)
    return int(np.count_nonzero(msgs @ gen % q, axis=1).min())


def check_pinned() -> None:
    for (q, m, delta), d in workloads.PINNED.items():
        if (q, m, delta) != (2, 14, 3):
            expect(naive_distance(q, m, delta) == d, f"pinned distance {q},{m},{delta} = {d}")


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def check_runs() -> None:
    for workload in workloads.WORKLOADS:
        untraced = result_of(bench(workload, 0))
        traced = [result_of(bench(workload, 1)) for _ in range(2)]
        for res, kind in [(untraced, "end_to_end")] + [(t, "per_layer") for t in traced]:
            names = [m["name"] for m in SPEC[kind]]
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{workload} {kind}: correct, nothing failed")
            expect(list(res["metrics"]) == names, f"{workload} {kind}: every metric present")
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] != "s"} for t in traced]
        expect(counts[0] == counts[1], f"{workload}: count metrics repeat exactly")


def check_checks() -> None:
    """Every kind of check reports a wrong answer as a failed operation."""
    run = workloads.Run()
    bad = types.SimpleNamespace(spec=types.SimpleNamespace(delta=5), i_delta_direct=3,
                                i_delta_closed=4, lower_bound_closed=4,
                                dually_bch_direct=True, dually_bch_closed=False,
                                dually_bch_witness=3)
    workloads._check_report(run, 1, "fake", bad)
    sections = {"verdicts": {"rows": [[2, False, 2, True]]}, "summary": {"rows": [[7]]}}
    workloads._check_sweep_cli(run, 2, "fake", 2, sections, {2: bad})
    expect(run.failed_ops == {1, 2} and len(run.messages) == 5, "sweep checks catch a bad report")

    saved = dict(workloads.PINNED)
    workloads.PINNED[2, 6, 3] += 1
    run = workloads.Run()
    code = {"pool": "enumerable", "q": 2, "m": 6, "delta": 3, "trials": 1, "seed": 0}
    workloads.certify_unit(run, code, workloads.CertificateCapture())()
    workloads.PINNED.update(saved)
    expect(run.failed_ops == {1}, "certify check catches a wrong pinned distance")

    inputs = workloads.generate("large-n", 7, "smoke")
    inputs["grid_manifest"]["grids"][0]["cases"].append({})
    run = workloads.Run()
    closed_form = workloads.largest_leaders_closed_form
    workloads.largest_leaders_closed_form = lambda q, m, family: [0]
    for unit in workloads.units("large-n", inputs, run):
        unit()
    workloads.largest_leaders_closed_form = closed_form
    expect(run.failed_ops == {1, 3, 5, 7}, "large-n checks catch wrong leaders and a grid miscount")


def check_refusal() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("sweep", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "refuses without the package source")


def main() -> int:
    check_pinned()
    check_checks()
    check_refusal()
    check_runs()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
