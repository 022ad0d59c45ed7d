"""Seeded inputs, timed calls and output checks for the benchmark workloads.

sweep    full-range ``dually-bch`` sweeps, plus a ``bound_report`` loop over
         every delta with one shared table, for one family per stratum.
certify  ``dual-bound --certify`` over an enumerable pool with pinned exact
         distances and an information-set (ISD) pool that stays bracketed.
large-n  ``cosets`` and ``dual-bound`` calls at moduli of 0.5-2e6, and one
         ``verify --only grids`` call on a generated manifest.

Each workload is a list of units run in order, one pass after another.  A
unit makes its calls, times each from outside the package, and checks the
outputs after the clock stops.  Calls are looked up on their module at call
time, so the traced run sees them; the checks use references bound when this
module is imported, before any tracing is installed.

The seed picks what does not change the load: the order of the sweep's
families and deltas, the large-n deltas, the ISD seeds, and certify codes
among alternatives of near-equal cost.  So runs with different seeds load
the package alike.  Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import dualbch
from dualbch import cli
from dualbch import (  # check-side references, never traced
    bch_spec,
    generator_matrix,
    in_row_space,
    largest_leaders_closed_form,
)

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
PINNED = {tuple(int(v) for v in key.split(",")): d for key, d in json.loads(
    (BENCH_DIR / "pinned.json").read_text())["distances"].items()}

# One family (q, m, flag, value) per stratum: q = 2 power form, odd q with
# s = 1, s >= 2, divisor form with lambda = 1 and with lambda > 1.  flag is
# "s" for length (q^m-1)/(q^s-1) and "lambda" for (q^m-1)/lambda.  Every
# family is inside the hypotheses of the closed forms, so both routes answer
# every delta.  The families are fixed because same-stratum alternatives
# differ in cost by up to 20%, which would show as spread between seeds.
SWEEP_FAMILIES = {
    "full": [(2, 11, "s", 1), (13, 4, "s", 1), (2, 12, "s", 2),
             (3, 7, "lambda", 1), (5, 5, "lambda", 2)],
    "smoke": [(2, 6, "s", 1), (3, 4, "s", 1), (2, 6, "s", 2),
              (4, 3, "lambda", 1), (5, 3, "lambda", 2)],
}

# Codes (q, m, delta) with lambda = 1; (stratum, candidates, how many).
CERTIFY_POOLS = {
    "full": {
        "trials": 4,
        "enumerable": [
            ("long", [(2, 14, 3)], 1),
            ("mid", [(2, 8, 4), (3, 5, 3), (7, 3, 3)], 1),
            ("small", [(2, 6, 3), (2, 6, 5), (2, 7, 3), (2, 7, 5), (2, 8, 3),
                       (3, 3, 5), (3, 4, 3), (5, 2, 3), (5, 3, 3), (7, 2, 3)], 4),
        ],
        "isd": [
            ("k32_binary", [(2, 8, 8), (2, 9, 8)], 1),
            ("k32_odd_q", [(3, 6, 9), (5, 4, 10)], 1),
            ("k80_n1023", [(2, 10, 16)], 1),
            ("k160_n1023", [(2, 10, 32)], 1),
        ],
    },
    "smoke": {
        "trials": 1,
        "enumerable": [
            ("long", [(2, 8, 3)], 1),
            ("small", [(2, 6, 3), (3, 3, 5), (5, 2, 3)], 2),
        ],
        "isd": [("k32_binary", [(2, 8, 8)], 1)],
    },
}

# Moduli (q, m, lambda, closed-form leader families), and property-grid
# cases at these moduli and at 2^21-1, 7^7-1, 9^6-1 and 17^5-1.  The grid runs every case in
# a fixed order: its tables set the peak memory, which would otherwise vary
# with the seed.
LARGE_N = {
    "full": {
        "moduli": [
            (2, 20, 1, ["full"]),
            (3, 13, 1, ["full"]),
            (3, 13, 2, ["half", "q_minus_1"]),
            (5, 9, 4, ["q_minus_1"]),
            (4, 10, 1, ["full"]),
        ],
        "grid_cases": [
            *[("leader_floor_power_form", {"q": 2, "s": s, "m": 20}) for s in (1, 2, 4, 5)],
            ("leader_floor_power_form", {"q": 3, "s": 1, "m": 13}),
            ("leader_floor_divisor_form", {"q": 3, "lam": 1, "m": 13}),
            ("leader_floor_power_form", {"q": 4, "s": 1, "m": 10}),
            ("leader_floor_power_form", {"q": 4, "s": 2, "m": 10}),
            ("leader_floor_divisor_form", {"q": 4, "lam": 1, "m": 10}),
            *[("leader_floor_divisor_form", {"q": 5, "lam": lam, "m": 9}) for lam in (1, 2)],
            ("tperp_leader_membership", {"q": 2, "kind": "power", "s": 2, "m": 20}),
            ("tperp_leader_membership", {"q": 2, "kind": "power", "s": 4, "m": 20}),
            ("tperp_leader_membership", {"q": 4, "kind": "power", "s": 2, "m": 10}),
            ("tperp_leader_membership", {"q": 5, "kind": "divisor", "lam": 2, "m": 9}),
            *[("leader_floor_power_form", {"q": 2, "s": s, "m": 21}) for s in (1, 3, 7)],
            *[("leader_floor_divisor_form", {"q": 7, "lam": lam, "m": 7}) for lam in (1, 2, 3)],
            *[("tperp_leader_membership", {"q": 2, "kind": "power", "s": s, "m": 21})
              for s in (3, 7)],
            *[("tperp_leader_membership", {"q": 7, "kind": "divisor", "lam": lam, "m": 7})
              for lam in (2, 3)],
            *[("leader_floor_power_form", {"q": 9, "s": s, "m": 6}) for s in (1, 2)],
            *[("leader_floor_divisor_form", {"q": 9, "lam": lam, "m": 6}) for lam in (1, 2, 4)],
            ("leader_floor_power_form", {"q": 17, "s": 1, "m": 5}),
            *[("leader_floor_divisor_form", {"q": 17, "lam": lam, "m": 5})
              for lam in (1, 2, 4, 8)],
            *[("tperp_leader_membership", {"q": 17, "kind": "divisor", "lam": lam, "m": 5})
              for lam in (2, 4, 8)],
            *[("tperp_leader_membership", {"q": 9, "kind": "divisor", "lam": lam, "m": 6})
              for lam in (2, 4)],
        ],
    },
    "smoke": {
        "moduli": [
            (2, 10, 1, ["full"]),
            (3, 6, 2, ["half", "q_minus_1"]),
            (5, 4, 4, ["q_minus_1"]),
        ],
        "grid_cases": [
            ("leader_floor_power_form", {"q": 2, "s": 1, "m": 10}),
            ("leader_floor_divisor_form", {"q": 3, "lam": 1, "m": 6}),
            ("tperp_leader_membership", {"q": 2, "kind": "power", "s": 2, "m": 6}),
            ("tperp_leader_membership", {"q": 5, "kind": "divisor", "lam": 2, "m": 4}),
        ],
    },
}

WORKLOADS = ("sweep", "certify", "large-n")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def generate(workload: str, seed: int, scale: str) -> dict:
    """The workload's inputs for one seed: JSON data, enough to replay a run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        fams = [list(f) for f in SWEEP_FAMILIES[scale]]
        rng.shuffle(fams)
        # the report loop visits the deltas in a seeded order
        return {"families": [f + [rng.randrange(1 << 31)] for f in fams]}
    if workload == "certify":
        pools = CERTIFY_POOLS[scale]
        codes = []
        for pool in ("enumerable", "isd"):
            for _, cands, k in pools[pool]:
                for q, m, delta in rng.sample(cands, k):
                    codes.append({"pool": pool, "q": q, "m": m, "delta": delta,
                                  "trials": pools["trials"],
                                  "seed": rng.randrange(1 << 31)})
        rng.shuffle(codes)
        return {"codes": codes}
    if workload == "large-n":
        spec = LARGE_N[scale]
        moduli = []
        for q, m, lam, families in spec["moduli"]:
            n = (q**m - 1) // lam
            # log-uniform, so small deltas (the interval cases) are drawn too
            delta = min(n, max(2, round(n ** rng.random())))
            moduli.append({"q": q, "m": m, "lambda": lam, "n": n,
                           "families": families, "delta": delta})
        grid = {}
        for lemma_id, case in spec["grid_cases"]:
            grid.setdefault(lemma_id, []).append(case)
        manifest = {"schema": dualbch.MANIFEST_SCHEMA,
                    "grids": [{"lemma_id": k, "cases": v} for k, v in grid.items()]}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"grids-{scale}.json"
        path.write_text(json.dumps(manifest, indent=1))
        return {"moduli": moduli, "grid_manifest": manifest,
                "grid_path": str(path.relative_to(BENCH_DIR.parent))}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# run bookkeeping
# ---------------------------------------------------------------------------

REF_DATA = np.random.default_rng(0).integers(0, 1 << 30, 100_000)
REF_SMALL = REF_DATA[:2000]
REF_TABLE = np.arange(1 << 22, dtype=np.int32)
REF_INDEX = np.random.default_rng(1).integers(0, 1 << 22, 1 << 20, dtype=np.int32)
# Reference times on each side of a unit that normalise its samples; two
# spread less across runs than one or three when the benchmark was tuned.
REF_WINDOW = 2


def reference_s() -> float:
    """Seconds for a fixed kernel that shares no code with dualbch.

    It mixes what the workloads spend their time on: numpy calls on small
    arrays, hashing and sorting a mid-size array, a gather from a table
    larger than the caches, and Python dict and list building.  The
    machine's speed drifts by tens of percent over seconds to minutes;
    dividing each timed call by this kernel's time next to it cancels most
    of that drift.  The median of three runs damps the kernel's own noise.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(50):
            np.unique(REF_SMALL)
        np.unique(REF_DATA)
        np.argsort(REF_DATA, kind="stable")
        REF_TABLE[REF_INDEX].sum()
        groups = {}
        for i in range(10_000):
            groups.setdefault(i % 977, []).append(i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """Timings, operation counts and check failures of one workload run.

    An operation is one CLI call or one library call the benchmark makes;
    it fails when it raises, exits nonzero or any check on it fails.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = defaultdict(list)  # (part, label) -> [seconds]
        self.attempted = 0
        self.failed_ops = set()
        self.messages = []
        self.counts = defaultdict(float)
        self.gaps = {}  # ISD code -> upper - lower; same on every pass
        self.ref = []  # reference-kernel seconds, one before the first unit
                       # and one after each unit

    def next_op(self) -> int:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        return self.attempted

    def untraced(self):
        """Context in which calls into dualbch leave no spans."""
        return self.tracer.off() if self.tracer else contextlib.nullcontext()

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.messages) < 20:
            self.messages.append(message)

    def part_s(self, part: str) -> float:
        """Seconds for one pass over the part: sum of per-unit medians."""
        return sum(statistics.median(t for t, _ in v)
                   for (p, _), v in self.samples.items() if p == part)

    def part_ref(self, part: str) -> float:
        """One pass over the part in reference-kernel units.

        Each sample is divided by the median of the REF_WINDOW reference
        times on each side of its unit, then the per-unit medians of these
        ratios are summed.
        """
        def ratio(seconds, i):
            near = self.ref[max(0, i - REF_WINDOW + 1):i + REF_WINDOW + 1]
            return seconds / statistics.median(near)

        return sum(statistics.median(ratio(t, i) for t, i in v)
                   for (p, _), v in self.samples.items() if p == part)

    def calibrate(self) -> None:
        """Time the reference kernel between units; see reference_s."""
        self.ref.append(reference_s())

    def sample(self, part: str, label: str, seconds: float) -> None:
        # the reference runs before this unit end at index len(self.ref) - 1
        self.samples[part, label].append((seconds, len(self.ref) - 1))

    def all_samples(self, part: str) -> list:
        return [t for (p, _), v in self.samples.items() if p == part for t, _ in v]

    def cli(self, argv: list):
        """Call dualbch.cli.main in-process; (op, seconds, sections or None)."""
        argv = [str(a) for a in argv]
        op = self.next_op()
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit) as e:  # a crash is a failed operation
            rc = repr(e)
        seconds = time.perf_counter() - t0
        out = buf.getvalue()
        self.counts["cli.bytes_out"] += len(out.encode())
        if rc != 0:
            self.fail(op, f"{' '.join(argv)}: exit {rc}")
            return op, seconds, None
        try:
            sections = {s["name"]: s for s in json.loads(out)["sections"]}
        except (ValueError, KeyError) as e:
            self.fail(op, f"{' '.join(argv)}: unreadable output ({e})")
            return op, seconds, None
        return op, seconds, sections


def _rows(sections, name):
    return sections[name]["rows"]


def _family_argv(q, m, flag, value):
    return ["--q", q, "--m", m, f"--{flag}", value]


def _spec_kwargs(flag, value):
    return {"s": value} if flag == "s" else {"lam": value}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_unit(run: Run, family: list):
    q, m, flag, value, order_seed = family
    label = f"q={q} m={m} {flag}={value}"
    kwargs = _spec_kwargs(flag, value)
    n = bch_spec(q, m, 2, **kwargs).n

    def unit():
        cli_op, seconds, sections = run.cli(
            ["dually-bch", *_family_argv(q, m, flag, value),
             "--delta-range", f"2:{n}", "--format", "json", "--threads", 1])
        run.sample("a", label, seconds)
        run.counts["verdicts"] += n - 1

        order = list(range(2, n + 1))
        random.Random(order_seed).shuffle(order)
        reports, errors = {}, {}
        t0 = time.perf_counter()
        table = dualbch.coset_table(n, q)
        for delta in order:
            op = run.next_op()
            try:
                reports[delta] = dualbch.bound_report(
                    dualbch.bch_spec(q, m, delta, **kwargs), table)
            except Exception as e:  # counted, then the loop goes on
                errors[delta] = (op, repr(e))
        run.sample("b", label, time.perf_counter() - t0)
        run.counts["reports"] += n - 1

        first_op = cli_op + 1
        for delta, (op, err) in errors.items():
            run.fail(op, f"{label} delta={delta}: bound_report raised {err}")
        for i, delta in enumerate(order):
            if delta in reports:
                _check_report(run, first_op + i, label, reports[delta])
        if sections is not None:
            _check_sweep_cli(run, cli_op, label, n, sections, reports)

    return unit


def _check_report(run, op, label, r):
    i = r.i_delta_direct
    if (r.i_delta_closed, r.lower_bound_closed) != (i, i + 1):
        run.fail(op, f"{label} delta={r.spec.delta}: I direct {i}, closed "
                     f"{r.i_delta_closed}, closed lower bound {r.lower_bound_closed}")
    if r.dually_bch_closed != r.dually_bch_direct:
        run.fail(op, f"{label} delta={r.spec.delta}: verdict direct "
                     f"{r.dually_bch_direct} != closed {r.dually_bch_closed}")


def _check_sweep_cli(run, op, label, n, sections, reports):
    rows = _rows(sections, "verdicts")
    if [r[0] for r in rows] != list(range(2, n + 1)):
        run.fail(op, f"{label}: CLI sweep does not cover 2..{n}")
    for delta, verdict, witness, closed in rows:
        if closed != verdict:
            run.fail(op, f"{label} delta={delta}: CLI verdict {verdict} != closed {closed}")
        r = reports.get(delta)
        if r is not None and (verdict, witness) != (r.dually_bch_direct,
                                                    r.dually_bch_witness):
            run.fail(op, f"{label} delta={delta}: CLI and bound_report disagree")
    if _rows(sections, "summary")[0][0] != _threshold(reports, n):
        run.fail(op, f"{label}: CLI threshold != bound_report threshold")


def _threshold(reports, n):
    """Largest delta whose dual is not BCH, if every delta above it is."""
    if len(reports) != n - 1 or not reports[n].dually_bch_direct:
        return None
    delta = n
    while delta - 1 in reports and reports[delta - 1].dually_bch_direct:
        delta -= 1
    return delta - 1


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

class CertificateCapture:
    """Keeps the (params, certificate) of each certify call the CLI makes.

    The CLI prints only the witness weight; checking the witness itself needs
    the certificate, so the CLI's binding of certify is wrapped (after the
    tracer, if any, so traced timings still include the call).
    """

    def __init__(self):
        self.last = None
        inner = cli.certify

        def capture(params, bounds, **kwargs):
            cert = inner(params, bounds, **kwargs)
            self.last = (params, cert)
            return cert

        cli.certify = capture


def certify_unit(run: Run, code: dict, capture: CertificateCapture):
    q, m, delta, pool = code["q"], code["m"], code["delta"], code["pool"]
    label = f"q={q} m={m} delta={delta}"
    part = "a" if pool == "enumerable" else "b"

    def unit():
        capture.last = None
        op, seconds, sections = run.cli(
            ["dual-bound", *_family_argv(q, m, "lambda", 1), "--delta", delta,
             "--certify", "--trials", code["trials"], "--seed", code["seed"],
             "--format", "json", "--threads", 1])
        run.sample(part, label, seconds)
        if sections is None:
            return
        lower, upper, status = _rows(sections, "distance_certificate")[0][:3]
        if lower > upper:
            run.fail(op, f"{label}: lower {lower} > upper {upper}")
        if pool == "enumerable":
            expect = PINNED[q, m, delta]
            if (status, upper) != ("exact", expect):
                run.fail(op, f"{label}: {status} distance {upper}, pinned {expect}")
        else:
            run.gaps[label] = upper - lower
        if capture.last is None:
            run.fail(op, f"{label}: no certificate captured")
            return
        params, cert = capture.last
        if (cert.lower, cert.upper) != (lower, upper):
            run.fail(op, f"{label}: printed bracket differs from the certificate")
        witness = np.array(cert.witness, dtype=np.int32)
        if int(np.count_nonzero(witness)) != upper:
            run.fail(op, f"{label}: witness weight != upper")
        with run.untraced():
            member = in_row_space(witness, generator_matrix(params), params.generator.field)
        if not member:
            run.fail(op, f"{label}: witness not in the row space")

    return unit


# ---------------------------------------------------------------------------
# large-n
# ---------------------------------------------------------------------------

def cosets_unit(run: Run, mod: dict):
    q, m, lam, n, delta = mod["q"], mod["m"], mod["lambda"], mod["n"], mod["delta"]
    label = f"n={n} q={q}"

    def unit():
        op, seconds, sections = run.cli(
            ["cosets", *_family_argv(q, m, "lambda", lam), "--top", 3,
             "--format", "json", "--threads", 1])
        run.sample("a", f"cosets {label}", seconds)
        if sections is not None:
            leaders = [row[1] for row in _rows(sections, "largest_leaders")]
            for family in mod["families"]:
                closed = largest_leaders_closed_form(q, m, family)
                if leaders[:len(closed)] != closed:
                    run.fail(op, f"{label}: leaders {leaders} != closed form "
                                 f"{family} {closed}")
        op, seconds, sections = run.cli(
            ["dual-bound", *_family_argv(q, m, "lambda", lam), "--delta", delta,
             "--format", "json", "--threads", 1])
        run.sample("a", f"dual-bound {label}", seconds)
        if sections is None:
            return
        i_direct, i_closed, _, lower_closed = _rows(sections, "dual_distance_bounds")[0]
        direct, _, closed = _rows(sections, "dually_bch")[0][:3]
        where = f"{label} delta={delta}"
        if i_direct != i_closed:
            run.fail(op, f"{where}: I direct {i_direct} != closed {i_closed}")
        if lower_closed != i_direct + 1:
            run.fail(op, f"{where}: closed lower bound {lower_closed} != I + 1")
        if closed != direct:
            run.fail(op, f"{where}: verdict direct {direct} != closed {closed}")

    return unit


def grid_unit(run: Run, inputs: dict):
    cases = sum(len(g["cases"]) for g in inputs["grid_manifest"]["grids"])
    path = BENCH_DIR.parent / inputs["grid_path"]

    def unit():
        op, seconds, sections = run.cli(
            ["verify", "--only", "grids", "--grids", path, "--format", "json",
             "--threads", 1])
        run.sample("b", "verify grids", seconds)
        if sections is not None:
            checks, failures = _rows(sections, "summary")[0]
            if (checks, failures) != (cases, 0):
                run.fail(op, f"grid verify: {failures} failures in {checks} checks "
                             f"({cases} cases)")

    return unit


def units(workload: str, inputs: dict, run: Run) -> list:
    """The callables of one pass, in order."""
    if workload == "sweep":
        return [sweep_unit(run, f) for f in inputs["families"]]
    if workload == "certify":
        capture = CertificateCapture()
        return [certify_unit(run, c, capture) for c in inputs["codes"]]
    return [cosets_unit(run, mod) for mod in inputs["moduli"]] + [grid_unit(run, inputs)]


def details(workload: str, run: Run) -> dict:
    """The workload's own figures, (value, unit), for the human report."""
    out = {"fail_ratio": (len(run.failed_ops) / max(run.attempted, 1), "ratio"),
           "part_a_s": (run.part_s("a"), "s"),
           "part_b_s": (run.part_s("b"), "s"),
           "reference_s": (statistics.median(run.ref), "s")}
    if workload == "sweep":
        out["verdicts_per_s"] = (run.counts["verdicts"] / sum(run.all_samples("a")), "1/s")
        out["reports_per_s"] = (run.counts["reports"] / sum(run.all_samples("b")), "1/s")
    elif workload == "certify":
        out["enum_s"] = (run.part_s("a"), "s")
        out["isd_s"] = (run.part_s("b"), "s")
        out["cert_gap"] = (sum(run.gaps.values()), "count")
    else:
        calls = run.all_samples("a")
        out["call_s_p50"] = (statistics.median(calls), "s")
        out["call_samples"] = (len(calls), "count")
        out["grid_s"] = (run.part_s("b"), "s")
    return out
