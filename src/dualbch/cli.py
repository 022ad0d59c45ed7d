"""Command-line interface.

Four subcommands:

``cosets``
    Coset partition and largest leaders modulo n, with closed-form
    cross-checks where a formula exists.
``dual-bound``
    Lower bounds on the minimum distance of the dual of a narrow-sense BCH
    code, optionally certified against the true distance.
``dually-bch``
    Per-delta verdicts on whether the dual is itself a BCH code, over a
    single delta or an inclusive range.
``verify``
    Regression run of every pinned reference value plus the property-check
    grids; exits 2 on any mismatch.

Exit codes: 0 success, 1 precondition violation (including bad flags),
2 verification mismatch.  Output formats: aligned text table (default),
csv (one block per section, ``#section:<name>`` headers), or json (stable
schema, ``json.dumps(..., indent=2, sort_keys=True)``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

from .bch import (
    BchSpec,
    Family,
    bch_spec,
    code_length,
    defining_set,
    dual_code_params,
    dual_defining_set,
)
from .cyclotomic import (
    LEADER_FAMILIES,
    coset_table,
    largest_leaders,
    largest_leaders_closed_form,
    leader_family_modulus,
)
from .dualtools import (
    bound_report,
    delta_sweep,
    dual_lower_bound,
    dually_bch_closed,
    dually_bch_closed_intervals,
    dually_bch_direct,
)
from .gf import field_new, prime_power
from .mindist import DEFAULT_BUDGET, DEFAULT_TRIALS, MAX_SEARCH_ELEMS, certify, search_fits
from .propchecks import load_grid_manifest, run_grid

NO_CLOSED_FORM_S = "n/a (s>1: no closed form)"
NO_CLOSED_FORM_M = "n/a (m<4: no closed form)"
NO_CLOSED_FORM_LAMBDA = "n/a (lambda not computed: q^m too large)"
MAX_LAMBDA_BITS = 4096  # cosets --n takes q^m, m = ord_n(q), only up to this size


class CliError(Exception):
    """Precondition violation; rendered to stderr with exit code 1."""


# ---------------------------------------------------------------------------
# Report assembly and rendering
# ---------------------------------------------------------------------------

@dataclass
class Section:
    name: str
    columns: list
    rows: list


@dataclass
class Report:
    command: str
    inputs: dict
    sections: list = field(default_factory=list)

    def add(self, name, columns, rows):
        self.sections.append(Section(name, list(columns), [list(r) for r in rows]))

    def to_obj(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "sections": [
                {"name": s.name, "columns": s.columns, "rows": s.rows}
                for s in self.sections
            ],
        }


def _fmt(value):
    if value is None:
        return ""
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


def render_table(report: Report) -> str:
    out = []
    for sec in report.sections:
        out.append(f"== {sec.name} ==")
        cells = [[_fmt(c) for c in sec.columns]]
        cells += [[_fmt(v) for v in row] for row in sec.rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(sec.columns))]
        for j, row in enumerate(cells):
            out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if j == 0:
                out.append("  ".join("-" * w for w in widths))
        out.append("")
    return "\n".join(out)


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for sec in report.sections:
        buf.write(f"#section:{sec.name}\n")
        writer.writerow(sec.columns)
        for row in sec.rows:
            writer.writerow([_fmt(v) for v in row])
        buf.write("\n")
    return buf.getvalue()


def render_json(report: Report) -> str:
    return json.dumps(report.to_obj(), indent=2, sort_keys=True)


RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}


def emit(report: Report, fmt: str) -> None:
    try:
        print(RENDERERS[fmt](report), flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`): exit 1 quietly, with
        # stdout on /dev/null so the flush at interpreter exit cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise SystemExit(1) from None


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; remap to 1 (2 is reserved for
    verification mismatches)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(lo):
    """argparse type for ints that must be at least lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _add_common(parser):
    parser.add_argument("--format", choices=("table", "csv", "json"),
                        default="table", help="output format")
    # read by nothing, since the property grids run serially; kept so that
    # command lines passing it still parse
    parser.add_argument("--threads", type=_positive_int, help=argparse.SUPPRESS)


def _add_family(parser):
    parser.add_argument("--q", type=int, required=True, help="field size")
    parser.add_argument("--m", type=_positive_int, required=True,
                        help="extension degree (code length divides q^m-1)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=int,
                       help="length n = (q^m-1)/lambda with lambda | q-1")
    group.add_argument("--s", type=_positive_int,
                       help="length n = (q^m-1)/(q^s-1) with s | m")


@contextmanager
def _relayed():
    """Relay the ValueError of an input rule as a CliError.

    Each rule is checked by the module that owns it: Family and
    bch.code_length for (q, m, lambda) and the length, and
    cyclotomic.check_modulus, which coset_table runs first, for a modulus.
    """
    try:
        yield
    except ValueError as e:
        raise CliError(str(e)) from None


def _family(args) -> Family:
    """The Family of --q, --m and --lambda or --s, with its length computed."""
    with _relayed():
        family = Family(args.q, args.m, args.lam, args.s)
        family.n  # a length too large to compute is refused here
    return family


def _parse_delta_range(text):
    try:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise CliError(f"--delta-range expects A:B, got {text!r}") from None
    if lo > hi:
        raise CliError(f"empty delta range {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------

def _closed_form_leaders(q, m, lam, s, count):
    """Closed-form values for the largest leaders, or an n/a reason string.

    A formula applies where a leader family's modulus is (q^m - 1)/lambda
    and its hypotheses hold, all needing m >= 4.  The lambda = 2, q = 3
    length is in both "q_minus_1" and "half"; they agree on the shared
    leader, and the longer list wins.  lam is None where q^m was too large
    to take.
    """
    if s is not None and s > 1:
        return NO_CLOSED_FORM_S
    if m < 4:
        return NO_CLOSED_FORM_M
    if lam is None:
        return NO_CLOSED_FORM_LAMBDA
    values = {}
    for family in LEADER_FAMILIES:
        if leader_family_modulus(q, m, family) != (q**m - 1) // lam:
            continue
        try:
            leaders = largest_leaders_closed_form(q, m, family)
        except ValueError:
            continue
        for rank, value in enumerate(leaders):
            assert values.setdefault(rank, value) == value
    if not values:
        return f"n/a (lambda={lam}: no closed form)"
    return [values.get(r) for r in range(count)]


def cmd_cosets(args) -> int:
    q, m, lam, s = args.q, args.m, args.lam, args.s
    if prime_power(q) is None:
        raise CliError(f"q={q} is not a prime power")
    if args.n is not None and (m is not None or lam is not None or s is not None):
        raise CliError("--n replaces --m/--lambda/--s")
    if args.n is None and m is None:
        raise CliError("need --n, or --m with --lambda or --s")
    if args.n is None and lam is None and s is None:
        raise CliError("need --lambda or --s alongside --m")
    with _relayed():
        if args.n is not None:
            n = args.n
            table = coset_table(n, q)
            m = table.m
            # the order can be as large as n - 1, and q^m then has millions of digits
            lam = (q**m - 1) // n if m * q.bit_length() <= MAX_LAMBDA_BITS else None
        else:
            if s is not None:
                family = _family(args)
                lam, n = family.lam, family.n
            else:  # any divisor of q^m - 1, not only of q - 1
                n = code_length(q, m, lam)
            table = coset_table(n, q)

    report = Report("cosets", {"q": q, "n": n, "m": m, "lambda": lam})
    num_cosets = len(table.leaders)
    report.add("summary", ["n", "q", "m", "lambda", "cosets"],
               [[n, q, m, lam, num_cosets]])

    top = largest_leaders(table, min(args.top, num_cosets))
    closed = _closed_form_leaders(q, m, lam, s, len(top)) if args.closed_form else None
    rows = []
    for rank, leader in enumerate(top):
        row = [rank + 1, int(leader)]
        if args.closed_form:
            if isinstance(closed, str):
                row += [closed, None]
            elif closed[rank] is None:
                row += ["n/a (no formula at this rank)", None]
            else:
                row += [closed[rank], closed[rank] == int(leader)]
        rows.append(row)
    columns = ["rank", "leader"] + (["closed_form", "agree"] if args.closed_form else [])
    report.add("largest_leaders", columns, rows)

    if args.members:
        rows = [[leader, len(members), " ".join(str(x) for x in members)]
                for leader, members in sorted(table.cosets.items())]
        report.add("cosets", ["leader", "size", "members"], rows)

    emit(report, args.format)
    return 0


# ---------------------------------------------------------------------------
# dual-bound
# ---------------------------------------------------------------------------

def cmd_dual_bound(args) -> int:
    family = _family(args)
    with _relayed():
        spec = BchSpec(family, args.delta)
        table = coset_table(spec.n, spec.q)
    rep = bound_report(spec, table)
    if args.certify and not search_fits(spec.q, rep.dual_dim, spec.n):
        raise CliError(f"--certify: q*dual_dim*n = {spec.q * rep.dual_dim * spec.n} "
                       f"exceeds the search cap {MAX_SEARCH_ELEMS}")

    report = Report("dual-bound", {
        "q": spec.q, "m": spec.m, "lambda": spec.lam, "delta": spec.delta,
        "n": spec.n,
    })
    report.add("parameters", ["n", "dim", "dual_dim", "delta"],
               [[spec.n, spec.n - rep.dual_dim, rep.dual_dim, spec.delta]])
    report.add(
        "dual_distance_bounds",
        ["i_delta_direct", "i_delta_closed", "lower_bound_direct", "lower_bound_closed"],
        [[rep.i_delta_direct, rep.i_delta_closed,
          rep.lower_bound_direct, rep.lower_bound_closed]],
    )
    report.add("prior_bounds", ["name", "value", "vacuous"],
               [[b.name, b.value, b.vacuous] for b in rep.prior_bounds])
    report.add(
        "dually_bch",
        ["direct", "witness", "closed_form", "delta1", "delta2"],
        [[rep.dually_bch_direct, rep.dually_bch_witness, rep.dually_bch_closed,
          rep.delta1, rep.delta2]],
    )

    if args.certify:
        try:
            ctx = field_new(spec.q, spec.m)
        except ValueError as err:
            raise CliError(f"cannot build GF({spec.q}^{spec.m}): {err}") from None
        params = dual_code_params(spec, ctx, table)
        cert = certify(params, rep, budget=args.budget, trials=args.trials,
                       seed=args.seed)
        report.add(
            "distance_certificate",
            ["lower", "upper", "status", "method", "lower_source",
             "witness_weight", "seed"],
            [[cert.lower, cert.upper, cert.status, cert.method,
              cert.lower_source,
              sum(1 for c in cert.witness if c), cert.seed]],
        )

    emit(report, args.format)
    return 0


# ---------------------------------------------------------------------------
# dually-bch
# ---------------------------------------------------------------------------

def cmd_dually_bch(args) -> int:
    if (args.delta is None) == (args.delta_range is None):
        raise CliError("need exactly one of --delta or --delta-range")
    family = _family(args)
    n = family.n
    if args.delta_range is not None:
        lo, hi = _parse_delta_range(args.delta_range)
    else:
        lo = hi = args.delta
    if not (2 <= lo and hi <= n):
        raise CliError(f"delta range [{lo}, {hi}] outside [2, {n}]")

    with _relayed():
        table = coset_table(n, args.q)
    try:
        closed = dually_bch_closed_intervals(family, table)
    except ValueError:
        closed = None  # outside the threshold theorems' hypotheses
    rows = [[delta, verdict, witness,
             None if closed is None else any(a <= delta <= b for a, b in closed)]
            for delta, (_, verdict, witness) in enumerate(delta_sweep(table, lo, hi), lo)]

    report = Report("dually-bch", {
        "q": args.q, "m": args.m, "lambda": family.lam,
        "delta_range": [lo, hi], "n": n,
    })
    report.add("verdicts", ["delta", "dually_bch", "witness", "closed_form"], rows)

    intervals = []
    for delta, verdict, _, _ in rows:
        if verdict:
            if intervals and intervals[-1][1] == delta - 1:
                intervals[-1][1] = delta
            else:
                intervals.append([delta, delta])
    report.add("true_intervals", ["start", "end"], intervals)
    threshold = intervals[-1][0] - 1 if intervals and intervals[-1][1] == n else None
    report.add("summary", ["threshold"], [[threshold]])

    emit(report, args.format)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_SECTIONS = ("leaders", "closed_forms", "bounds", "certify",
                   "dually_bch", "grids")

LEADER_CASES = [(3, 91, 49), (3, 757, 388), (5, 312, 247), (7, 114, 95)]
CLOSED_FORM_CASES = [
    (2, 6, "full", [31, 27, 23]),
    (3, 4, "q_minus_1", [25]),
    (3, 4, "half", [25, 22]),
]
BOUND_CASES = [
    # (q, m, delta, lam, expected bound, expected true dual distance)
    (2, 6, 3, 1, 32, 32),
    (2, 6, 15, 1, 8, 8),
    (3, 3, 5, 1, 9, 9),
    (5, 2, 3, 1, 15, 16),
]
DUALLY_BCH_CASES = [
    # (q, m, {lam|s}, threshold): dually-BCH iff threshold < delta <= n
    (3, 6, {"s": 2}, 49),
    (3, 9, {"s": 3}, 388),
    (5, 4, {"lam": 2}, 247),
    (7, 3, {"lam": 3}, 95),
]

def _verify_rows(only, grids_path):
    rows = []

    def check(section, name, expected, computed):
        rows.append([section, name, _fmt(expected), _fmt(computed),
                     "OK" if expected == computed else "FAIL"])

    if "leaders" in only:
        for q, n, expected in LEADER_CASES:
            table = coset_table(n, q)
            check("leaders", f"largest leader mod {n}, base {q}",
                  expected, int(largest_leaders(table, 1)[0]))
    if "closed_forms" in only:
        for q, m, family, expected in CLOSED_FORM_CASES:
            got = [int(v) for v in largest_leaders_closed_form(q, m, family)]
            check("closed_forms", f"q={q} m={m} family={family}", expected, got)
            n = leader_family_modulus(q, m, family)
            brute = [int(v) for v in largest_leaders(coset_table(n, q), len(expected))]
            check("closed_forms", f"q={q} m={m} family={family} vs brute force",
                  got, brute)
    if "bounds" in only:
        for q, m, delta, lam, expected, _ in BOUND_CASES:
            spec = bch_spec(q, m, delta, lam=lam)
            check("bounds", f"dual distance bound q={q} m={m} delta={delta}",
                  expected, dual_lower_bound(spec))
    if "certify" in only:
        for q, m, delta, lam, _, true_distance in BOUND_CASES:
            spec = bch_spec(q, m, delta, lam=lam)
            table = coset_table(spec.n, q)
            params = dual_code_params(spec, field_new(q, m), table)
            cert = certify(params, bound_report(spec, table))
            check("certify", f"true dual distance q={q} m={m} delta={delta}",
                  f"{true_distance} (exact)", f"{cert.upper} ({cert.status})")
    if "dually_bch" in only:
        for q, m, kind, threshold in DUALLY_BCH_CASES:
            spec = bch_spec(q, m, 2, **kind)
            table = coset_table(spec.n, q)
            name = " ".join(f"{k}={v}" for k, v in kind.items())
            for delta, expected in [(threshold, False), (threshold + 1, True),
                                    (spec.n, True)]:
                s2 = bch_spec(q, m, delta, **kind)
                verdict, _ = dually_bch_direct(
                    dual_defining_set(defining_set(s2, table)), table)
                check("dually_bch", f"q={q} m={m} {name} delta={delta}",
                      expected, verdict)
                check("dually_bch", f"q={q} m={m} {name} delta={delta} closed form",
                      expected, dually_bch_closed(s2, table))
    if "grids" in only:
        try:
            manifest = load_grid_manifest(grids_path)
            results = run_grid(manifest)
        except (OSError, ValueError) as e:
            if grids_path is None:
                raise  # the default grid is tested; this is a defect
            raise CliError(f"grid manifest {grids_path}: {e}") from None
        cases = [(g["lemma_id"], c) for g in manifest["grids"] for c in g["cases"]]
        for (lemma_id, case), result in zip(cases, results):
            name = " ".join(f"{k}={v}" for k, v in case.items())
            check("grids", f"{result.lemma_id} {name}",
                  "0 failures", f"{len(result.failures)} failures")
    return rows


def cmd_verify(args) -> int:
    only = tuple(args.only) if args.only else VERIFY_SECTIONS
    for section in only:
        if section not in VERIFY_SECTIONS:
            raise CliError(f"unknown section {section!r}; "
                           f"choose from {', '.join(VERIFY_SECTIONS)}")
    rows = _verify_rows(set(only), args.grids)
    report = Report("verify", {"only": list(only)})
    report.add("checks", ["section", "name", "expected", "computed", "status"], rows)
    failures = sum(1 for r in rows if r[-1] != "OK")
    report.add("summary", ["checks", "failures"], [[len(rows), failures]])
    emit(report, args.format)
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> Parser:
    parser = Parser(prog="dualbch",
                    description="Narrow-sense BCH codes and bounds on their duals.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    p = sub.add_parser("cosets", help="coset partition and largest leaders")
    p.add_argument("--q", type=int, required=True, help="field size")
    p.add_argument("--n", type=int, help="modulus (must be coprime to q)")
    p.add_argument("--m", type=_positive_int,
                   help="extension degree, with --lambda or --s")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=int,
                       help="modulus n = (q^m-1)/lambda")
    group.add_argument("--s", type=_positive_int, help="modulus n = (q^m-1)/(q^s-1)")
    p.add_argument("--top", type=_positive_int, default=3, help="how many largest leaders")
    p.add_argument("--closed-form", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="compare the largest leaders against the closed forms")
    p.add_argument("--members", action="store_true",
                   help="list the full coset partition")
    _add_common(p)
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("dual-bound", help="bounds on the dual distance")
    _add_family(p)
    p.add_argument("--delta", type=int, required=True, help="designed distance")
    p.add_argument("--certify", action="store_true",
                   help="also determine or bracket the true dual distance")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                   help="codeword cap for exhaustive search")
    p.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS,
                   help="information-set trials when exhaustion is too large")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="search seed")
    _add_common(p)
    p.set_defaults(func=cmd_dual_bound)

    p = sub.add_parser("dually-bch", help="is the dual itself a BCH code?")
    _add_family(p)
    p.add_argument("--delta", type=int, help="single designed distance")
    p.add_argument("--delta-range", help="inclusive range A:B of designed distances")
    _add_common(p)
    p.set_defaults(func=cmd_dually_bch)

    p = sub.add_parser("verify", help="re-check all pinned reference values")
    p.add_argument("--only", action="append", metavar="SECTION",
                   help=f"restrict to a section (repeatable): "
                        f"{', '.join(VERIFY_SECTIONS)}")
    p.add_argument("--grids", help="path to a property-grid manifest "
                                   "(default: the built-in grids)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"dualbch {args.command}: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
