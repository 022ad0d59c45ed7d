#!/usr/bin/env python3
"""Sweep delta for one code family and tabulate every dual-distance bound.

For each designed distance the script reports I(delta) (direct scan and
closed form), the resulting lower bound on the dual distance, the direct
cyclic-run bound on the dual defining set, the best applicable prior bound,
and the dually-BCH verdict.  It exits 1, naming each delta, where the
direct and closed-form I(delta) or dually-BCH verdicts disagree; a closed
value outside its theorem's hypotheses is not compared.  It also exits 1
where bound_report's closed columns, kept once per segment of deltas,
differ from dual_lower_bound or dually_bch_closed at that delta, or its
prior bounds from frozen_prior_bounds: the prior bounds have no direct
route, so they are checked against that frozen per-delta statement, which
shares no code with the case tables they are read from.  And
it exits 1 where bound_report's direct columns, which come from one pass
over the table once it has answered a second segment, differ from the
scans of that delta's masks: defining_set, dual_defining_set, then
i_delta_direct, dually_bch_direct and bch_bound_from_set.

    python3 scripts/bound_survey.py --q 2 --m 6 --lambda 1
    python3 scripts/bound_survey.py --q 3 --m 6 --s 2 --deltas 2:20
"""

import argparse
import sys

from dualbch.bch import bch_bound_from_set, bch_spec, defining_set, dual_defining_set
from dualbch.cyclotomic import coset_table
from dualbch.dualtools import (
    bound_report,
    dual_lower_bound,
    dually_bch_closed,
    dually_bch_direct,
    i_delta_direct,
)
from dualbch.oracles import frozen_prior_bounds


def per_delta_direct(spec, table):
    """bound_report's direct columns at spec.delta, from the scans of its masks."""
    t = defining_set(spec, table)
    t_perp = dual_defining_set(t)
    return (int(t.sum()), i_delta_direct(t_perp), *dually_bch_direct(t_perp, table),
            bch_bound_from_set(t_perp))


def per_delta_closed(spec, table):
    """bound_report's closed columns at spec.delta, from the per-delta functions.

    The prior bounds come from frozen_prior_bounds, not prior_bounds, which
    reads the same case tables as bound_report.
    """
    try:
        lower = dual_lower_bound(spec)
    except ValueError:
        lower = None
    try:
        verdict = dually_bch_closed(spec, table)
    except ValueError:
        verdict = None
    return None if lower is None else lower - 1, lower, verdict, frozen_prior_bounds(spec)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=int)
    group.add_argument("--s", type=int)
    parser.add_argument("--deltas", default=None,
                        help="inclusive range A:B (default: all of [2, n])")
    args = parser.parse_args()

    spec0 = bch_spec(args.q, args.m, 2, lam=args.lam, s=args.s)
    n = spec0.n
    lo, hi = 2, n
    if args.deltas:
        lo, hi = (int(t) for t in args.deltas.split(":"))
    table = coset_table(n, args.q)

    print(f"n = {n}, q = {args.q}, m = {args.m}, lambda = {spec0.lam}")
    print(f"{'delta':>6} {'I_direct':>8} {'I_closed':>8} {'bound':>6} "
          f"{'run_bound':>9} {'best_prior':>18} {'dually_bch':>10}")
    disagreements = []
    for delta in range(lo, hi + 1):
        spec = bch_spec(args.q, args.m, delta, lam=args.lam, s=args.s)
        rep = bound_report(spec, table)
        useful = [b for b in rep.prior_bounds if not b.vacuous]
        prior = max(useful, key=lambda b: b.value) if useful else None
        prior_txt = f"{prior.value} ({prior.name[:12]})" if prior else "-"
        print(f"{delta:>6} {rep.i_delta_direct:>8} "
              f"{rep.i_delta_closed if rep.i_delta_closed is not None else '-':>8} "
              f"{rep.lower_bound_closed if rep.lower_bound_closed is not None else '-':>6} "
              f"{rep.lower_bound_direct:>9} {prior_txt:>18} "
              f"{'yes' if rep.dually_bch_direct else 'no':>10}")
        if rep.i_delta_closed not in (None, rep.i_delta_direct):
            disagreements.append(f"delta={delta}: I(delta) direct {rep.i_delta_direct}, "
                                 f"closed {rep.i_delta_closed}")
        if rep.dually_bch_closed not in (None, rep.dually_bch_direct):
            disagreements.append(f"delta={delta}: dually-BCH direct {rep.dually_bch_direct}, "
                                 f"closed {rep.dually_bch_closed}")
        closed = (rep.i_delta_closed, rep.lower_bound_closed, rep.dually_bch_closed,
                  rep.prior_bounds)
        if closed != per_delta_closed(spec, table):
            disagreements.append(f"delta={delta}: bound_report's closed columns differ "
                                 f"from the per-delta functions and frozen prior bounds")
        direct = (rep.dual_dim, rep.i_delta_direct, rep.dually_bch_direct,
                  rep.dually_bch_witness, rep.lower_bound_direct)
        if direct != per_delta_direct(spec, table):
            disagreements.append(f"delta={delta}: bound_report's direct columns differ "
                                 f"from the scans of T_perp")
    for line in disagreements:
        print(f"disagreement at {line}", file=sys.stderr)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
