#!/usr/bin/env python3
"""Tabulate dually-BCH thresholds across small code families.

For each family the threshold is the largest delta whose dual is NOT a BCH
code, so every delta above it passes (binary codes may also pass at the
isolated small values delta = 2, 3).  The direct sweep decides every delta
from the coset table; the closed-form column comes from the
iff-characterizations where their hypotheses hold.

    python3 scripts/dually_bch_thresholds.py --max-n 1000
"""

import argparse

from dualbch.bch import theorem_families
from dualbch.cyclotomic import coset_table
from dualbch.dualtools import delta_sweep, dually_bch_closed_intervals


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=500,
                        help="largest code length to include (default 500)")
    args = parser.parse_args()

    print(f"{'q':>3} {'m':>3} {'family':<10} {'n':>6} {'direct':>7} "
          f"{'closed':>7} agree")
    disagreements = 0
    for family in theorem_families(args.max_n):
        q, m, n = family.q, family.m, family.n
        table = coset_table(n, q)
        sweep = enumerate(delta_sweep(table), 2)
        direct = max((d for d, (_, v, _) in sweep if not v), default=1)
        try:  # the last interval ends at n, and the threshold is just below it
            closed = dually_bch_closed_intervals(family, table)[-1][0] - 1
        except ValueError:  # outside the closed form's hypotheses
            closed = None
        fam = f"lam={family.lam}" if family.s is None else f"s={family.s}"
        if closed is None:
            agree = "n/a"
        elif closed == direct:
            agree = "yes"
        else:
            agree = "NO"
            disagreements += 1
        closed_txt = "-" if closed is None else str(closed)
        print(f"{q:>3} {m:>3} {fam:<10} {n:>6} {direct:>7} {closed_txt:>7} {agree}")
    print(f"\n{disagreements} disagreements")
    raise SystemExit(1 if disagreements else 0)


if __name__ == "__main__":
    main()
