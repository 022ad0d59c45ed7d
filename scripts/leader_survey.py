#!/usr/bin/env python3
"""Survey the largest q-cyclotomic coset leaders: closed forms vs brute force.

For every prime power q and every m with q^m - 1 below the cap, tabulates the
top coset leaders modulo q^m - 1, (q^m - 1)/(q - 1) and (q^m - 1)/2 (where
defined), from both the closed-form expressions and a direct scan of the
coset table.

    python3 scripts/leader_survey.py --max-order 100000 --qs 2,3,5,7
"""

import argparse

from dualbch.cyclotomic import (
    LEADER_FAMILIES,
    coset_table,
    largest_leaders,
    largest_leaders_closed_form,
    leader_family_modulus,
)
from dualbch.gf import prime_power


def survey(qs, max_order):
    print(f"{'q':>3} {'m':>3} {'family':<10} {'n':>8} {'closed form':<22} "
          f"{'brute force':<22} agree")
    mismatches = 0
    for q in qs:
        if prime_power(q) is None:
            raise SystemExit(f"q={q} is not a prime power")
        m = 4
        while q**m - 1 <= max_order:
            for family in LEADER_FAMILIES:
                try:
                    closed = largest_leaders_closed_form(q, m, family)
                except ValueError:  # outside the family's hypotheses
                    continue
                n = leader_family_modulus(q, m, family)
                brute = largest_leaders(coset_table(n, q), len(closed))
                agree = closed == brute
                mismatches += not agree
                print(f"{q:>3} {m:>3} {family:<10} {n:>8} "
                      f"{str(closed):<22} {str(brute):<22} "
                      f"{'yes' if agree else 'NO'}")
            m += 1
    print(f"\n{mismatches} mismatches")
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-order", type=int, default=10**5,
                        help="largest q^m - 1 to scan (default 1e5)")
    parser.add_argument("--qs", default="2,3,5,7",
                        help="comma-separated prime powers (default 2,3,5,7)")
    args = parser.parse_args()
    qs = [int(tok) for tok in args.qs.split(",")]
    raise SystemExit(1 if survey(qs, args.max_order) else 0)


if __name__ == "__main__":
    main()
