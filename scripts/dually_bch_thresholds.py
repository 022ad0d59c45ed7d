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

from dualbch.bch import bch_spec
from dualbch.cyclotomic import coset_table
from dualbch.dualtools import delta_sweep, dually_bch_closed
from dualbch.gf import prime_power


def families(max_n):
    for q in range(2, int(max_n**0.5) + 2):
        if prime_power(q) is None:
            continue
        s = 1
        while (q ** (3 * s) - 1) // (q**s - 1) <= max_n:
            m = 3 * s
            while (q**m - 1) // (q**s - 1) <= max_n:
                yield q, m, {"s": s}
                m += s
            s += 1
    for q in range(3, max_n // 2 + 2):
        if prime_power(q) is None:
            continue
        for lam in range(1, q - 1):
            if (q - 1) % lam:
                continue
            m = 2
            while (q**m - 1) // lam <= max_n:
                yield q, m, {"lam": lam}
                m += 1


def threshold_direct(table):
    false_deltas = [d for d, (_, verdict, _) in enumerate(delta_sweep(table), 2)
                    if not verdict]
    return max(false_deltas, default=1)


def threshold_closed(q, m, kw, table, n):
    try:
        verdicts = [dually_bch_closed(bch_spec(q, m, d, **kw), table)
                    for d in range(2, n + 1)]
    except ValueError:
        return None
    false_deltas = [d for d, v in zip(range(2, n + 1), verdicts) if not v]
    return max(false_deltas) if false_deltas else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=500,
                        help="largest code length to include (default 500)")
    args = parser.parse_args()

    print(f"{'q':>3} {'m':>3} {'family':<10} {'n':>6} {'direct':>7} "
          f"{'closed':>7} agree")
    disagreements = 0
    for q, m, kw in families(args.max_n):
        spec = bch_spec(q, m, 2, **kw)
        n = spec.n
        table = coset_table(n, q)
        direct = threshold_direct(table)
        closed = threshold_closed(q, m, kw, table, n)
        fam = f"s={kw['s']}" if "s" in kw else f"lam={kw['lam']}"
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
