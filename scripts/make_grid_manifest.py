#!/usr/bin/env python3
"""Regenerate the default property-check grid manifest.

Enumerates every parameter tuple inside the checks' hypotheses up to fixed
size cutoffs and writes ``src/dualbch/data/prop_grids.json``.  The floor
checks sweep cosets modulo q^m - 1, so they are capped by that modulus; the
membership checks work modulo the code length n and are capped by n.

Run from the repository root:

    python3 scripts/make_grid_manifest.py [--max-order 1000000] [--max-n 10000]
"""

import argparse
import json
from pathlib import Path

from dualbch.bch import theorem_families

QS = (2, 3, 5, 7)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def power_floor_cases(max_order):
    cases = []
    for q in QS:
        m = 3
        while q**m - 1 <= max_order:
            cases += [{"q": q, "s": s, "m": m} for s in divisors(m) if m // s >= 3]
            m += 1
    return cases


def divisor_floor_cases(max_order):
    cases = []
    for q in QS:
        for lam in divisors(q - 1)[:-1]:  # every divisor but q - 1
            m = 2
            while q**m - 1 <= max_order:
                cases.append({"q": q, "lam": lam, "m": m})
                m += 1
    return cases


def membership_cases(max_n):
    cases = []
    for q, m, kw, _ in theorem_families(max_n):
        if q not in QS:
            continue
        if kw.get("s", 0) >= 2:
            cases.append({"q": q, "kind": "power", "s": kw["s"], "m": m})
        elif kw.get("lam", 0) > 1:
            cases.append({"q": q, "kind": "divisor", "lam": kw["lam"], "m": m})
    return cases


def build_manifest(max_order, max_n):
    return {
        "schema": "dualbch-prop-grids/1",
        "max_floor_modulus": max_order,
        "max_membership_length": max_n,
        "grids": [
            {"lemma_id": "leader_floor_power_form",
             "cases": power_floor_cases(max_order)},
            {"lemma_id": "leader_floor_divisor_form",
             "cases": divisor_floor_cases(max_order)},
            {"lemma_id": "tperp_leader_membership",
             "cases": membership_cases(max_n)},
        ],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-order", type=int, default=10**6,
                        help="largest q^m - 1 for the floor checks")
    parser.add_argument("--max-n", type=int, default=10**4,
                        help="largest code length for the membership checks")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "src" / "dualbch" / "data" / "prop_grids.json")
    args = parser.parse_args()
    manifest = build_manifest(args.max_order, args.max_n)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(manifest, indent=1) + "\n")
    total = sum(len(g["cases"]) for g in manifest["grids"])
    print(f"wrote {args.out} ({total} cases)")


if __name__ == "__main__":
    main()
