"""q-cyclotomic cosets modulo n, coset leaders, and closed-form leader lists.

The coset of a modulo n is {a q^j mod n}; its leader is the smallest member.
coset_table computes the full leader array in O(n log m) numpy passes via
pointer doubling on the permutation i -> q i mod n, which keeps n up to a
few million comfortable.

largest_leaders_closed_form evaluates the known closed expressions for the
largest coset leaders for three modulus families:

  "full"       n = q^m - 1           -> three largest leaders
  "q_minus_1"  n = (q^m - 1)/(q - 1) -> largest leader (q >= 3)
  "half"       n = (q^m - 1)/2       -> two largest leaders (q odd)

all pinned to m >= 4, where the expressions are exact;
leader_family_modulus gives the family's n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from sympy import n_order

MAX_N = 1 << 24  # largest code length or modulus accepted; tables are O(n)


def multiplicative_order(q: int, n: int) -> int:
    """Order of q in (Z/n)^*; n = 1 gives 1."""
    if n == 1:
        return 1
    return int(n_order(q, n))


class CosetTable:
    """Leaders of every q-cyclotomic coset modulo n.

    leader_of[a] is the smallest element of the coset of a.  Immutable after
    construction (the array is marked read-only); the sorted leaders and the
    cosets map are built on first use.  direct_rows is the memo of
    dualtools.bound_report's direct columns, one entry per segment of deltas
    that share a dual defining set, so it lives and dies with the table.
    """

    def __init__(self, n, q, leader_of):
        self.n = n
        self.q = q
        leader_of.setflags(write=False)
        self.leader_of = leader_of
        self._leaders = None
        self._cosets = None
        self.direct_rows = {}

    def __repr__(self):
        return f"CosetTable(n={self.n}, q={self.q})"

    @property
    def leaders(self) -> np.ndarray:
        """The distinct coset leaders, ascending (read-only)."""
        if self._leaders is None:
            leaders = np.unique(self.leader_of)
            leaders.setflags(write=False)
            self._leaders = leaders
        return self._leaders

    @property
    def cosets(self) -> dict[int, list[int]]:
        """Map: leader -> sorted list of coset members."""
        if self._cosets is None:
            order = np.argsort(self.leader_of, kind="stable")
            cs = {}
            for a in order:
                cs.setdefault(int(self.leader_of[a]), []).append(int(a))
            self._cosets = cs
        return self._cosets


def coset_table(n: int, q: int) -> CosetTable:
    """Compute all q-cyclotomic coset leaders modulo n.

    Requires gcd(n, q) = 1 so that multiplication by q permutes Z_n.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if q < 2:
        raise ValueError(f"q={q} must be >= 2")
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n, q) = {math.gcd(n, q)} != 1")
    if n == 1:
        return CosetTable(1, q, np.zeros(1, dtype=np.int64))
    m = multiplicative_order(q, n)
    lead = np.arange(n, dtype=np.int64)
    perm = (lead * q) % n
    # after r doubling rounds, lead[a] = min of a's orbit under 2^r steps
    for _ in range(max(1, math.ceil(math.log2(m)))):
        lead = np.minimum(lead, lead[perm])
        perm = perm[perm]
    return CosetTable(n, q, lead)


def coset_leader(table: CosetTable, a: int) -> int:
    """Smallest element of the coset of a modulo table.n."""
    if not 0 <= a < table.n:
        raise ValueError(f"a={a} out of range [0, {table.n})")
    return int(table.leader_of[a])


def largest_leaders(table: CosetTable, count: int) -> list[int]:
    """The count largest coset leaders modulo n, descending."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [int(v) for v in table.leaders[::-1][:count]]


@dataclass(frozen=True)
class QAdic:
    """q-adic digit vector of an integer, most significant digit first."""

    digits: tuple[int, ...]
    q: int

    @property
    def value(self) -> int:
        v = 0
        for d in self.digits:
            v = v * self.q + d
        return v


def q_adic(i: int, q: int, m: int) -> QAdic:
    """Digits of i in base q, padded to length m, most significant first."""
    if q < 2:
        raise ValueError(f"q={q} must be >= 2")
    if not 0 <= i < q**m:
        raise ValueError(f"i={i} out of range [0, q^m={q**m})")
    ds = []
    for _ in range(m):
        i, d = divmod(i, q)
        ds.append(d)
    return QAdic(tuple(reversed(ds)), q)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


LEADER_FAMILIES = ("full", "q_minus_1", "half")


def leader_family_modulus(q: int, m: int, family: str) -> int:
    """The modulus n of a closed-form leader family: q^m - 1 over 1, q - 1 or 2."""
    divisor = {"full": 1, "q_minus_1": q - 1, "half": 2}.get(family)
    if divisor is None:
        raise ValueError(f"unknown family {family!r}")
    return (q**m - 1) // divisor


def largest_leaders_closed_form(q: int, m: int, family: str) -> list[int]:
    """Closed-form largest coset leaders for the given modulus family.

    Valid for m >= 4 in every family; "q_minus_1" additionally needs q >= 3
    and "half" needs odd q.  Values are leaders modulo
    leader_family_modulus(q, m, family).
    """
    if m < 4:
        raise ValueError(f"m={m}: closed forms are only exact for m >= 4")
    if q < 2:
        raise ValueError(f"q={q} must be >= 2")
    if family == "full":
        d1 = (q - 1) * q ** (m - 1) - 1
        d2 = (q - 1) * q ** (m - 1) - q ** ((m - 1) // 2) - 1
        d3 = (q - 1) * q ** (m - 1) - q ** ((m + 1) // 2) - 1
        return [d1, d2, d3]
    if family == "q_minus_1":
        if q < 3:
            raise ValueError("family 'q_minus_1' needs q >= 3")
        s = sum(q ** _ceil_div(m * t - (q - 1), q - 1) for t in range(1, q - 1))
        num = s - q + 2
        if num % (q - 1):
            raise ArithmeticError("leader formula numerator not divisible")  # unreachable
        return [q ** (m - 1) - 1 - num // (q - 1)]
    if family == "half":
        if q % 2 == 0:
            raise ValueError("family 'half' needs odd q")
        a = (q - 1) * q ** (m - 1)
        d1, r1 = divmod(a - q ** ((m - 1) // 2) - 1, 2)
        d2, r2 = divmod(a - q ** ((m + 1) // 2) - 1, 2)
        if r1 or r2:
            raise ArithmeticError("leader formula numerator not even")  # unreachable
        return [d1, d2]
    raise ValueError(f"unknown family {family!r}")
