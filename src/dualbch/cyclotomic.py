"""q-cyclotomic cosets modulo n, coset leaders, and closed-form leader lists.

The coset of a modulo n is {a q^j mod n}; its leader is the smallest member.
coset_table computes the full leader array in O(n log m) int32 numpy passes
via pointer doubling on the permutation i -> q i mod n, for n up to MAX_N =
2^24.  The leaders need no sort: a leader is exactly a fixed point of the
leader array, so one comparison with arange(n) lists them in ascending order.

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

import numpy as np
from sympy import n_order

MAX_N = 1 << 24  # largest code length or modulus accepted; tables are O(n) int32


def plainly_above_max_n(q: int, m: int, lam: int = 1, s: int | None = None) -> bool:
    """Whether n = (q^m - 1)/lambda surely exceeds MAX_N, from bit lengths alone.

    lambda is q^s - 1 when s is given, else lam.  With b = bits(q) - 1, so
    that q >= 2^b, n >= q^(m-s) >= 2^((m-s) b) in the power form and
    n >= 2^(m b - bits(lam)) otherwise.  So a vast length is refused before
    q^m, which may have millions of digits, is taken.  False still calls for
    the exact comparison with MAX_N.
    """
    b = q.bit_length() - 1
    floor_bits = (m - s) * b if s is not None else m * b - lam.bit_length()
    return floor_bits >= MAX_N.bit_length()


def multiplicative_order(q: int, n: int) -> int:
    """Order of q in (Z/n)^*; n = 1 gives 1."""
    if n == 1:
        return 1
    return int(n_order(q, n))


class CosetTable:
    """Leaders of every q-cyclotomic coset modulo n.

    leader_of[a] is the smallest element of the coset of a; it is int32,
    since n <= MAX_N.  Immutable after construction (the array is marked
    read-only).  The leaders, which are the fixed points a = leader_of[a],
    and the cosets map are built on first use.  direct_rows is the memo of
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
            lead = self.leader_of
            leaders = np.flatnonzero(lead == np.arange(self.n, dtype=lead.dtype))
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

    Requires gcd(n, q) = 1 so that multiplication by q permutes Z_n, and
    n <= MAX_N, which keeps every index and leader inside int32.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds MAX_N = {MAX_N}")
    if q < 2:
        raise ValueError(f"q={q} must be >= 2")
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n, q) = {math.gcd(n, q)} != 1")
    if n == 1:
        return CosetTable(1, q, np.zeros(1, dtype=np.int32))
    m = multiplicative_order(q, n)
    perm = np.arange(n, dtype=np.int64)
    perm *= q % n  # below n^2 <= 2^48; reduced, it fits int32
    perm %= n
    perm = perm.astype(np.int32)
    lead = np.arange(n, dtype=np.int32)
    # after r doubling rounds, lead[a] = min of a's orbit under 2^r steps;
    # perm is then the step by q^(2^r), so the last round needs no square
    for r in range(max(1, math.ceil(math.log2(m)))):
        if r:
            perm = perm[perm]
        np.minimum(lead, lead[perm], out=lead)
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
