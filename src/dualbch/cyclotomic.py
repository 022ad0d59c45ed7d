"""q-cyclotomic cosets modulo n, coset leaders, and closed-form leader lists.

The coset of a modulo n is {a q^j mod n}; its leader is the smallest member.
coset_table computes the leaders in ascending order, for n up to MAX_N =
2^24, and its CosetTable holds only them and m = ord_n(q), which
multiplicative_order finds from phi(n) and the trial-division factorings of
n and phi(n) (intmath.factorize).  The build depends only on m.  For
m <= 64, at any n (every (q^m - 1)/lambda within MAX_N has m <= 24), a
sieve keeps a only while a <= a q^j mod n for every j in [1, m), which
leaves exactly the leaders.  For a step s = q^j mod n >= 2,
a s mod n is a s - k n with k = floor(a s / n), so a passes it exactly on
the s - 1 bands [ceil(k n/(s - 1)), ceil((k + 1) n/s)), k = 0 .. s - 2,
about half of Z_n.  The sieve intersects the bands of its smallest steps,
n/2^8 bands in all at most, and tests only the residues left, 11-27% of Z_n
at the bench moduli, on the other steps in blocks; it builds no array of n
elements.  The sieve makes up to m numpy calls per block, so it would take
minutes where m is close to n; above m = 64 the build marks orbits instead:
the least residue not yet marked is a leader, and its orbit is marked in a
bool array over Z_n, many powers of q per numpy call.  The int32 leader
array leader_of is scattered over the leaders' orbits when first read, as
the largest leaders, T = C_1 u ... u C_{delta-1} and the dually-BCH verdict
of one delta all follow from the leaders alone.

check_modulus is the one rule for a modulus: 1 <= n <= MAX_N, q >= 2 and
gcd(n, q) = 1.  coset_table runs it first, and a caller that would factor
n or allocate O(n) before the table runs it too, so a modulus past the cap
is refused before either.

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

from .intmath import factorize

# largest modulus check_modulus accepts: leader_of, when read, is int32, and
# the table's products a q^j stay below n^2 <= 2^48, so _reduce_mod is exact
MAX_N = 1 << 24
_BLOCK = 1 << 15  # elements per block of the sieve, the marking and the scatters
_BAND_SHIFT = 8  # the sieve's banded steps hold at most n >> _BAND_SHIFT bands in all
# above, the sieve's m calls per block grow with m and the marking's fall:
# it serves every order up to n - 1, and no (q^m - 1)/lambda needs it
_SIEVE_MAX_ORDER = 64


def check_modulus(n: int, q: int) -> None:
    """Raise ValueError unless coset_table can tabulate modulo n for base q.

    n must be in [1, MAX_N], which keeps every index and leader inside
    int32, q >= 2, and gcd(n, q) = 1 so that multiplication by q permutes
    Z_n.  The size comes before the gcd, so a vast n costs no division.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the size cap {MAX_N}")
    if q < 2:
        raise ValueError(f"q={q} must be >= 2")
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n, q) = {math.gcd(n, q)} != 1")


def multiplicative_order(q: int, n: int) -> int:
    """Order of q in (Z/n)^*; n = 1 gives 1, and gcd(q, n) > 1 raises ValueError.

    The order divides phi(n), so it starts there and drops each prime factor
    of phi(n) while q to the smaller exponent is still 1.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if math.gcd(q, n) != 1:
        raise ValueError(f"gcd(q, n) = {math.gcd(q, n)} != 1: q={q} is not a unit mod n={n}")
    if n == 1:
        return 1
    phi = math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n).items())
    order = phi
    for p, e in factorize(phi).items():
        for _ in range(e):
            if pow(q, order // p, n) != 1:
                break
            order //= p
    return order


class CosetTable:
    """Leaders of every q-cyclotomic coset modulo n.

    leaders lists the distinct leaders ascending, and m is ord_n(q), which
    the build found; the table holds nothing else of its own.  leader_of[a]
    is the smallest element of the coset of a, int32 as n <= MAX_N, built
    on first read by scattering every leader over its orbit; its fixed
    points a = leader_of[a] are the leaders.  Both arrays are read-only.
    union_below and the cosets map, built on first use, walk only the
    orbits they need.  direct_columns and closed_columns are the memos of
    dualtools.bound_report.  direct_columns maps k to the direct row of the
    deltas with k leaders below them.  closed_columns holds its closed
    columns, one dualtools.ClosedColumns per code family, which fills a row
    per segment of the closed forms' cases as queries reach it.  They live
    and die with the table.
    """

    def __init__(self, n, q, leaders, m):
        self.n = n
        self.q = q
        self.m = m
        leaders.setflags(write=False)
        self.leaders = leaders
        self._leader_of = None
        self._cosets = None
        self.direct_columns = {}
        self.closed_columns = {}

    def __repr__(self):
        return f"CosetTable(n={self.n}, q={self.q})"

    @property
    def leader_of(self) -> np.ndarray:
        """The int32 leader of every residue, scattered from the leaders on first read."""
        if self._leader_of is None:
            lead = np.empty(self.n, dtype=np.int32)
            _scatter_orbits(lead, self.leaders, self.leaders, self.n, self.q, self.m)
            lead.setflags(write=False)
            self._leader_of = lead
        return self._leader_of

    def union_below(self, delta: int) -> np.ndarray:
        """The residues whose leader is in [1, delta-1], C_1 u ... u C_{delta-1}, as a bool mask.

        The mask is writable, scattered from those leaders' orbits in O(|union|).
        """
        mask = np.zeros(self.n, dtype=bool)
        _scatter_orbits(mask, self.leaders[1:int(self.leaders.searchsorted(delta))], True,
                        self.n, self.q, self.m)
        return mask

    @property
    def cosets(self) -> dict[int, list[int]]:
        """Map: leader -> sorted list of coset members, each the orbit of its leader."""
        if self._cosets is None:
            self._cosets = {l: sorted(orbit(l, self.n, self.q)) for l in map(int, self.leaders)}
        return self._cosets


def coset_table(n: int, q: int) -> CosetTable:
    """Compute all q-cyclotomic coset leaders modulo n.

    (n, q) must pass check_modulus, which runs first.  The build is the
    sieve where m = ord_n(q) <= _SIEVE_MAX_ORDER, at any n, else the orbit
    marking.  Each returns only the ascending leaders, and the table builds
    leader_of on its first read.
    """
    check_modulus(n, q)
    m = multiplicative_order(q, n)
    build = _sieve_build if m <= _SIEVE_MAX_ORDER else _marking_build
    return CosetTable(n, q, build(n, q, m), m)


def orbit(a: int, n: int, q: int) -> list[int]:
    """The coset of a modulo n in orbit order, a q^j mod n for j = 0, 1, ...: a scalar walk."""
    out = [a]
    while (b := out[-1] * q % n) != a:
        out.append(b)
    return out


def _reduce_mod(y: np.ndarray, n: int, quot: np.ndarray | None = None) -> np.ndarray:
    """Reduce the int64 array y >= 0 modulo n in place and return it.

    y - (y // n) n is exact for every such y and costs about 1.3 ns per
    element against 4.7 ns for numpy's % (2-vCPU VM).  The callers' products
    stay far below 2^63: under n^2 <= 2^48 here and in propchecks' floor
    sweeps, whose progressions stay under q^(m+1).
    quot, if given, is int64 scratch of y's shape.
    """
    quot = np.floor_divide(y, n, out=quot)
    quot *= n
    y -= quot
    return y


def _sieve_build(n: int, q: int, m: int) -> np.ndarray:
    """The leaders, ascending, by the leader sieve, for m up to _SIEVE_MAX_ORDER.

    a is a leader iff a <= a q^j mod n for every j in [1, m).  For a step
    s = q^j mod n in [2, n) and k = floor(a s / n), a s mod n = a s - k n,
    so a <= a s mod n iff a >= k n/(s - 1): the residues that pass the step
    are the s - 1 bands [ceil(k n/(s - 1)), ceil((k + 1) n/s)), k = 0 .. s - 2.
    The smallest steps, as many as hold n >> _BAND_SHIFT bands in all, are
    tested exactly this way, by intersecting their bands (_step_bands,
    _intersect_bands); that keeps 11-27% of Z_n at the bench moduli, and a
    table with n < 2^_BAND_SHIFT has no banded step and keeps all of Z_n.
    The survivors are walked in blocks of _BLOCK candidates, each
    tested on the remaining steps in the order j = m-1, 1, m-2, 2, ...; most
    residues fail one of the first, and the survivors of the blocks, in
    order, are the leaders ascending.  No array of n elements is built: the
    band arrays hold at most n/2^_BAND_SHIFT bands, the blocks _BLOCK.
    """
    steps = [pow(q, m - 1 - i // 2 if i % 2 == 0 else 1 + i // 2, n) for i in range(m - 1)]
    budget, top = n >> _BAND_SHIFT, 1  # the banded steps are those <= top
    for s in sorted(steps):
        budget -= s - 1
        if budget < 0:
            break
        top = s
    lo, hi = _intersect_bands([_step_bands(s, n) for s in steps if s <= top], n)
    steps = [s for s in steps if s > top]
    return np.concatenate([_sieve_leaders(a, n, steps) for a in _blocks(lo, hi)])


def _step_bands(s: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonempty bands [lo, hi) of the residues a with a <= a s mod n, for 2 <= s < n.

    Band k, for k = 0 .. s - 2, is [ceil(k n/(s - 1)), ceil((k + 1) n/s)):
    the a with floor(a s / n) = k and a (s - 1) >= k n.  The bands are
    disjoint and ascending.
    """
    k = np.arange(s - 1, dtype=np.int64)  # k n < s n <= n^2/2^8 + n < 2^41: exact in int64
    lo = -(k * -n // (s - 1))
    hi = -((k + 1) * -n // s)
    keep = lo < hi
    return lo[keep], hi[keep]


def _intersect_bands(bands: list[tuple[np.ndarray, np.ndarray]], n: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The intervals [lo, hi) of Z_n that lie in a band of every list, ascending.

    Each list is disjoint and ascending, so a point lies in all of them
    where the count of bands open over it reaches their number; at equal
    positions a band closes before the next opens, as the bands are
    half-open.  With no lists that is all of Z_n.
    """
    lows = np.concatenate([[0], *(lo for lo, _ in bands)])
    highs = np.concatenate([[n], *(hi for _, hi in bands)])
    keys = np.concatenate([2 * lows + 1, 2 * highs])  # a close sorts before an open
    keys.sort()
    depth = np.cumsum(np.where(keys & 1, 1, -1))
    at = np.flatnonzero(depth == len(bands) + 1)
    return keys[at] >> 1, keys[at + 1] >> 1


def _blocks(lo: np.ndarray, hi: np.ndarray):
    """The members of the intervals [lo, hi), ascending, in int64 blocks of _BLOCK."""
    size = hi - lo
    ends = np.cumsum(size)  # rank of the first candidate past each interval
    shift = lo - (ends - size)  # candidate = its rank + the shift of its interval
    total = int(ends[-1])
    for r0 in range(0, total, _BLOCK):
        r1 = min(r0 + _BLOCK, total)
        i0, i1 = np.searchsorted(ends, [r0, r1 - 1], side="right")
        first = np.maximum(ends[i0:i1 + 1] - size[i0:i1 + 1], r0)
        counts = np.minimum(ends[i0:i1 + 1], r1) - first
        yield np.arange(r0, r1, dtype=np.int64) + np.repeat(shift[i0:i1 + 1], counts)


def _powers(q: int, n: int, h: int) -> np.ndarray:
    """q^j mod n for j in [0, h), int64, by block doubling: about log2(h) numpy calls."""
    pw = np.array([1 % n], dtype=np.int64)
    while len(pw) < h:
        pw = np.concatenate([pw, _reduce_mod(pw[:h - len(pw)] * pow(q, len(pw), n), n)])
    return pw


def _scatter_orbits(out: np.ndarray, leaders: np.ndarray, values, n: int, q: int,
                    m: int) -> None:
    """Write values over the coset of every leader in out, h powers of q for all at once.

    out[leaders q^j mod n] = values for j in [0, m), m = ord_n(q): every
    coset is an orbit under i -> q i mod n, whose length divides m, so the
    last of the ceil(m/h) steps may pass q^m and repeat it.  Each step
    writes h powers of every leader, h = _BLOCK // len(leaders) in [1, m],
    and moves them on by q^h in place: few leaders take few calls at any m.
    """
    h = min(m, max(1, _BLOCK // max(1, len(leaders))))
    x = _reduce_mod(np.multiply.outer(_powers(q, n, h), leaders), n)  # int64, a new array
    quot, step = np.empty_like(x), pow(q, h, n)
    for _ in range(-(-m // h)):
        out[x] = values
        x *= step
        _reduce_mod(x, n, quot)


def _sieve_leaders(a: np.ndarray, n: int, steps: list[int]) -> np.ndarray:
    """The coset leaders among the candidates a: each with a <= a * step mod n for all steps."""
    for step in steps:
        a = a[a <= _reduce_mod(a * step, n)]
        if not a.size:
            break
    return a


def _marking_build(n: int, q: int, m: int) -> np.ndarray:
    """The leaders, ascending, by marking orbits, for any order m.

    The least residue a not yet marked is a leader.  Its orbit a q^j mod n
    is marked in a bool array over Z_n, h = min(m, _BLOCK) powers of q per
    step, until a step ends on a marked residue: the orbit was unmarked
    before, so the residue is its own and the orbit is closed.  A coset of
    size d takes ceil(d/h) steps.
    """
    h = min(m, _BLOCK)
    pw, step = _powers(q, n, h), pow(q, h, n)
    marked = np.zeros(n, dtype=bool)
    leaders, a = [], 0
    while not marked[a]:
        leaders.append(a)
        b = a
        while not marked[b]:
            marked[pw * b % n] = True
            b = b * step % n
        a += int(marked[a:].argmin())  # the first unmarked residue; a itself if none is left
    return np.array(leaders, dtype=np.int64)


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
