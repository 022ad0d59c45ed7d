"""Narrow-sense BCH codes of length n = (q^m - 1)/lambda over GF(q).

A code is a Family (q, m, lambda) and a designed distance delta.  The
multiplier lambda comes in one of the two forms the closed-form results
distinguish:

  s given    lambda = q^s - 1 with s | m and s < m
  s = None   lambda = lam with lam | q - 1 and lam != q - 1

The two overlap exactly at lambda = q - 1, which the Family constructor
always makes s = 1 (for q = 2 that is lambda = 1).  The constructor is the
one place where (q, m, lambda) is validated, and code_length, behind
Family.n, the one place where q^m is taken for a length.  Whether a table
modulo n fits is cyclotomic.check_modulus's rule, not Family's.

The defining set of C_delta with respect to beta = alpha^lambda is
T = C_1 u ... u C_{delta-1}; the generator polynomial g is the product of
the minimal polynomials of beta^l over the distinct coset leaders l in T,
which are the leaders in [1, delta-1], a prefix of the table's ascending
leaders, and T is their orbits.  The dual's defining set is T_perp, the
complement in Z_n of T^{-1} = {n - i : i in T}.  defining_set and
dual_defining_set return T and T_perp as read-only bool masks of length n.
The dual's generator is the monic reciprocal of (x^n - 1)/g, so it takes
one polynomial division rather than one minimal polynomial per coset of
the (usually much larger) T_perp, and neither generator needs a mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import CosetTable, orbit
from .gf import FieldCtx, Poly, minimal_polynomial, prime_power


@dataclass(frozen=True, init=False)
class Family:
    """The code length n = (q^m - 1)/lambda over GF(q), validated once.

    lambda is q^s - 1 for a divisor s < m of m (the power form), or a
    divisor lam of q - 1 other than q - 1 (the divisor form, s = None).
    Give exactly one of lam and s; lam = q - 1 becomes s = 1.  The
    constructor takes no power of q; n is worked out by code_length on
    first use, which raises ValueError for a length too large to compute.
    """

    q: int
    m: int
    s: int | None
    _lam: int | None  # the divisor form's lambda

    def __init__(self, q: int, m: int, lam: int | None = None, s: int | None = None):
        if (lam is None) == (s is None):
            raise ValueError("give exactly one of lam and s")
        if lam == q - 1:
            lam, s = None, 1
        if s is not None and (s < 1 or m % s):
            raise ValueError(f"s={s} must be a positive divisor of m={m}")
        if s == m:
            raise ValueError(f"s={s} equals m, so n = (q^m-1)/(q^s-1) = 1; need s < m")
        if prime_power(q) is None:
            raise ValueError(f"q={q} is not a prime power")
        if m < 1:
            raise ValueError(f"m={m} must be >= 1")
        if lam is not None and (lam < 1 or (q - 1) % lam):
            raise ValueError(f"lambda={lam} must divide q-1={q - 1}")
        self.__dict__.update(q=q, m=m, s=s, _lam=lam)  # frozen: no __setattr__

    def __repr__(self):
        form = f"lam={self._lam}" if self.s is None else f"s={self.s}"
        return f"Family(q={self.q}, m={self.m}, {form})"

    @property
    def lam(self) -> int:
        return self._lam if self.s is None else self.q**self.s - 1

    @cached_property
    def n(self) -> int:
        return code_length(self.q, self.m, self._lam, self.s)


def code_length(q: int, m: int, lam: int | None = None, s: int | None = None) -> int:
    """n = (q^m - 1)/lambda, where lambda is q^s - 1 if s is given, else lam.

    Raises ValueError unless lambda >= 1 divides q^m - 1, and, before q^m
    is taken, if n is surely 2^64 or more: with b = bits(q) - 1,
    n >= 2^((m-s) b) in the power form and n >= 2^(m b - bits(lam))
    otherwise.  So q^m, if taken, has under 256 or 2 (64 + bits(lam)) bits.
    """
    b = q.bit_length() - 1
    if ((m - s) * b if s is not None else m * b - lam.bit_length()) >= 64:
        raise ValueError(f"n=(q^m-1)/lambda with q={q}, m={m} is 2^64 or more, "
                         "too large to compute")
    lam = lam if s is None else q**s - 1
    if lam < 1 or (q**m - 1) % lam:
        raise ValueError(f"lambda={lam} does not divide q^m-1={q**m - 1}")
    return (q**m - 1) // lam


@dataclass(frozen=True)
class BchSpec:
    """A narrow-sense BCH code: a length family and a designed distance."""

    family: Family
    delta: int

    def __post_init__(self):
        if not 2 <= self.delta <= self.family.n:
            raise ValueError(f"delta={self.delta} out of range [2, {self.family.n}]")

    q = property(lambda self: self.family.q)
    m = property(lambda self: self.family.m)
    lam = property(lambda self: self.family.lam)
    n = property(lambda self: self.family.n)


_family = lru_cache(maxsize=256)(Family)  # a sweep asks for one family per delta
_RUN_BLOCK = 1 << 16  # positions per block of bch_bound_from_set's scan


def bch_spec(q: int, m: int, delta: int, lam: int | None = None,
             s: int | None = None) -> BchSpec:
    """C_delta of the family Family(q, m, lam, s)."""
    return BchSpec(_family(q, m, lam, s), delta)


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def theorem_families(max_n: int):
    """Yield every Family of the closed forms with n <= max_n.

    That is s | m with m/s >= 3, or lam | q - 1, lam < q - 1 and m >= 2.
    Power forms come first, by q, then s, then m; then divisor forms by q,
    lam, m.
    """
    for q in range(2, math.isqrt(max_n) + 2):
        if prime_power(q) is None:
            continue
        s = 1
        while (q ** (3 * s) - 1) // (q**s - 1) <= max_n:
            m = 3 * s
            while (q**m - 1) // (q**s - 1) <= max_n:
                yield Family(q, m, s=s)
                m += s
            s += 1
    # a divisor form has lam <= (q - 1)/2, so n >= 2(q + 1)
    for q in range(3, max_n // 2 + 1):
        if prime_power(q) is None:
            continue
        for lam in _divisors(q - 1)[:-1]:  # lam < q - 1
            m = 2
            while (q**m - 1) // lam <= max_n:
                yield Family(q, m, lam=lam)
                m += 1


def check_table(spec: BchSpec | Family, table: CosetTable) -> None:
    """Raise ValueError unless table is the coset table modulo spec.n for spec.q."""
    if (table.n, table.q) != (spec.n, spec.q):
        raise ValueError(f"table is for (n={table.n}, q={table.q}), "
                         f"spec needs (n={spec.n}, q={spec.q})")


def defining_set(spec: BchSpec, table: CosetTable) -> np.ndarray:
    """T = C_1 u ... u C_{delta-1} as a read-only bool mask over Z_n.

    Position a is set iff the leader of a is in [1, delta-1].  T is the
    union of the orbits of defining_leaders, so the mask is those orbits
    scattered, O(|T|), and no leader array is read or built
    (CosetTable.union_below).
    """
    check_table(spec, table)
    mask = table.union_below(spec.delta)
    mask.setflags(write=False)
    return mask


def dual_defining_set(t: np.ndarray) -> np.ndarray:
    """T_perp = Z_n \\ T^{-1} where T^{-1} = {n - i mod n : i in T}, as a mask.

    Position i of T^{-1} reads position n - i of T, so its mask is T's mask
    with positions 1 .. n-1 reversed.
    """
    mask = ~np.concatenate([t[:1], t[:0:-1]])
    mask.setflags(write=False)
    return mask


def bch_bound_from_set(s: np.ndarray) -> int:
    """1 + length of the longest cyclic run of consecutive residues in mask s.

    A run lies strictly between two cyclically consecutive non-members, so
    1 + the longest run is the largest gap between them, counting the gap
    that wraps from the last non-member to the first.  The non-members are
    listed one block of _RUN_BLOCK positions at a time, so the scan's
    memory stays O(_RUN_BLOCK) however many there are.
    """
    n = len(s)
    first = last = None  # the first and the latest non-member seen
    best = 0
    for lo in range(0, n, _RUN_BLOCK):
        zeros = np.flatnonzero(~s[lo:lo + _RUN_BLOCK])
        if zeros.size == 0:
            continue
        zeros += lo
        if last is None:
            first = int(zeros[0])
        else:
            best = max(best, int(zeros[0]) - last)
        if zeros.size > 1:
            best = max(best, int(np.diff(zeros).max()))
        last = int(zeros[-1])
    if first is None:
        return n + 1
    return max(best, first + n - last)


@dataclass(frozen=True)
class CodeParams:
    """Length, dimension and generator polynomial of a cyclic code."""

    n: int
    k: int
    delta: int | None
    generator: Poly


def defining_leaders(spec: BchSpec, table: CosetTable) -> np.ndarray:
    """The coset leaders of T, those in [1, delta-1]: a prefix of table.leaders[1:]."""
    check_table(spec, table)
    return table.leaders[1:int(np.searchsorted(table.leaders, spec.delta))]


def generator_from_leaders(spec: BchSpec, ctx: FieldCtx, leaders: np.ndarray) -> Poly:
    """Product of the minimal polynomials of beta^l over the coset leaders l.

    For distinct cosets this is the monic generator of the cyclic code whose
    defining set is their union; it costs one minimal polynomial per coset.
    Each coset is the orbit l q^j mod n of its leader, so no coset map over
    all of Z_n is built.
    """
    q, n = spec.q, spec.n
    if (ctx.q, ctx.k) != (q, spec.m):
        raise ValueError(f"ctx is GF({ctx.q}^{ctx.k}) over GF({ctx.q}), "
                         f"expected GF({q}^{spec.m}) over GF({q})")
    lam = spec.lam
    gen = Poly.one(ctx.field)
    for l in map(int, leaders):
        gen = gen * minimal_polynomial(ctx, ctx.pow(ctx.generator, lam * l), orbit(l, n, q))
    return gen


def code_params(spec: BchSpec, ctx: FieldCtx, table: CosetTable) -> CodeParams:
    """Generator polynomial and dimensions of C_delta."""
    g = generator_from_leaders(spec, ctx, defining_leaders(spec, table))
    return CodeParams(n=spec.n, k=spec.n - g.degree, delta=spec.delta, generator=g)


def dual_code_params(spec: BchSpec, ctx: FieldCtx, table: CosetTable) -> CodeParams:
    """Parameters of the cyclic code with defining set T_perp (the dual of C_delta).

    The generator is the monic reciprocal of h = (x^n - 1)/g, g the
    generator of C_delta: h has the roots beta^i for i outside T, so its
    reciprocal has the roots beta^-i, whose exponents make up T_perp.  So
    only the cosets in T need minimal polynomials, and |T| is the dual's
    dimension, which is small wherever the dual can be enumerated.  Raises
    ValueError if g does not divide x^n - 1, as when the table's leaders
    repeat a coset: x^n - 1 is squarefree for gcd(n, q) = 1.
    """
    g = generator_from_leaders(spec, ctx, defining_leaders(spec, table))
    h, rem = divmod(Poly.x_pow_minus_one(spec.n, g.field), g)
    if not rem.is_zero:
        raise ValueError("the generator of C_delta does not divide x^n - 1")
    gen = h.reciprocal().monic()
    return CodeParams(n=spec.n, k=spec.n - gen.degree, delta=None, generator=gen)


def generator_matrix(params: CodeParams) -> np.ndarray:
    """k x n matrix over GF(q) whose rows are x^j g(x), j = 0..k-1."""
    n, k = params.n, params.k
    g = np.array(params.generator.coeffs, dtype=np.int32)
    mat = np.zeros((k, n), dtype=np.int32)
    for j in range(k):
        mat[j, j:j + len(g)] = g
    return mat
