"""Narrow-sense BCH codes of length n = (q^m - 1)/lambda over GF(q).

A code is specified by (q, m, lambda_kind, delta).  The multiplier lambda
is carried in one of two shapes that the closed-form results distinguish:

  PowerForm(s)         lambda = q^s - 1 with s | m
  DivisorOfQMinus1(l)  lambda = l with l | q - 1 and l != q - 1

The two overlap exactly at lambda = q - 1, which is always normalized to
PowerForm(1) by the bch_spec factory (for q = 2 that is lambda = 1).

The defining set of C_delta with respect to beta = alpha^lambda is
T = C_1 u ... u C_{delta-1}; the generator polynomial g is the product of
the minimal polynomials of beta^l over the distinct coset leaders l in T.
The dual's defining set is T_perp, the complement in Z_n of
T^{-1} = {n - i : i in T}.  The dual's generator is the monic reciprocal
of (x^n - 1)/g, so it takes one polynomial division rather than one
minimal polynomial per coset of the (usually much larger) T_perp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CosetTable
from .gf import FieldCtx, Poly, minimal_polynomial, prime_power


@dataclass(frozen=True)
class PowerForm:
    """lambda = q^s - 1 for a divisor s of m."""

    s: int


@dataclass(frozen=True)
class DivisorOfQMinus1:
    """lambda dividing q - 1, strictly smaller than q - 1."""

    lam: int


@dataclass(frozen=True)
class BchSpec:
    """Parameters of a narrow-sense BCH code of length (q^m - 1)/lambda."""

    q: int
    m: int
    lambda_kind: PowerForm | DivisorOfQMinus1
    delta: int

    def __post_init__(self):
        if prime_power(self.q) is None:
            raise ValueError(f"q={self.q} is not a prime power")
        if self.m < 1:
            raise ValueError(f"m={self.m} must be >= 1")
        lk = self.lambda_kind
        if isinstance(lk, PowerForm):
            if lk.s < 1 or self.m % lk.s:
                raise ValueError(f"s={lk.s} must be a positive divisor of m={self.m}")
        elif isinstance(lk, DivisorOfQMinus1):
            if lk.lam < 1 or (self.q - 1) % lk.lam:
                raise ValueError(f"lambda={lk.lam} must divide q-1={self.q - 1}")
            if lk.lam == self.q - 1:
                raise ValueError(
                    "lambda = q-1 must be expressed as PowerForm(1); "
                    "use the bch_spec factory to normalize")
        else:
            raise TypeError("lambda_kind must be PowerForm or DivisorOfQMinus1")
        if not 2 <= self.delta <= self.n:
            raise ValueError(f"delta={self.delta} out of range [2, {self.n}]")

    @property
    def lam(self) -> int:
        lk = self.lambda_kind
        return self.q**lk.s - 1 if isinstance(lk, PowerForm) else lk.lam

    @property
    def n(self) -> int:
        return (self.q**self.m - 1) // self.lam


def bch_spec(q: int, m: int, delta: int, lam: int | None = None,
             s: int | None = None) -> BchSpec:
    """Build a BchSpec from either a lambda divisor or a power-form s.

    Exactly one of lam and s must be given.  lam = q - 1 (including q = 2,
    lam = 1) is normalized to PowerForm(1).
    """
    if (lam is None) == (s is None):
        raise ValueError("give exactly one of lam and s")
    if s is not None:
        return BchSpec(q, m, PowerForm(s), delta)
    if lam == q - 1:
        return BchSpec(q, m, PowerForm(1), delta)
    return BchSpec(q, m, DivisorOfQMinus1(lam), delta)


def theorem_families(max_n: int):
    """Yield (q, m, kw, n) for every code family of the closed forms with n <= max_n.

    kw is {"s": s} for lambda = q^s - 1 with s | m and m/s >= 3, or
    {"lam": lam} for lam | q - 1, lam < q - 1 and m >= 2, so that
    bch_spec(q, m, delta, **kw) builds a code of the family.  Power forms
    come first, by q, then s, then m; then divisor forms by q, lam, m.
    """
    for q in range(2, math.isqrt(max_n) + 2):
        if prime_power(q) is None:
            continue
        s = 1
        while (q ** (3 * s) - 1) // (q**s - 1) <= max_n:
            m = 3 * s
            while (n := (q**m - 1) // (q**s - 1)) <= max_n:
                yield q, m, {"s": s}, n
                m += s
            s += 1
    # a divisor form has lam <= (q - 1)/2, so n >= 2(q + 1)
    for q in range(3, max_n // 2 + 1):
        if prime_power(q) is None:
            continue
        for lam in range(1, q - 1):
            if (q - 1) % lam:
                continue
            m = 2
            while (n := (q**m - 1) // lam) <= max_n:
                yield q, m, {"lam": lam}, n
                m += 1


class DefiningSet:
    """Subset of Z_n closed under multiplication by q, stored as a mask."""

    def __init__(self, n, q, mask, validate=True):
        self.n = n
        self.q = q
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise ValueError("mask length must equal n")
        mask.setflags(write=False)
        self.mask = mask
        self._members = None
        if validate and not self.is_q_closed():
            raise ValueError("set is not closed under multiplication by q mod n")

    @classmethod
    def from_members(cls, n, q, members, validate=True):
        mask = np.zeros(n, dtype=bool)
        for a in members:
            if not 0 <= a < n:
                raise ValueError(f"member {a} out of range [0, {n})")
            mask[a] = True
        return cls(n, q, mask, validate=validate)

    @property
    def members(self) -> tuple[int, ...]:
        if self._members is None:
            self._members = tuple(int(v) for v in np.flatnonzero(self.mask))
        return self._members

    def is_q_closed(self) -> bool:
        idx = (np.arange(self.n, dtype=np.int64) * self.q) % self.n
        return bool(np.all(self.mask[idx] == self.mask))

    def __contains__(self, a):
        return bool(self.mask[a % self.n])

    def __len__(self):
        return int(np.count_nonzero(self.mask))

    def __eq__(self, other):
        return (isinstance(other, DefiningSet) and self.n == other.n
                and self.q == other.q and bool(np.array_equal(self.mask, other.mask)))

    def __repr__(self):
        return f"DefiningSet(n={self.n}, q={self.q}, size={len(self)})"


def check_table(spec: BchSpec, table: CosetTable) -> None:
    """Raise ValueError unless table is the coset table modulo spec.n for spec.q."""
    if (table.n, table.q) != (spec.n, spec.q):
        raise ValueError(f"table is for (n={table.n}, q={table.q}), "
                         f"spec needs (n={spec.n}, q={spec.q})")


def defining_set(spec: BchSpec, table: CosetTable) -> DefiningSet:
    """T = C_1 u ... u C_{delta-1}: residues whose leader is in [1, delta-1]."""
    check_table(spec, table)
    lead = table.leader_of
    mask = (lead >= 1) & (lead <= spec.delta - 1)
    return DefiningSet(spec.n, spec.q, mask, validate=False)


def dual_defining_set(t: DefiningSet) -> DefiningSet:
    """T_perp = Z_n \\ T^{-1} where T^{-1} = {n - i mod n : i in T}.

    Position i of T^{-1} reads position n - i of T, so its mask is T's mask
    with positions 1 .. n-1 reversed.
    """
    mask = t.mask
    return DefiningSet(t.n, t.q, ~np.concatenate([mask[:1], mask[:0:-1]]),
                       validate=False)


def bch_bound_from_set(s: DefiningSet) -> int:
    """1 + length of the longest cyclic run of consecutive residues in s.

    A run lies strictly between two cyclically consecutive non-members, so
    1 + the longest run is the largest gap between them, counting the gap
    that wraps from the last non-member to the first.
    """
    zeros = np.flatnonzero(~s.mask)
    if zeros.size == 0:
        return s.n + 1
    return int(np.diff(zeros, append=zeros[0] + s.n).max())


@dataclass(frozen=True)
class CodeParams:
    """Length, dimension, generator polynomial, and BCH bound of a cyclic code."""

    n: int
    k: int
    delta: int | None
    generator: Poly
    bch_bound: int


def generator_from_set(spec: BchSpec, ctx: FieldCtx, table: CosetTable,
                       dset: DefiningSet) -> Poly:
    """Product of the minimal polynomials of beta^l over the coset leaders l in dset.

    This is the monic generator of the cyclic code with defining set dset;
    it costs one minimal polynomial per coset in dset.  Each coset is the
    orbit l q^j mod n of its leader, so no coset map over all of Z_n is built.
    """
    q, n = spec.q, spec.n
    if (ctx.q, ctx.k) != (q, spec.m):
        raise ValueError(f"ctx is GF({ctx.q}^{ctx.k}) over GF({ctx.q}), "
                         f"expected GF({q}^{spec.m}) over GF({q})")
    lam = spec.lam
    gen = Poly.one(ctx.field)
    leaders = table.leaders
    for l in leaders[dset.mask[leaders]]:
        coset = [int(l)]
        while (nxt := coset[-1] * q % n) != coset[0]:
            coset.append(nxt)
        beta_power = ctx.pow(ctx.generator, lam * coset[0])
        gen = gen * minimal_polynomial(ctx, beta_power, coset)
    assert gen.degree == len(dset), "generator degree must equal |defining set|"
    return gen


def code_params(spec: BchSpec, ctx: FieldCtx, table: CosetTable) -> CodeParams:
    """Generator polynomial and dimensions of C_delta."""
    t = defining_set(spec, table)
    return CodeParams(n=spec.n, k=spec.n - len(t), delta=spec.delta,
                      generator=generator_from_set(spec, ctx, table, t),
                      bch_bound=bch_bound_from_set(t))


def dual_code_params(spec: BchSpec, ctx: FieldCtx, table: CosetTable) -> CodeParams:
    """Parameters of the cyclic code with defining set T_perp (the dual of C_delta).

    The generator is the monic reciprocal of h = (x^n - 1)/g, g the
    generator of C_delta: h has the roots beta^i for i outside T, so its
    reciprocal has the roots beta^-i, whose exponents make up T_perp.  So
    only the cosets in T need minimal polynomials, and |T| is the dual's
    dimension, which is small wherever the dual can be enumerated.
    """
    t = defining_set(spec, table)
    t_perp = dual_defining_set(t)
    g = generator_from_set(spec, ctx, table, t)
    h = Poly.x_pow_minus_one(spec.n, g.field) // g
    gen = h.reciprocal().monic()
    assert gen.degree == len(t_perp), "generator degree must equal |T_perp|"
    return CodeParams(n=spec.n, k=spec.n - len(t_perp), delta=None, generator=gen,
                      bch_bound=bch_bound_from_set(t_perp))


def generator_matrix(params: CodeParams) -> np.ndarray:
    """k x n matrix over GF(q) whose rows are x^j g(x), j = 0..k-1."""
    n, k = params.n, params.k
    g = np.array(params.generator.coeffs, dtype=np.int32)
    mat = np.zeros((k, n), dtype=np.int32)
    for j in range(k):
        mat[j, j:j + len(g)] = g
    return mat
