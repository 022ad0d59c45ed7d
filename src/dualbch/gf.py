"""Exact arithmetic in GF(q^k) and for polynomials over GF(q).

Scalars of GF(q) are packed integers in [0, q): for q = p^e, the value
sum(c_i * p^i) of the coordinates (c_0, ..., c_{e-1}) in GF(p)[y]/(mu),
mu the first primitive polynomial of degree e over GF(p).  For prime q the
packed value is just the residue.  ScalarField carries lookup tables for
packed-scalar arithmetic; Poly is a dense polynomial over such scalars.

The extension field GF(q^k) is realized directly over GF(q), as
GF(q)[x]/(f) where f is the first primitive polynomial in lexicographic
order (see field_new), so every run (and every implementation following
the same rule) picks the same primitive element alpha.  An element is the
int in [0, q^k) whose base-q digits are its coordinates, each a packed
GF(q) scalar, constant term least significant.  So GF(q) is the ints
below q, and 0 and 1 are the field's zero and one.  Up to MAX_TABLE_ORDER,
a field keeps exp/log tables, built in log2(q^k) doubling rounds of small
GF(p) matrix products.

The number theory is intmath's: prime_power tests the base of the largest
perfect power of q for primality, and field_new's primitivity test divides
q^k - 1 by each of its primes, found by trial division and Pollard-Brent rho.
"""

from __future__ import annotations

import functools

import numpy as np

from .intmath import factorize, is_prime, perfect_power

MAX_TABLE_ORDER = 1 << 16  # exp/log tables only below this field order
# ScalarField keeps q x q int32 tables plus their list forms, about
# 36 q^2 bytes: 151 MB at this q, so a larger q is refused before any of it
MAX_SCALAR_Q = 1 << 11


def prime_power(q: int):
    """Return (p, e) with q = p^e, or None if q is not a prime power.

    q = b^e with e largest is a prime power iff b is prime, so this never
    factorises q: a large composite q is answered as fast as a prime.
    """
    if q < 2:
        return None
    p, e = perfect_power(q)
    return (p, e) if is_prime(p) else None


# ---------------------------------------------------------------------------
# coordinate-level arithmetic over GF(q): field construction, the direct
# path above MAX_TABLE_ORDER, and the tests' oracle
# ---------------------------------------------------------------------------

def _digits(v, q, k):
    """The k base-q digits of v (coordinates of a GF(q^k) element), lowest first."""
    ds = []
    for _ in range(k):
        v, d = divmod(v, q)
        ds.append(d)
    return tuple(ds)


def _from_digits(ds, q):
    v = 0
    for d in reversed(ds):
        v = v * q + d
    return v


def _poly_mulmod(a, b, modulus, f):
    """(a * b) mod modulus over the ScalarField f; a, b fixed-length coeff tuples."""
    add, sub, mul = f.lists
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = mul[ai]
        for j, bj in enumerate(b):
            prod[i + j] = add[prod[i + j]][row[bj]]
    # reduce: modulus is monic, so x^k = -modulus[:k]
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        if c == 0:
            continue
        prod[i] = 0
        row = mul[c]
        for j in range(k):
            prod[i - k + j] = sub[prod[i - k + j]][row[modulus[j]]]
    return tuple(prod[:k])


def _poly_powmod(base, e, modulus, f):
    k = len(modulus) - 1
    result = tuple([1] + [0] * (k - 1))
    acc = base
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, modulus, f)
        acc = _poly_mulmod(acc, acc, modulus, f)
        e >>= 1
    return result


class FieldCtx:
    """GF(q^k) over GF(q), with a fixed primitive modulus and primitive generator.

    Elements are ints in [0, q^k): the base-q digits of an element are its
    coordinates, packed GF(q) scalars, lowest degree first.  Immutable
    after construction; all operations are pure.  Exp/log tables (lists)
    are built lazily, by doubling, for orders up to MAX_TABLE_ORDER, and
    mul, pow and inv are then lookups; beyond that, they fall back to
    polynomial arithmetic on the digits.
    """

    def __init__(self, q, k, modulus):
        self.q = q
        self.k = k
        self.order = q**k
        self.field = scalar_field(q)
        self.modulus = modulus  # length k+1, packed GF(q), lowest degree first, monic
        # a root of the modulus: -c0 for x + c0, else the class of x
        self.generator = int(self.field.neg_t[modulus[0]]) if k == 1 else q

    def __repr__(self):
        return f"FieldCtx(GF({self.q}^{self.k}), modulus={self.modulus})"

    def add(self, x: int, y: int) -> int:
        q, k = self.q, self.k
        add = self.field.lists[0]
        return _from_digits([add[a][b] for a, b in zip(_digits(x, q, k), _digits(y, q, k))], q)

    def neg(self, x: int) -> int:
        neg = self.field.lists[1][0]
        return _from_digits([neg[a] for a in _digits(x, self.q, self.k)], self.q)

    @functools.cached_property
    def _tables(self):
        """(exp, log) lists, exp[i] = alpha^i and log[alpha^i] = i.

        None above MAX_TABLE_ORDER, where mul and pow work on the digits.
        """
        if self.order > MAX_TABLE_ORDER:
            return None
        q, k, p = self.q, self.k, self.field.p
        # over GF(p), an element's coordinates are the ek base-p digits of
        # its int, and multiplying by a fixed element is a linear map: row r
        # of its matrix holds the digits of p^r times that element.  So the
        # powers alpha^L..alpha^(2L-1) are the rows alpha^0..alpha^(L-1)
        # times the matrix of alpha^L, and squaring that matrix doubles L.
        ek = self.field.e * k
        gen = _digits(self.generator, q, k)

        def times_alpha(v):
            return _from_digits(_poly_mulmod(_digits(v, q, k), gen, self.modulus, self.field), q)

        step = np.array([_digits(times_alpha(p**r), p, ek) for r in range(ek)], dtype=np.int64)
        powers = np.eye(1, ek, dtype=np.int64)
        while len(powers) < self.order - 1:
            more = powers[:self.order - 1 - len(powers)] @ step % p
            powers = np.concatenate([powers, more])
            step = step @ step % p
        exp = powers @ p ** np.arange(ek, dtype=np.int64)
        log = np.full(self.order, -1, dtype=np.int64)
        log[exp] = np.arange(self.order - 1, dtype=np.int64)
        return exp.tolist(), log.tolist()

    def mul(self, x: int, y: int) -> int:
        if self._tables is None:
            q, k = self.q, self.k
            return _from_digits(_poly_mulmod(_digits(x, q, k), _digits(y, q, k),
                                             self.modulus, self.field), q)
        if x == 0 or y == 0:
            return 0
        exp, log = self._tables
        return exp[(log[x] + log[y]) % (self.order - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.pow(x, self.order - 2)

    def pow(self, x: int, e: int) -> int:
        """x^e for e >= 0; x^0 = 1."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if self._tables is None:
            return _from_digits(_poly_powmod(_digits(x, self.q, self.k), e, self.modulus,
                                             self.field), self.q)
        if x == 0:
            return 0 if e else 1
        exp, log = self._tables
        return exp[log[x] * e % (self.order - 1)]


def field_new(q: int, k: int) -> FieldCtx:
    """Construct GF(q^k) over GF(q) with the lexicographically first primitive modulus.

    q must be a prime power.  The search runs over monic degree-k
    polynomials over GF(q) ordered by the integer whose base-q digits are
    the non-leading coefficients as packed GF(q) scalars (constant term as
    least significant digit).  The generator is the residue class of x.
    """
    f = scalar_field(q)  # raises ValueError unless q is a prime power
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if q**k - 1 >= (1 << 63):
        raise ValueError(f"q^k-1 = {q**k - 1} does not fit in 63 bits")
    n1 = q**k - 1
    prime_divisors = list(factorize(n1))
    one = _digits(1, q, k)
    for j in range(q**k):
        if j % q == 0:
            continue  # x divides the modulus; x would not be a unit
        ctx = FieldCtx(q, k, _digits(j, q, k) + (1,))
        x, modulus = _digits(ctx.generator, q, k), ctx.modulus
        # x has order q^k - 1 iff <x> exhausts all nonzero residues, which
        # forces the quotient ring to be a field, i.e. modulus is primitive.
        if _poly_powmod(x, n1, modulus, f) != one:
            continue
        if any(_poly_powmod(x, n1 // r, modulus, f) == one for r in prime_divisors):
            continue
        return ctx
    raise RuntimeError(f"no primitive polynomial found for GF({q}^{k})")  # unreachable


# ---------------------------------------------------------------------------
# packed-scalar GF(q) arithmetic
# ---------------------------------------------------------------------------

class ScalarField:
    """Lookup-table arithmetic for GF(q) scalars packed as integers 0..q-1.

    The add_t, sub_t, mul_t, neg_t and inv_t tables are small numpy arrays,
    indexed by ints or by numpy arrays.  inv_t[0] is 0 as a sentinel; zero
    has no inverse.  q above MAX_SCALAR_Q is refused with ValueError before
    any table is allocated.
    """

    def __init__(self, q):
        if q > MAX_SCALAR_Q:
            raise ValueError(f"q={q} is above {MAX_SCALAR_Q}: the GF(q) tables "
                             f"would take about {36 * q * q // 10**6} MB")
        pp = prime_power(q)
        if pp is None:
            raise ValueError(f"q={q} is not a prime power")
        self.q = q
        self.p, self.e = pp
        if self.e == 1:
            idx = np.arange(q, dtype=np.int32)
            self.add_t = (idx[:, None] + idx[None, :]) % q
            self.sub_t = (idx[:, None] - idx[None, :]) % q
            self.mul_t = (idx[:, None] * idx[None, :]) % q
            self.neg_t = (-idx) % q
            self.inv_t = np.array([0] + [pow(int(a), q - 2, q) for a in range(1, q)],
                                  dtype=np.int32)
        else:
            # q = p^e is GF(p^e) over GF(p): add digit by digit in base p,
            # multiply through the exp/log tables (q <= MAX_SCALAR_Q keeps
            # the order below MAX_TABLE_ORDER)
            p = self.p
            idx = np.arange(q, dtype=np.int32)
            self.add_t = np.zeros((q, q), dtype=np.int32)
            self.neg_t = np.zeros(q, dtype=np.int32)
            for j in range(self.e):
                d = idx // p**j % p
                self.add_t += (d[:, None] + d[None, :]) % p * p**j
                self.neg_t += -d % p * p**j
            self.sub_t = self.add_t[:, self.neg_t]
            exp, log = (np.array(t, dtype=np.int32) for t in field_new(p, self.e)._tables)
            logs = log[1:]
            self.mul_t = np.zeros((q, q), dtype=np.int32)
            self.mul_t[1:, 1:] = exp[(logs[:, None] + logs[None, :]) % (q - 1)]
            self.inv_t = np.concatenate([[0], exp[-logs % (q - 1)]]).astype(np.int32)

    @functools.cached_property
    def lists(self):
        """(add, sub, mul) tables as nested lists, for scalar-at-a-time loops.

        Every entry refers to one shared int per value, so a table costs one
        pointer per entry, not one int object (above 256).
        """
        values = np.arange(self.q).astype(object)
        return tuple(values[t].tolist() for t in (self.add_t, self.sub_t, self.mul_t))

    def __repr__(self):
        return f"ScalarField(GF({self.q}))"


@functools.lru_cache(maxsize=None)
def scalar_field(q: int) -> ScalarField:
    """Cached ScalarField for GF(q)."""
    return ScalarField(q)


def rref(mat: np.ndarray, field: ScalarField):
    """Reduced row echelon form of a packed-scalar matrix over GF(q).

    Returns (R, pivots) where pivots lists the pivot column of each of the
    first len(pivots) rows of R.
    """
    R = np.array(mat, dtype=np.int32, copy=True)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, c]) + r
        if nz.size == 0:
            continue
        if nz[0] != r:
            R[[r, nz[0]]] = R[[nz[0], r]]
        R[r] = field.mul_t[int(field.inv_t[R[r, c]]), R[r]]
        others = np.flatnonzero(R[:, c])
        others = others[others != r]
        if others.size:
            factors = R[others, c]
            R[others] = field.sub_t[R[others], field.mul_t[factors[:, None], R[r][None, :]]]
        pivots.append(c)
        r += 1
    return R, pivots


def rref_gf2(rows: np.ndarray, n: int):
    """rref over GF(2) of bit-packed rows of length n; returns (R[:r], pivots).

    Position c of a row is bit c % 64 of uint64 word c // 64, and the
    padding bits past n are 0.  The steps are rref's (the first set row at
    or below r is the pivot, it is swapped up to r, every other row with
    the column set is cleared), with XOR for row subtraction and no scaling,
    so R is the packed form of rref's first r rows and the pivots are the
    same.  r is the rank.
    """
    R = np.array(rows, dtype=np.uint64, copy=True)
    pivots = []
    r = 0
    for c in range(n):
        if r == len(R):
            break
        col = ((R[:, c // 64] >> (c % 64)) & 1).astype(bool)
        below = np.flatnonzero(col[r:])
        if below.size == 0:
            continue
        p = r + int(below[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
            col[p] = col[r]
        col[r] = False
        R[col] ^= R[r]
        pivots.append(c)
        r += 1
    return R[:r], pivots


# ---------------------------------------------------------------------------
# polynomials over GF(q)
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial over GF(q); packed-scalar coefficients, lowest first.

    Trailing zeros are stripped; the zero polynomial has empty coeffs and
    degree -1.
    """

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field: ScalarField):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)
        self.field = field
        if any(not 0 <= c < field.q for c in self.coeffs):
            raise ValueError("coefficient out of range for GF(q)")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @classmethod
    def zero(cls, field):
        return cls((), field)

    @classmethod
    def one(cls, field):
        return cls((1,), field)

    @classmethod
    def x_pow_minus_one(cls, n, field):
        """x^n - 1 over GF(q)."""
        return cls((int(field.neg_t[1]),) + (0,) * (n - 1) + (1,), field)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.coeffs == other.coeffs
                and self.field.q == other.field.q)

    def __repr__(self):
        return f"Poly({list(self.coeffs)}, GF({self.field.q}))"

    def _check(self, other):
        if self.field.q != other.field.q:
            raise ValueError("mixed fields")

    def __add__(self, other):
        self._check(other)
        f = self.field
        la, lb = len(self.coeffs), len(other.coeffs)
        a = np.zeros(max(la, lb), dtype=np.int32)
        b = np.zeros(max(la, lb), dtype=np.int32)
        a[:la] = self.coeffs
        b[:lb] = other.coeffs
        return Poly(f.add_t[a, b], f)

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        f = self.field
        a = np.array(self.coeffs, dtype=np.int64)
        b = np.array(other.coeffs, dtype=np.int64)
        if f.e == 1:
            return Poly(np.convolve(a, b) % f.q, f)
        out = np.zeros(len(a) + len(b) - 1, dtype=np.int32)
        bb = b.astype(np.int32)
        for i, ai in enumerate(self.coeffs):
            if ai == 0:
                continue
            out[i:i + len(bb)] = f.add_t[out[i:i + len(bb)], f.mul_t[ai, bb]]
        return Poly(out, f)

    def scale(self, c):
        return Poly(self.field.mul_t[int(c), np.array(self.coeffs, dtype=np.int32)],
                    self.field)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        db = other.degree
        rem = np.zeros(max(len(self.coeffs), 1), dtype=np.int32)
        rem[:len(self.coeffs)] = self.coeffs
        if self.degree < db:
            return Poly.zero(f), Poly(rem, f)
        inv_lead = int(f.inv_t[other.coeffs[-1]])
        b = np.array(other.coeffs, dtype=np.int32)
        quo = np.zeros(self.degree - db + 1, dtype=np.int32)
        for i in range(self.degree, db - 1, -1):
            c = int(rem[i])
            if c == 0:
                continue
            fac = int(f.mul_t[c, inv_lead])
            quo[i - db] = fac
            rem[i - db:i + 1] = f.sub_t[rem[i - db:i + 1], f.mul_t[fac, b]]
        return Poly(quo, f), Poly(rem, f)

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return self.scale(int(self.field.inv_t[self.coeffs[-1]]))

    def reciprocal(self):
        """x^deg * p(1/x): the coefficient sequence reversed."""
        return Poly(tuple(reversed(self.coeffs)), self.field)


# ---------------------------------------------------------------------------
# minimal polynomials
# ---------------------------------------------------------------------------

def minimal_polynomial(ctx: FieldCtx, beta_power: int, coset) -> Poly:
    """prod_{j in coset} (x - beta^j), a polynomial over ctx's base field GF(q).

    beta_power must be beta^i for the smallest exponent i of the coset; the
    remaining roots are its iterated q-th powers (Frobenius orbit).  Raises
    if the orbit size disagrees with the coset or a coefficient lands
    outside GF(q), i.e. is not below q.
    """
    q = ctx.q
    d = len(coset)
    roots = [beta_power]
    for _ in range(d - 1):
        roots.append(ctx.pow(roots[-1], q))
    if ctx.pow(roots[-1], q) != beta_power:
        raise ValueError("coset is not Frobenius-closed for base q")
    # expand the product over the big field: (x - r) P = x P + (-r) P
    coeffs = [1]
    for r in roots:
        nr = ctx.neg(r)
        nxt = [0] + coeffs
        for i, c in enumerate(coeffs):
            nxt[i] = ctx.add(nxt[i], ctx.mul(c, nr))
        coeffs = nxt
    if any(c >= q for c in coeffs):
        raise ValueError("product coefficient falls outside GF(q); wrong coset?")
    return Poly(coeffs, ctx.field)


def poly_eval_in_ext(ctx: FieldCtx, poly: Poly, point: int) -> int:
    """Evaluate a GF(q) polynomial at a point of ctx = GF(q^k)."""
    if poly.field.q != ctx.q:
        raise ValueError(f"polynomial over GF({poly.field.q}), field over GF({ctx.q})")
    acc = 0
    for c in reversed(poly.coeffs):
        acc = ctx.add(ctx.mul(acc, point), c)
    return acc
