"""Field construction, packed-scalar arithmetic, and minimal polynomials."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import sympy
from sympy import factorint, isprime
from sympy import perfect_power as sympy_perfect_power

import dualbch.gf as gf
from dualbch.gf import (
    MAX_SCALAR_Q,
    MAX_TABLE_ORDER,
    Poly,
    _poly_mulmod,
    field_new,
    minimal_polynomial,
    poly_eval_in_ext,
    prime_power,
    rref,
    rref_gf2,
    scalar_field,
)
from dualbch.intmath import factorize
from dualbch.mindist import _PackedWords


def to_digits(v, q, k):
    return tuple(v // q**i % q for i in range(k))


def from_digits(ds, q):
    return sum(int(d) * q**i for i, d in enumerate(ds))


def prime_power_by_factorint(q):
    """The factorisation route that prime_power replaced, kept as its oracle."""
    if q < 2:
        return None
    fac = factorint(q)
    if len(fac) != 1:
        return None
    (p, e), = fac.items()
    return int(p), int(e)


NON_PRIME_Q = [q for q in range(4, 257) if (prime_power_by_factorint(q) or (0, 1))[1] > 1]


def tables_by_steps(ctx):
    """FieldCtx._tables one power of alpha at a time: the loop the doubling replaced."""
    q, k = ctx.q, ctx.k
    add, sub, mul = ctx.field.lists
    # the generator is a root of the modulus (x itself when k > 1), so
    # multiplying by it shifts the coordinates up one degree and replaces
    # the overflowing top * x^k term by top times the reduction of x^k,
    # one precomputed row per top coordinate
    x_k = [sub[0][c] for c in ctx.modulus[:k]]
    reduce_rows = [[mul[top][r] for r in x_k] for top in range(q)]
    cur = [1] + [0] * (k - 1)
    powers = []
    for _ in range(ctx.order - 1):
        powers.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [add[c][r] for c, r in zip(cur, reduce_rows[top])]
    exp = np.array(powers, dtype=np.int64) @ (q ** np.arange(k, dtype=np.int64))
    log = np.full(ctx.order, -1, dtype=np.int64)
    log[exp] = np.arange(ctx.order - 1, dtype=np.int64)
    return exp.tolist(), log.tolist()


def naive_order(ctx, x):
    acc = x
    for d in range(1, ctx.order):
        if acc == 1:
            return d
        acc = ctx.mul(acc, x)
    raise AssertionError("no order found")


class TestFieldNew:
    def test_gf2(self):
        ctx = field_new(2, 1)
        assert ctx.order == 2
        assert ctx.modulus == (1, 1)  # x + 1
        assert ctx.generator == 1

    def test_gf64_modulus_is_first_primitive(self):
        # lexicographic-first primitive polynomial of degree 6 over GF(2)
        ctx = field_new(2, 6)
        assert ctx.modulus == (1, 1, 0, 0, 0, 0, 1)  # x^6 + x + 1

    def test_gf64_generator_is_primitive(self):
        ctx = field_new(2, 6)
        for d in (1, 3, 7, 9, 21):  # proper divisors of 63
            assert ctx.pow(ctx.generator, d) != 1
        assert ctx.pow(ctx.generator, 63) == 1

    def test_gf729_generator_order(self):
        ctx = field_new(3, 6)
        assert naive_order(ctx, ctx.generator) == 728

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 2), (5, 2), (7, 1), (13, 1)])
    def test_generator_order_small(self, p, k):
        ctx = field_new(p, k)
        assert naive_order(ctx, ctx.generator) == p**k - 1

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            field_new(6, 2)

    @pytest.mark.parametrize("q,k", [(2, 1), (2, 8), (2, 13), (3, 1), (3, 5),
                                     (5, 1), (5, 3), (7, 2), (4, 1), (4, 5),
                                     (8, 3), (9, 2), (16, 2)])
    def test_exp_log_tables_match_mulmod(self, q, k):
        # reference: one general polynomial product per power of the generator
        ctx = field_new(q, k)
        exp = []
        cur, x = to_digits(1, q, k), to_digits(ctx.generator, q, k)
        for _ in range(ctx.order - 1):
            exp.append(from_digits(cur, q))
            cur = _poly_mulmod(cur, x, ctx.modulus, scalar_field(q))
        log = [-1] * ctx.order
        for i, v in enumerate(exp):
            log[v] = i
        assert ctx._tables == (exp, log)

    def test_exp_log_tables_match_step_loop(self):
        # every field with tables and q <= 256: k >= 2 needs q <= 256, and the
        # prime fields above 256 cost seconds of GF(q) table builds; four of
        # them stand in for the rest
        qs = [q for q in range(2, 257) if prime_power(q)] + [1024, 1331, 2039, 2048]
        for q in qs:
            for k in range(1, 17):
                if q**k > MAX_TABLE_ORDER:
                    break
                ctx = field_new(q, k)
                assert ctx._tables == tables_by_steps(ctx), (q, k)
            if q > 256:
                # GF(2048) keeps about 150 MB of cached tables, which would
                # stay alive, and slow every gc pass, for the rest of the run
                gf.scalar_field.cache_clear()

    def test_prime_divisors_match_factorint(self):
        # the primitivity test divides q^k - 1 by each of its primes, so the
        # same primes give the same first primitive modulus
        for q in range(2, MAX_SCALAR_Q + 1):
            if prime_power(q):
                for k in range(1, 21):
                    if q**k > 1 << 20:
                        break
                    assert list(factorize(q**k - 1)) == sorted(factorint(q**k - 1)), (q, k)

    @pytest.mark.parametrize("k,taps", [(40, (0, 3, 4, 5, 40)), (62, (0, 3, 5, 6, 62))])
    def test_large_binary_moduli_pinned(self, k, taps):
        assert field_new(2, k).modulus == tuple(int(i in taps) for i in range(k + 1))


# field_new(p, k).modulus for prime p, pinned: these moduli fix alpha, and so
# every generator polynomial over a prime field
PRIME_MODULI = {
    (2, 1): (1, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1), (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1), (3, 2): (2, 1, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 1): (2, 1), (5, 2): (2, 1, 1), (5, 3): (2, 3, 0, 1), (5, 4): (2, 2, 1, 0, 1),
    (7, 1): (2, 1), (7, 2): (3, 1, 1), (7, 3): (2, 3, 0, 1),
}


class TestFieldOverGFq:
    """GF(q^k) is built directly over GF(q), for prime and prime-power q."""

    @pytest.mark.parametrize("q,k", [(4, 1), (4, 2), (4, 3), (8, 2), (9, 2), (16, 2)])
    def test_generator_order(self, q, k):
        ctx = field_new(q, k)
        assert ctx.order == q**k
        assert naive_order(ctx, ctx.generator) == q**k - 1

    @pytest.mark.parametrize("q,k", [(4, 3), (8, 2), (9, 2), (16, 2)])
    def test_modulus_is_over_gfq(self, q, k):
        # packed GF(q) coefficients, monic, and alpha is a root of it
        ctx = field_new(q, k)
        assert len(ctx.modulus) == k + 1 and ctx.modulus[-1] == 1
        assert all(0 <= c < q for c in ctx.modulus)
        assert any(c >= prime_power(q)[0] for c in ctx.modulus)  # not just GF(p)
        f = Poly(ctx.modulus, scalar_field(q))
        assert poly_eval_in_ext(ctx, f, ctx.generator) == 0

    def test_modulus_is_first_primitive_brute_force(self):
        # candidates x^2 + d1 x + d0 in the order of d0 + 4 d1; x is primitive
        # iff its powers, taken one multiplication by x at a time, first
        # return to 1 after 15 steps
        q, f = 4, scalar_field(4)

        def x_order(d0, d1):
            a, b = 1, 0  # a + b x
            for step in range(1, q * q):
                # x (a + b x) = a x + b x^2, and x^2 = -(d1 x + d0)
                a, b = (int(f.neg_t[f.mul_t[b, d0]]),
                        int(f.sub_t[a, f.mul_t[b, d1]]))
                if (a, b) == (1, 0):
                    return step
            return None

        first = next((j % q, j // q) for j in range(q * q)
                     if x_order(j % q, j // q) == q * q - 1)
        assert field_new(4, 2).modulus == first + (1,)

    @pytest.mark.parametrize("p,k", sorted(PRIME_MODULI))
    def test_prime_moduli_pinned(self, p, k):
        assert field_new(p, k).modulus == PRIME_MODULI[p, k]


class TestElemOps:
    def test_pow_edges(self):
        ctx = field_new(2, 6)
        g = ctx.generator
        assert ctx.pow(g, 0) == 1
        assert ctx.pow(g, ctx.order - 1) == 1
        g9 = ctx.pow(g, 9)
        assert naive_order(ctx, g9) == 7  # 63 / gcd(63, 9)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_gf64_field_laws(self, a, b):
        ctx = field_new(2, 6)
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), ctx.neg(b)) == a
        if a != 0:
            assert ctx.mul(a, ctx.inv(a)) == 1

    @pytest.mark.parametrize("tables", [True, False], ids=["tables", "direct"])
    @pytest.mark.parametrize("q,k", [(q, k) for q in (2, 3, 4, 5, 8, 9) for k in (1, 2, 3)])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_ops_match_digit_oracle(self, q, k, tables, monkeypatch, data):
        # elements are ints whose base-q digits are coordinates: add is
        # add_t digit by digit, mul is _poly_mulmod on the digits, and pow
        # is repeated mul, with and without the exp/log tables
        if not tables:
            monkeypatch.setattr(gf, "MAX_TABLE_ORDER", 1)
        ctx = field_new(q, k)
        assert (ctx._tables is not None) == tables
        f = scalar_field(q)
        a, b = (data.draw(st.integers(0, q**k - 1)) for _ in range(2))
        e = data.draw(st.integers(0, 2 * q**k))
        da, db = to_digits(a, q, k), to_digits(b, q, k)
        assert ctx.add(a, b) == from_digits([f.add_t[x, y] for x, y in zip(da, db)], q)
        assert ctx.mul(a, b) == from_digits(_poly_mulmod(da, db, ctx.modulus, f), q)
        acc = to_digits(1, q, k)
        for _ in range(e):
            acc = _poly_mulmod(acc, da, ctx.modulus, f)
        assert ctx.pow(a, e) == from_digits(acc, q)
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


class TestScalarField:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_field_laws(self, q):
        f = scalar_field(q)
        for a in range(q):
            assert f.add_t[a, f.neg_t[a]] == 0
            if a:
                assert f.mul_t[a, f.inv_t[a]] == 1
            for b in range(q):
                assert f.add_t[a, b] == f.add_t[b, a]
                assert f.mul_t[a, b] == f.mul_t[b, a]
                assert f.sub_t[f.add_t[a, b], b] == a
        # distributivity, exhaustive for small q
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    assert f.mul_t[a, f.add_t[b, c]] == f.add_t[f.mul_t[a, b], f.mul_t[a, c]]

    def test_prime_power_matches_ctx(self):
        f = scalar_field(4)
        ctx = field_new(2, 2)
        for a in range(4):
            for b in range(4):
                assert f.add_t[a, b] == ctx.add(a, b)
                assert f.mul_t[a, b] == ctx.mul(a, b)

    def test_not_prime_power(self):
        with pytest.raises(ValueError):
            scalar_field(6)
        assert prime_power(12) is None
        assert prime_power(8) == (2, 3)
        assert prime_power(9) == (3, 2)

    @pytest.mark.parametrize("q", NON_PRIME_Q)
    def test_tables_match_per_pair_build(self, q):
        # the per-pair build through GF(p^e)'s own ops that the digit sums
        # and the exp/log gathers replaced
        f, ctx, r = scalar_field(q), field_new(*prime_power(q)), range(q)
        want = {"add_t": [[ctx.add(a, b) for b in r] for a in r],
                "mul_t": [[ctx.mul(a, b) for b in r] for a in r],
                "neg_t": [ctx.neg(a) for a in r],
                "inv_t": [0] + [ctx.inv(a) for a in range(1, q)]}
        want["sub_t"] = np.array(want["add_t"])[:, want["neg_t"]]
        for name, table in want.items():
            got = getattr(f, name)
            assert got.dtype == np.int32 and np.array_equal(got, table), name

    @pytest.mark.parametrize("q", [MAX_SCALAR_Q + 1, 4093, 65521])
    def test_refuses_large_q(self, q):
        # the q x q tables take about 36 q^2 bytes; the refusal comes first
        with pytest.raises(ValueError, match=f"q={q} is above {MAX_SCALAR_Q}"):
            scalar_field(q)


class TestPrimePower:
    def test_matches_factorint_below_30000(self):
        assert all(prime_power(q) == prime_power_by_factorint(q) for q in range(-1, 30000))

    @given(st.integers(2, 10**6), st.integers(1, 12), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_factorint_on_powers(self, b, e, c):
        # prime powers, powers of composites and their small multiples
        q = b**e * c
        assert prime_power(q) == prime_power_by_factorint(q)

    def test_large_q(self):
        # a 60-digit product of two primes, which factorint takes minutes
        # to split, and the square of the 31-digit prime 10^30 + 57
        assert prime_power(100000000000000000000000000324700000000000000000000000018183) is None
        assert prime_power((10**30 + 57) ** 2) == (10**30 + 57, 2)

    @pytest.mark.parametrize("q", [3**9000, 10**4299 + 1, 6**5525, 2**14283,
                                   (10**30 + 57) ** 143, 7**5000 - 1],
                             ids=["3^9000", "10^4299+1", "6^5525", "2^14283",
                                  "(10^30+57)^143", "7^5000-1"])
    def test_4300_digits(self, q):
        # as many digits as the CLI parses; factorint cannot split 10^4299 + 1,
        # so the oracle is the route through sympy's perfect_power and isprime
        assert len(str(q)) <= 4300
        b, e = sympy_perfect_power(q) or (q, 1)
        assert prime_power(q) == ((int(b), int(e)) if isprime(b) else None)


class TestPoly:
    def test_trim_and_degree(self):
        f = scalar_field(3)
        assert Poly((1, 2, 0, 0), f).coeffs == (1, 2)
        assert Poly.zero(f).degree == -1
        assert Poly.one(f).degree == 0

    def test_x_pow_minus_one(self):
        f = scalar_field(5)
        p = Poly.x_pow_minus_one(4, f)
        assert p.coeffs == (4, 0, 0, 0, 1)
        f2 = scalar_field(2)
        assert Poly.x_pow_minus_one(3, f2).coeffs == (1, 0, 0, 1)

    @given(st.data())
    @settings(max_examples=60)
    def test_divmod_roundtrip(self, data):
        q = data.draw(st.sampled_from([2, 3, 4, 5]))
        f = scalar_field(q)
        a = Poly(data.draw(st.lists(st.integers(0, q - 1), max_size=12)), f)
        b = Poly(data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6)), f)
        if b.is_zero:
            return
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree

    def test_mul_table_path_matches_prime_path(self):
        # GF(4) multiplication agrees with naive convolution over the ctx
        f = scalar_field(4)
        a = Poly((1, 2, 3), f)
        b = Poly((2, 0, 1, 3), f)
        prod = a * b
        naive = Poly.zero(f)
        for i, ai in enumerate(a.coeffs):
            shifted = Poly((0,) * i + tuple(b.coeffs), f).scale(ai)
            naive = naive + shifted
        assert prod == naive

    def test_reciprocal(self):
        f = scalar_field(3)
        p = Poly((1, 0, 2), f)
        assert p.reciprocal().coeffs == (2, 0, 1)


class TestRref:
    def test_singular_over_gf3(self):
        f = scalar_field(3)
        # determinant is -3, so the matrix drops to rank 2 exactly over GF(3)
        m = np.array([[1, 2, 0], [2, 2, 1], [0, 1, 1]], dtype=np.int32)
        R, piv = rref(m, f)
        assert len(piv) == 2
        assert not R[2].any()

    def test_full_rank_identity(self):
        f = scalar_field(5)
        m = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 3]], dtype=np.int32)  # det 16
        R, piv = rref(m, f)
        assert piv == [0, 1, 2]
        assert np.array_equal(R, np.eye(3, dtype=np.int32))

    def test_rref_pivots_are_unit_columns(self):
        f = scalar_field(4)
        rng = np.random.default_rng(3)
        m = rng.integers(0, 4, size=(4, 7)).astype(np.int32)
        R, piv = rref(m, f)
        for i, c in enumerate(piv):
            col = R[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1


@st.composite
def gf2_matrices(draw):
    """GF(2) matrices at word-boundary lengths, with zero and duplicate rows."""
    n = draw(st.sampled_from([1, 63, 64, 65, 130]))
    k = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.03, 0.5, 0.97]))
    m = (rng.random((k, n)) < density).astype(np.int32)
    rows = st.integers(0, k - 1)
    for i in draw(st.lists(rows, max_size=3)):
        m[i] = 0
    for i, j in draw(st.lists(st.tuples(rows, rows), max_size=3)):
        m[i] = m[j]
    return m


class TestRrefGf2:
    """rref_gf2 on packed rows against the int32 rref over GF(2)."""

    F2 = scalar_field(2)

    def check(self, m):
        k, n = m.shape
        words = _PackedWords(n)
        R, piv = rref(m, self.F2)
        packed, packed_piv = rref_gf2(words.pack(m), n)
        assert packed_piv == piv
        assert packed.dtype == np.uint64
        assert np.array_equal(packed, words.pack(R[:len(piv)]))
        assert not R[len(piv):].any()
        return len(piv)

    @settings(max_examples=300, deadline=None)
    @given(gf2_matrices())
    def test_matches_int32_rref(self, m):
        self.check(m)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_full_and_deficient_rank(self, n):
        # a unit lower-triangular matrix has full rank; scrambling its rows
        # and columns keeps that, and the XOR of two rows appended drops it
        rng = np.random.default_rng(n)
        m = np.tril(rng.integers(0, 2, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
        m = m[rng.permutation(n)][:, rng.permutation(n)].astype(np.int32)
        assert self.check(m) == n
        extra = m[:1] ^ m[-1:]
        assert self.check(np.concatenate([m, extra, np.zeros_like(extra)])) == n

    def test_input_is_not_modified(self):
        words = _PackedWords(70)
        rows = words.pack(np.random.default_rng(1).integers(0, 2, size=(6, 70)))
        before = rows.copy()
        rref_gf2(rows, 70)
        assert np.array_equal(rows, before)


class TestMinimalPolynomial:
    def test_coset_zero_is_x_minus_one(self):
        ctx = field_new(2, 6)
        mp = minimal_polynomial(ctx, 1, [0])
        assert mp.coeffs == (1, 1)  # x + 1 over GF(2)

    def test_coset_one_gf64(self):
        ctx = field_new(2, 6)
        beta = ctx.generator  # n = 63, lambda = 1
        mp = minimal_polynomial(ctx, beta, [1, 2, 4, 8, 16, 32])
        assert mp.degree == 6
        assert mp.is_monic
        # divides x^63 - 1
        f = scalar_field(2)
        assert divmod(Poly.x_pow_minus_one(63, f), mp)[1].is_zero
        # the modulus polynomial of the field is the minimal polynomial of alpha
        assert mp.coeffs == ctx.modulus

    def test_ternary_cubic(self):
        # n = 26, q = 3, coset of 2 is {2, 6, 18}
        ctx = field_new(3, 3)
        beta2 = ctx.pow(ctx.generator, 2)
        mp = minimal_polynomial(ctx, beta2, [2, 6, 18])
        assert mp.degree == 3
        for i in (2, 6, 18):
            pt = ctx.pow(ctx.generator, i)
            assert poly_eval_in_ext(ctx, mp, pt) == 0

    def test_wrong_coset_raises(self):
        ctx = field_new(2, 6)
        beta = ctx.generator
        with pytest.raises(ValueError):
            minimal_polynomial(ctx, beta, [1, 2])  # orbit has size 6, not 2

    @pytest.mark.parametrize("q,m", [(2, 6), (3, 3), (5, 2), (4, 2), (4, 3), (8, 2),
                                     (9, 2), (16, 2)])
    def test_product_over_cosets_is_x_n_minus_one(self, q, m):
        # q-cyclotomic cosets mod n = q^m - 1 partition the roots of x^n - 1
        ctx = field_new(q, m)
        lam = 1
        n = q**m - 1
        seen = set()
        prod = Poly.one(scalar_field(q))
        for a in range(n):
            if a in seen:
                continue
            coset = sorted(set((a * q**j) % n for j in range(m)))
            seen.update(coset)
            beta_power = ctx.pow(ctx.generator, lam * coset[0])
            prod = prod * minimal_polynomial(ctx, beta_power, coset)
        assert prod == Poly.x_pow_minus_one(n, scalar_field(q))

    def test_distinct_cosets_give_coprime_factors(self):
        ctx = field_new(2, 4)
        m1 = minimal_polynomial(ctx, ctx.generator, [1, 2, 4, 8])
        b3 = ctx.pow(ctx.generator, 3)
        m3 = minimal_polynomial(ctx, b3, [3, 6, 12, 9])
        x = sympy.symbols("x")
        as_sympy = [sympy.Poly(p.coeffs[::-1], x, modulus=2) for p in (m1, m3)]
        assert sympy.gcd(*as_sympy).as_expr() == 1


class TestExtensionConstants:
    """GF(q) is the constants of field_new(q, k); nothing is re-expressed."""

    def test_minimal_polynomial_over_gf9(self):
        # n = 80, q = 9: the coset of 1 is {1, 9}; its minimal polynomial is
        # alpha's, so over GF(9) it is the field's own modulus
        ctx = field_new(9, 2)
        mp = minimal_polynomial(ctx, ctx.generator, [1, 9])
        assert mp.field.q == 9
        assert mp.coeffs == ctx.modulus

    def test_rejects_root_outside_base_field_orbit(self):
        # alpha of GF(4^2) is not fixed by x -> x^4, so {1} is no coset
        ctx = field_new(4, 2)
        with pytest.raises(ValueError):
            minimal_polynomial(ctx, ctx.generator, [1])

    def test_eval_embeds_scalars_as_constants(self):
        ctx = field_new(8, 2)
        f = scalar_field(8)
        for c in range(8):
            assert poly_eval_in_ext(ctx, Poly((c,), f), ctx.generator) == c

    def test_eval_rejects_polynomial_over_another_field(self):
        ctx = field_new(2, 4)
        with pytest.raises(ValueError):
            poly_eval_in_ext(ctx, Poly((1, 1), scalar_field(4)), ctx.generator)
