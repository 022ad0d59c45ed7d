"""Defining sets, dual defining sets, generators, and code dimensions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualbch.bch import (
    BchSpec,
    DefiningSet,
    DivisorOfQMinus1,
    PowerForm,
    bch_bound_from_set,
    bch_spec,
    code_params,
    defining_set,
    dual_code_params,
    dual_defining_set,
    generator_from_set,
    generator_matrix,
    theorem_families,
)
from dualbch.cyclotomic import coset_table, largest_leaders
from dualbch.dualtools import dual_lower_bound
from dualbch.gf import (
    Poly,
    field_new,
    poly_eval_in_ext,
    prime_power,
    rref,
    scalar_field,
)
from dualbch.mindist import DEFAULT_BUDGET


class TestBchSpec:
    def test_power_form_length(self):
        spec = BchSpec(3, 6, PowerForm(2), 10)
        assert spec.lam == 8
        assert spec.n == 91

    def test_divisor_form_length(self):
        spec = BchSpec(5, 4, DivisorOfQMinus1(2), 247)
        assert spec.lam == 2
        assert spec.n == 312

    def test_factory_normalizes_q_minus_1(self):
        spec = bch_spec(2, 6, 3, lam=1)
        assert spec.lambda_kind == PowerForm(1)
        spec = bch_spec(3, 4, 5, lam=2)
        assert spec.lambda_kind == PowerForm(1)
        spec = bch_spec(7, 3, 5, lam=3)
        assert spec.lambda_kind == DivisorOfQMinus1(3)

    def test_factory_exclusive_args(self):
        with pytest.raises(ValueError):
            bch_spec(3, 4, 5)
        with pytest.raises(ValueError):
            bch_spec(3, 4, 5, lam=1, s=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BchSpec(6, 2, PowerForm(1), 2)  # q not a prime power
        with pytest.raises(ValueError):
            BchSpec(3, 5, PowerForm(2), 2)  # s does not divide m
        with pytest.raises(ValueError):
            BchSpec(5, 2, DivisorOfQMinus1(3), 2)  # 3 does not divide 4
        with pytest.raises(ValueError):
            BchSpec(5, 2, DivisorOfQMinus1(4), 2)  # q-1 must go through PowerForm
        with pytest.raises(ValueError):
            BchSpec(2, 6, PowerForm(1), 64)  # delta > n
        with pytest.raises(ValueError):
            BchSpec(2, 6, PowerForm(1), 1)  # delta < 2


class TestTheoremFamilies:
    def test_matches_brute_force_filter(self):
        # Every prime power q, every m and every s or lambda that bch_spec and
        # the closed forms accept, with n <= cap.  m >= 2 gives n >= q + 1, so
        # q <= cap; n >= 2^(m/2) keeps m below 20.  lambda = q - 1 is s = 1.
        cap, found = 300, []
        for q in range(2, cap + 1):
            if prime_power(q) is None:
                continue
            for m in range(1, 20):
                kws = [{"s": s} for s in range(1, m + 1)]
                kws += [{"lam": lam} for lam in range(1, q - 1) if (q**m - 1) // lam <= cap]
                for kw in kws:
                    try:
                        spec = bch_spec(q, m, 2, **kw)
                        dual_lower_bound(spec)  # raises outside both closed forms
                    except ValueError:
                        continue
                    if spec.n <= cap:
                        found.append(("lam" in kw, q, *kw.values(), m, spec.n, kw))
        found.sort(key=lambda f: f[:4])  # power forms by q, s, m; then q, lam, m
        assert list(theorem_families(cap)) == [(q, m, kw, n) for _, q, _, m, n, kw in found]
        assert len(found) == 128


class TestDefiningSet:
    def test_binary_delta3(self):
        spec = bch_spec(2, 6, 3, lam=1)
        t = defining_set(spec, coset_table(63, 2))
        assert t.members == (1, 2, 4, 8, 16, 32)
        assert len(t) == 6

    def test_ternary_delta5(self):
        spec = bch_spec(3, 3, 5, lam=1)
        t = defining_set(spec, coset_table(26, 3))
        assert len(t) == 9  # cosets of 1, 2, 4 (C_3 sits inside C_1)

    def test_delta2_single_coset(self):
        spec = bch_spec(3, 3, 2, lam=1)
        t = defining_set(spec, coset_table(26, 3))
        assert t.members == (1, 3, 9)

    def test_q_closure_enforced(self):
        with pytest.raises(ValueError):
            DefiningSet.from_members(63, 2, [1, 2])  # 4 missing
        s = DefiningSet.from_members(63, 2, [1, 2, 4, 8, 16, 32])
        assert s.is_q_closed()

    def test_table_mismatch(self):
        spec = bch_spec(2, 6, 3, lam=1)
        with pytest.raises(ValueError):
            defining_set(spec, coset_table(26, 3))


def reference_dual_mask(mask):
    """The gather through (n - i) mod n that dual_defining_set replaced."""
    n = len(mask)
    return ~mask[(n - np.arange(n, dtype=np.int64)) % n]


def reference_bch_bound(mask):
    """The doubled-array run scan that bch_bound_from_set replaced."""
    if mask.all():
        return len(mask) + 1
    if not mask.any():
        return 1
    m2 = np.concatenate([mask, mask]).astype(np.int8)
    edges = np.diff(np.concatenate([[0], m2, [0]]))
    return int((np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)).max()) + 1


def assert_scans_match_reference(mask, q=2):
    s = DefiningSet(len(mask), q, mask, validate=False)
    assert np.array_equal(dual_defining_set(s).mask, reference_dual_mask(s.mask))
    assert bch_bound_from_set(s) == reference_bch_bound(s.mask)


# all true, all false, single zeros, runs that wrap past position 0 (the
# wrap run 6, 7, 8, 0, 1 is longest; the wrap run 8, 0 is not), and n = 1
EDGE_MASKS = ["111111111", "000000000", "011111111", "111101111", "111111110",
              "110010111", "101110001", "1", "0"]


class TestScanOracles:
    @pytest.mark.parametrize("bits", EDGE_MASKS)
    def test_edge_masks(self, bits):
        assert_scans_match_reference(np.array([b == "1" for b in bits]))

    def test_theorem_families(self):
        # T and T_perp at about ten deltas per family, spread over its leaders
        for q, _, _, n in theorem_families(1000):
            table = coset_table(n, q)
            leaders = table.leaders[1:]
            for delta in {2, n, *(leaders[::max(1, len(leaders) // 10)] + 1).tolist()}:
                if delta > n:
                    continue
                mask = (table.leader_of >= 1) & (table.leader_of <= delta - 1)
                assert_scans_match_reference(mask, q)
                assert_scans_match_reference(reference_dual_mask(mask), q)

    @given(st.integers(1, 5000), st.integers(2, 64), st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_coprime_defining_sets(self, n, q, delta):
        assume(math.gcd(n, q) == 1)
        table = coset_table(n, q)
        mask = (table.leader_of >= 1) & (table.leader_of <= min(delta, n) - 1)
        assert_scans_match_reference(mask, q)
        assert_scans_match_reference(reference_dual_mask(mask), q)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_masks(self, bits):
        assert_scans_match_reference(np.array(bits, dtype=bool))


class TestDualDefiningSet:
    def test_empty_and_full(self):
        empty = DefiningSet.from_members(10, 3, [])
        assert dual_defining_set(empty).members == tuple(range(10))
        full = DefiningSet.from_members(10, 3, range(10))
        assert dual_defining_set(full).members == ()

    def test_binary_delta3(self):
        spec = bch_spec(2, 6, 3, lam=1)
        tp = dual_defining_set(defining_set(spec, coset_table(63, 2)))
        assert len(tp) == 57
        removed = {62, 61, 59, 55, 47, 31}
        assert set(tp.members) == set(range(63)) - removed
        assert all(i in tp for i in range(31))

    def test_result_is_q_closed(self):
        for q, m, lam, delta in [(2, 6, 1, 5), (3, 3, 1, 7), (5, 2, 1, 9), (3, 4, 2, 11)]:
            spec = bch_spec(q, m, delta, lam=lam)
            t = defining_set(spec, coset_table(spec.n, q))
            assert dual_defining_set(t).is_q_closed()

    def test_involution(self):
        spec = bch_spec(3, 3, 7, lam=1)
        t = defining_set(spec, coset_table(26, 3))
        assert dual_defining_set(dual_defining_set(t)) == t


class TestBchBound:
    def test_edge_sets(self):
        assert bch_bound_from_set(DefiningSet.from_members(7, 2, [])) == 1
        assert bch_bound_from_set(DefiningSet.from_members(7, 2, range(7))) == 8

    def test_wrapping_run(self):
        # members {5, 6, 0, 1} wrap across n-1 -> 0: run of 4
        s = DefiningSet(7, 2, np.array([1, 1, 0, 0, 0, 1, 1], dtype=bool),
                        validate=False)
        assert bch_bound_from_set(s) == 5

    @given(st.integers(2, 60), st.integers(2, 7))
    @settings(max_examples=60)
    def test_at_least_delta(self, n, q):
        if math.gcd(n, q) != 1:
            return
        table = coset_table(n, q)
        for delta in range(2, n + 1):
            mask = (table.leader_of >= 1) & (table.leader_of <= delta - 1)
            s = DefiningSet(n, q, mask, validate=False)
            assert bch_bound_from_set(s) >= delta  # run 1..delta-1 is in T


class TestCodeParams:
    def test_63_57(self):
        spec = bch_spec(2, 6, 3, lam=1)
        p = code_params(spec, field_new(2, 6), coset_table(63, 2))
        assert (p.n, p.k) == (63, 57)
        assert p.generator.degree == 6
        assert p.generator.is_monic
        assert p.bch_bound >= 3

    def test_26_17(self):
        spec = bch_spec(3, 3, 5, lam=1)
        p = code_params(spec, field_new(3, 3), coset_table(26, 3))
        assert (p.n, p.k) == (26, 17)

    def test_24_20(self):
        spec = bch_spec(5, 2, 3, lam=1)
        p = code_params(spec, field_new(5, 2), coset_table(24, 5))
        assert (p.n, p.k) == (24, 20)

    def test_dual_63_39(self):
        spec = bch_spec(2, 6, 15, lam=1)
        p = dual_code_params(spec, field_new(2, 6), coset_table(63, 2))
        assert (p.n, p.k) == (63, 39)
        assert p.delta is None

    def test_rejects_field_over_another_base(self):
        # GF(2^4) built over GF(2) has the order of GF(4^2), but its constants
        # are GF(2), so it cannot carry the minimal polynomials of a q = 4 code
        spec = bch_spec(4, 2, 3, lam=1)
        table = coset_table(15, 4)
        with pytest.raises(ValueError, match="over GF"):
            code_params(spec, field_new(2, 4), table)
        assert code_params(spec, field_new(4, 2), table).generator.field.q == 4

    def test_generator_divides_x_n_minus_1(self):
        for q, m, lam, delta in [(2, 6, 1, 3), (3, 3, 1, 5), (5, 2, 1, 3),
                                 (4, 3, 1, 5), (9, 2, 2, 4)]:
            spec = bch_spec(q, m, delta, lam=lam)
            params = code_params(spec, field_new(q, m), coset_table(spec.n, q))
            f = scalar_field(q)
            assert (Poly.x_pow_minus_one(spec.n, f) % params.generator).is_zero

    def test_generator_roots_are_exactly_t(self):
        spec = bch_spec(3, 3, 5, lam=1)
        ctx = field_new(3, 3)
        table = coset_table(26, 3)
        params = code_params(spec, ctx, table)
        t = defining_set(spec, table)
        for i in range(26):
            val = poly_eval_in_ext(ctx, params.generator,
                                   ctx.pow(ctx.generator, i))
            assert (val == 0) == (i in t)

    def test_power_form_beta_exponent(self):
        # lambda = 8: beta = alpha^8, n = 91 over GF(3^6)
        spec = bch_spec(3, 6, 4, s=2)
        ctx = field_new(3, 6)
        table = coset_table(91, 3)
        params = code_params(spec, ctx, table)
        assert params.n == 91
        beta = ctx.pow(ctx.generator, 8)
        for i in (1, 2, 3):
            val = poly_eval_in_ext(ctx, params.generator, ctx.pow(beta, i))
            assert val == 0

    def test_generators_build_no_coset_map(self):
        # each coset of T comes from its leader's orbit, not from table.cosets
        spec = bch_spec(2, 10, 9, lam=1)
        table = coset_table(spec.n, 2)
        ctx = field_new(2, 10)
        dual = dual_code_params(spec, ctx, table)
        primal = code_params(spec, ctx, table)
        assert table._cosets is None
        assert (dual.k, primal.k) == (40, 983)


class TestGeneratorMatrix:
    def test_shape_and_rank(self):
        spec = bch_spec(2, 6, 3, lam=1)
        params = code_params(spec, field_new(2, 6), coset_table(63, 2))
        g = generator_matrix(params)
        assert g.shape == (57, 63)
        _, piv = rref(g, scalar_field(2))
        assert len(piv) == 57

    def test_rows_are_shifts(self):
        spec = bch_spec(5, 2, 3, lam=1)
        params = code_params(spec, field_new(5, 2), coset_table(24, 5))
        g = generator_matrix(params)
        coeffs = params.generator.coeffs
        for j in range(params.k):
            row = g[j]
            assert tuple(row[j:j + len(coeffs)]) == coeffs
            assert not row[:j].any() and not row[j + len(coeffs):].any()

    def test_row_space_closed_under_cyclic_shift(self):
        spec = bch_spec(3, 3, 5, lam=1)
        params = code_params(spec, field_new(3, 3), coset_table(26, 3))
        g = generator_matrix(params)
        f = scalar_field(3)
        R, piv = rref(g, f)
        R = R[:len(piv)]
        for j in range(params.k):
            shifted = np.roll(g[j], 1)
            # reduce against R; residual must vanish
            v = shifted.copy()
            for r, c in enumerate(piv):
                if v[c]:
                    v = f.sub_t[v, f.mul_t[int(v[c]), R[r]]]
            assert not v.any()


class TestDualGeneratorConsistency:
    @pytest.mark.parametrize("q,m,lam,delta", [
        (2, 6, 1, 5), (3, 3, 1, 5), (5, 2, 1, 3), (3, 4, 2, 7), (7, 2, 2, 5),
        (2, 4, 1, 3), (4, 3, 1, 5), (8, 2, 1, 4), (9, 2, 2, 6),
    ])
    def test_tperp_equals_reciprocal_h_root_set(self, q, m, lam, delta):
        # the dual's generator is the reciprocal of h = (x^n - 1)/g; its root
        # exponents must be exactly T_perp
        spec = bch_spec(q, m, delta, lam=lam)
        ctx = field_new(q, m)
        table = coset_table(spec.n, q)
        params = code_params(spec, ctx, table)
        t_perp = dual_defining_set(defining_set(spec, table))
        f = scalar_field(q)
        h = Poly.x_pow_minus_one(spec.n, f) // params.generator
        h_rev = h.reciprocal().monic()
        beta = ctx.pow(ctx.generator, spec.lam)
        for i in range(spec.n):
            val = poly_eval_in_ext(ctx, h_rev, ctx.pow(beta, i))
            assert (val == 0) == (i in t_perp)

    def test_division_matches_coset_product_on_theorem_families(self):
        # reference: the per-coset minimal-polynomial product over T_perp
        compared = 0
        for q, m, kw, n in theorem_families(255):
            table = coset_table(n, q)
            ctx = field_new(q, m)
            delta1 = largest_leaders(table, 1)[0]
            for delta in sorted({2, 3, n // 2, delta1, n} & set(range(2, n + 1))):
                spec = bch_spec(q, m, delta, **kw)
                t = defining_set(spec, table)
                if q ** len(t) > DEFAULT_BUDGET:
                    continue
                t_perp = dual_defining_set(t)
                params = dual_code_params(spec, ctx, table)
                assert params.generator == generator_from_set(spec, ctx, table, t_perp), \
                    (q, m, kw, delta)
                assert (params.k, params.bch_bound) == (len(t), bch_bound_from_set(t_perp))
                compared += 1
        assert compared >= 200
