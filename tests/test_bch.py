"""Defining sets, dual defining sets, generators, and code dimensions."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualbch.bch import (
    BchSpec,
    Family,
    _divisors,
    bch_bound_from_set,
    bch_spec,
    code_length,
    code_params,
    defining_leaders,
    defining_set,
    dual_code_params,
    dual_defining_set,
    generator_from_leaders,
    generator_matrix,
    theorem_families,
)
from dualbch import bch
from dualbch.cyclotomic import CosetTable, coset_table, largest_leaders
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
        spec = BchSpec(Family(3, 6, s=2), 10)
        assert spec.lam == 8
        assert spec.n == 91

    def test_divisor_form_length(self):
        spec = BchSpec(Family(5, 4, lam=2), 247)
        assert spec.lam == 2
        assert spec.n == 312

    def test_factory_normalizes_q_minus_1(self):
        assert bch_spec(2, 6, 3, lam=1).family == Family(2, 6, s=1)
        assert bch_spec(3, 4, 5, lam=2).family == Family(3, 4, s=1)
        family = bch_spec(7, 3, 5, lam=3).family
        assert (family.lam, family.s) == (3, None)
        assert repr(family) == "Family(q=7, m=3, lam=3)"

    def test_factory_exclusive_args(self):
        with pytest.raises(ValueError):
            bch_spec(3, 4, 5)
        with pytest.raises(ValueError):
            bch_spec(3, 4, 5, lam=1, s=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Family(6, 2, s=1)  # q not a prime power
        with pytest.raises(ValueError):
            Family(3, 5, s=2)  # s does not divide m
        with pytest.raises(ValueError):
            Family(5, 2, lam=3)  # 3 does not divide 4
        with pytest.raises(ValueError):
            BchSpec(Family(2, 6, s=1), 64)  # delta > n
        with pytest.raises(ValueError):
            BchSpec(Family(2, 6, s=1), 1)  # delta < 2

    def test_validation_matches_the_rules(self):
        # the rules, written out with the prime powers listed: q a prime
        # power, m >= 1, exactly one of lam and s, lam | q - 1 (lam = q - 1
        # is s = 1), s | m, and n > 1, that is s < m
        prime_powers = {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32}
        accepted = 0
        for q in range(2, 33):
            for m in range(0, 9):
                for lam in [None, *range(-1, q + 1)]:
                    for s in [None, *range(-1, m + 2)]:
                        if lam == q - 1 and s is None:
                            want_s = 1
                        else:
                            want_s = s
                        ok = (q in prime_powers and m >= 1
                              and (lam is None) != (s is None)
                              and (lam is None or (lam >= 1 and (q - 1) % lam == 0))
                              and (want_s is None or (1 <= want_s < m and m % want_s == 0)))
                        try:
                            family = Family(q, m, lam, s)
                        except ValueError:
                            assert not ok, (q, m, lam, s)
                            continue
                        assert ok, (q, m, lam, s)
                        want_lam = lam if want_s is None else q**want_s - 1
                        assert (family.lam, family.s, family.n) == \
                            (want_lam, want_s, (q**m - 1) // want_lam)
                        accepted += 1
        assert accepted == 798

    def test_vast_family_is_built_without_q_pow_m(self):
        # n is worked out on first use, and refused from bit lengths there
        family = Family(3, 10**9, s=5 * 10**8)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"q=3, m=1000000000 is 2\^64 or more"):
            family.n
        assert time.perf_counter() - t0 < 0.1
        # past the coset tables' cap, a length is still computed
        assert Family(2, 40, lam=1).n == 2**40 - 1


class TestCodeLength:
    def test_never_refuses_a_length_below_2_64(self):
        # every refusal is of an exact (q^m - 1)/lambda of 65 bits or more;
        # lambda need not divide q^m - 1 for the bound, so every lam < q is tried
        refused = 0
        for q in range(2, 70):
            for m in range(1, 80):
                qm = q**m - 1
                forms = [(lam, None, qm // lam) for lam in range(1, q)]
                forms += [(None, s, qm // (q**s - 1)) for s in range(1, m) if m % s == 0]
                for lam, s, n in forms:
                    try:
                        code_length(q, m, lam, s)
                    except ValueError as e:
                        if "too large" in str(e):
                            assert n.bit_length() > 64, (q, m, lam, s)
                            refused += 1
        assert refused > 100_000

    def test_refuses_vast_lengths(self):
        for q, m, lam, s in [(2, 70, 1, None), (3, 10_000, 1, None), (3, 30_000_000, None, 1),
                             (2, 30_000_000, None, 2), (5, 10**7, 2, None),
                             (2, 130, None, 65)]:  # n = 1 + 2^65
            with pytest.raises(ValueError, match="too large to compute"):
                code_length(q, m, lam, s)
        # 2^40 - 1 and 1 + 2^40, both past the coset tables' cap
        assert code_length(2, 40, 1) == 2**40 - 1
        assert code_length(2, 80, s=40) == 2**40 + 1
        assert code_length(2, 64, 1) == 2**64 - 1  # 64 bits: computed

    @pytest.mark.parametrize("lam", [0, -3, 7])
    def test_lambda_must_divide(self, lam):
        with pytest.raises(ValueError, match=f"lambda={lam} does not divide q\\^m-1=15"):
            code_length(2, 4, lam)


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
                        found.append(("lam" in kw, q, *kw.values(), m, spec.family))
        found.sort(key=lambda f: f[:4])  # power forms by q, s, m; then q, lam, m
        assert list(theorem_families(cap)) == [f[-1] for f in found]
        assert len(found) == 128

    def test_divisors_ascending(self):
        # the divisor forms walk the divisors of q - 1 in this order
        for n in range(1, 1000):
            assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def members(mask):
    return tuple(np.flatnonzero(mask).tolist())


def mask_of(n, members):
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def is_q_closed(mask, q):
    """Whether the mask over Z_n is closed under multiplication by q mod n."""
    idx = (np.arange(len(mask), dtype=np.int64) * q) % len(mask)
    return bool(np.all(mask[idx] == mask))


class TestDefiningSet:
    def test_binary_delta3(self):
        spec = bch_spec(2, 6, 3, lam=1)
        t = defining_set(spec, coset_table(63, 2))
        assert members(t) == (1, 2, 4, 8, 16, 32)
        assert np.count_nonzero(t) == 6

    def test_ternary_delta5(self):
        spec = bch_spec(3, 3, 5, lam=1)
        t = defining_set(spec, coset_table(26, 3))
        assert np.count_nonzero(t) == 9  # cosets of 1, 2, 4 (C_3 sits inside C_1)

    def test_delta2_single_coset(self):
        spec = bch_spec(3, 3, 2, lam=1)
        t = defining_set(spec, coset_table(26, 3))
        assert members(t) == (1, 3, 9)

    def test_masks_are_read_only(self):
        t = defining_set(bch_spec(2, 6, 3, lam=1), coset_table(63, 2))
        for mask in (t, dual_defining_set(t)):
            assert mask.dtype == bool and mask.shape == (63,)
            with pytest.raises(ValueError):
                mask[0] = True

    def test_q_closed_on_theorem_families(self):
        assert not is_q_closed(mask_of(63, [1, 2]), 2)  # 4 missing
        assert is_q_closed(mask_of(63, [1, 2, 4, 8, 16, 32]), 2)
        for family in theorem_families(300):
            q, n = family.q, family.n
            table = coset_table(n, q)
            for delta in sorted({2, 3, n // 2, n} & set(range(2, n + 1))):
                t = defining_set(BchSpec(family, delta), table)
                assert is_q_closed(t, q), (family, delta)
                assert is_q_closed(dual_defining_set(t), q), (family, delta)

    @given(st.integers(1, 5000), st.integers(2, 64), st.integers(2, 5000))
    @settings(max_examples=100, deadline=None)
    def test_leaders_are_the_table_prefix(self, n, q, delta):
        # the generators take T's leaders as a prefix of table.leaders; any
        # (n, q, delta) will do, so the spec is a stand-in with those fields
        assume(math.gcd(n, q) == 1)
        table = coset_table(n, q)
        spec = SimpleNamespace(n=n, q=q, delta=min(delta, n))
        mask = defining_set(spec, table)
        assert np.array_equal(defining_leaders(spec, table),
                              table.leaders[mask[table.leaders]])

    def test_table_mismatch(self):
        spec = bch_spec(2, 6, 3, lam=1)
        with pytest.raises(ValueError):
            defining_set(spec, coset_table(26, 3))
        with pytest.raises(ValueError):
            defining_leaders(spec, coset_table(26, 3))


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


def assert_scans_match_reference(mask):
    assert np.array_equal(dual_defining_set(mask), reference_dual_mask(mask))
    assert bch_bound_from_set(mask) == reference_bch_bound(mask)


BLOCK = bch._RUN_BLOCK


# all true, all false, single zeros, runs that wrap past position 0 (the
# wrap run 6, 7, 8, 0, 1 is longest; the wrap run 8, 0 is not), and n = 1
EDGE_MASKS = ["111111111", "000000000", "011111111", "111101111", "111111110",
              "110010111", "101110001", "1", "0"]


class TestScanOracles:
    @pytest.mark.parametrize("bits", EDGE_MASKS)
    def test_edge_masks(self, bits):
        assert_scans_match_reference(np.array([b == "1" for b in bits]))

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_masks_over_several_blocks(self, n):
        # the run scan lists non-members one block at a time: runs that end,
        # start or wrap at a block boundary, and blocks without a non-member
        zero_sets = [[], [0], [n - 1], [0, n - 1], [BLOCK - 1, BLOCK], [BLOCK], [5],
                     [7, n - 3], [BLOCK - 1, 2 * BLOCK + 1]]
        for zeros in zero_sets:
            mask = np.ones(n, dtype=bool)
            mask[[z for z in zeros if z < n]] = False
            assert_scans_match_reference(mask)
        rng = np.random.default_rng(5)
        for density in (0.5, 1e-4, 1e-5):
            assert_scans_match_reference(rng.random(n) >= density)

    def test_theorem_families(self):
        # T and T_perp at about ten deltas per family, spread over its leaders
        for family in theorem_families(1000):
            n = family.n
            table = coset_table(n, family.q)
            leaders = table.leaders[1:]
            for delta in {2, n, *(leaders[::max(1, len(leaders) // 10)] + 1).tolist()}:
                if delta > n:
                    continue
                mask = (table.leader_of >= 1) & (table.leader_of <= delta - 1)
                assert_scans_match_reference(mask)
                assert_scans_match_reference(reference_dual_mask(mask))

    @given(st.integers(1, 5000), st.integers(2, 64), st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_coprime_defining_sets(self, n, q, delta):
        assume(math.gcd(n, q) == 1)
        table = coset_table(n, q)
        mask = (table.leader_of >= 1) & (table.leader_of <= min(delta, n) - 1)
        assert_scans_match_reference(mask)
        assert_scans_match_reference(reference_dual_mask(mask))

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_masks(self, bits):
        assert_scans_match_reference(np.array(bits, dtype=bool))


class TestDualDefiningSet:
    def test_empty_and_full(self):
        assert members(dual_defining_set(mask_of(10, []))) == tuple(range(10))
        assert members(dual_defining_set(mask_of(10, range(10)))) == ()

    def test_binary_delta3(self):
        spec = bch_spec(2, 6, 3, lam=1)
        tp = dual_defining_set(defining_set(spec, coset_table(63, 2)))
        assert np.count_nonzero(tp) == 57
        removed = {62, 61, 59, 55, 47, 31}
        assert set(members(tp)) == set(range(63)) - removed
        assert tp[:31].all()

    def test_result_is_q_closed(self):
        for q, m, lam, delta in [(2, 6, 1, 5), (3, 3, 1, 7), (5, 2, 1, 9), (3, 4, 2, 11)]:
            spec = bch_spec(q, m, delta, lam=lam)
            t = defining_set(spec, coset_table(spec.n, q))
            assert is_q_closed(dual_defining_set(t), q)

    def test_involution(self):
        spec = bch_spec(3, 3, 7, lam=1)
        t = defining_set(spec, coset_table(26, 3))
        assert np.array_equal(dual_defining_set(dual_defining_set(t)), t)


class TestBchBound:
    def test_edge_sets(self):
        assert bch_bound_from_set(mask_of(7, [])) == 1
        assert bch_bound_from_set(mask_of(7, range(7))) == 8

    def test_wrapping_run(self):
        # members {5, 6, 0, 1} wrap across n-1 -> 0: run of 4
        assert bch_bound_from_set(mask_of(7, [5, 6, 0, 1])) == 5

    @given(st.integers(2, 60), st.integers(2, 7))
    @settings(max_examples=60)
    def test_at_least_delta(self, n, q):
        if math.gcd(n, q) != 1:
            return
        table = coset_table(n, q)
        for delta in range(2, n + 1):
            mask = (table.leader_of >= 1) & (table.leader_of <= delta - 1)
            assert bch_bound_from_set(mask) >= delta  # run 1..delta-1 is in T


class TestCodeParams:
    def test_63_57(self):
        spec = bch_spec(2, 6, 3, lam=1)
        p = code_params(spec, field_new(2, 6), coset_table(63, 2))
        assert (p.n, p.k) == (63, 57)
        assert p.generator.degree == 6
        assert p.generator.is_monic

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
            assert divmod(Poly.x_pow_minus_one(spec.n, f), params.generator)[1].is_zero

    def test_generator_roots_are_exactly_t(self):
        spec = bch_spec(3, 3, 5, lam=1)
        ctx = field_new(3, 3)
        table = coset_table(26, 3)
        params = code_params(spec, ctx, table)
        t = defining_set(spec, table)
        for i in range(26):
            val = poly_eval_in_ext(ctx, params.generator,
                                   ctx.pow(ctx.generator, i))
            assert (val == 0) == t[i]

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

    def test_dual_refuses_leaders_that_repeat_a_coset(self):
        # 2 lies in the coset of 1 mod 63, so g = m_1^2 has a square factor
        # and cannot divide the squarefree x^63 - 1
        spec = bch_spec(2, 6, 3, lam=1)
        good = coset_table(63, 2)
        tampered = CosetTable(63, 2, np.array([0, 1, 2, 3]), 6)
        ctx = field_new(2, 6)
        assert code_params(spec, ctx, tampered).generator.degree == 12
        with pytest.raises(ValueError, match="does not divide"):
            dual_code_params(spec, ctx, tampered)
        assert dual_code_params(spec, ctx, good).k == 6


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
        h, _ = divmod(Poly.x_pow_minus_one(spec.n, f), params.generator)
        h_rev = h.reciprocal().monic()
        beta = ctx.pow(ctx.generator, spec.lam)
        for i in range(spec.n):
            val = poly_eval_in_ext(ctx, h_rev, ctx.pow(beta, i))
            assert (val == 0) == t_perp[i]

    def test_division_matches_coset_product_on_theorem_families(self):
        # reference: the per-coset minimal-polynomial product over T_perp
        compared = 0
        for family in theorem_families(255):
            q, m, n = family.q, family.m, family.n
            table = coset_table(n, q)
            ctx = field_new(q, m)
            delta1 = largest_leaders(table, 1)[0]
            for delta in sorted({2, 3, n // 2, delta1, n} & set(range(2, n + 1))):
                spec = BchSpec(family, delta)
                t = defining_set(spec, table)
                dim = int(np.count_nonzero(t))
                if q ** dim > DEFAULT_BUDGET:
                    continue
                t_perp = dual_defining_set(t)
                params = dual_code_params(spec, ctx, table)
                leaders = table.leaders[t_perp[table.leaders]]
                assert params.generator == generator_from_leaders(spec, ctx, leaders), \
                    (family, delta)
                assert params.k == dim
                compared += 1
        assert compared >= 200
