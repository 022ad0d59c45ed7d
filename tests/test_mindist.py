"""Distance oracles: exhaustive Gray enumeration and information-set search."""

from itertools import count

import numpy as np
import pytest

from dualbch.bch import (
    BchSpec,
    CodeParams,
    bch_spec,
    defining_set,
    dual_code_params,
    generator_matrix,
    theorem_families,
)
from dualbch.cyclotomic import coset_table
from dualbch.dualtools import bound_report
from dualbch.gf import Poly, field_new, scalar_field
from dualbch import mindist, oracles
from dualbch.mindist import (
    _BLOCK_CAP,
    MAX_SEARCH_ELEMS,
    _block_digits,
    _exhaustive_best,
    _isd_best,
    _lighter,
    _PackedWords,
    _TableWords,
    certify,
    in_row_space,
    search_fits,
)
from dualbch.oracles import full_gray_best


def min_weight(gen, field):
    """Exact minimum weight of gen's row space, from the Gray walk."""
    return _exhaustive_best(gen, field).weight


def naive_min_weight(gen, field):
    """Reference enumeration by explicit message vectors."""
    k, n = gen.shape
    q = field.q
    best = n + 1
    for msg in range(1, q**k):
        cw = np.zeros(n, dtype=np.int32)
        v = msg
        for i in range(k):
            v, d = divmod(v, q)
            if d:
                cw = field.add_t[cw, field.mul_t[d, gen[i]]]
        best = min(best, int(np.count_nonzero(cw)))
    return best


def dual_setup(q, m, delta, lam=None, s=None):
    spec = bch_spec(q, m, delta, lam=lam, s=s)
    ctx = field_new(q, m)
    table = coset_table(spec.n, q)
    params = dual_code_params(spec, ctx, table)
    return spec, ctx, table, params


class TestExhaustive:
    def test_dual_of_c3_is_32(self):
        _, _, _, params = dual_setup(2, 6, 3, lam=1)
        assert params.k == 6
        gen = generator_matrix(params)
        assert min_weight(gen, scalar_field(2)) == 32

    def test_dual_of_ternary_c5_is_9(self):
        _, _, _, params = dual_setup(3, 3, 5, lam=1)
        assert params.k == 9
        gen = generator_matrix(params)
        assert min_weight(gen, scalar_field(3)) == 9

    def test_empty_code_rejected(self):
        gen = np.zeros((0, 7), dtype=np.int32)
        with pytest.raises(ValueError):
            min_weight(gen, scalar_field(2))

    @pytest.mark.parametrize("q,k,n,seed", [
        (2, 5, 12, 0), (2, 8, 15, 1), (3, 4, 11, 2), (3, 6, 9, 3), (4, 4, 10, 4),
        (5, 3, 9, 5), (5, 4, 8, 6), (7, 3, 8, 7), (2, 11, 17, 8), (9, 3, 7, 9),
    ])
    def test_matches_naive_on_random_codes(self, q, k, n, seed):
        rng = np.random.default_rng(seed)
        gen = rng.integers(0, q, size=(k, n)).astype(np.int32)
        field = scalar_field(q)
        got = min_weight(gen, field)
        assert got == naive_min_weight(gen, field)

    @pytest.mark.parametrize("q,k,n,seed", [(2, 10, 5000, 10), (3, 6, 6000, 11)])
    def test_matches_naive_where_element_cap_binds(self, q, k, n, seed):
        k_lo = _block_digits(q, k, n)
        assert k_lo < k and q ** (k_lo + 1) <= _BLOCK_CAP  # rows alone would allow more
        rng = np.random.default_rng(seed)
        gen = rng.integers(0, q, size=(k, n)).astype(np.int32)
        field = scalar_field(q)
        # plant a weight-3 codeword that mixes a block row and a Gray-walked row
        e = np.zeros(n, dtype=np.int32)
        e[rng.choice(n, size=3, replace=False)] = rng.integers(1, q, size=3)
        gen[-1] = field.add_t[gen[0], e]
        got = min_weight(gen, field)
        assert got == naive_min_weight(gen, field)
        assert got <= 3

    def test_block_digits(self):
        assert _block_digits(2, 14, 1024) == 12  # row cap only up to n = 1024
        assert _block_digits(3, 9, 1024) == 7
        assert _block_digits(2, 14, 16383) == 8  # 256 rows * 16383 <= 2^22
        assert _block_digits(2, 5, 1 << 23) == 1  # never fewer than q rows
        assert _block_digits(2, 3, 100) == 3  # never more digits than k

    def test_invariant_under_row_transforms(self):
        # random invertible row operations preserve the row space
        _, _, _, params = dual_setup(5, 2, 3, lam=1)
        gen = generator_matrix(params)
        field = scalar_field(5)
        base = min_weight(gen, field)
        rng = np.random.default_rng(11)
        g2 = gen.copy()
        for _ in range(25):
            i, j = rng.integers(0, g2.shape[0], size=2)
            c = int(rng.integers(1, 5))
            if i != j:
                g2[i] = field.add_t[g2[i], field.mul_t[c, g2[j]]]
            else:
                g2[i] = field.mul_t[c, g2[i]]
        assert min_weight(g2, field) == base


def same_search(a, b):
    """Whether two searches found the same weight and witness, the same way."""
    return (a.weight == b.weight and np.array_equal(a.witness, b.witness)
            and a[2:] == b[2:])


def theorem_duals(max_n, max_k):
    """Generator matrices of every distinct theorem-family dual with k <= max_k(q)."""
    for family in theorem_families(max_n):
        q, m, n = family.q, family.m, family.n
        if max_k(q) < 1:
            continue
        ctx = field_new(q, m)
        table = coset_table(n, q)
        seen = set()
        for delta in range(2, n + 1):
            spec = BchSpec(family, delta)
            t = defining_set(spec, table)
            if np.count_nonzero(t) > max_k(q):
                break  # T only grows with delta
            if t.tobytes() not in seen:
                seen.add(t.tobytes())
                yield (family, delta), generator_matrix(dual_code_params(spec, ctx, table))


def binary_theorem_duals(max_n, max_k):
    """Generator matrices of every distinct binary theorem-family dual."""
    return theorem_duals(max_n, lambda q: max_k if q == 2 else 0)


class TestPackedKernel:
    """The bit-packed GF(2) kernel against the int32 table kernel."""

    F2 = scalar_field(2)

    def walk_both(self, gen, label=None):
        packed = _exhaustive_best(gen, self.F2)
        table = _exhaustive_best(gen, self.F2, _TableWords(self.F2))
        assert same_search(packed, table), label
        return packed

    def test_walk_on_binary_theorem_duals(self):
        codes = 0
        for label, gen in binary_theorem_duals(1023, 20):
            self.walk_both(gen, label)
            codes += 1
        assert codes == 34

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 5000])
    def test_walk_on_random_codes(self, n):
        # n = 5000 makes the element cap bind; the others probe the last word's padding
        k = 12 if n == 5000 else 8
        gen = np.random.default_rng(n).integers(0, 2, size=(k, n)).astype(np.int32)
        assert self.walk_both(gen).enumerated == 2**k - 1

    @pytest.mark.parametrize("weight", [1, 2])
    def test_walk_finds_planted_word(self, weight):
        rng = np.random.default_rng(weight)
        n = 65
        gen = rng.integers(0, 2, size=(10, n)).astype(np.int32)
        e = np.zeros(n, dtype=np.int32)
        e[rng.choice(n, size=weight, replace=False)] = 1
        gen[-1] = gen[0] ^ e
        found = self.walk_both(gen)
        assert found.weight == weight
        assert np.array_equal(found.witness, e)

    @pytest.mark.parametrize("words", [_PackedWords(5), _TableWords(F2)], ids=["packed", "table"])
    def test_lighter_keeps_first_lightest(self, words):
        rows = np.array([[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], dtype=np.int32)
        w, word = _lighter(words, words.pack(rows), 6)
        assert w == 1 and np.array_equal(word, rows[1])  # first index of a tie
        assert _lighter(words, words.pack(rows), 1) is None  # a tie keeps the best so far

    def test_walk_keeps_first_of_tied_words(self):
        # every nonzero word of the [2^k - 1, k] simplex code weighs 2^(k-1), so
        # the walk keeps its first word, block row 1: generator row 0
        k = 13
        gen = ((np.arange(1, 2**k) >> np.arange(k)[:, None]) & 1).astype(np.int32)
        assert _block_digits(2, k, 2**k - 1) < k  # the Gray walk takes steps too
        found = self.walk_both(gen)
        assert found.weight == 2 ** (k - 1)
        assert np.array_equal(found.witness, gen[0])

    def test_pack_round_trip(self):
        words = _PackedWords(130)
        rows = np.random.default_rng(3).integers(0, 2, size=(5, 130)).astype(np.int32)
        packed = words.pack(rows)
        assert packed.shape == (5, 3) and packed.dtype == np.uint64
        assert all(np.array_equal(words.unpack(p), r) for p, r in zip(packed, rows))
        assert np.array_equal(words.weights(packed), np.count_nonzero(rows, axis=1))

    # the bench's binary ISD codes (q = 2, lambda = 1): (m, delta) -> k of the dual
    BENCH_ISD_K = {(8, 8): 32, (9, 8): 36, (10, 16): 80, (10, 32): 160}

    @pytest.mark.parametrize("m,delta", list(BENCH_ISD_K))
    def test_isd_on_bench_binary_codes(self, m, delta):
        # the packed kernel reduces each trial with rref_gf2, the table kernel
        # with the int32 rref: the same _Search means the same R and pivots
        _, _, _, params = dual_setup(2, m, delta, lam=1)
        assert params.k == self.BENCH_ISD_K[m, delta]
        gen = generator_matrix(params)
        for seed in (0, 1, 2):
            # target 1 is never met, so every weight-2 pattern of both trials is weighed
            packed = _isd_best(gen, self.F2, 1, 2, seed)
            table = _isd_best(gen, self.F2, 1, 2, seed, _TableWords(self.F2))
            assert same_search(packed, table)
            assert (packed.trials_run, packed.stop_reason) == (2, "trials_done")

    @pytest.mark.parametrize("m,delta", [(6, 3), (6, 15), (8, 8), (10, 32)])
    def test_in_row_space_matches_int32_route(self, m, delta):
        _, _, _, params = dual_setup(2, m, delta, lam=1)
        gen = generator_matrix(params)
        k, n = gen.shape
        oracle = _TableWords(self.F2)
        R, piv = oracle.rref(gen)
        rng = np.random.default_rng(m * delta)
        for msg in rng.integers(0, 2, size=(8, k)):
            cw = (msg @ gen % 2).astype(np.int32)
            flipped = cw.copy()
            flipped[rng.integers(n)] ^= 1
            for v, member in ((cw, True), (flipped, False)):
                assert oracle.reduce(v, R, piv).any() != member
                assert in_row_space(v, gen, self.F2) == member


def plant_scaled_words(gen, field, weight, plants, rng):
    """Make plants codewords of the given weight, each c1 * row a + c2 * row b.

    The scalars c1, c2 are random and nonzero, so the planted words lead
    with any digit.  Each plant rewrites its own row b, and its row a is
    one that no plant rewrites.
    """
    k, n = gen.shape
    rewritten = rng.choice(k, size=plants, replace=False)
    kept = np.setdiff1d(np.arange(k), rewritten)
    for b in rewritten:
        a = rng.choice(kept)
        c1, c2 = (int(c) for c in rng.integers(1, field.q, size=2))
        e = np.zeros(n, dtype=np.int32)
        e[rng.choice(n, size=weight, replace=False)] = rng.integers(1, field.q, size=weight)
        gen[b] = field.mul_t[int(field.inv_t[c2]), field.sub_t[e, field.mul_t[c1, gen[a]]]]


class TestProjectiveWalk:
    """The one-word-per-projective-point walk against the full Gray walk."""

    @staticmethod
    def walk_both(gen, field, label=None):
        found = _exhaustive_best(gen, field)
        full = full_gray_best(gen, field)
        assert found.weight == full.weight, label
        assert np.array_equal(found.witness, full.witness), label
        q, k = field.q, gen.shape[0]
        assert full.enumerated == q**k - 1
        assert found.enumerated == (q**k - 1) // (q - 1)
        return found

    # q -> k: q^k between 2^11 and 2^13, so k_lo = 1 leaves many Gray steps.
    # Over GF(2) every word leads with 1, and the walks are the same.
    K = {2: 12, 3: 8, 4: 6, 5: 5, 7: 4, 8: 4, 9: 4}

    def cap_block(self, monkeypatch, q, k_lo):
        """(k, k_lo): cap the block so that a K[q]-row walk takes k_lo block digits."""
        k = self.K[q]
        k_lo = {"one": 1, "middle": k // 2, "all": k}[k_lo]
        monkeypatch.setattr(mindist, "_BLOCK_CAP", q**k_lo)
        return k, k_lo

    @pytest.mark.parametrize("k_lo", ["one", "middle", "all"])
    @pytest.mark.parametrize("q", list(K))
    def test_matches_full_walk_on_random_codes(self, monkeypatch, q, k_lo):
        k, k_lo = self.cap_block(monkeypatch, q, k_lo)
        field = scalar_field(q)
        for n in (1, 9, 23):
            assert _block_digits(q, k, n) == k_lo
            rng = np.random.default_rng([q, k_lo, n])
            for weight in range(min(n, 3) + 1):
                # weight w plants w words of weight w; weight 0 plants none
                gen = rng.integers(0, q, size=(k, n)).astype(np.int32)
                plant_scaled_words(gen, field, weight, weight, rng)
                found = self.walk_both(gen, field, (n, weight))
                assert found.weight <= (weight or n)

    @pytest.mark.parametrize("k_lo", ["one", "middle", "all"])
    @pytest.mark.parametrize("q", list(K))
    def test_weighs_first_multiples_in_full_walk_order(self, monkeypatch, q, k_lo):
        # the walk's words are the full walk's, less every word that a scalar
        # multiple of it precedes, in the same order
        k, k_lo = self.cap_block(monkeypatch, q, k_lo)
        field = scalar_field(q)
        words = _TableWords(field)
        batches = []
        lighter = mindist._lighter

        def recording(kernel, cands, best_w, base=None):
            batches.append(cands if base is None else kernel.add(base, cands))
            return lighter(kernel, cands, best_w, base)

        monkeypatch.setattr(mindist, "_lighter", recording)
        monkeypatch.setattr(oracles, "_lighter", recording)

        def weighed(walk, gen):
            batches.clear()
            walk(gen, field, words)
            return np.concatenate(batches)

        # systematic, so the q^k - 1 nonzero messages give distinct nonzero words
        rng = np.random.default_rng([q, k_lo])
        gen = np.hstack([np.eye(k, dtype=np.int32),
                         rng.integers(0, q, size=(k, 5)).astype(np.int32)])
        full = weighed(full_gray_best, gen)
        assert len(full) == q**k - 1
        lead = full[np.arange(len(full)), np.argmax(full != 0, axis=1)]
        scaled = field.mul_t[field.inv_t[lead][:, None], full]
        _, first = np.unique(scaled, axis=0, return_index=True)
        assert np.array_equal(weighed(_exhaustive_best, gen), full[np.sort(first)])

    @pytest.mark.parametrize("k_lo", ["one", "default"])
    def test_matches_full_walk_on_theorem_duals(self, monkeypatch, k_lo):
        # every theorem-family dual with n <= 128 and q^k <= 2^14: cyclic
        # codes, so many lightest words tie.  With k_lo = 1 nearly every
        # word is reached by the Gray steps.
        def max_k(q):
            return next(k for k in count() if q ** (k + 1) > 2**14)

        codes = 0
        for label, gen in theorem_duals(128, max_k):
            field = scalar_field(label[0].q)
            if k_lo == "one":
                monkeypatch.setattr(mindist, "_BLOCK_CAP", field.q)
                assert _block_digits(field.q, *gen.shape) == 1
            self.walk_both(gen, field, label)
            codes += 1
        assert codes == 104


class TestIsdSearch:
    def test_target_n_trivial(self):
        gen = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int32)
        found = _isd_best(gen, scalar_field(2), target=3, trials=1, seed=0)
        assert found.weight <= 3

    def test_finds_weight_8_in_dual_of_c15(self):
        _, _, _, params = dual_setup(2, 6, 15, lam=1)
        assert params.k == 39
        gen = generator_matrix(params)
        found = _isd_best(gen, scalar_field(2), target=8, trials=200, seed=0)
        assert found.weight <= 8
        assert int(np.count_nonzero(found.witness)) == 8
        assert in_row_space(found.witness, gen, scalar_field(2))

    def test_finds_weight_16_over_gf5(self):
        _, _, _, params = dual_setup(5, 2, 3, lam=1)
        gen = generator_matrix(params)
        found = _isd_best(gen, scalar_field(5), target=16, trials=200, seed=0)
        assert found.weight <= 16
        assert int(np.count_nonzero(found.witness)) == 16

    def test_unreachable_target_not_met(self):
        # dual of C_3 has minimum distance 32
        _, _, _, params = dual_setup(2, 6, 3, lam=1)
        gen = generator_matrix(params)
        found = _isd_best(gen, scalar_field(2), target=31, trials=30, seed=0)
        assert found.weight > 31

    def test_deterministic_given_seed(self):
        _, _, _, params = dual_setup(2, 6, 15, lam=1)
        gen = generator_matrix(params)
        a = _isd_best(gen, scalar_field(2), target=8, trials=50, seed=42)
        b = _isd_best(gen, scalar_field(2), target=8, trials=50, seed=42)
        assert same_search(a, b)


class TestCertify:
    def run(self, q, m, delta, lam, **kw):
        spec, ctx, table, params = dual_setup(q, m, delta, lam=lam)
        report = bound_report(spec, table)
        return spec, ctx, table, params, certify(params, report, **kw)

    def test_exact_32(self):
        *_, cert = self.run(2, 6, 3, 1)
        assert (cert.lower, cert.upper, cert.status) == (32, 32, "exact")
        assert cert.method == "exhaustive"
        assert (cert.codewords_enumerated, cert.trials_run, cert.stop_reason) == (
            2**6 - 1, 0, "exhausted")

    def test_exact_9(self):
        *_, cert = self.run(3, 3, 5, 1)
        assert (cert.lower, cert.upper, cert.status) == (9, 9, "exact")

    def test_exhaustive_counts_one_word_per_projective_point(self):
        # the [26, 9] dual over GF(3): (3^9 - 1)/2 words weighed
        *_, cert = self.run(3, 3, 5, 1)
        assert (cert.method, cert.codewords_enumerated, cert.stop_reason) == (
            "exhaustive", (3**9 - 1) // 2, "exhausted")

    def test_exact_16_against_bound_15(self):
        spec, _, table, _, cert = self.run(5, 2, 3, 1)
        assert (cert.lower, cert.upper, cert.status) == (16, 16, "exact")
        report = bound_report(spec, table)
        assert report.lower_bound_closed == 15  # strictly below the true value

    @pytest.mark.parametrize("budget,method", [
        (2**6 - 1, "information_set"), (2**6, "exhaustive")])
    def test_engine_chosen_by_budget(self, budget, method):
        # the [63, 6] dual has q^k = 64 codewords
        *_, cert = self.run(2, 6, 3, 1, budget=budget, trials=50, seed=0)
        assert cert.method == method
        assert (cert.upper, cert.status) == (32, "exact")

    def test_bracket_meets_bound_weight_8(self):
        # [63, 39] dual: exhaustion is out of budget; the closed-form lower
        # bound 8 plus a weight-8 witness certify exactness
        *_, cert = self.run(2, 6, 15, 1, budget=2**20, trials=500, seed=0)
        assert cert.method == "information_set"
        assert (cert.lower, cert.upper, cert.status) == (8, 8, "exact")
        assert cert.lower_source == "closed_form_bound"
        assert cert.stop_reason == "target_met" and 1 <= cert.trials_run < 500
        assert cert.codewords_enumerated <= cert.trials_run * (39 + 39 * 38 // 2)

    def test_bracketed_when_bound_is_slack(self):
        # [24, 4] over GF(5): bound says 15, the true distance is 16, so a
        # search that cannot exhaust must report the gap honestly
        *_, cert = self.run(5, 2, 3, 1, budget=64, trials=20, seed=0)
        assert cert.method == "information_set"
        assert cert.status == "bracketed"
        assert (cert.lower, cert.upper) == (15, 16)
        # each trial weighs the 4 reduced rows and the (5-1) * C(4, 2) sums of two
        assert (cert.codewords_enumerated, cert.trials_run, cert.stop_reason) == (
            20 * (4 + 4 * 6), 20, "trials_done")

    def test_binary_bracket_carries_evidence(self):
        # [255, 32] dual, packed kernel: the bound stays below every witness found
        *_, cert = self.run(2, 8, 8, 1, budget=2**20, trials=2, seed=0)
        assert (cert.method, cert.status) == ("information_set", "bracketed")
        assert (cert.codewords_enumerated, cert.trials_run, cert.stop_reason) == (
            2 * (32 + 32 * 31 // 2), 2, "trials_done")

    def test_zero_trials_rejected(self):
        # out of budget, so the search would run zero trials and find no witness
        with pytest.raises(ValueError, match="trials"):
            self.run(5, 2, 3, 1, budget=64, trials=0)

    def test_exact_reproduces_under_other_seed(self):
        *_, a = self.run(2, 6, 15, 1, budget=2**20, trials=500, seed=1)
        *_, b = self.run(2, 6, 15, 1, budget=2**20, trials=500, seed=99)
        assert a.status == b.status == "exact"
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_witness_annihilated_by_dual_defining_set(self):
        # every exponent in the dual's defining set must kill the witness
        from dualbch.bch import defining_set, dual_defining_set

        spec, ctx, table, params, cert = self.run(3, 3, 5, 1)
        t_perp = dual_defining_set(defining_set(spec, table))
        f = scalar_field(3)
        beta = ctx.pow(ctx.generator, spec.lam)
        for i in np.flatnonzero(t_perp).tolist():
            point = ctx.pow(beta, i)
            acc = 0
            for j, c in enumerate(cert.witness):
                if c:
                    acc = ctx.add(acc, ctx.mul(int(c), ctx.pow(point, j)))
            assert acc == 0

    def test_cyclic_shift_of_witness_still_in_code(self):
        spec, ctx, table, params, cert = self.run(2, 6, 3, 1)
        f = scalar_field(2)
        gen = generator_matrix(params)
        w = np.array(cert.witness, dtype=np.int32)
        assert in_row_space(np.roll(w, 1), gen, f)
        assert int(np.count_nonzero(np.roll(w, 1))) == cert.upper


class TestSearchCap:
    def test_boundary(self):
        assert search_fits(2, 1, MAX_SEARCH_ELEMS // 2)
        assert not search_fits(2, 1, MAX_SEARCH_ELEMS // 2 + 1)
        assert not search_fits(2, MAX_SEARCH_ELEMS // 2 + 1, 1)

    @pytest.mark.parametrize("q,k,n", [
        (2, 20, 2**20 - 1),  # the exact [1048575, 20] simplex certificate
        (2, 14, 2**14 - 1), (2, 160, 1023), (4, 9, 63), (9, 8, 40), (64, 2, 4095),
    ])
    def test_certified_codes_fit(self, q, k, n):
        assert search_fits(q, k, n)

    @pytest.mark.parametrize("q,k,n", [(1024, 2, 2**20 - 1), (2048, 2, 2**22 - 1),
                                       (256, 3, 2**24 - 1), (2, 10**4, 2**20 - 1)])
    def test_certify_refuses_before_the_generator(self, monkeypatch, q, k, n):
        import dualbch.mindist as mindist

        def no_matrix(params):
            raise AssertionError("generator matrix built")

        monkeypatch.setattr(mindist, "generator_matrix", no_matrix)
        params = CodeParams(n=n, k=k, delta=None, generator=Poly.one(scalar_field(q)))
        assert not search_fits(q, k, n)
        with pytest.raises(ValueError, match=f"exceeds the search cap {MAX_SEARCH_ELEMS}"):
            certify(params, None)
