"""Coset tables, leaders, and closed-form largest leaders."""

import math
import re
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualbch import cyclotomic
from dualbch.bch import theorem_families
from dualbch.cyclotomic import (
    _SIEVE_MAX_ORDER,
    MAX_N,
    CosetTable,
    _intersect_bands,
    _marking_build,
    _sieve_build,
    _step_bands,
    check_modulus,
    coset_table,
    largest_leaders,
    largest_leaders_closed_form,
    leader_family_modulus,
    multiplicative_order,
    orbit,
)


def naive_coset(a, n, q):
    out = {a}
    x = (a * q) % n
    while x != a:
        out.add(x)
        x = (x * q) % n
    return sorted(out)


def reference_leader_of(n, q):
    """Pointer doubling in int64 with numpy's %, apart from the builds and scatters: the oracle."""
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    m = multiplicative_order(q, n)
    lead = np.arange(n, dtype=np.int64)
    perm = (lead * q) % n
    for _ in range(max(1, math.ceil(math.log2(m)))):
        lead = np.minimum(lead, lead[perm])
        perm = perm[perm]
    return lead


def burnside_cosets(n, q):
    """Number of q-cyclotomic cosets modulo n, with no table.

    The cosets are the orbits of the cyclic group <q> of order o = ord_n(q)
    acting on Z_n, and q^j fixes gcd(q^j - 1, n) residues, so Burnside's
    lemma gives sum(gcd(q^j - 1, n) for j < o) / o.
    """
    order = multiplicative_order(q, n)
    fixed = sum(math.gcd(pow(q, j, n) - 1, n) for j in range(order))
    assert fixed % order == 0
    return fixed // order


def assert_table_matches_reference(n, q, build=coset_table):
    """Check build(n, q) against the oracle; return its coset count.

    The leaders are checked against the fixed points of the oracle's array
    and against its distinct values.
    """
    table = build(n, q)
    reference = reference_leader_of(n, q)
    assert table.leader_of.dtype == np.int32
    assert np.array_equal(table.leader_of, reference)
    fixed_points = np.flatnonzero(reference == np.arange(n))
    assert np.array_equal(table.leaders, fixed_points)
    assert np.array_equal(table.leaders, np.unique(reference))
    assert not table.leader_of.flags.writeable and not table.leaders.flags.writeable
    assert len(table.leaders) == burnside_cosets(n, q)
    return len(table.leaders)


def _built_by(builder):
    def build(n, q):
        m = multiplicative_order(q, n)
        return CosetTable(n, q, builder(n, q, m), m)
    return build


# coset_table and each of its two builds, which it picks by ord_n(q)
BUILDS = {"coset_table": coset_table, "sieve": _built_by(_sieve_build),
          "marking": _built_by(_marking_build)}


# the large-n bench's tables: its five cosets/dual-bound moduli and the
# q^m - 1 moduli of its grid cases at 2^21-1, 7^7-1, 9^6-1 and 17^5-1
BENCH_MODULI = [(2, 20, 1), (3, 13, 1), (3, 13, 2), (5, 9, 4), (4, 10, 1),
                (2, 21, 1), (7, 7, 1), (9, 6, 1), (17, 5, 1)]


class TestCosetTable:
    def test_binary_n63(self):
        t = coset_table(63, 2)
        assert t.cosets[1] == [1, 2, 4, 8, 16, 32]
        assert int(t.leader_of[32]) == 1
        assert int(t.leader_of[0]) == 0

    def test_ternary_n26(self):
        t = coset_table(26, 3)
        assert t.cosets[2] == [2, 6, 18]

    def test_n1(self):
        t = coset_table(1, 5)
        assert int(t.leader_of[0]) == 0
        assert t.leaders.dtype == np.int64
        assert_table_matches_reference(1, 5)

    def test_gcd_rejected(self):
        with pytest.raises(ValueError):
            coset_table(12, 2)

    def test_partition_and_leaders_small(self):
        for n, q in [(63, 2), (26, 3), (91, 3), (24, 5), (40, 3), (31, 5), (11, 3)]:
            t = coset_table(n, q)
            seen = set()
            for lead, members in t.cosets.items():
                assert members == naive_coset(lead, n, q)
                assert lead == min(members)
                assert not seen & set(members)
                seen.update(members)
            assert seen == set(range(n))

    @given(st.integers(2, 400), st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11]))
    @settings(max_examples=80)
    def test_leader_matches_naive_orbit(self, n, q):
        if math.gcd(n, q) != 1:
            return
        t = coset_table(n, q)
        a = n // 2
        assert int(t.leader_of[a]) == min(naive_coset(a, n, q))

    def test_leader_idempotent(self):
        t = coset_table(91, 3)
        for a in range(91):
            lead = int(t.leader_of[a])
            assert int(t.leader_of[lead]) == lead
            assert lead <= a

    def test_matches_int64_reference_on_theorem_families(self):
        for family in theorem_families(1000):
            assert_table_matches_reference(family.n, family.q)

    @given(st.integers(1, 5000), st.one_of(st.integers(2, 64), st.integers(2, 10**15)))
    @settings(max_examples=100, deadline=None)
    def test_matches_int64_reference_on_coprime_pairs(self, n, q):
        assume(math.gcd(n, q) == 1)
        assert_table_matches_reference(n, q)

    def test_q_far_above_n(self):
        # both q are prime to 1000; at 10^18 + 9, i q would overflow int64
        # unless q is reduced mod n first, so the oracle takes q mod n there
        assert_table_matches_reference(1000, 10**12 + 39)
        q = 10**18 + 9
        assert np.array_equal(coset_table(1000, q).leader_of, reference_leader_of(1000, q % 1000))

    def test_leader_count_is_burnside_count_on_bench_moduli(self):
        counts = {}
        for q, m, lam in BENCH_MODULI:
            n = (q**m - 1) // lam
            counts[n, q] = assert_table_matches_reference(n, q)
        assert counts[2**20 - 1, 2] == 52487
        assert counts[2**21 - 1, 2] == 99879

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("n,q", [
        (7, 8), (9, 10),  # q = 1 mod n: m = 1, every residue leads its coset
        (2, 3),
        (101, 2),  # ord = 100: one orbit holds every nonzero residue
        (2**15 - 1, 2), (2**15 + 1, 2),  # one residue short of / past a sieve block
        (2**16 - 1, 2), (2**16 + 1, 2),  # one residue short of / past two sieve blocks
    ])
    def test_matches_int64_reference_on_edge_cases(self, n, q, build):
        assert_table_matches_reference(n, q, BUILDS[build])
        leaders = BUILDS[build](n, q).leaders
        if multiplicative_order(q, n) == 1:
            assert np.array_equal(leaders, np.arange(n))
        if n == 101:
            assert leaders.tolist() == [0, 1]

    @pytest.mark.parametrize("build", ["sieve", "marking"])
    @given(n=st.integers(2, 3000), q=st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_each_build_matches_int64_reference(self, build, n, q):
        # coset_table picks one build by the order alone, so each build is
        # tested on its own, at orders either side of its switch
        assume(math.gcd(n, q) == 1)
        assert_table_matches_reference(n, q, BUILDS[build])

    def test_large_order_builds_within_a_time_limit(self):
        # 2 is a primitive root mod the prime 1_000_003, so m = n - 1: the
        # sieve would make a few million numpy calls (17 s on a 2-vCPU VM),
        # the marking walks the one long orbit in 31 steps of 2^15 (0.01 s)
        n = 1_000_003
        assert multiplicative_order(2, n) == n - 1

        def too_slow(signum, frame):
            raise TimeoutError(f"coset_table({n}, 2) took over 5 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            table = coset_table(n, 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert np.array_equal(table.leader_of, reference_leader_of(n, 2))
        assert table.leaders.tolist() == [0, 1]

    @pytest.mark.parametrize("n,q,m,sizes", [
        (131, 2, 130, {1: 1, 130: 1}),
        (393, 2, 130, {1: 1, 2: 1, 130: 3}),  # 393 = 3 * 131
        (1000, 3, 100, {1: 2, 2: 3, 4: 8, 20: 8, 100: 8}),
    ])
    def test_marking_build_on_cosets_of_mixed_sizes(self, n, q, m, sizes):
        # m > 64, where coset_table marks orbits; an orbit shorter than m
        # closes at its first step that ends on a marked residue
        assert multiplicative_order(q, n) == m > _SIEVE_MAX_ORDER
        assert assert_table_matches_reference(n, q, BUILDS["marking"]) == sum(sizes.values())
        table = coset_table(n, q)
        lengths = [len(table.cosets[int(a)]) for a in table.leaders]
        assert {d: lengths.count(d) for d in set(lengths)} == sizes

    @pytest.mark.parametrize("n,q", [(1_000_003, 2), (1_001_517, 2)])
    def test_marking_build_holds_one_byte_per_residue(self, n, q):
        # m = n - 1, and m = 110 with 9240 cosets: the marks are the only
        # array of n elements; the powers and a step's blocks, 2^15 int64
        # each, take under 1 MiB
        coset_table(n, q)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            table = coset_table(n, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.m > _SIEVE_MAX_ORDER
        assert table._leader_of is None
        assert peak <= n + (1 << 20), peak - n

    def test_build_holds_no_int64_array_of_n_elements(self):
        n = 2**20 - 1
        coset_table(n, 2)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            table = coset_table(n, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.leader_of.nbytes == 4 * n
        assert peak <= 8 * n, peak / n

    def test_oversized_n_refused_before_allocation(self, monkeypatch):
        def no_arange(*args, **kwargs):
            raise AssertionError("coset_table allocated before its size check")

        monkeypatch.setattr(np, "arange", no_arange)
        with pytest.raises(ValueError, match=f"exceeds the size cap {MAX_N}"):
            coset_table(MAX_N + 1, 3)


class TestLazyLeaderArray:
    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("n,q", [(63, 2), (101, 2), (2**15 + 1, 2), (1, 5), (9, 10),
                                     (1000, 3), (393, 2), (2**16 - 1, 4)])
    def test_built_once_on_first_read(self, build, n, q, orbit_scatters):
        # every build returns only its leaders, at any order, and the table
        # scatters its leader array on the first read, once
        table = BUILDS[build](n, q)
        assert table._leader_of is None
        assert len(table.leaders) == burnside_cosets(n, q)
        assert orbit_scatters == []
        lead = table.leader_of
        assert np.array_equal(lead, reference_leader_of(n, q))
        assert table.leader_of is lead and not lead.flags.writeable
        assert orbit_scatters == [np.dtype(np.int32)]

    def test_first_read_holds_no_int64_array_of_n_elements(self):
        n = 2**20 - 1
        coset_table(n, 2).leader_of  # warm caches outside the measurement
        table = coset_table(n, 2)
        tracemalloc.start()
        try:
            lead = table.leader_of
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lead.nbytes == 4 * n
        assert peak <= 8 * n, peak / n

    @pytest.mark.parametrize("n,q", [(63, 2), (2**20 - 1, 2), (9, 10)])
    def test_reads_take_the_order_the_build_found(self, n, q, monkeypatch):
        # the scatters need ord_n(q); the table keeps the order its
        # build found, so no read factors n and phi(n) again
        def no_order(*args):
            raise AssertionError("the order was computed again")

        table = coset_table(n, q)
        monkeypatch.setattr(cyclotomic, "multiplicative_order", no_order)
        assert table.m == multiplicative_order(q, n)  # this module's own binding
        mask = table.union_below(3)
        assert np.array_equal(table.leader_of, reference_leader_of(n, q))
        assert np.array_equal(mask, table.union_below(3))

    @pytest.mark.parametrize("n,q", [(63, 2), (91, 3), (101, 2), (2**15 + 1, 2), (1000, 3),
                                     (393, 2)])
    def test_union_below_equals_the_leader_array_form(self, n, q, orbit_scatters):
        # union_below scatters orbits before and after the first read of
        # leader_of; the comparison over the oracle's array is the reference
        table = coset_table(n, q)
        lead = reference_leader_of(n, q)
        deltas = [2, 3, *table.leaders[1:].tolist(), n]
        for read in (False, True):
            if read:
                assert np.array_equal(table.leader_of, lead)
            for delta in deltas:
                want = (lead >= 1) & (lead <= delta - 1)
                assert np.array_equal(table.union_below(delta), want), (read, delta)
        bools = [np.dtype(bool)] * len(deltas)
        assert orbit_scatters == [*bools, np.dtype(np.int32), *bools]

    def test_few_leaders_scatter_many_powers_per_step(self, monkeypatch):
        # 3 is a primitive root mod the prime 65537, so m = 65536 and the
        # cosets are {0} and the rest: a step of q per numpy call would
        # reduce m times, where a step of h = 2^15 // len(leaders) powers
        # reduces about m/h + log2(h) times
        n, q = 65537, 3
        table = coset_table(n, q)
        assert (table.m, table.leaders.tolist()) == (n - 1, [0, 1])
        calls = []
        reduce_mod = cyclotomic._reduce_mod

        def counting(*args):
            calls.append(args[0].size)
            return reduce_mod(*args)

        monkeypatch.setattr(cyclotomic, "_reduce_mod", counting)
        assert np.array_equal(table.leader_of, reference_leader_of(n, q))
        assert len(calls) <= 24, len(calls)  # h = 2^14: 4 steps, 14 doublings, 1 start
        calls.clear()
        mask = table.union_below(2)
        assert np.count_nonzero(mask) == n - 1 and not mask[0]
        assert len(calls) <= 24, len(calls)  # h = 2^15: 2 steps, 15 doublings, 1 start
        assert max(calls) <= 1 << 15


def band_mask(lo, hi, n):
    """The bool mask over Z_n of the disjoint nonempty intervals [lo, hi)."""
    edges = np.zeros(n + 1, dtype=np.int64)
    edges[lo] += 1
    edges[hi] -= 1
    return np.cumsum(edges[:n]) > 0


class TestBandPrefilter:
    @given(st.integers(1, 5000), st.one_of(st.integers(2, 64), st.integers(2, 10**15)))
    @settings(max_examples=100, deadline=None)
    def test_bands_are_the_residues_that_pass_each_step(self, n, q):
        # each step's bands against a <= a s mod n by numpy's %, at every j
        # of the order; at the sieve's orders, up to 64, the bands of every
        # prefix of the steps are intersected too, and all of them leave
        # exactly the leaders
        assume(math.gcd(n, q) == 1)
        a = np.arange(n, dtype=np.int64)
        m = multiplicative_order(q, n)
        every, bands = np.ones(n, dtype=bool), []
        lo, hi = _intersect_bands(bands, n)
        assert lo.tolist() == [0] and hi.tolist() == [n]
        for j in range(1, m):
            s = pow(q, j, n)
            assert 2 <= s < n
            lo, hi = _step_bands(s, n)
            assert (lo < hi).all() and (hi[:-1] <= lo[1:]).all()
            passes = a <= a * s % n
            assert np.array_equal(band_mask(lo, hi, n), passes), (n, q, s)
            if m <= _SIEVE_MAX_ORDER:
                every &= passes
                bands.append((lo, hi))
                lo, hi = _intersect_bands(bands, n)
                assert (lo < hi).all() and (hi[:-1] <= lo[1:]).all()
                assert np.array_equal(band_mask(lo, hi, n), every), (n, q, j)
        if m <= _SIEVE_MAX_ORDER:
            assert np.array_equal(every, reference_leader_of(n, q) == a)

    @pytest.mark.parametrize("build", ["coset_table", "sieve"])
    @pytest.mark.parametrize("n,q,banded", [
        (1, 2, 0), (255, 2, 0), (511, 3, 0),  # n >> 8 bands hold no step
        # the budget first admits one step, then two: 2 takes 1 band, 4 takes 3,
        # 3 takes 2 and 9 takes 8
        (257, 2, 1), (1023, 2, 1), (1025, 2, 2), (1023, 4, 1), (728, 3, 1), (6560, 3, 2),
        (641, 2, 1), (649657, 2, 10),  # primes with m = 64 and m = 63
        ((2**20 - 1) // 3, 2, 9), ((3**12 - 1) // 8, 3, 4),  # lambda > 1
        ((3**13 - 1) // 2, 3, 6), ((5**9 - 1) // 4, 5, 4), ((7**7 - 1) // 6, 7, 3),
    ])
    def test_edge_cases(self, build, n, q, banded, monkeypatch):
        steps = []
        bands = cyclotomic._step_bands

        def recording(s, n):
            steps.append(s)
            return bands(s, n)

        monkeypatch.setattr(cyclotomic, "_step_bands", recording)
        table = BUILDS[build](n, q)
        reference = reference_leader_of(n, q)
        assert np.array_equal(table.leaders, np.flatnonzero(reference == np.arange(n)))
        assert table.m == multiplicative_order(q, n) <= _SIEVE_MAX_ORDER
        assert sorted(steps) == sorted(pow(q, j, n) for j in range(1, table.m))[:banded]

    @pytest.mark.parametrize("q,m,lam", [(2, 20, 1), (3, 13, 1), (5, 9, 4)])
    def test_sieve_tests_at_most_a_quarter_of_the_residues(self, q, m, lam, monkeypatch):
        # the residues that reach the per-step tests, each of which reduces
        # them mod n: the bands leave 14-23% of Z_n here, a full scan n
        n = (q**m - 1) // lam
        tested = []
        sieve = cyclotomic._sieve_leaders

        def counting(a, *args):
            tested.append(a.size)
            return sieve(a, *args)

        monkeypatch.setattr(cyclotomic, "_sieve_leaders", counting)
        table = coset_table(n, q)
        assert len(table.leaders) == burnside_cosets(n, q)
        assert sum(tested) <= n / 4, sum(tested) / n


class TestCheckModulus:
    @pytest.mark.parametrize("n,q,message", [
        (0, 2, "n=0 must be >= 1"),
        (MAX_N + 1, 3, f"n={MAX_N + 1} exceeds the size cap {MAX_N}"),
        # a vast n is refused before any gcd with q
        (10**4000, 2, "exceeds the size cap"),
        (7, 1, "q=1 must be >= 2"),
        (6, 2, "gcd(n, q) = 2 != 1"),
    ], ids=["n0", "above-cap", "vast", "q1", "gcd"])
    def test_refusals(self, n, q, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_modulus(n, q)
        with pytest.raises(ValueError, match=re.escape(message)):
            coset_table(n, q)

    def test_accepts_the_cap(self):
        check_modulus(MAX_N, 3)
        check_modulus(1, 2)


class TestLargestLeaders:
    def test_brute_force_anchor_values(self):
        # largest leader for the four reference moduli
        assert largest_leaders(coset_table(91, 3), 1) == [49]
        assert largest_leaders(coset_table(757, 3), 1) == [388]
        assert largest_leaders(coset_table(312, 5), 1) == [247]
        assert largest_leaders(coset_table(114, 7), 1) == [95]

    def test_full_family_n63(self):
        assert largest_leaders(coset_table(63, 2), 3) == [31, 27, 23]

    def test_leader_of_47_mod_63(self):
        # orbit of 47: {47, 31, 62, 61, 59, 55}; minimum is 31
        assert int(coset_table(63, 2).leader_of[47]) == 31
        assert orbit(47, 63, 2) == [47, 31, 62, 61, 59, 55]
        assert orbit(0, 63, 2) == [0] and orbit(21, 63, 2) == [21, 42]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            largest_leaders(coset_table(7, 2), 0)

    @pytest.mark.parametrize("n,q", [(63, 2), (312, 5), (364, 3), (1, 2)])
    def test_cached_leaders_match_unique_and_are_computed_once(self, n, q, monkeypatch):
        # the build hands its leaders to the table, so no query scans
        # leader_of for them again
        table = coset_table(n, q)
        reference = np.unique(table.leader_of)[::-1].tolist()
        calls = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(1) or flatnonzero(a))
        for k in range(1, len(reference) + 2):
            assert largest_leaders(table, k) == reference[:k]
        assert table.leaders is table.leaders
        assert len(calls) == 0
        assert not table.leaders.flags.writeable


class TestClosedFormLeaders:
    def test_full_binary_m6(self):
        assert largest_leaders_closed_form(2, 6, "full") == [31, 27, 23]

    def test_q_minus_1_ternary_m4(self):
        assert largest_leaders_closed_form(3, 4, "q_minus_1") == [25]

    def test_half_ternary_m4(self):
        got = largest_leaders_closed_form(3, 4, "half")
        assert got == [25, 22]
        assert largest_leaders(coset_table(40, 3), 2) == got

    @pytest.mark.parametrize("q,m", [(2, 4), (2, 7), (3, 5), (5, 4), (7, 4), (4, 5)])
    def test_full_matches_brute(self, q, m):
        t = coset_table(q**m - 1, q)
        assert largest_leaders(t, 3) == largest_leaders_closed_form(q, m, "full")

    @pytest.mark.parametrize("q,m", [(3, 4), (3, 7), (4, 4), (5, 4), (7, 4), (9, 4)])
    def test_q_minus_1_matches_brute(self, q, m):
        n = (q**m - 1) // (q - 1)
        t = coset_table(n, q)
        assert largest_leaders(t, 1) == largest_leaders_closed_form(q, m, "q_minus_1")

    @pytest.mark.parametrize("q,m", [(3, 4), (3, 6), (5, 4), (5, 5), (7, 4), (9, 4)])
    def test_half_matches_brute(self, q, m):
        n = (q**m - 1) // 2
        t = coset_table(n, q)
        assert largest_leaders(t, 2) == largest_leaders_closed_form(q, m, "half")

    def test_m3_rejected(self):
        # at m = 3 the third expression already misses the true leader list
        with pytest.raises(ValueError):
            largest_leaders_closed_form(2, 3, "full")

    def test_family_validation(self):
        with pytest.raises(ValueError):
            largest_leaders_closed_form(2, 5, "q_minus_1")
        with pytest.raises(ValueError):
            largest_leaders_closed_form(4, 5, "half")
        with pytest.raises(ValueError):
            largest_leaders_closed_form(3, 5, "everything")

    def test_family_modulus(self):
        assert leader_family_modulus(3, 4, "full") == 80
        assert leader_family_modulus(3, 4, "q_minus_1") == 40
        assert leader_family_modulus(3, 4, "half") == 40
        assert leader_family_modulus(5, 4, "q_minus_1") == 156
        with pytest.raises(ValueError):
            leader_family_modulus(3, 4, "everything")


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestLeaderLifting:
    # t is a coset leader mod q^m - 1 iff t/mu is one mod (q^m - 1)/mu,
    # for every common divisor mu; exhaustive at small scale
    @pytest.mark.parametrize("q,m", [(2, 9), (3, 6), (4, 4), (5, 4), (7, 3), (9, 3), (11, 2)])
    def test_exhaustive(self, q, m):
        n = q**m - 1
        big = coset_table(n, q)
        small = {}
        for mu in divisors(n):
            if mu > 1 and math.gcd(n // mu, q) == 1 and n // mu >= 1:
                small[mu] = coset_table(n // mu, q)
        for t in range(1, n):
            is_lead = int(big.leader_of[t]) == t
            g = math.gcd(t, n)
            for mu in divisors(g):
                if mu == 1 or mu not in small:
                    continue
                sub = small[mu]
                assert (int(sub.leader_of[t // mu]) == t // mu) == is_lead


class TestCosetCompatibility:
    # if a = b q^i mod q^m - 1 and lam divides a, b and q^m - 1, then
    # a/lam and b/lam share a q-cyclotomic coset mod (q^m - 1)/lam
    @pytest.mark.parametrize("q,m", [(2, 9), (3, 6), (5, 4), (7, 3), (9, 3)])
    def test_exhaustive(self, q, m):
        n = q**m - 1
        big = coset_table(n, q)
        for lam in divisors(n):
            if lam in (1, n):
                continue
            sub = coset_table(n // lam, q)
            for a in range(lam, n, lam):
                ref = int(sub.leader_of[a // lam])
                for b in big.cosets[int(big.leader_of[a])]:
                    if b % lam == 0:
                        assert int(sub.leader_of[b // lam]) == ref


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(2, 63) == 6
        assert multiplicative_order(3, 91) == 6
        assert multiplicative_order(2, 1) == 1
        assert multiplicative_order(5, 312) == 4
