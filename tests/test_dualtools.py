"""I(delta), dual distance bounds, prior bounds, and the dually-BCH criterion."""

import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbch.bch import (
    BchSpec,
    Family,
    bch_bound_from_set,
    bch_spec,
    defining_set,
    dual_defining_set,
    theorem_families,
)
from dualbch import dualtools
from dualbch.cyclotomic import CosetTable, coset_table, largest_leaders
from dualbch.dualtools import (
    ClosedColumns,
    PriorBound,
    bound_report,
    delta_sweep,
    direct_columns,
    dual_lower_bound,
    dually_bch_closed,
    dually_bch_closed_intervals,
    dually_bch_direct,
    i_delta_closed_divisor_form,
    i_delta_closed_power_form,
    i_delta_direct,
    prior_bounds,
)
from dualbch.oracles import frozen_prior_bounds


def t_perp_of(spec, table=None):
    table = table or coset_table(spec.n, spec.q)
    return dual_defining_set(defining_set(spec, table))


def count_calls(monkeypatch, *names):
    """Count the calls of each named dualtools function from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(dualtools, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dualtools, name, counting)
    return calls


def mask_of(n, members):
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


class TestIDeltaDirect:
    def test_singleton(self):
        assert i_delta_direct(mask_of(5, [0])) == 1

    def test_binary_delta3(self):
        spec = bch_spec(2, 6, 3, lam=1)
        assert i_delta_direct(t_perp_of(spec)) == 31

    def test_ternary_delta5(self):
        spec = bch_spec(3, 3, 5, lam=1)
        assert i_delta_direct(t_perp_of(spec)) == 8

    def test_missing_zero_rejected(self):
        with pytest.raises(ValueError):
            i_delta_direct(mask_of(5, [1, 2, 4, 3]))

    def test_full_set_rejected(self):
        with pytest.raises(ValueError):
            i_delta_direct(mask_of(5, range(5)))
        with pytest.raises(ValueError):
            i_delta_direct(mask_of(1, [0]))

    def test_first_nonmember_anywhere(self):
        for missing in (1, 2, 500, 998, 999):
            assert i_delta_direct(~mask_of(1000, range(missing, 1000, 7))) == missing


class TestIDeltaClosedPowerForm:
    def test_binary_delta3(self):
        assert i_delta_closed_power_form(bch_spec(2, 6, 3, s=1)) == 31

    def test_ternary_s2_delta10(self):
        # interval (1, 10] at t=1: (3^4 - 1)/8 = 10
        assert i_delta_closed_power_form(bch_spec(3, 6, 10, s=2)) == 10

    def test_tail_case(self):
        assert i_delta_closed_power_form(bch_spec(2, 6, 32, s=1)) == 1
        assert i_delta_closed_power_form(bch_spec(2, 6, 63, s=1)) == 1

    def test_hypotheses(self):
        with pytest.raises(ValueError, match="m/s = 4/2 < 3"):
            i_delta_closed_power_form(bch_spec(2, 4, 3, s=2))
        with pytest.raises(ValueError, match="not of the form q\\^s - 1"):
            i_delta_closed_power_form(bch_spec(5, 3, 3, lam=2))  # a divisor form


class TestIDeltaClosedDivisorForm:
    def test_case1_exact_point(self):
        # q=5, lambda=1, m=2, delta=3 is the isolated point t=0, s=2:
        # I = (25-1)/1 - 2*5 = 14; the direct scan gives 14 as well, and
        # the associated distance bound is I + 1 = 15
        spec = bch_spec(5, 2, 3, lam=1)
        assert i_delta_closed_divisor_form(spec) == 14
        assert i_delta_direct(t_perp_of(spec)) == 14

    def test_case2(self):
        assert i_delta_closed_divisor_form(bch_spec(3, 3, 5, lam=1)) == 8

    def test_case4_tail(self):
        assert i_delta_closed_divisor_form(bch_spec(3, 3, 18, lam=1)) == 1
        assert i_delta_closed_divisor_form(bch_spec(3, 3, 26, lam=1)) == 1

    def test_hypotheses(self):
        with pytest.raises(ValueError, match="power form"):
            i_delta_closed_divisor_form(bch_spec(5, 2, 3, lam=4))  # lambda = q-1 is s = 1
        with pytest.raises(ValueError, match="m=1 must be >= 2"):
            i_delta_closed_divisor_form(bch_spec(3, 1, 2, lam=1))
        with pytest.raises(ValueError, match="power form"):
            i_delta_closed_divisor_form(bch_spec(2, 6, 3, lam=1))  # q = 2 is s = 1


class TestDualLowerBound:
    def test_examples(self):
        assert dual_lower_bound(bch_spec(2, 6, 3, lam=1)) == 32
        assert dual_lower_bound(bch_spec(2, 6, 15, lam=1)) == 8
        assert dual_lower_bound(bch_spec(3, 3, 5, lam=1)) == 9
        assert dual_lower_bound(bch_spec(5, 2, 3, lam=1)) == 15

    def test_tail_gives_2(self):
        assert dual_lower_bound(bch_spec(3, 3, 26, lam=1)) == 2
        assert dual_lower_bound(bch_spec(2, 6, 60, lam=1)) == 2

    def test_raises_outside_closed_forms(self):
        with pytest.raises(ValueError, match="m/s"):
            dual_lower_bound(bch_spec(2, 4, 3, s=2))
        with pytest.raises(ValueError, match="m=1"):
            dual_lower_bound(bch_spec(5, 1, 2, lam=2))

    def test_equals_i_delta_plus_1(self):
        for q, m, kw in [(2, 6, dict(lam=1)), (3, 6, dict(s=2)), (3, 9, dict(s=3)),
                         (5, 2, dict(lam=1)), (5, 4, dict(lam=2)), (7, 3, dict(lam=3)),
                         (7, 2, dict(lam=2)), (3, 4, dict(lam=1))]:
            for delta in range(2, bch_spec(q, m, 2, **kw).n + 1):
                spec = bch_spec(q, m, delta, **kw)
                if spec.family.s is None:
                    i = i_delta_closed_divisor_form(spec)
                else:
                    i = i_delta_closed_power_form(spec)
                assert dual_lower_bound(spec) == i + 1


SWEEP_SPECS = [
    (2, 6, dict(lam=1)),    # n=63, power s=1
    (2, 6, dict(s=2)),      # n=21
    (2, 9, dict(lam=1)),    # n=511
    (3, 6, dict(s=2)),      # n=91
    (3, 3, dict(lam=1)),    # n=26
    (3, 4, dict(lam=1)),    # n=80
    (4, 3, dict(s=1)),      # n=21
    (5, 2, dict(lam=1)),    # n=24
    (5, 3, dict(lam=2)),    # n=62
    (5, 4, dict(lam=2)),    # n=312
    (7, 2, dict(lam=2)),    # n=24
    (7, 3, dict(lam=3)),    # n=114
    (9, 2, dict(lam=4)),    # n=20
    (13, 2, dict(lam=4)),   # n=42
]


class TestClosedMatchesDirect:
    @pytest.mark.parametrize("q,m,kw", SWEEP_SPECS)
    def test_i_delta_full_sweep(self, q, m, kw):
        # dual_lower_bound is closed I(delta) + 1 (test_equals_i_delta_plus_1)
        n = bch_spec(q, m, 2, **kw).n
        table = coset_table(n, q)
        for delta in range(2, n + 1):
            spec = bch_spec(q, m, delta, **kw)
            direct = i_delta_direct(t_perp_of(spec, table))
            assert dual_lower_bound(spec) - 1 == direct, f"delta={delta}"

    @pytest.mark.parametrize("q,m,kw", SWEEP_SPECS)
    def test_dually_bch_full_sweep(self, q, m, kw):
        spec = bch_spec(q, m, 2, **kw)
        table = coset_table(spec.n, q)
        try:
            intervals = dually_bch_closed_intervals(spec.family, table)
        except ValueError:
            return  # theorem hypotheses not met (e.g. m too small)
        for delta in range(2, spec.n + 1):
            direct, _ = dually_bch_direct(
                t_perp_of(bch_spec(q, m, delta, **kw), table), table)
            closed = any(lo <= delta <= hi for lo, hi in intervals)
            assert closed == direct, f"delta={delta}"

    @pytest.mark.parametrize("q,m,kw", SWEEP_SPECS)
    def test_direct_run_bound_at_least_closed(self, q, m, kw):
        n = bch_spec(q, m, 2, **kw).n
        table = coset_table(n, q)
        for delta in range(2, n + 1, 7):
            spec = bch_spec(q, m, delta, **kw)
            tp = t_perp_of(spec, table)
            try:
                closed = dual_lower_bound(spec)
            except ValueError:
                continue
            assert bch_bound_from_set(tp) >= closed


class TestPriorBounds:
    def test_binary_delta15(self):
        spec = bch_spec(2, 6, 15, lam=1)
        bounds = {b.name: b for b in prior_bounds(spec)}
        cu = bounds["carlitz_uchiyama"]
        assert cu.value == 32 - 6 * 8 == -16
        assert cu.vacuous
        sid = bounds["sidelnikov"]
        assert sid.value == 4
        assert not sid.vacuous
        assert bounds["primitive_length"].value == 8
        assert bounds["projective_length"].value == 8

    def test_binary_delta3(self):
        spec = bch_spec(2, 6, 3, lam=1)
        bounds = {b.name: b for b in prior_bounds(spec)}
        assert bounds["carlitz_uchiyama"].value == 32
        assert bounds["sidelnikov"].value == 32
        assert bounds["projective_length"].value == 32

    def test_ternary_primitive(self):
        spec = bch_spec(3, 3, 5, lam=1)
        bounds = {b.name: b for b in prior_bounds(spec)}
        assert bounds["primitive_length"].value == 9
        assert "carlitz_uchiyama" not in bounds
        assert "projective_length" not in bounds

    def test_odd_m_carlitz_uchiyama_is_float(self):
        spec = bch_spec(2, 5, 5, lam=1)
        cu = {b.name: b for b in prior_bounds(spec)}["carlitz_uchiyama"]
        assert cu.value == 16 - 1 * math.sqrt(32)
        assert isinstance(cu.value, float)

    def test_even_delta_no_binary_bounds(self):
        spec = bch_spec(2, 6, 4, lam=1)
        names = {b.name for b in prior_bounds(spec)}
        assert "carlitz_uchiyama" not in names
        assert "sidelnikov" not in names

    def test_divisor_family_has_no_prior(self):
        assert prior_bounds(bch_spec(5, 4, 10, lam=2)) == ()

    def test_boundary_interval_case_q3(self):
        # q=3, m=4, delta=7: b = 9-7 = 2 exceeds q-2, so the exact-point case
        # is out; the matching case is (q-1)q^t <= 7 <= q^2-q+1 at t=1 -> 26
        spec = bch_spec(3, 4, 7, lam=1)
        bounds = {b.name: b for b in prior_bounds(spec)}
        assert bounds["primitive_length"].value == 26

    def test_exact_point_case_q_ge_3(self):
        # q=5, m=3, delta=23 = 25-2: only the exact-point case fires,
        # value (b+1)q^{m-t} = 3*5 = 15
        spec = bch_spec(5, 3, 23, lam=1)
        bounds = {b.name: b for b in prior_bounds(spec)}
        assert bounds["primitive_length"].value == 15


class TestDuallyBchDirect:
    def test_singleton_true(self):
        t = coset_table(63, 2)
        spec = bch_spec(2, 6, 32, lam=1)
        tp = t_perp_of(spec, t)
        assert np.flatnonzero(tp).tolist() == [0]
        assert dually_bch_direct(tp, t) == (True, 1)

    def test_power_examples(self):
        t = coset_table(91, 3)
        spec = bch_spec(3, 6, 50, s=2)
        assert dually_bch_direct(t_perp_of(spec, t), t)[0] is True
        spec = bch_spec(3, 6, 49, s=2)
        assert dually_bch_direct(t_perp_of(spec, t), t)[0] is False

    def test_divisor_example(self):
        t = coset_table(312, 5)
        spec = bch_spec(5, 4, 247, lam=2)
        verdict, witness = dually_bch_direct(t_perp_of(spec, t), t)
        assert verdict is False
        assert int(t.leader_of[witness]) == witness  # witness is a leader in T_perp
        spec = bch_spec(5, 4, 248, lam=2)
        assert dually_bch_direct(t_perp_of(spec, t), t) == (True, 1)

    def test_witness_value_binary_delta15(self):
        # J = 7; leaders 7, 8 are unavailable (7 maps into T^{-1}); 9 is the
        # least coset leader >= 7 inside T_perp
        t = coset_table(63, 2)
        spec = bch_spec(2, 6, 15, lam=1)
        assert dually_bch_direct(t_perp_of(spec, t), t) == (False, 9)


def closed_on_own_table(spec):
    return dually_bch_closed(spec, coset_table(spec.n, spec.q))


def report_on_own_table(spec):
    return bound_report(spec, coset_table(spec.n, spec.q))


class TestDuallyBchClosed:
    def test_binary_exception_case(self):
        assert closed_on_own_table(bch_spec(2, 6, 2, lam=1)) is True
        assert closed_on_own_table(bch_spec(2, 6, 3, lam=1)) is True
        assert closed_on_own_table(bch_spec(2, 6, 4, lam=1)) is False
        # delta2 = 27 mod 63: true again from 28 on
        assert closed_on_own_table(bch_spec(2, 6, 27, lam=1)) is False
        assert closed_on_own_table(bch_spec(2, 6, 28, lam=1)) is True

    def test_power_s3_threshold(self):
        table = coset_table(757, 3)
        assert dually_bch_closed(bch_spec(3, 9, 388, s=3), table) is False
        assert dually_bch_closed(bch_spec(3, 9, 389, s=3), table) is True

    def test_divisor_examples(self):
        assert closed_on_own_table(bch_spec(7, 3, 96, lam=3)) is True
        assert closed_on_own_table(bch_spec(7, 3, 95, lam=3)) is False
        table = coset_table(312, 5)
        assert dually_bch_closed(bch_spec(5, 4, 247, lam=2), table) is False
        assert dually_bch_closed(bch_spec(5, 4, 248, lam=2), table) is True

    def test_divisor_lambda1_exception(self):
        # lambda = 1: dually-BCH iff delta = 2 or delta > delta2
        table = coset_table(26, 3)
        assert dually_bch_closed(bch_spec(3, 3, 2, lam=1), table) is True
        assert dually_bch_closed(bch_spec(3, 3, 3, lam=1), table) is False

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            closed_on_own_table(bch_spec(2, 4, 3, lam=1))  # q=2 needs m >= 6
        with pytest.raises(ValueError):
            closed_on_own_table(bch_spec(3, 3, 3, s=1))  # q>=3 needs m >= 4
        with pytest.raises(ValueError):
            closed_on_own_table(bch_spec(2, 4, 3, s=2))  # m/s < 3

    def test_intervals_of_the_anchor_families(self):
        def intervals(family):
            return dually_bch_closed_intervals(family, coset_table(family.n, family.q))
        # binary s = 1: {2, 3} and every delta above delta2 = 27 mod 63
        assert intervals(Family(2, 6, s=1)) == ((2, 3), (28, 63))
        assert intervals(Family(3, 9, s=3)) == ((389, 757),)
        assert intervals(Family(5, 4, lam=2)) == ((248, 312),)
        # lambda = 1: delta = 2 and every delta above delta2 = 14 mod 26
        assert intervals(Family(3, 3, lam=1)) == ((2, 2), (15, 26))

    def test_intervals_refuse_what_the_criterion_refuses(self):
        for family in [Family(2, 4, s=1), Family(3, 3, s=1), Family(2, 4, s=2)]:
            with pytest.raises(ValueError):
                dually_bch_closed_intervals(family, coset_table(family.n, family.q))
        with pytest.raises(ValueError, match=r"table is for \(n=21, q=2\)"):
            dually_bch_closed_intervals(Family(2, 6, s=1), coset_table(21, 2))

    def test_intervals_are_ordered_and_end_at_n(self):
        inside = 0
        for family in theorem_families(1000):
            n = family.n
            table = coset_table(n, family.q)
            try:
                got = dually_bch_closed_intervals(family, table)
            except ValueError:
                continue  # outside the threshold theorems' hypotheses
            inside += 1
            assert got and all(2 <= lo <= hi <= n for lo, hi in got), (family, got)
            assert all(a[1] < b[0] for a, b in zip(got, got[1:])), (family, got)
            assert got[-1][1] == n, (family, got)
        assert inside == 318


class TestDeltaPrimeLemma:
    # delta' = CL(n - delta1): delta1 stays in T_perp while delta <= delta',
    # then delta' takes over until delta reaches delta1
    @pytest.mark.parametrize("q,m,kw", [
        (3, 3, dict(lam=1)), (5, 2, dict(lam=1)), (5, 3, dict(lam=2)),
        (7, 2, dict(lam=2)), (7, 3, dict(lam=3)), (9, 2, dict(lam=2)),
        (5, 4, dict(lam=2)), (13, 2, dict(lam=6)),
    ])
    def test_exhaustive(self, q, m, kw):
        n = bch_spec(q, m, 2, **kw).n
        table = coset_table(n, q)
        d1 = largest_leaders(table, 1)[0]
        dprime = int(table.leader_of[n - d1])
        for delta in range(2, d1 + 1):
            spec = bch_spec(q, m, delta, **kw)
            tp = t_perp_of(spec, table)
            if delta <= dprime:
                assert tp[d1]
                assert int(table.leader_of[d1]) == d1
            else:
                assert tp[dprime]
                assert int(table.leader_of[dprime]) == dprime


class TestBoundReport:
    def test_binary_delta15(self):
        spec = bch_spec(2, 6, 15, lam=1)
        r = report_on_own_table(spec)
        assert r.i_delta_direct == 7
        assert r.i_delta_closed == 7
        assert r.lower_bound_closed == 8
        assert r.lower_bound_direct >= 8
        assert r.dually_bch_direct is False
        assert r.dually_bch_witness == 9
        assert r.dually_bch_closed is False
        assert (r.delta1, r.delta2) == (31, 27)
        names = [b.name for b in r.prior_bounds]
        assert names == ["carlitz_uchiyama", "sidelnikov",
                         "primitive_length", "projective_length"]

    def test_closdes_none_outside_hypotheses(self):
        # m/s = 2: no closed forms apply, direct values still present
        spec = bch_spec(2, 4, 3, s=2)
        r = report_on_own_table(spec)
        assert r.i_delta_closed is None
        assert r.lower_bound_closed is None
        assert r.dually_bch_closed is None
        assert r.i_delta_direct >= 1

    def test_invariants_on_sample(self):
        for q, m, kw, delta in [(3, 6, dict(s=2), 10), (5, 4, dict(lam=2), 100),
                                (7, 3, dict(lam=3), 96), (3, 4, dict(lam=1), 25)]:
            r = report_on_own_table(bch_spec(q, m, delta, **kw))
            if r.i_delta_closed is not None:
                assert r.i_delta_closed == r.i_delta_direct
                assert r.lower_bound_closed == r.i_delta_closed + 1
            if r.dually_bch_closed is not None:
                assert r.dually_bch_closed == r.dually_bch_direct

    def test_shared_table_matches_fresh_tables_on_theorem_sweep(self):
        # every theorem family with n <= 400, deltas in shuffled order; the
        # oracle table is a new object on the same leaders, so it has no
        # memo and scans T_perp for its own delta
        pairs = 0
        for family in theorem_families(400):
            q, n = family.q, family.n
            table = coset_table(n, q)
            deltas = list(range(2, n + 1))
            random.Random(n * q).shuffle(deltas)
            for delta in deltas:
                spec = BchSpec(family, delta)
                fresh = CosetTable(n, q, table.leaders, table.m)
                assert bound_report(spec, table) == bound_report(spec, fresh), \
                    (family, delta)
            pairs += n - 1
        assert pairs == 31_236

    def test_first_segment_scans_then_a_second_builds_the_columns(self, monkeypatch):
        calls = count_calls(monkeypatch, "i_delta_direct", "_dually_bch_given",
                            "direct_columns")
        table = coset_table(255, 2)
        # 127 is the largest leader, so 255 and 200 share the top segment;
        # 100 is the table's second segment
        for delta, scans, builds in ((255, 1, 0), (200, 1, 0), (100, 1, 1)):
            bound_report(bch_spec(2, 8, delta, s=1), table)
            assert calls == {"i_delta_direct": scans, "_dually_bch_given": scans,
                             "direct_columns": builds}, delta
        assert len(table.direct_columns) == len(table.leaders) - 1
        deltas = list(range(2, 256))
        random.Random(8).shuffle(deltas)
        for delta in deltas:
            bound_report(bch_spec(2, 8, delta, s=1), table)
        assert calls == {"i_delta_direct": 1, "_dually_bch_given": 1, "direct_columns": 1}

    def test_one_query_on_a_large_table_builds_no_columns(self, monkeypatch):
        # n = 2^20 - 1, where the pass would take seconds and hundreds of MB:
        # one query scans its own T_perp and allocates what that scan does
        table = coset_table(2**20 - 1, 2)
        spec = bch_spec(2, 20, 1000, lam=1)
        built = count_calls(monkeypatch, "direct_columns")
        tracemalloc.start()
        try:
            t = defining_set(spec, table)
            t_perp = dual_defining_set(t)
            scan = (int(np.count_nonzero(t)), i_delta_direct(t_perp),
                    *dually_bch_direct(t_perp, table), bch_bound_from_set(t_perp))
            del t, t_perp
            _, scan_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = bound_report(spec, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built == {"direct_columns": 0}
        assert table.direct_columns == (int(table.leaders.searchsorted(1000)), scan)
        assert report.lower_bound_direct == scan[-1]
        assert peak <= 1.1 * scan_peak, (peak, scan_peak)

    @pytest.mark.parametrize("delta", [3, 1000, 3**13 // 2, 3**13 - 1])
    def test_first_query_memory_does_not_grow_with_delta(self, delta):
        # n = 3^13 - 1: the scans hold a few bool masks over Z_n whatever |T|
        # is, where an index array of T's members would take 8 |T| bytes
        n = 3**13 - 1
        table = coset_table(n, 3)
        tracemalloc.start()
        try:
            bound_report(bch_spec(3, 13, delta, lam=1), table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n, peak

    def test_memo_hit_evaluates_no_closed_form(self, monkeypatch):
        table = coset_table(2047, 2)
        deltas = list(range(2, 2048))
        random.Random(11).shuffle(deltas)
        for delta in deltas:
            bound_report(bch_spec(2, 11, delta, s=1), table)
        calls = count_calls(monkeypatch, "dual_lower_bound", "prior_bounds",
                            "dually_bch_closed", "largest_leaders",
                            "ClosedColumns", "i_delta_direct")
        for delta in deltas:
            bound_report(bch_spec(2, 11, delta, s=1), table)
        assert calls == dict.fromkeys(calls, 0)

    def test_closed_columns_built_once_per_table_and_family(self, monkeypatch):
        built = count_calls(monkeypatch, "ClosedColumns")
        a, b = coset_table(242, 3), coset_table(242, 3)
        for delta in range(2, 243):
            spec = bch_spec(3, 5, delta, lam=1)
            bound_report(spec, a)
            bound_report(spec, b)
        assert built == {"ClosedColumns": 2}
        assert list(a.closed_columns) == list(b.closed_columns) == [Family(3, 5, lam=1)]

    def test_memo_does_not_keep_table_alive(self):
        table = coset_table(1023, 2)
        for delta in (3, 100, 1023):
            bound_report(bch_spec(2, 10, delta, s=1), table)
        assert table.direct_columns and table.closed_columns
        ref = weakref.ref(table)
        del table
        gc.collect()
        assert ref() is None

    def test_mismatched_table_rejected(self):
        table = coset_table(63, 2)
        bound_report(bch_spec(2, 6, 5, s=1), table)
        # 21 = (4^3 - 1)/3 differs from the table's n; the k of delta = 5
        # has a memo entry on the table, and so has the family of n = 63,
        # neither of which must be read
        for spec in (bch_spec(4, 3, 5, s=1), bch_spec(2, 6, 5, s=2)):
            with pytest.raises(ValueError, match=r"table is for \(n=63, q=2\), "
                                                 r"spec needs \(n=21, q=(4|2)\)"):
                bound_report(spec, table)
            with pytest.raises(ValueError, match=r"table is for \(n=63, q=2\)"):
                ClosedColumns(spec.family, table)
        assert list(table.closed_columns) == [Family(2, 6, s=1)]

    def test_tables_of_one_modulus_agree(self):
        a, b = coset_table(242, 3), coset_table(242, 3)
        for delta in range(2, 243):
            spec = bch_spec(3, 5, delta, lam=1)
            assert bound_report(spec, a) == bound_report(spec, b)


# outside a closed form's hypotheses: m/s < 3 for the power form, m < 2
# for the divisor form; the criterion also needs m >= 6 for q = 2 and
# m >= 4 for q >= 3, which theorem_families does not ask
OUTSIDE_FAMILIES = [Family(2, 4, s=2), Family(2, 6, s=3), Family(3, 4, s=2),
                    Family(2, 2, s=1), Family(3, 2, s=1), Family(13, 2, s=1),
                    Family(5, 1, lam=2), Family(7, 1, lam=1), Family(13, 1, lam=3),
                    Family(2, 3, s=1), Family(2, 5, s=1), Family(4, 3, s=1),
                    Family(5, 3, s=1)]


def per_delta_closed(spec, table):
    """The closed columns of bound_report at one delta, from the per-delta oracles."""
    try:
        i_closed = dual_lower_bound(spec) - 1
    except ValueError:
        i_closed = None
    try:
        verdict = dually_bch_closed(spec, table)
    except ValueError:
        verdict = None
    return i_closed, None if i_closed is None else i_closed + 1, verdict, prior_bounds(spec)


def typed_priors(bounds):
    return [(b.name, b.value, type(b.value), b.vacuous) for b in bounds]


# the bench's sweep families, n = 1365 to 2380, past the theorem sweep above
SWEEP_FAMILIES = [Family(2, 11, s=1), Family(13, 4, s=1), Family(2, 12, s=2),
                  Family(3, 7, lam=1), Family(5, 5, lam=2)]


def scanned_row(spec, table):
    """bound_report's direct row at spec.delta, from the scans of its masks."""
    t = defining_set(spec, table)
    t_perp = dual_defining_set(t)
    return (int(np.count_nonzero(t)), i_delta_direct(t_perp),
            *dually_bch_direct(t_perp, table), bch_bound_from_set(t_perp))


def run_bounds_by_nearest_smaller_values(table):
    """1 + the longest cyclic run of T_perp at each segment's top delta.

    With e[p] the leader of -p and e[0] above every delta, p lies in
    T_perp(delta) iff e[p] >= delta.  Let w_p be the width of the largest
    cyclic window around p on which e >= e[p]; the nearest strictly smaller
    values on each side, one monotonic stack each way over e tripled, give
    it.  The longest run of T_perp(delta) is the largest w_p over
    e[p] >= delta.  This shares nothing with direct_columns' linked list.
    """
    n = table.n
    e = table.leader_of[(n - np.arange(n)) % n].tolist()
    e[0] = n + 1
    three = e * 3
    left, right = [-1] * (3 * n), [3 * n] * (3 * n)
    for side, order in ((left, range(3 * n)), (right, range(3 * n - 1, -1, -1))):
        stack = []
        for i in order:
            while stack and three[stack[-1]] >= three[i]:
                stack.pop()
            if stack:
                side[i] = stack[-1]
            stack.append(i)
    width = np.array([min(right[i] - left[i] - 1, n) for i in range(n, 2 * n)])
    e = np.array(e)
    tops = [*table.leaders[2:].tolist(), n]
    return [int(width[e >= top].max()) + 1 for top in tops]


class TestDirectColumns:
    def test_equal_the_scans_at_every_delta(self):
        # every delta of every theorem family with n <= 400, of the families
        # outside the hypotheses and of the bench's sweep families; the run
        # bounds also against the nearest-smaller-values identity
        pairs = 0
        for family in [*theorem_families(400), *OUTSIDE_FAMILIES, *SWEEP_FAMILIES]:
            table = coset_table(family.n, family.q)
            rows = direct_columns(table)
            assert len(rows) == len(table.leaders) - 1, family
            for delta in range(2, family.n + 1):
                k = int(table.leaders.searchsorted(delta))
                assert rows[k - 2] == scanned_row(BchSpec(family, delta), table), \
                    (family, delta)
            assert [row[4] for row in rows] == run_bounds_by_nearest_smaller_values(table), \
                family
            assert all([type(v) for v in row] == [int, int, bool, int, int] for row in rows)
            pairs += family.n - 1
        assert pairs == 31_236 + sum(f.n - 1 for f in [*OUTSIDE_FAMILIES, *SWEEP_FAMILIES])

    def test_any_coprime_modulus(self):
        # no theorem hypotheses, not even a prime power q; q = 10 makes
        # C_1 = {1} where n divides 9
        for n in range(2, 80):
            for q in (2, 3, 6, 10):
                if math.gcd(n, q) != 1:
                    continue
                table = coset_table(n, q)
                rows = direct_columns(table)
                lead = table.leader_of
                for delta in range(2, n + 1):
                    t = (lead >= 1) & (lead <= delta - 1)
                    t_perp = dual_defining_set(t)
                    k = int(table.leaders.searchsorted(delta))
                    assert rows[k - 2] == (int(np.count_nonzero(t)), i_delta_direct(t_perp),
                                           *dually_bch_direct(t_perp, table),
                                           bch_bound_from_set(t_perp)), (n, q, delta)


class TestLeaderFreeForms:
    """defining_set's orbit form and the leaders form of the verdict, against leader_of.

    A copy of a table whose leader array is never read takes both forms;
    the leader_of comparison and dually_bch_direct's gather are the oracles.
    """

    @staticmethod
    def assert_forms_agree(table, specs):
        bare = CosetTable(table.n, table.q, table.leaders, table.m)
        lead = table.leader_of
        for delta, spec in specs:
            t = (lead >= 1) & (lead <= delta - 1)
            orbits = bare.union_below(delta) if spec is None else defining_set(spec, bare)
            assert np.array_equal(orbits, t), (table, delta)
            t_perp = dual_defining_set(t)
            j = i_delta_direct(t_perp)
            assert (dualtools._dually_bch_given(t_perp, bare, j)
                    == dually_bch_direct(t_perp, table)), (table, delta)
        return len(specs)

    def test_every_delta_of_the_families(self, orbit_scatters):
        pairs = 0
        for family in [*theorem_families(400), *OUTSIDE_FAMILIES, *SWEEP_FAMILIES]:
            table = coset_table(family.n, family.q)
            pairs += self.assert_forms_agree(
                table, [(d, BchSpec(family, d)) for d in range(2, family.n + 1)])
        assert pairs == 31_236 + sum(f.n - 1 for f in [*OUTSIDE_FAMILIES, *SWEEP_FAMILIES])
        # one array per full table, for the oracles; none for the bare copies
        assert orbit_scatters.count(np.dtype(np.int32)) == 168 + 13 + 5

    def test_every_coprime_modulus_below_80(self):
        for n in range(2, 80):
            for q in (2, 3, 6, 10):
                if math.gcd(n, q) == 1:
                    self.assert_forms_agree(coset_table(n, q),
                                            [(d, None) for d in range(2, n + 1)])

    def test_one_query_builds_no_leader_array(self, orbit_scatters):
        # cosets --top 3 and a one-delta dual-bound read only the leaders
        n = 2**20 - 1
        table = coset_table(n, 2)
        assert largest_leaders(table, 3) == [2**19 - 1, 2**19 - 2**9 - 1, 2**19 - 2**10 - 1]
        rep = bound_report(bch_spec(2, 20, 5000, lam=1), table)
        assert orbit_scatters == [np.dtype(bool)]  # T's orbits, and no leader array
        assert (rep.i_delta_direct, rep.dually_bch_direct) == (
            rep.i_delta_closed, rep.dually_bch_closed)
        t_perp = dual_defining_set(defining_set(rep.spec, table))
        assert (rep.dually_bch_direct, rep.dually_bch_witness) == dually_bch_direct(
            t_perp, table)


CASE_FAMILIES = [*theorem_families(1000), *SWEEP_FAMILIES, *OUTSIDE_FAMILIES]


class TestCaseTables:
    def test_prior_bounds_equal_the_frozen_case_loops(self):
        # every delta of the theorem families with n <= 1000, the sweep
        # families and the outside families; values compared with == and by type
        pairs = 0
        for family in CASE_FAMILIES:
            for delta in range(2, family.n + 1):
                spec = BchSpec(family, delta)
                got, want = prior_bounds(spec), frozen_prior_bounds(spec)
                assert got == want, (family, delta)
                assert typed_priors(got) == typed_priors(want), (family, delta)
            pairs += family.n - 1
        assert pairs == 149_339 + sum(f.n - 1 for f in [*SWEEP_FAMILIES, *OUTSIDE_FAMILIES])

    def test_i_delta_cases_cover_2_to_n(self):
        # the power form's cases tile [2, n] in order, without gap or
        # overlap, even outside m/s >= 3; under the divisor form's hypothesis
        # m >= 2, some case, the first of which gives I(delta), holds every delta
        forms = {"power": 0, "divisor": 0}
        for family in CASE_FAMILIES:
            n, cases = family.n, dualtools._i_delta_cases(family)
            assert all(isinstance(v, int) for case in cases for v in case), family
            if family.s is not None:
                los = [lo for lo, _, _ in cases]
                assert los == [2, *(hi + 1 for _, hi, _ in cases[:-1])], family
                assert cases[-1][1] == n, family
                forms["power"] += 1
            elif family.m >= 2:
                held = np.zeros(n + 2, dtype=np.int64)
                for lo, hi, _ in cases:
                    assert 2 <= lo and hi <= n, (family, lo, hi)
                    held[lo] += 1
                    held[hi + 1] -= 1
                assert np.cumsum(held)[2:n + 1].min() >= 1, family
                forms["divisor"] += 1
        assert forms == {"power": 57, "divisor": 295}


class TestClosedColumns:
    def test_equal_the_per_delta_functions(self):
        # every delta of every theorem family with n <= 1000, of the sweep
        # families, and of families outside the hypotheses, where a column is
        # None exactly where its per-delta function raises; prior values
        # compared with == and by type.  The deltas come shuffled, so each
        # slot is filled from an arbitrary member of it
        pairs = 0
        for family in [*theorem_families(1000), *SWEEP_FAMILIES, *OUTSIDE_FAMILIES]:
            table = coset_table(family.n, family.q)
            cols = ClosedColumns(family, table)
            assert cols.starts[0] == 2 and cols.starts == sorted(set(cols.starts))
            deltas = list(range(2, family.n + 1))
            random.Random(family.n * family.q).shuffle(deltas)
            for delta in deltas:
                spec = BchSpec(family, delta)
                want = per_delta_closed(spec, table)
                got = cols.at(spec)
                assert got == want, (family, delta)
                assert typed_priors(got[3]) == typed_priors(want[3]), (family, delta)
                if family in OUTSIDE_FAMILIES:
                    assert got[0] is None or got[2] is None, (family, delta)
            pairs += family.n - 1
        assert pairs == 149_339 + sum(f.n - 1 for f in [*SWEEP_FAMILIES, *OUTSIDE_FAMILIES])

    # family -> peak bytes; Family(1021, 2, lam=1) has 2,040 segments, which
    # take about 440 kB to cut, under the 1 MB of even a bool mask over Z_n
    LARGE = {Family(2, 20, s=1): 64 * 1024, Family(3, 13, lam=1): 64 * 1024,
             Family(1021, 2, lam=1): 768 * 1024}

    @pytest.mark.parametrize("family", list(LARGE), ids=repr)
    def test_build_on_a_large_table_allocates_no_array(self, family):
        # about 10^6 residues: a build that paid O(n) would need megabytes
        table = coset_table(family.n, family.q)
        tracemalloc.start()
        try:
            cols = ClosedColumns(family, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.LARGE[family], peak
        spec = BchSpec(family, family.n // 3)
        assert cols.at(spec) == per_delta_closed(spec, table)

    def test_each_slot_runs_the_per_delta_functions_once(self, monkeypatch):
        # 700 and 702 share a segment of Family(2, 11, s=1) and a parity;
        # 701 shares the segment, not the parity.  The verdict comes from
        # the dually-BCH intervals, read once per ClosedColumns
        names = ("dual_lower_bound", "i_delta_closed_power_form", "prior_bounds")
        table = coset_table(2047, 2)
        verdicts = count_calls(monkeypatch, "dually_bch_closed_intervals", "dually_bch_closed")
        cols = ClosedColumns(Family(2, 11, s=1), table)
        calls = count_calls(monkeypatch, *names)
        for delta, runs in ((700, 1), (700, 0), (702, 0), (701, 1), (703, 0)):
            cols.at(bch_spec(2, 11, delta, s=1))
            assert calls == dict.fromkeys(names, runs), delta
            calls.update(dict.fromkeys(names, 0))
        assert len(cols.rows) == 2
        assert verdicts == {"dually_bch_closed_intervals": 1, "dually_bch_closed": 0}


@st.composite
def valid_specs(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13]))
    m = draw(st.integers(2, 9))
    if q**m - 1 > 2000:
        m = 2 if q > 11 else m % 3 + 2
    if q**m - 1 > 5000:
        q, m = 3, 4
    use_power = draw(st.booleans())
    if use_power:
        s = draw(st.sampled_from([d for d in range(1, m) if m % d == 0]))
        kw = dict(s=s)
    else:
        divs = [d for d in range(1, q) if (q - 1) % d == 0]
        kw = dict(lam=draw(st.sampled_from(divs)))
    probe = bch_spec(q, m, 2, **kw)
    delta = draw(st.integers(2, probe.n))
    return bch_spec(q, m, delta, **kw)


class TestHypothesisSweep:
    @given(valid_specs())
    @settings(max_examples=120, deadline=None)
    def test_closed_forms_agree_with_direct(self, spec):
        table = coset_table(spec.n, spec.q)
        tp = t_perp_of(spec, table)
        direct = i_delta_direct(tp)
        try:
            closed = dual_lower_bound(spec) - 1
        except ValueError:
            pass  # outside both closed forms' hypotheses
        else:
            assert closed == direct
        verdict, _ = dually_bch_direct(tp, table)
        try:
            assert dually_bch_closed(spec, table) == verdict
        except ValueError:
            pass


class TestDeltaSweep:
    def test_matches_oracle_on_theorem_sweep(self, direct_oracle):
        # every theorem family with n <= 1000
        pairs = 0
        for family in theorem_families(1000):
            q, n = family.q, family.n
            assert delta_sweep(coset_table(n, q)) == direct_oracle(q, n), (q, n)
            pairs += n - 1
        assert pairs == 149_339

    @given(st.integers(1, 300), st.integers(2, 40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_any_coprime_modulus(self, direct_oracle, n, q, data):
        # the sweep needs none of the theorem hypotheses, not even a prime power q
        if math.gcd(n, q) != 1:
            return
        table = coset_table(n, q)
        got = delta_sweep(table)
        assert got == direct_oracle(q, n)
        # plain Python values, so reports render them as the oracle's would
        assert all([type(v) for v in row] == [int, bool, int] for row in got)
        if n >= 2:
            lo = data.draw(st.integers(2, n))
            hi = data.draw(st.integers(lo, n))
            assert delta_sweep(table, lo, hi) == got[lo - 2:hi - 1]

    def test_range_outside_2_n_rejected(self):
        table = coset_table(63, 2)
        with pytest.raises(ValueError):
            delta_sweep(table, 1, 10)
        with pytest.raises(ValueError):
            delta_sweep(table, 2, 64)
