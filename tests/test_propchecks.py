"""Property-suite checks: leader floors, dual-set memberships, grid runner."""

import hashlib
import json
import random
import time
import tracemalloc

import numpy as np
import pytest

from dualbch.bch import (
    Family,
    bch_spec,
    defining_set,
    dual_defining_set,
)
from dualbch import cyclotomic
from dualbch.cyclotomic import MAX_N, CosetTable, coset_table, orbit
from dualbch.propchecks import (
    MANIFEST_SCHEMA,
    PropResult,
    _floor_failures,
    _membership_failures,
    _plan_case,
    check_leader_floor_divisor_form,
    check_leader_floor_power_form,
    check_tperp_leader_membership,
    load_grid_manifest,
    run_grid,
)


def primitive_table(q, m):
    """The coset table modulo q^m - 1, the modulus of the floor claims: their test oracle."""
    return coset_table(q**m - 1, q)


@pytest.mark.parametrize("check,family", [
    (check_leader_floor_power_form, Family(2, 6, s=1)),
    (check_leader_floor_power_form, Family(2, 6, s=2)),
    (check_leader_floor_divisor_form, Family(5, 3, lam=2)),
])
def test_floor_check_takes_family_only(check, family):
    assert check(family).ok
    with pytest.raises(TypeError):
        check(family, primitive_table(family.q, family.m))


@pytest.mark.parametrize("family", [Family(3, 6, s=2), Family(5, 4, lam=2)])
def test_membership_takes_family_only(family):
    assert check_tperp_leader_membership(family).ok
    with pytest.raises(TypeError):
        check_tperp_leader_membership(family, coset_table(family.n, family.q))


class TestLeaderFloorPowerForm:
    @pytest.mark.parametrize("q,s,m", [(2, 1, 6), (3, 1, 4), (2, 2, 6)])
    def test_clean_on_stated_cases(self, q, s, m):
        result = check_leader_floor_power_form(Family(q, m, s=s))
        assert result.ok
        assert result.lemma_id == "leader_floor_power_form"
        assert len(result.parameter_grid) == m // s - 2

    def test_sweep_is_nonempty(self):
        result = check_leader_floor_power_form(Family(2, 6, s=1))
        # t=1 alone must cover u in [1, (2^5-1)/1 - 1] = [1, 30]
        assert (1, 1, 30) in result.parameter_grid

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError):
            # m/s == 2
            check_leader_floor_power_form(Family(2, 4, s=2))
        with pytest.raises(ValueError):
            # s does not divide m
            check_leader_floor_power_form(Family(2, 7, s=2))

    def test_modulus_past_cap_refused(self):
        # the sweeps' int64 products are exact only within the size cap
        with pytest.raises(ValueError, match=f"exceeds the size cap {MAX_N}"):
            check_leader_floor_power_form(Family(2, 25, s=1))


class TestLeaderFloorDivisorForm:
    @pytest.mark.parametrize("q,lam,m", [(5, 2, 3), (5, 1, 3), (7, 3, 2)])
    def test_clean_on_stated_cases(self, q, lam, m):
        result = check_leader_floor_divisor_form(Family(q, m, lam=lam))
        assert result.ok
        assert result.lemma_id == "leader_floor_divisor_form"
        assert result.parameter_grid  # the sweep actually ran

    def test_floor_is_strict(self):
        # the checked inequality is strict: it holds on the table, and the
        # sweep flags a leader below floor + 1, so one equal to the floor
        table = coset_table(5**3 - 1, 5)
        result = check_leader_floor_divisor_form(Family(5, 3, lam=2))
        for s, t, u_lo, u_hi in result.parameter_grid:
            floor = 5 ** (t + 1) - 5 + 2 * s
            us = np.arange(u_lo, u_hi + 1)
            elems = ((2 * us + 1) * 5 ** (t + 1) - 5 + 2 * s) % (5**3 - 1)
            assert (table.leader_of[elems] > floor).all()
            assert _floor_failures(floor, 2, 5 ** (t + 1), u_hi, floor + 1, 124, 5, 3).size == 0
            # the least leader of the sub-range, as the bound, flags exactly its u
            low = int(table.leader_of[elems].min())
            flagged = us[table.leader_of[elems] == low]
            assert _floor_failures(floor, 2, 5 ** (t + 1), u_hi, low + 1, 124, 5, 3).tolist() \
                == flagged.tolist()

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError):
            # lam == q-1
            check_leader_floor_divisor_form(Family(5, 3, lam=4))
        with pytest.raises(ValueError):
            # lam does not divide q-1
            check_leader_floor_divisor_form(Family(5, 3, lam=3))
        with pytest.raises(ValueError):
            check_leader_floor_divisor_form(Family(5, 1, lam=2))  # m < 2

    def test_tracemalloc_peak_below_one_table(self):
        # one int32 array over the 17^5 - 1 = 1,419,856 residues is 5.7 MB
        family = Family(17, 5, lam=1)
        check_leader_floor_divisor_form(family)  # warm the imports and caches
        tracemalloc.start()
        try:
            assert check_leader_floor_divisor_form(family).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (17**5 - 1) // 8  # an eighth of that array


def reference_floor_failures(lemma_id, q, x, m, lead, every=False):
    """Every failure the floor check must report, by the element expressions
    that check_leader_floor_*_form evaluated per u before they became one
    progression each, and a vectorised gather of their leaders from lead:
    their test oracle.  every=True lists each (u, element) pair of the grid
    as a failure."""
    order = q**m - 1
    out = []
    if lemma_id == "leader_floor_power_form":
        s = x
        for t in range(1, m // s - 1):
            u_hi = (q ** (m - t * s) - 1) // (q**s - 1) - 1
            floor = q ** (t * s + s) - 1
            us = np.arange(1, u_hi + 1, dtype=np.int64)
            elems = (q ** (t * s) - 1 + (q**s - 1) * us * q ** (t * s)) % order
            bad = np.full(us.size, True) if every else lead[elems] < floor
            out += [(t, u, e, int(lead[e]), floor)
                    for u, e in zip(us[bad].tolist(), elems[bad].tolist())]
    else:
        lam = x
        for s in range(1, (q - 1) // lam):
            for t in range(0, m - 1):
                u_hi = (q ** (m - t) - 1) // lam - s * q ** (m - t - 1) - 1
                floor = q ** (t + 1) - q + lam * s
                us = np.arange(1, u_hi + 1, dtype=np.int64)
                elems = ((lam * us + 1) * q ** (t + 1) - q + lam * s) % order
                bad = np.full(us.size, True) if every else lead[elems] <= floor
                out += [(s, t, u, e, int(lead[e]), floor)
                        for u, e in zip(us[bad].tolist(), elems[bad].tolist())]
    return tuple(out)


def floor_family(lemma_id, q, x, m):
    return Family(q, m, **{"s" if lemma_id == "leader_floor_power_form" else "lam": x})


def default_floor_cases():
    """(lemma_id, q, s or lam, m) of every floor case of the default grid."""
    return [(g["lemma_id"], c["q"], c.get("s", c.get("lam")), c["m"])
            for g in load_grid_manifest()["grids"] if g["lemma_id"].startswith("leader_floor")
            for c in g["cases"]]


class TestFloorElementsAgainstReference:
    @pytest.mark.parametrize("lemma_id,check,q,x,m", [
        ("leader_floor_power_form", check_leader_floor_power_form, *case)
        for case in [(2, 1, 6), (2, 2, 6), (3, 1, 4), (2, 1, 12), (3, 2, 8), (2, 3, 12)]
    ] + [
        ("leader_floor_divisor_form", check_leader_floor_divisor_form, *case)
        for case in [(5, 1, 3), (5, 2, 3), (7, 3, 2), (7, 1, 4), (9, 2, 4), (13, 4, 3)]
    ])
    def test_failures_match_per_u_expression(self, monkeypatch, lemma_id, check, q, x, m):
        import dualbch.propchecks as propchecks

        family = floor_family(lemma_id, q, x, m)
        lead = primitive_table(q, m).leader_of
        assert check(family).failures == ()
        assert reference_floor_failures(lemma_id, q, x, m, lead) == ()
        # a sweep that fails every u lists each (u, element, leader) of the grid
        monkeypatch.setattr(propchecks, "_floor_failures",
                            lambda *args: np.arange(1, args[3] + 1))
        result = check(family)
        expected = reference_floor_failures(lemma_id, q, x, m, lead, every=True)
        assert result.failures == expected
        grid_size = sum(g[-1] - g[-2] + 1 for g in result.parameter_grid)
        assert len(expected) == grid_size > 0

    @pytest.mark.parametrize("lemma_id,check,q,x,m", [
        ("leader_floor_power_form", check_leader_floor_power_form, 2, 2, 12),
        ("leader_floor_power_form", check_leader_floor_power_form, 3, 1, 6),
        ("leader_floor_divisor_form", check_leader_floor_divisor_form, 7, 2, 4),
        ("leader_floor_divisor_form", check_leader_floor_divisor_form, 9, 1, 3),
    ])
    def test_sweeps_ask_for_the_lemma_elements_and_bound(
            self, monkeypatch, lemma_id, check, q, x, m):
        # each sub-range asks the sweep about the lemma's own elements, and
        # for leaders below the floor, or, as that floor is strict, not above it
        import dualbch.propchecks as propchecks

        calls = []
        monkeypatch.setattr(propchecks, "_floor_failures",
                            lambda *args: calls.append(args) or np.arange(0))
        result = check(floor_family(lemma_id, q, x, m))
        assert len(calls) == len(result.parameter_grid) > 0
        order = q**m - 1
        for (c, g, w, u_hi, bound, n, q_, m_), row in zip(calls, result.parameter_grid):
            us = np.arange(1, u_hi + 1, dtype=np.int64)
            if lemma_id == "leader_floor_power_form":
                t, s = row[0], x
                elems = q ** (t * s) - 1 + (q**s - 1) * us * q ** (t * s)
                assert bound == q ** (t * s + s) - 1
            else:
                s, t, lam = row[0], row[1], x
                elems = (lam * us + 1) * q ** (t + 1) - q + lam * s
                assert bound == q ** (t + 1) - q + lam * s + 1
            assert ((c + g * w * us) % n).tolist() == (elems % order).tolist()
            assert (u_hi, n, q_, m_) == (row[-1], order, q, m) and order % g == 0

    def test_sweep_matches_gather_on_random_progressions(self):
        # u fails iff lead[(c + g w u) mod N] < bound; the bounds run from 0
        # to N, so both the none-fail and the all-fail ends are drawn
        rng = random.Random(27)
        tables, ends = {}, set()
        for _ in range(300):
            q = rng.choice([2, 3, 4, 5, 7, 8, 9])
            m = rng.randint(2, {2: 16, 3: 10, 4: 8, 5: 7, 7: 6, 8: 5, 9: 5}[q])
            n = q**m - 1
            if (n, q) not in tables:  # 2^15 - 1 = 8^5 - 1, with other cosets
                tables[(n, q)] = coset_table(n, q).leader_of
            lead = tables[(n, q)]
            g = rng.choice([d for d in range(1, min(n, 10**4)) if n % d == 0])
            w = q ** rng.randrange(m) % n
            u_hi = rng.randint(1, n // g - 1)
            c = rng.randrange(2 * n)
            bound = rng.choice([0, n, rng.randint(0, n), rng.randint(0, u_hi),
                                rng.randint(u_hi, n)])
            us = np.arange(1, u_hi + 1, dtype=np.int64)
            expected = us[lead[(c + g * w * us) % n] < bound]
            got = _floor_failures(c, g, w, u_hi, bound, n, q, m)
            assert got.tolist() == expected.tolist(), (q, m, g, w, u_hi, c, bound)
            ends.add((bound <= u_hi, expected.size == 0, expected.size == u_hi))
        # both sides of the route rule, and both ends of the range, are drawn
        assert {(True, True, False), (False, True, False), (False, False, True)} <= ends

    def test_default_grid_matches_gather(self):
        # every floor case of the default grid, moduli up to 10^6, one table
        # per modulus
        tables = {}
        cases = default_floor_cases()
        assert len(cases) == 106
        for lemma_id, q, x, m in cases:
            if (q, m) not in tables:
                tables[(q, m)] = primitive_table(q, m).leader_of
            check = (check_leader_floor_power_form if lemma_id == "leader_floor_power_form"
                     else check_leader_floor_divisor_form)
            result = check(floor_family(lemma_id, q, x, m))
            assert result.failures == reference_floor_failures(
                lemma_id, q, x, m, tables[(q, m)]) == ()


class TestMembership:
    @pytest.mark.parametrize("n,q", [(63, 2), (91, 3), (312, 5), (1365, 4), (2, 3),
                                     (83, 2), (1000, 3)])
    def test_orbit_minimum_is_the_leader(self, n, q):
        # (83, 2) has order 82, a marking table; (1000, 3) is no code length
        lead = coset_table(n, q).leader_of.tolist()
        assert [min(orbit(a, n, q)) for a in range(n)] == lead

    def test_clean_case_allocates_far_less_than_n(self):
        # n = 976,562: the failing deltas are one interval, so the check
        # allocates nothing over its delta ranges
        family = Family(5, 9, lam=2)
        check_tperp_leader_membership(family)
        tracemalloc.start()
        try:
            assert check_tperp_leader_membership(family).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * family.n // 100  # 1% of n int64s

    def test_power_form_element_13(self):
        result = check_tperp_leader_membership(Family(3, 6, s=2))
        assert result.ok
        assert result.parameter_grid == (("t=1", 2, 10, 13),)

    def test_power_form_matches_defining_sets(self):
        # unfold the same claim through the defining-set masks
        table = coset_table(91, 3)
        for delta in range(2, 11):
            spec = bch_spec(3, 6, delta, s=2)
            t_perp = dual_defining_set(defining_set(spec, table))
            assert t_perp[13]
        assert int(table.leader_of[13]) == 13

    def test_divisor_form_three_sections(self):
        result = check_tperp_leader_membership(Family(5, 4, lam=2))
        assert result.ok
        assert result.parameter_grid == (
            ("low_delta", 2, 3, 237),
            ("mid_delta", 4, 62, 78),
            ("high_delta", 63, 187, 3),
        )

    def test_divisor_form_matches_defining_sets(self):
        table = coset_table(312, 5)
        for delta, x in [(2, 237), (3, 237), (4, 78), (62, 78), (63, 3), (187, 3)]:
            spec = bch_spec(5, 4, delta, lam=2)
            t_perp = dual_defining_set(defining_set(spec, table))
            assert t_perp[x]
            assert int(table.leader_of[x]) == x

    def test_detects_non_member(self):
        # element 1 leaves the dual defining set as soon as delta exceeds
        # the leader of n-1; the detector must flag exactly those deltas
        fails = _membership_failures(63, 2, "probe", 30, 35, 1)
        assert [f[1] for f in fails] == [32, 33, 34, 35]
        assert all(f[3] == "missing from dual defining set" for f in fails)

    def test_detects_non_leader(self):
        fails = _membership_failures(63, 2, "probe", 2, 2, 6)
        assert ("probe", None, 6, "not a coset leader") in fails

    def test_hypothesis_violations_rejected(self):
        for family, rule in [(Family(3, 6, s=1), "need s > 1"),
                             (Family(3, 4, lam=1), "need q > 3"),
                             (Family(5, 4, lam=4), "need s > 1"),  # lam = q-1 is s = 1
                             (Family(3, 4, s=2), "m/s = 4/2 < 3")]:
            with pytest.raises(ValueError, match=rule):
                check_tperp_leader_membership(family)


class TestPrimePowerRequired:
    # q = 6 and q = 10 are no prime powers, so there is no GF(q) and no code
    def test_leader_floor_power_form(self):
        with pytest.raises(ValueError, match="q=6 is not a prime power"):
            check_leader_floor_power_form(Family(6, 3, s=1))

    def test_leader_floor_divisor_form(self):
        with pytest.raises(ValueError, match="q=10 is not a prime power"):
            check_leader_floor_divisor_form(Family(10, 3, lam=3))

    def test_membership(self):
        with pytest.raises(ValueError, match="q=10 is not a prime power"):
            check_tperp_leader_membership(Family(10, 3, lam=3))
        with pytest.raises(ValueError, match="q=10 is not a prime power"):
            run_grid({"schema": MANIFEST_SCHEMA, "grids": [
                {"lemma_id": "tperp_leader_membership",
                 "cases": [{"q": 10, "kind": "divisor", "lam": 3, "m": 3}]}]})


# cases of the sizes the benchmark's grid runs, moduli up to 2e6
BENCH_SIZED_MANIFEST = {"schema": MANIFEST_SCHEMA, "grids": [
    {"lemma_id": "leader_floor_power_form",
     "cases": [{"q": 2, "s": s, "m": 21} for s in (1, 3, 7)]
     + [{"q": 17, "s": 1, "m": 5}]},
    {"lemma_id": "leader_floor_divisor_form",
     "cases": [{"q": 17, "lam": lam, "m": 5} for lam in (1, 2, 4, 8)]
     + [{"q": 5, "lam": lam, "m": 9} for lam in (1, 2)]},
    {"lemma_id": "tperp_leader_membership",
     "cases": [{"q": 2, "kind": "power", "s": s, "m": 21} for s in (3, 7)]
     + [{"q": 5, "kind": "divisor", "lam": 2, "m": 9},
        {"q": 17, "kind": "divisor", "lam": 8, "m": 5}]}]}


def no_case_runs(monkeypatch):
    """Make every check raise, so a refusal must come from the planning of the cases."""
    import dualbch.propchecks as propchecks

    for name in ("check_leader_floor_power_form", "check_leader_floor_divisor_form",
                 "check_tperp_leader_membership"):
        def ran(*args, name=name):
            raise AssertionError(f"{name} ran")
        monkeypatch.setattr(propchecks, name, ran)


class TestManifestAndRunner:
    def test_default_manifest_shape(self):
        manifest = load_grid_manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA
        ids = [g["lemma_id"] for g in manifest["grids"]]
        assert ids == [
            "leader_floor_power_form",
            "leader_floor_divisor_form",
            "tperp_leader_membership",
        ]
        qs = {c["q"] for g in manifest["grids"] for c in g["cases"]}
        assert qs == {2, 3, 5, 7}

    def test_default_manifest_covers_stated_cases(self):
        manifest = load_grid_manifest()
        by_id = {g["lemma_id"]: g["cases"] for g in manifest["grids"]}
        assert {"q": 2, "s": 1, "m": 6} in by_id["leader_floor_power_form"]
        assert {"q": 5, "lam": 2, "m": 3} in by_id["leader_floor_divisor_form"]
        assert {"q": 3, "kind": "power", "s": 2, "m": 6} in by_id["tperp_leader_membership"]
        assert {"q": 5, "kind": "divisor", "lam": 2, "m": 4} in by_id["tperp_leader_membership"]

    def test_default_manifest_is_pinned(self):
        # the bytes of the grid file this default replaced
        manifest = load_grid_manifest()
        text = json.dumps(manifest, indent=1) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "35579da351de260a4543d3b5f869d1fc21204417ca5a318ac2a6b0d5d6111845")
        assert [len(g["cases"]) for g in manifest["grids"]] == [63, 43, 32]
        assert (manifest["max_floor_modulus"], manifest["max_membership_length"]) == (
            10**6, 10**4)

    def test_results_are_pinned(self):
        # every grid tuple and failure tuple of the default and the
        # bench-sized grids, byte for byte: a slip in a lemma's table shows
        # here even where it makes no failure
        results = [run_grid(m) for m in (load_grid_manifest(), BENCH_SIZED_MANIFEST)]
        assert [len(r) for r in results] == [138, 14]
        assert hashlib.sha256(repr(results).encode()).hexdigest() == (
            "5640113c5c8c3659b518da08f018c4411dfacd3e2c22f34b2029437f1a8610d3")

    def test_floor_grids_respect_modulus_cap(self):
        manifest = load_grid_manifest()
        cap = manifest["max_floor_modulus"]
        for grid in manifest["grids"]:
            if grid["lemma_id"].startswith("leader_floor"):
                assert all(c["q"] ** c["m"] - 1 <= cap for c in grid["cases"])

    def test_run_small_manifest(self):
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "grids": [
                {"lemma_id": "leader_floor_power_form",
                 "cases": [{"q": 2, "s": 1, "m": 6}, {"q": 3, "s": 1, "m": 4}]},
                {"lemma_id": "tperp_leader_membership",
                 "cases": [{"q": 3, "kind": "power", "s": 2, "m": 6}]},
            ],
        }
        results = run_grid(manifest)
        assert len(results) == 3
        assert all(isinstance(r, PropResult) and r.ok for r in results)
        assert [r.lemma_id for r in results] == [
            "leader_floor_power_form",
            "leader_floor_power_form",
            "tperp_leader_membership_power_form",
        ]

    @pytest.mark.parametrize("manifest", [load_grid_manifest(), BENCH_SIZED_MANIFEST],
                             ids=["packaged", "bench-sized"])
    def test_grid_cases_build_no_table(self, monkeypatch, manifest):
        # no case builds a CosetTable or scatters an orbit over Z_n
        def no_table(*args):
            raise AssertionError("a coset table was built")

        def no_scatter(*args):
            raise AssertionError("orbits were scattered")

        plans = [_plan_case(g["lemma_id"], c) for g in manifest["grids"] for c in g["cases"]]
        monkeypatch.setattr(CosetTable, "__init__", no_table)
        monkeypatch.setattr(cyclotomic, "_scatter_orbits", no_scatter)
        results = run_grid(manifest)
        assert results == [check(family) for check, family in plans]
        assert len(results) == sum(len(g["cases"]) for g in manifest["grids"])
        assert all(r.ok for r in results)

    def test_checks_called_through_their_module_names(self, monkeypatch):
        # the benchmark's tracer rebinds each check's module name to a wrapper
        import dualbch.propchecks as propchecks

        calls = []
        for name in ("check_leader_floor_power_form", "check_leader_floor_divisor_form",
                     "check_tperp_leader_membership"):
            def wrapper(*args, inner=getattr(propchecks, name), name=name):
                calls.append(name)
                return inner(*args)
            monkeypatch.setattr(propchecks, name, wrapper)
        manifest = {"schema": MANIFEST_SCHEMA, "grids": [
            {"lemma_id": "leader_floor_power_form", "cases": [{"q": 2, "s": 1, "m": 6}]},
            {"lemma_id": "leader_floor_divisor_form", "cases": [{"q": 5, "lam": 2, "m": 3}]},
            {"lemma_id": "tperp_leader_membership",
             "cases": [{"q": 3, "kind": "power", "s": 2, "m": 6}]}]}
        assert all(r.ok for r in run_grid(manifest))
        assert calls == ["check_leader_floor_power_form", "check_leader_floor_divisor_form",
                         "check_tperp_leader_membership"]

    def test_bad_manifest_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        for manifest in [{"schema": "nope", "grids": []}, [1], {"schema": MANIFEST_SCHEMA},
                         {"schema": MANIFEST_SCHEMA, "grids": [{"lemma_id": "x"}]},
                         # an unhashable lemma_id was a TypeError in the lookup
                         {"schema": MANIFEST_SCHEMA, "grids": [{"lemma_id": ["x"], "cases": []}]}]:
            bad.write_text(json.dumps(manifest))
            with pytest.raises(ValueError):
                load_grid_manifest(bad)
        for lemma_id, case in [("mystery", {"q": 2, "m": 3}),
                               ("leader_floor_power_form", {"q": 2, "m": 6}),
                               ("tperp_leader_membership", {"q": 2, "s": 2, "m": 6}),
                               ("tperp_leader_membership", {"q": 2, "kind": "x", "m": 6}),
                               ("leader_floor_power_form", [2, 2, 6]),
                               ("leader_floor_power_form", {"q": 2.0, "s": 2, "m": 6}),
                               ("leader_floor_power_form", {"q": 2, "s": 0, "m": 6}),
                               ("leader_floor_divisor_form", {"q": 5, "lam": True, "m": 3}),
                               # an in-memory manifest skips load_grid_manifest's check
                               (["x"], {"q": 2, "s": 1, "m": 6})]:
            with pytest.raises(ValueError):
                run_grid({"schema": MANIFEST_SCHEMA,
                          "grids": [{"lemma_id": lemma_id, "cases": [case]}]})

    @pytest.mark.parametrize("lemma_id,case", [
        ("leader_floor_power_form", {"q": 2, "s": 1, "m": 40}),
        ("leader_floor_divisor_form", {"q": 3, "lam": 1, "m": 16}),
        ("leader_floor_power_form", {"q": 3, "s": 1, "m": 100000}),  # 47,713 digits
        # 3^(10^7) alone takes seconds, so it is refused from bit lengths
        ("leader_floor_power_form", {"q": 3, "s": 1, "m": 10**7}),
        ("tperp_leader_membership", {"q": 5, "kind": "divisor", "lam": 2, "m": 10**7}),
    ])
    def test_oversized_case_refused_before_any_case_runs(self, monkeypatch, lemma_id, case):
        no_case_runs(monkeypatch)
        manifest = {"schema": MANIFEST_SCHEMA, "grids": [
            {"lemma_id": "leader_floor_power_form", "cases": [{"q": 2, "s": 1, "m": 6}]},
            {"lemma_id": lemma_id, "cases": [case]}]}
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceeds the size cap {MAX_N}|too large to compute"):
            run_grid(manifest)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("lemma_id,case,rule", [
        ("leader_floor_divisor_form", {"q": 5, "lam": 3, "m": 9},
         r"lambda=3 must divide q-1=4"),
        # (7^7 - 1)/4 is no integer: the table would be modulo its floor
        ("tperp_leader_membership", {"q": 7, "kind": "divisor", "lam": 4, "m": 7},
         r"lambda=4 must divide q-1=6"),
        ("tperp_leader_membership", {"q": 2, "kind": "power", "s": 2, "m": 5},
         r"s=2 must be a positive divisor of m=5"),
        ("tperp_leader_membership", {"q": 3, "kind": "power", "s": 1, "m": 6},
         r"need s > 1"),
        # n = 2^25 - 1 is past the size cap, which bounds no membership case
        ("tperp_leader_membership", {"q": 2, "kind": "power", "s": 1, "m": 25},
         r"power-form membership claims need s > 1"),
        ("tperp_leader_membership", {"q": 3, "kind": "divisor", "lam": 1, "m": 4},
         r"need q > 3 and 1 < lam < q-1"),
        # lam = q - 1 is the power form s = 1
        ("tperp_leader_membership", {"q": 5, "kind": "divisor", "lam": 4, "m": 4},
         r"need s > 1"),
        ("leader_floor_power_form", {"q": 2, "s": 2, "m": 4}, r"m/s = 4/2 < 3"),
        ("leader_floor_power_form", {"q": 6, "s": 1, "m": 3}, r"q=6 is not a prime power"),
        ("leader_floor_divisor_form", {"q": 10, "lam": 3, "m": 3},
         r"q=10 is not a prime power"),
    ])
    def test_case_outside_hypotheses_refused_before_any_case_runs(
            self, monkeypatch, lemma_id, case, rule):
        no_case_runs(monkeypatch)
        manifest = {"schema": MANIFEST_SCHEMA, "grids": [
            {"lemma_id": "leader_floor_power_form", "cases": [{"q": 2, "s": 1, "m": 6}]},
            {"lemma_id": lemma_id, "cases": [case]}]}
        with pytest.raises(ValueError, match=rule):
            run_grid(manifest)

    @pytest.mark.parametrize("lemma_id,case,modulus", [
        ("leader_floor_power_form", {"q": 2, "s": 1, "m": 24}, 2**24 - 1),
        ("tperp_leader_membership", {"q": 2, "kind": "power", "s": 10, "m": 30},
         (2**30 - 1) // (2**10 - 1)),
        ("tperp_leader_membership", {"q": 17, "kind": "divisor", "lam": 8, "m": 6},
         (17**6 - 1) // 8),
    ])
    def test_case_within_cap_planned(self, lemma_id, case, modulus):
        # a floor case is planned up to q^m - 1 = MAX_N; a membership case is
        # bounded only by Family.n, and q^m is above MAX_N in the last two
        _, family = _plan_case(lemma_id, case)
        if lemma_id == "tperp_leader_membership":
            assert family.n == modulus
        else:
            assert family.q**family.m - 1 == modulus

    def test_membership_past_the_size_cap_runs_clean(self):
        # n = 1,074,791,425, about 3.5e13 and about 3.5e9, all past MAX_N: a
        # membership case walks a few orbits of length m and allocates
        # nothing over n
        manifest = {"schema": MANIFEST_SCHEMA, "grids": [
            {"lemma_id": "tperp_leader_membership",
             "cases": [{"q": 2, "kind": "power", "s": 10, "m": 40},
                       {"q": 2, "kind": "power", "s": 15, "m": 60},
                       {"q": 17, "kind": "divisor", "lam": 2, "m": 8}]}]}
        assert all(family.n > MAX_N for _, family in
                   (_plan_case(g["lemma_id"], c) for g in manifest["grids"] for c in g["cases"]))
        t0 = time.perf_counter()
        results = run_grid(manifest)
        assert time.perf_counter() - t0 < 0.1
        assert len(results) == 3 and all(r.ok and r.parameter_grid for r in results)
        tracemalloc.start()
        try:
            assert run_grid(manifest) == results
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_manifest_roundtrip_from_path(self, tmp_path):
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "grids": [{"lemma_id": "leader_floor_power_form",
                       "cases": [{"q": 2, "s": 2, "m": 6}]}],
        }
        p = tmp_path / "grids.json"
        p.write_text(json.dumps(manifest))
        results = run_grid(load_grid_manifest(p))
        assert len(results) == 1 and results[0].ok
