"""Property-suite checks: leader floors, dual-set memberships, grid runner."""

import gc
import hashlib
import json
import time
import weakref

import numpy as np
import pytest

from dualbch.bch import (
    Family,
    bch_spec,
    defining_set,
    dual_defining_set,
)
from dualbch.cyclotomic import MAX_N, CosetTable, coset_table
from dualbch.propchecks import (
    MANIFEST_SCHEMA,
    PropResult,
    _coset_leader,
    _membership_failures,
    _plan_case,
    check_leader_floor_divisor_form,
    check_leader_floor_power_form,
    check_tperp_leader_membership,
    load_grid_manifest,
    run_grid,
)


def primitive_table(q, m):
    """The coset table modulo q^m - 1, which the floor checks read."""
    return coset_table(q**m - 1, q)


@pytest.mark.parametrize("check,family,modulus,other", [
    (check_leader_floor_power_form, Family(2, 6, s=1), 63, 65),
    (check_leader_floor_power_form, Family(2, 6, s=2), 63, 21),
    (check_leader_floor_divisor_form, Family(5, 3, lam=2), 124, 62),
])
def test_check_takes_family_and_table(check, family, modulus, other):
    q = family.q
    assert check(family, coset_table(modulus, q)).ok
    with pytest.raises(ValueError, match=rf"^table is for \(n={other}, q={q}\), "
                                         rf"spec needs \(n={modulus}, q={q}\)$"):
        check(family, coset_table(other, q))


@pytest.mark.parametrize("family", [Family(3, 6, s=2), Family(5, 4, lam=2)])
def test_membership_takes_family_only(family):
    assert check_tperp_leader_membership(family).ok
    with pytest.raises(TypeError):
        check_tperp_leader_membership(family, coset_table(family.n, family.q))


class TestLeaderFloorPowerForm:
    @pytest.mark.parametrize("q,s,m", [(2, 1, 6), (3, 1, 4), (2, 2, 6)])
    def test_clean_on_stated_cases(self, q, s, m):
        result = check_leader_floor_power_form(Family(q, m, s=s), primitive_table(q, m))
        assert result.ok
        assert result.lemma_id == "leader_floor_power_form"
        assert len(result.parameter_grid) == m // s - 2

    def test_sweep_is_nonempty(self):
        result = check_leader_floor_power_form(Family(2, 6, s=1), primitive_table(2, 6))
        # t=1 alone must cover u in [1, (2^5-1)/1 - 1] = [1, 30]
        assert (1, 1, 30) in result.parameter_grid

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError):
            # m/s == 2
            check_leader_floor_power_form(Family(2, 4, s=2), primitive_table(2, 4))
        with pytest.raises(ValueError):
            # s does not divide m
            check_leader_floor_power_form(Family(2, 7, s=2), primitive_table(2, 7))

    def test_shared_table_must_match_modulus(self):
        table = coset_table(63, 2)
        assert check_leader_floor_power_form(Family(2, 6, s=1), table).ok
        with pytest.raises(ValueError):
            check_leader_floor_power_form(Family(2, 7, s=1), table)


class TestLeaderFloorDivisorForm:
    @pytest.mark.parametrize("q,lam,m", [(5, 2, 3), (5, 1, 3), (7, 3, 2)])
    def test_clean_on_stated_cases(self, q, lam, m):
        result = check_leader_floor_divisor_form(Family(q, m, lam=lam), primitive_table(q, m))
        assert result.ok
        assert result.lemma_id == "leader_floor_divisor_form"
        assert result.parameter_grid  # the sweep actually ran

    def test_floor_is_strict(self):
        # the checked inequality is strict, so a leader equal to the floor
        # must be flagged; verify the comparison direction on a known point
        table = coset_table(5**3 - 1, 5)
        result = check_leader_floor_divisor_form(Family(5, 3, lam=2), table)
        for s, t, u_lo, u_hi in result.parameter_grid:
            floor = 5 ** (t + 1) - 5 + 2 * s
            us = np.arange(u_lo, u_hi + 1)
            elems = ((2 * us + 1) * 5 ** (t + 1) - 5 + 2 * s) % (5**3 - 1)
            assert (table.leader_of[elems] > floor).all()

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(ValueError):
            # lam == q-1
            check_leader_floor_divisor_form(Family(5, 3, lam=4), primitive_table(5, 3))
        with pytest.raises(ValueError):
            # lam does not divide q-1
            check_leader_floor_divisor_form(Family(5, 3, lam=3), primitive_table(5, 3))
        with pytest.raises(ValueError):
            check_leader_floor_divisor_form(Family(5, 1, lam=2), primitive_table(5, 1))  # m < 2


def reference_floor_failures(lemma_id, q, x, m, lead):
    """Every failure the floor check must report, by the element expressions
    that check_leader_floor_*_form evaluated per u before they became one
    progression each: their test oracle."""
    order = q**m - 1
    out = []
    if lemma_id == "leader_floor_power_form":
        s = x
        for t in range(1, m // s - 1):
            u_hi = (q ** (m - t * s) - 1) // (q**s - 1) - 1
            floor = q ** (t * s + s) - 1
            us = np.arange(1, u_hi + 1, dtype=np.int64)
            elems = (q ** (t * s) - 1 + (q**s - 1) * us * q ** (t * s)) % order
            out += [(t, int(u), int(e), int(lead[e]), floor)
                    for u, e in zip(us, elems) if lead[e] < floor]
    else:
        lam = x
        for s in range(1, (q - 1) // lam):
            for t in range(0, m - 1):
                u_hi = (q ** (m - t) - 1) // lam - s * q ** (m - t - 1) - 1
                floor = q ** (t + 1) - q + lam * s
                us = np.arange(1, u_hi + 1, dtype=np.int64)
                elems = ((lam * us + 1) * q ** (t + 1) - q + lam * s) % order
                out += [(s, t, int(u), int(e), int(lead[e]), floor)
                        for u, e in zip(us, elems) if lead[e] <= floor]
    return tuple(out)


class TestFloorElementsAgainstReference:
    # a table of zeros fails every element, so the failure tuples list each
    # (u, element) pair of the grid, and the real table pins the clean case
    @pytest.mark.parametrize("lemma_id,check,q,x,m", [
        ("leader_floor_power_form", check_leader_floor_power_form, *case)
        for case in [(2, 1, 6), (2, 2, 6), (3, 1, 4), (2, 1, 12), (3, 2, 8), (2, 3, 12)]
    ] + [
        ("leader_floor_divisor_form", check_leader_floor_divisor_form, *case)
        for case in [(5, 1, 3), (5, 2, 3), (7, 3, 2), (7, 1, 4), (9, 2, 4), (13, 4, 3)]
    ])
    def test_failures_match_per_u_expression(self, lemma_id, check, q, x, m):
        order = q**m - 1
        family = Family(q, m, **{"s" if lemma_id == "leader_floor_power_form" else "lam": x})
        zeros = CosetTable(order, q, np.zeros(order, dtype=np.int32), np.zeros(1, dtype=np.int64))
        result = check(family, zeros)
        expected = reference_floor_failures(lemma_id, q, x, m, zeros.leader_of)
        assert result.failures == expected
        grid_size = sum(g[-1] - g[-2] + 1 for g in result.parameter_grid)
        assert len(expected) == grid_size > 0
        table = coset_table(order, q)
        assert check(family, table).failures == ()
        assert reference_floor_failures(lemma_id, q, x, m, table.leader_of) == ()


class TestMembership:
    @pytest.mark.parametrize("n,q", [(63, 2), (91, 3), (312, 5), (1365, 4), (2, 3),
                                     (83, 2), (1000, 3)])
    def test_orbit_minimum_is_the_leader(self, n, q):
        # (83, 2) has order 82, a doubling table; (1000, 3) is no code length
        lead = coset_table(n, q).leader_of.tolist()
        assert [_coset_leader(a, n, q) for a in range(n)] == lead

    def test_membership_cases_build_no_table(self, monkeypatch):
        import dualbch.propchecks as propchecks

        def no_table(n, q):
            raise AssertionError(f"coset table modulo {n} built")

        monkeypatch.setattr(propchecks, "coset_table", no_table)
        manifest = load_grid_manifest()
        manifest["grids"] = [g for g in manifest["grids"]
                             if g["lemma_id"] == "tperp_leader_membership"]
        results = run_grid(manifest)
        assert len(results) == 32 and all(r.ok for r in results)

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
            check_leader_floor_power_form(Family(6, 3, s=1), primitive_table(6, 3))

    def test_leader_floor_divisor_form(self):
        with pytest.raises(ValueError, match="q=10 is not a prime power"):
            check_leader_floor_divisor_form(Family(10, 3, lam=3), primitive_table(10, 3))

    def test_membership(self):
        with pytest.raises(ValueError, match="q=10 is not a prime power"):
            check_tperp_leader_membership(Family(10, 3, lam=3))
        with pytest.raises(ValueError, match="q=10 is not a prime power"):
            run_grid({"schema": MANIFEST_SCHEMA, "grids": [
                {"lemma_id": "tperp_leader_membership",
                 "cases": [{"q": 10, "kind": "divisor", "lam": 3, "m": 3}]}]})


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

    @pytest.mark.parametrize("manifest", [
        load_grid_manifest(),
        # the tables of the three cases are A, B, A: A's group runs first
        {"schema": MANIFEST_SCHEMA, "grids": [
            {"lemma_id": "leader_floor_power_form",
             "cases": [{"q": 3, "s": 1, "m": 5}, {"q": 2, "s": 1, "m": 8}]},
            {"lemma_id": "leader_floor_divisor_form",
             "cases": [{"q": 3, "lam": 1, "m": 5}]}]},
    ], ids=["packaged", "interleaved"])
    def test_one_table_per_key_alive_one_at_a_time(self, monkeypatch, manifest):
        import dualbch.propchecks as propchecks

        plans = [_plan_case(g["lemma_id"], c)
                 for g in manifest["grids"] for c in g["cases"]]
        expected = [check(family, *(() if key is None else (coset_table(*key),)))
                    for check, family, key in plans]
        built, keys = [], []

        def counting(n, q):
            gc.collect()
            assert all(ref() is None for ref in built), "an earlier table is alive"
            table = coset_table(n, q)
            built.append(weakref.ref(table))
            keys.append((n, q))
            return table

        monkeypatch.setattr(propchecks, "coset_table", counting)
        assert run_grid(manifest) == expected
        assert sorted(keys) == sorted({key for *_, key in plans} - {None})

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
        ("tperp_leader_membership", {"q": 2, "kind": "power", "s": 1, "m": 25}),
        ("leader_floor_power_form", {"q": 3, "s": 1, "m": 100000}),  # 47,713 digits
        # 3^(10^7) alone takes seconds, so it is refused from bit lengths
        ("leader_floor_power_form", {"q": 3, "s": 1, "m": 10**7}),
        ("tperp_leader_membership", {"q": 5, "kind": "divisor", "lam": 2, "m": 10**7}),
        ("tperp_leader_membership", {"q": 2, "kind": "power", "s": 10, "m": 40}),
    ])
    def test_oversized_case_refused_before_any_table(self, monkeypatch, lemma_id, case):
        import dualbch.propchecks as propchecks

        def no_table(n, q):
            raise AssertionError(f"coset table modulo {n} built")

        monkeypatch.setattr(propchecks, "coset_table", no_table)
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
    def test_case_outside_hypotheses_refused_before_any_table(
            self, monkeypatch, lemma_id, case, rule):
        import dualbch.propchecks as propchecks

        def no_table(n, q):
            raise AssertionError(f"coset table modulo {n} built")

        monkeypatch.setattr(propchecks, "coset_table", no_table)
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
        # q^m is above the cap in the last two, the modulus n is not; a
        # membership case is planned without a table
        _, family, key = _plan_case(lemma_id, case)
        if lemma_id == "tperp_leader_membership":
            assert (key, family.n) == (None, modulus)
        else:
            assert key == (modulus, case["q"])

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
