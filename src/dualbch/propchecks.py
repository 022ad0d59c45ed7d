"""Brute-force property suites for the coset-leader facts behind the bounds.

Every closed-form result in :mod:`dualbch.dualtools` rests on a small set of
structural claims about q-cyclotomic cosets: floor claims ("the leader of the
coset containing this element is at least/greater than this value") and
membership claims ("this element lies in the dual defining set and is a coset
leader").  This module re-checks those claims at every point of their full
hypothesis grids, so a formula bug or a transcription slip shows up as a
concrete counterexample rather than a silently wrong bound.

Each check takes a :class:`~dualbch.bch.Family`, valid by construction,
and reads no coset table.  Each lemma is written once, as a table built
per family, and each kind of table is run by one driver.  A floor lemma's
table lists sub-ranges whose elements form a progression in u, and
:func:`_floor_failures` sweeps each one on its shorter side.  The
membership lemma's table lists (delta range, element) sections, and a
section reads only the leaders of its element and of that element's
negative, the minima of their orbits.  A check tests only its own
hypotheses, and returns a :class:`PropResult` whose ``failures`` tuple is
expected to be empty.  :func:`run_grid` runs a manifest of cases and
builds no table.
:func:`load_grid_manifest` builds the default manifest from every parameter
tuple inside the checks' hypotheses up to fixed size cutoffs; other grids
are JSON files in the same schema.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bch import Family, _divisors, theorem_families
from .cyclotomic import _reduce_mod, check_modulus, orbit
from .dualtools import validate_divisor_form, validate_power_form

MANIFEST_SCHEMA = "dualbch-prop-grids/1"

# the default grid: these q, floor checks up to q^m - 1 <= _MAX_FLOOR_MODULUS,
# membership checks up to code length n <= _MAX_MEMBERSHIP_LENGTH
_GRID_QS = (2, 3, 5, 7)
_MAX_FLOOR_MODULUS = 10**6
_MAX_MEMBERSHIP_LENGTH = 10**4


@dataclass(frozen=True)
class PropResult:
    """Outcome of one property check.

    ``parameter_grid`` records what was swept, one tuple per contiguous
    sub-range: ``(t, u_lo, u_hi)`` for the floor checks (plus a leading ``s``
    for the divisor form) and ``(label, delta_lo, delta_hi, element)`` for the
    membership checks.  ``failures`` holds one tuple per counterexample and is
    empty whenever the checked claim holds on the grid.
    """

    lemma_id: str
    parameter_grid: tuple
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def _floor_modulus(family: Family) -> int:
    """q^m - 1, the modulus of the floor checks, refused by check_modulus past its cap.

    The cap keeps the floor sweeps' int64 products exact: each stays below
    (q^m - 1)^2 <= 2^48.
    """
    order = Family(family.q, family.m, lam=1).n
    check_modulus(order, family.q)
    return order


def _floor_failures(c: int, g: int, w: int, u_hi: int, bound: int, n: int, q: int,
                    m: int) -> np.ndarray:
    """The u in [1, u_hi] whose e_u = (c + g w u) mod n has coset leader < bound, ascending.

    g divides n, w is a power of q, m = ord_n(q) and u_hi < n/g, so u -> e_u
    is injective, with inverse u = ((x - c) mod n)/g * w^-1 mod n/g wherever
    g divides (x - c) mod n.  The sweep takes the shorter of two routes.
    When bound <= u_hi, the residues whose leader is below bound are the
    orbits of [0, bound): the m steps of those orbits are mapped back to
    their u.  Otherwise the m orbit steps of the progression itself give
    each e_u's orbit minimum.  Either route costs O(m min(bound, u_hi)),
    and no array over Z_n is built.
    """
    if bound <= u_hi:
        ng = n // g
        w_inv = pow(w, -1, ng)
        x, shift, found = np.arange(bound, dtype=np.int64), n - c % n, []
        for _ in range(m):
            r = _reduce_mod(x + shift, n)  # (x - c) mod n
            u = _reduce_mod(r[r % g == 0] // g * w_inv, ng)
            found.append(u[(u >= 1) & (u <= u_hi)])
            x = _reduce_mod(x * q, n)
        return np.unique(np.concatenate(found))
    # the raw values stay below q^(m+1), under 2^37 within the size cap 2^24
    step = g * w
    x = _reduce_mod(np.arange(c + step, c + step * (u_hi + 1), step, dtype=np.int64), n)
    least = x.copy()
    for _ in range(m - 1):
        x = _reduce_mod(x * q, n)
        np.minimum(least, x, out=least)
    return np.flatnonzero(least < bound) + 1


def _sweep_floors(lemma_id: str, family: Family, sub_ranges: Iterable[tuple]) -> PropResult:
    """Run a floor lemma's table of sub-ranges (key, u_hi, c, g, w, floor, bound).

    A sub-range claims that e_u = (c + g w u) mod q^m - 1 has a leader of at
    least bound for u in [1, u_hi]; one with u_hi < 1 is empty and skipped.
    The grid gets (*key, 1, u_hi) per sub-range, and the failures
    (*key, u, e_u, leader of e_u, floor) per u that _floor_failures returns.
    The table is read only after the modulus passes its size rule.
    """
    order = _floor_modulus(family)
    q, m = family.q, family.m
    grid: list[tuple] = []
    failures: list[tuple] = []
    for key, u_hi, c, g, w, floor, bound in sub_ranges:
        if u_hi < 1:
            continue
        grid.append((*key, 1, u_hi))
        for u in _floor_failures(c, g, w, u_hi, bound, order, q, m).tolist():
            e = (c + g * w * u) % order
            failures.append((*key, u, e, min(orbit(e, order, q)), floor))
    return PropResult(lemma_id, tuple(grid), tuple(failures))


def check_leader_floor_power_form(family: Family) -> PropResult:
    """Check that CL(q^{ts}-1 + (q^s-1)*u*q^{ts}) mod q^m-1 is >= q^{ts+s}-1.

    Sweeps every t in [1, m/s-2] and u in [1, (q^{m-ts}-1)/(q^s-1) - 1].
    These floors pin the large coset leaders that make the dual defining set
    of a power-form code start with a long run of consecutive elements.
    Each t is one sub-range, c + g w u with c = q^{ts} - 1, g = q^s - 1 and
    w = q^{ts}, whose bound is the floor.
    """
    validate_power_form(family)
    q, s, m = family.q, family.s, family.m
    return _sweep_floors("leader_floor_power_form", family, (
        ((t,), (q ** (m - t * s) - 1) // (q**s - 1) - 1,
         q ** (t * s) - 1, q**s - 1, q ** (t * s), floor, floor)
        for t in range(1, m // s - 1) for floor in [q ** (t * s + s) - 1]))


def check_leader_floor_divisor_form(family: Family) -> PropResult:
    """Check that CL((lam*u+1)*q^{t+1} - q + lam*s) mod q^m-1 exceeds
    q^{t+1} - q + lam*s (strictly).

    Sweeps every s in [1, (q-1)/lam - 1], t in [0, m-2] and
    u in [1, (q^{m-t}-1)/lam - s*q^{m-t-1} - 1].  The element is taken
    modulo q^m-1, since the raw value can exceed the modulus.  Each (s, t)
    is one sub-range, c + g w u with c = floor, g = lam and w = q^{t+1};
    since the floor is strict, its bound is floor + 1.
    """
    validate_divisor_form(family)
    q, lam, m = family.q, family.lam, family.m
    # the element (lam u + 1) q^(t+1) - q + lam s is floor + lam q^(t+1) u
    return _sweep_floors("leader_floor_divisor_form", family, (
        ((s, t), (q ** (m - t) - 1) // lam - s * q ** (m - t - 1) - 1,
         floor, lam, q ** (t + 1), floor, floor + 1)
        for s in range(1, (q - 1) // lam) for t in range(0, m - 1)
        for floor in [q ** (t + 1) - q + lam * s]))


def _membership_failures(
    n: int, q: int, label: str, d_lo: int, d_hi: int, x: int
) -> list[tuple]:
    """Check x is a coset leader mod n and lies in the dual defining set for
    every delta in [d_lo, d_hi].

    Membership unfolds the definition directly: x is in the dual defining set
    iff (n - x) mod n is not in the defining set, i.e. iff the coset leader
    cl of (n - x) mod n is outside [1, delta-1].  So x is missing exactly for
    the deltas above cl when cl >= 1, and the failures are the deltas of
    [max(d_lo, cl + 1), d_hi].  Both leaders are orbit minima, O(ord_n(q))
    each, and the rest costs O(failures).
    """
    out: list[tuple] = []
    if not 0 <= x < n:
        out.append((label, None, x, "element outside [0, n)"))
        return out
    if min(orbit(x, n, q)) != x:
        out.append((label, None, x, "not a coset leader"))
    cl = min(orbit((n - x) % n, n, q))
    if cl >= 1:
        out += [(label, d, x, "missing from dual defining set")
                for d in range(max(d_lo, cl + 1), d_hi + 1)]
    return out


def _membership_hypotheses(family: Family) -> None:
    """Raise ValueError unless the membership claims cover family."""
    if family.s is None:
        if not (family.q > 3 and family.lam > 1):
            raise ValueError("divisor-form membership claims need q > 3 and 1 < lam < q-1")
        validate_divisor_form(family)
    else:
        if family.s == 1:
            raise ValueError("power-form membership claims need s > 1")
        validate_power_form(family)


def check_tperp_leader_membership(family: Family) -> PropResult:
    """Check the explicit dual-defining-set members used by the dually-BCH
    arguments: each claimed element is a coset leader modulo n and belongs to
    the dual defining set for every delta in its stated range.

    Power form (requires s > 1): for t in [1, m/s-2] the element
    (q^{m-ts} + q^{m-ts-1} - q^{m-(t+1)s-1} - 1)/(q^s-1) over the delta range
    ((q^{ts}-1)/(q^s-1), (q^{(t+1)s}-1)/(q^s-1)].

    Divisor form (requires q > 3 and 1 < lam < q-1): three range/element
    pairs covering delta from 2 up to n - q^{m-1}.  Each form is a table of
    (label, delta_lo, delta_hi, element) sections, and an empty range is
    dropped.  It reads no coset table: each element's leader, and that of
    its negative, is the minimum of its orbit.
    """
    _membership_hypotheses(family)
    q, m, n, lam = family.q, family.m, family.n, family.lam
    if family.s is not None:
        s, form, sections = family.s, "power", []
        for t in range(1, m // s - 1):
            num = q ** (m - t * s) + q ** (m - t * s - 1) - q ** (m - (t + 1) * s - 1) - 1
            assert num % lam == 0
            sections.append((f"t={t}", (q ** (t * s) - 1) // lam + 1,
                             (q ** ((t + 1) * s) - 1) // lam, num // lam))
    else:
        num1 = q**m - ((lam - 1) * q + 1) * q ** (m - 2) - 1
        assert num1 % lam == 0
        b = (-m) % lam
        num2 = sum(q**j for j in range(b, m)) + 2 * sum(q**j for j in range(b))
        assert num2 % lam == 0
        assert (q - 1 + lam) % lam == 0
        form, sections = "divisor", [
            ("low_delta", 2, (q - 1) // lam + 1, num1 // lam),
            ("mid_delta", (q - 1) // lam + 2, (q ** (m - 1) - 1) // lam, num2 // lam),
            ("high_delta", (q ** (m - 1) - 1) // lam + 1, n - q ** (m - 1), (q - 1 + lam) // lam),
        ]
    grid = tuple(sec for sec in sections if sec[1] <= sec[2])
    failures = tuple(fail for sec in grid for fail in _membership_failures(n, q, *sec))
    return PropResult(f"tperp_leader_membership_{form}_form", grid, failures)


def _power_floor_cases(max_order: int) -> list[dict]:
    cases = []
    for q in _GRID_QS:
        m = 3
        while q**m - 1 <= max_order:
            cases += [{"q": q, "s": s, "m": m} for s in _divisors(m) if m // s >= 3]
            m += 1
    return cases


def _divisor_floor_cases(max_order: int) -> list[dict]:
    cases = []
    for q in _GRID_QS:
        for lam in _divisors(q - 1)[:-1]:  # every divisor but q - 1
            m = 2
            while q**m - 1 <= max_order:
                cases.append({"q": q, "lam": lam, "m": m})
                m += 1
    return cases


def _membership_cases(max_n: int) -> list[dict]:
    cases = []
    for fam in theorem_families(max_n):
        if fam.q not in _GRID_QS:
            continue
        if fam.s is not None and fam.s >= 2:
            cases.append({"q": fam.q, "kind": "power", "s": fam.s, "m": fam.m})
        elif fam.s is None and fam.lam > 1:
            cases.append({"q": fam.q, "kind": "divisor", "lam": fam.lam, "m": fam.m})
    return cases


def load_grid_manifest(path: str | Path | None = None) -> dict:
    """Load a parameter-grid manifest.

    With no argument, returns the default grid, built in code: for q in
    2, 3, 5, 7, every floor case with q^m - 1 <= 10^6 and every membership
    case of a theorem family with n <= 10^4.  The manifest is a JSON object::

        {"schema": "dualbch-prop-grids/1",
         "grids": [{"lemma_id": "<check name>", "cases": [{...}, ...]}, ...]}

    Case objects carry the Family of the corresponding check:
    ``{"q", "s", "m"}`` for ``leader_floor_power_form``, ``{"q", "lam", "m"}``
    for ``leader_floor_divisor_form``, and ``{"q", "kind", "s"|"lam", "m"}``
    (``kind`` one of ``"power"``/``"divisor"``) for the membership checks.
    The default grid also records its cutoffs as ``max_floor_modulus`` and
    ``max_membership_length``.  Raises ValueError for a file with another
    schema or a malformed grid list.
    """
    if path is None:
        return {
            "schema": MANIFEST_SCHEMA,
            "max_floor_modulus": _MAX_FLOOR_MODULUS,
            "max_membership_length": _MAX_MEMBERSHIP_LENGTH,
            "grids": [
                {"lemma_id": "leader_floor_power_form",
                 "cases": _power_floor_cases(_MAX_FLOOR_MODULUS)},
                {"lemma_id": "leader_floor_divisor_form",
                 "cases": _divisor_floor_cases(_MAX_FLOOR_MODULUS)},
                {"lemma_id": "tperp_leader_membership",
                 "cases": _membership_cases(_MAX_MEMBERSHIP_LENGTH)},
            ],
        }
    manifest = json.loads(Path(path).read_text())
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != MANIFEST_SCHEMA:
        raise ValueError(f"unrecognised manifest schema: {schema!r}")
    grids = manifest.get("grids")
    if not (isinstance(grids, list)
            and all(isinstance(g, dict) and isinstance(g.get("cases"), list)
                    and isinstance(g.get("lemma_id"), str) for g in grids)):
        raise ValueError("manifest needs a list of grids, each with a string "
                         "lemma_id and a list of cases")
    return manifest


def _plan_case(lemma_id: str, case: dict) -> tuple:
    """(check, family) for one case.

    Refuses, before any case runs, a case that is no valid Family, whose
    length is too large to compute (Family.n), whose floor modulus q^m - 1
    is past the size cap (_floor_modulus, for a floor case only), or that
    lies outside its check's hypotheses.  A membership case is bounded only
    by Family.n.
    A case gives one of s and lam; a membership case also names that form
    as its kind, "power" or "divisor".  The checks are looked up by their
    module names on each call, so a wrapper bound over a name is what runs.
    """
    lemmas = {
        "leader_floor_power_form": (check_leader_floor_power_form, validate_power_form),
        "leader_floor_divisor_form": (check_leader_floor_divisor_form, validate_divisor_form),
        "tperp_leader_membership": (check_tperp_leader_membership, _membership_hypotheses),
    }
    if not isinstance(lemma_id, str):
        raise ValueError(f"lemma_id {lemma_id!r} is not a string")
    if not isinstance(case, dict):
        raise ValueError(f"{lemma_id} case {case!r} is not an object")
    for key in ("q", "m", "s", "lam"):
        if key in case and type(case[key]) is not int:
            raise ValueError(f"{lemma_id} case {case}: {key} must be an integer")
    if lemma_id not in lemmas:
        raise ValueError(f"unknown lemma_id in manifest: {lemma_id!r}")
    check, rules = lemmas[lemma_id]
    membership = lemma_id == "tperp_leader_membership"
    try:
        q, m = case["q"], case["m"]
        kind = case["kind"] if membership else None
    except KeyError as e:
        raise ValueError(f"{lemma_id} case {case} lacks {e}") from None
    try:
        if membership and kind != ("power" if "s" in case else "divisor"):
            raise ValueError(f"kind {kind!r} does not name the form of its s or lam")
        family = Family(q, m, case.get("lam"), case.get("s"))
        family.n  # refuses a length too large to compute
        if not membership:
            _floor_modulus(family)  # the floor check's own size rule
        rules(family)
    except ValueError as e:
        raise ValueError(f"{lemma_id} case {case}: {e}") from None
    return check, family


def run_grid(manifest: dict) -> list[PropResult]:
    """Run every check in the manifest and return results in manifest order.

    Every case is planned, and refused if it is invalid, before the first
    one runs.  No check reads a coset table, so none is built.
    load_grid_manifest() gives the default grid.
    """
    jobs = [
        _plan_case(grid["lemma_id"], case)
        for grid in manifest["grids"]
        for case in grid["cases"]
    ]
    return [check(family) for check, family in jobs]
