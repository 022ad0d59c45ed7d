"""Brute-force property suites for the coset-leader facts behind the bounds.

Every closed-form result in :mod:`dualbch.dualtools` rests on a small set of
structural claims about q-cyclotomic cosets: floor claims ("the leader of the
coset containing this element is at least/greater than this value") and
membership claims ("this element lies in the dual defining set and is a coset
leader").  This module re-checks those claims at every point of their full
hypothesis grids, so a formula bug or a transcription slip shows up as a
concrete counterexample rather than a silently wrong bound.

Each check takes a :class:`~dualbch.bch.Family`, valid by construction,
and reads no coset table.  A floor check sweeps sub-ranges whose elements
form a progression e_u = (c + g w u) mod N in u = 1..u_hi, with N = q^m - 1,
g | N, w a power of q and u_hi < N/g, so u -> e_u is injective and
u = ((x - c) mod N)/g * w^-1 mod N/g inverts it where g | (x - c) mod N.
A u fails when the leader of e_u is below a bound.  When the bound is at
most u_hi, the residues with leaders below it are the orbits of
[0, bound), so walking their m = ord_N(q) steps and mapping each back to
its u finds the failures; otherwise the m orbit steps of the progression
itself give each element's orbit minimum.  Each sub-range costs
O(m min(bound, u_hi)), on its shorter side, and no array over Z_N is built.
The membership check reads only the leaders of two elements, which it
finds by walking their orbits, and its failing deltas are one interval.
A check tests only its own hypotheses, and returns a :class:`PropResult`
whose ``failures`` tuple is expected to be empty.  :func:`run_grid` runs a
manifest of cases and builds no table.
:func:`load_grid_manifest` builds the default manifest from every parameter
tuple inside the checks' hypotheses up to fixed size cutoffs; other grids
are JSON files in the same schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bch import Family, _divisors, theorem_families
from .cyclotomic import _reduce_mod, check_modulus
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
    order = _primitive(family).n
    check_modulus(order, family.q)
    return order


def _primitive(family: Family) -> Family:
    """The family of length q^m - 1, the modulus of the floor checks."""
    return Family(family.q, family.m, lam=1)


def _progression_mod(c: int, step: int, u_hi: int, order: int) -> np.ndarray:
    """(c + step u) mod order for u = 1..u_hi, as one int64 progression.

    The floor checks' elements are such progressions in u.  Their raw values
    stay below q^(m+1), under 2^37 for a modulus within the size cap 2^24.
    """
    elems = np.arange(c + step, c + step * (u_hi + 1), step, dtype=np.int64)
    return _reduce_mod(elems, order)


def _floor_failures(c: int, g: int, w: int, u_hi: int, bound: int, n: int, q: int,
                    m: int) -> np.ndarray:
    """The u in [1, u_hi] whose e_u = (c + g w u) mod n has coset leader < bound, ascending.

    g divides n, w is a power of q, m = ord_n(q) and u_hi < n/g, so u -> e_u
    is injective, with inverse u = ((x - c) mod n)/g * w^-1 mod n/g wherever
    g divides (x - c) mod n.  When bound <= u_hi, the residues whose leader
    is below bound are the orbits of [0, bound): the m steps of those orbits
    are mapped back to their u.  Otherwise the m orbit steps of the
    progression itself give each e_u's orbit minimum.  Either side costs
    O(m min(bound, u_hi)), and no array over Z_n is built.
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
    x = _progression_mod(c, g * w, u_hi, n)
    least = x.copy()
    for _ in range(m - 1):
        x = _reduce_mod(x * q, n)
        np.minimum(least, x, out=least)
    return np.flatnonzero(least < bound) + 1


def _floor_counterexamples(c: int, g: int, w: int, u_hi: int, bound: int, n: int, q: int,
                           m: int) -> list[tuple[int, int, int]]:
    """(u, e_u, leader of e_u) for every u that _floor_failures returns, ascending."""
    out = []
    for u in _floor_failures(c, g, w, u_hi, bound, n, q, m).tolist():
        e = (c + g * w * u) % n
        out.append((u, e, _coset_leader(e, n, q)))
    return out


def check_leader_floor_power_form(family: Family) -> PropResult:
    """Check that CL(q^{ts}-1 + (q^s-1)*u*q^{ts}) mod q^m-1 is >= q^{ts+s}-1.

    Sweeps every t in [1, m/s-2] and u in [1, (q^{m-ts}-1)/(q^s-1) - 1].
    These floors pin the large coset leaders that make the dual defining set
    of a power-form code start with a long run of consecutive elements.
    Each t's elements are c + g w u with c = q^{ts} - 1, g = q^s - 1 and
    w = q^{ts}, and u fails iff its leader is below the floor, so
    _floor_failures finds the failures in O(m min(floor, u_hi)) on the
    shorter of its two sides, without a coset table.
    """
    validate_power_form(family)
    order = _floor_modulus(family)
    q, s, m = family.q, family.s, family.m
    grid: list[tuple] = []
    failures: list[tuple] = []
    for t in range(1, m // s - 1):
        u_hi = (q ** (m - t * s) - 1) // (q**s - 1) - 1
        if u_hi < 1:
            continue
        grid.append((t, 1, u_hi))
        floor = q ** (t * s + s) - 1
        failures += [(t, *fail) + (floor,) for fail in _floor_counterexamples(
            q ** (t * s) - 1, q**s - 1, q ** (t * s), u_hi, floor, order, q, m)]
    return PropResult("leader_floor_power_form", tuple(grid), tuple(failures))


def check_leader_floor_divisor_form(family: Family) -> PropResult:
    """Check that CL((lam*u+1)*q^{t+1} - q + lam*s) mod q^m-1 exceeds
    q^{t+1} - q + lam*s (strictly).

    Sweeps every s in [1, (q-1)/lam - 1], t in [0, m-2] and
    u in [1, (q^{m-t}-1)/lam - s*q^{m-t-1} - 1].  The element is taken
    modulo q^m-1, since the raw value can exceed the modulus.  It is
    c + g w u with c = floor, g = lam and w = q^{t+1}, and since the floor
    is strict u fails iff its leader is below floor + 1: _floor_failures
    finds the failures in O(m min(floor + 1, u_hi)) on the shorter of its
    two sides, without a coset table.
    """
    validate_divisor_form(family)
    order = _floor_modulus(family)
    q, lam, m = family.q, family.lam, family.m
    grid: list[tuple] = []
    failures: list[tuple] = []
    for s in range(1, (q - 1) // lam):
        for t in range(0, m - 1):
            u_hi = (q ** (m - t) - 1) // lam - s * q ** (m - t - 1) - 1
            if u_hi < 1:
                continue
            grid.append((s, t, 1, u_hi))
            floor = q ** (t + 1) - q + lam * s
            # the element (lam u + 1) q^(t+1) - q + lam s is floor + lam q^(t+1) u
            failures += [(s, t, *fail) + (floor,) for fail in _floor_counterexamples(
                floor, lam, q ** (t + 1), u_hi, floor + 1, order, q, m)]
    return PropResult("leader_floor_divisor_form", tuple(grid), tuple(failures))


def _coset_leader(a: int, n: int, q: int) -> int:
    """The least element of the q-cyclotomic coset of a in [0, n): a walk of its orbit."""
    least, b = a, a * q % n
    while b != a:
        least = min(least, b)
        b = b * q % n
    return least


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
    if _coset_leader(x, n, q) != x:
        out.append((label, None, x, "not a coset leader"))
    cl = _coset_leader((n - x) % n, n, q)
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
    pairs covering delta from 2 up to n - q^{m-1}.  It reads no coset
    table: each element's leader, and that of its negative, is the minimum
    of its orbit.
    """
    _membership_hypotheses(family)
    q, m, n = family.q, family.m, family.n
    grid: list[tuple] = []
    failures: list[tuple] = []
    if family.s is not None:
        s = family.s
        for t in range(1, m // s - 1):
            num = q ** (m - t * s) + q ** (m - t * s - 1) - q ** (m - (t + 1) * s - 1) - 1
            assert num % (q**s - 1) == 0
            x = num // (q**s - 1)
            d_lo = (q ** (t * s) - 1) // (q**s - 1) + 1
            d_hi = (q ** ((t + 1) * s) - 1) // (q**s - 1)
            grid.append((f"t={t}", d_lo, d_hi, x))
            failures.extend(
                _membership_failures(n, q, f"t={t}", d_lo, d_hi, x)
            )
        lemma_id = "tperp_leader_membership_power_form"
    else:
        lam = family.lam
        num1 = q**m - ((lam - 1) * q + 1) * q ** (m - 2) - 1
        assert num1 % lam == 0
        b = (-m) % lam
        num2 = sum(q**j for j in range(b, m)) + 2 * sum(q**j for j in range(b))
        assert num2 % lam == 0
        assert (q - 1 + lam) % lam == 0
        sections = (
            ("low_delta", 2, (q - 1) // lam + 1, num1 // lam),
            ("mid_delta", (q - 1) // lam + 2, (q ** (m - 1) - 1) // lam, num2 // lam),
            ("high_delta", (q ** (m - 1) - 1) // lam + 1, n - q ** (m - 1), (q - 1 + lam) // lam),
        )
        for label, d_lo, d_hi, x in sections:
            if d_lo > d_hi:
                continue
            grid.append((label, d_lo, d_hi, x))
            failures.extend(
                _membership_failures(n, q, label, d_lo, d_hi, x)
            )
        lemma_id = "tperp_leader_membership_divisor_form"
    return PropResult(lemma_id, tuple(grid), tuple(failures))


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
    modulus is too large to compute (Family.n) or past the size cap
    (check_modulus on q^m - 1 for a floor case, on n for a membership case),
    or that lies outside its check's hypotheses.
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
        check_modulus((family if membership else _primitive(family)).n, q)
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
