"""Closed-form and direct evaluation of dual-code quantities for BCH codes.

For a narrow-sense BCH code C_delta of length n = (q^m - 1)/lambda, the
defining set of the dual contains the full run {0, 1, ..., I(delta) - 1},
where I(delta) is the smallest positive integer outside T_perp.  The BCH
bound then gives d_perp >= I(delta) + 1.  This module computes

  * I(delta) directly from T_perp and from the closed-form case analyses,
    one per form of the code's Family: lambda = q^s - 1 with m/s >= 3, and
    lambda | q - 1 with m >= 2.  The Family is valid by construction, so
    each closed form checks only that extra hypothesis,
  * the resulting closed-form lower bounds on the dual distance,
  * earlier published bounds that apply to the same lengths (for
    comparison, reported with their raw values even when vacuous),
  * the dually-BCH criterion: whether T_perp is exactly a union of the
    cosets of 0 .. J-1, per delta directly, per family by the theorems,
  * delta_sweep: I(delta) and the direct dually-BCH verdict for every delta
    in [2, n] from one pass over the coset leaders,
  * ClosedColumns: the closed I(delta), the prior bounds and the closed
    dually-BCH verdict of one family, computed by the per-delta functions
    once per segment of delta between two case boundaries, on first use,
  * bound_report: all of the above for one delta.  Given one table for
    every delta of a family, it scans T_perp once per segment of deltas
    between two consecutive coset leaders, where T_perp does not change,
    and keeps those direct columns on the table, next to the family's
    ClosedColumns, so a repeated query is two lookups.

Every function here that reads a coset table takes it as a required
argument; none builds its own.

Direct and closed-form routes are implemented independently; their
agreement is the cross-check the test suite enforces.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .bch import (
    BchSpec,
    Family,
    bch_bound_from_set,
    check_table,
    defining_set,
    dual_defining_set,
)
from .cyclotomic import CosetTable, largest_leaders


@dataclass(frozen=True)
class PriorBound:
    """A previously published lower bound on the dual distance."""

    name: str
    value: float  # int when the formula is integral
    vacuous: bool  # True when the bound says nothing (value <= 1)


@dataclass(frozen=True)
class BoundReport:
    """Everything known about the dual of one BchSpec instance."""

    spec: BchSpec
    dual_dim: int  # |T|, the dimension of the dual code
    i_delta_direct: int
    i_delta_closed: int | None
    lower_bound_closed: int | None
    lower_bound_direct: int
    prior_bounds: tuple[PriorBound, ...]
    dually_bch_direct: bool
    dually_bch_witness: int
    dually_bch_closed: bool | None
    delta1: int
    delta2: int | None


# ---------------------------------------------------------------------------
# I(delta): direct scan
# ---------------------------------------------------------------------------

def i_delta_direct(t_perp: np.ndarray) -> int:
    """Smallest positive integer not in T_perp, given as a bool mask over Z_n.

    Requires 0 in T_perp, which holds for every dual defining set with
    delta <= n; its absence signals corrupted input.
    """
    if not t_perp[0]:
        raise ValueError("0 not in T_perp; not a dual defining set")
    missing = np.flatnonzero(~t_perp[1:])
    if missing.size == 0:
        raise ValueError("T_perp is all of Z_n; I(delta) undefined")
    return int(missing[0]) + 1


# ---------------------------------------------------------------------------
# I(delta): closed forms
# ---------------------------------------------------------------------------

def validate_power_form(family: Family) -> None:
    """Raise ValueError unless the power-form analysis covers family: m/s >= 3."""
    if family.s is None:
        raise ValueError(f"lambda={family.lam} is not of the form q^s - 1")
    if family.m // family.s < 3:
        raise ValueError(f"m/s = {family.m}/{family.s} < 3: closed form not applicable")


def _power_case(q, s, m, delta):
    """Case of the power-form analysis: t >= 1 for an interval, 0 for the tail."""
    lam = q**s - 1
    for t in range(1, m // s - 1):
        if (q**(t * s) - 1) // lam < delta <= (q**((t + 1) * s) - 1) // lam:
            return t
    n = (q**m - 1) // lam
    if (q**(m - s) - 1) // lam < delta <= n:
        return 0
    raise ValueError(f"delta={delta} matched no case")  # intervals tile [2, n]


def i_delta_closed_power_form(spec: BchSpec) -> int:
    """I(delta) for length (q^m - 1)/(q^s - 1), valid for m/s >= 3."""
    validate_power_form(spec.family)
    q, s, m = spec.q, spec.family.s, spec.m
    t = _power_case(q, s, m, spec.delta)
    if t == 0:
        return 1
    return (q**(m - t * s) - 1) // (q**s - 1)


def validate_divisor_form(family: Family) -> None:
    """Raise ValueError unless the divisor-form analysis covers family: m >= 2."""
    if family.s is not None:
        raise ValueError(f"lambda = q^{family.s} - 1 is served by the power form")
    if family.m < 2:
        raise ValueError(f"m={family.m} must be >= 2")


def _divisor_case(q, lam, m, delta):
    """Matched case of the four-way divisor-form analysis: (case, t, s).

    The exact-point case 1 is checked before the interval cases; within a
    case, t then s ascend, and the first match wins.
    """
    w = (q - 1) // lam  # number of nonzero multiples of lambda below q
    for t in range(0, m - 1):
        s = delta - (q**(t + 1) - q) // lam - 1
        if 1 <= s <= w - 1:
            return 1, t, s
    for t in range(1, m):
        base = (q**t - 1) // lam
        for s in range(0, w - 1):
            if base + s * q**t < delta <= base + (s + 1) * q**t:
                return 2, t, s
    for t in range(1, m - 1):
        if (q**(t + 1) - 1) // lam - q**t < delta <= (q**(t + 1) - q) // lam + 1:
            return 3, t, 0
    n = (q**m - 1) // lam
    if n - q**(m - 1) < delta <= n:
        return 4, 0, 0
    raise ValueError(
        f"no I(delta) case matched for q={q}, lambda={lam}, m={m}, delta={delta}")


def i_delta_closed_divisor_form(spec: BchSpec) -> int:
    """I(delta) for length (q^m - 1)/lambda with lambda | q-1, lambda != q-1."""
    validate_divisor_form(spec.family)
    q, lam, m = spec.q, spec.lam, spec.m
    case, t, s = _divisor_case(q, lam, m, spec.delta)
    if case == 1:
        return (q**(m - t) - 1) // lam - s * q**(m - t - 1)
    if case == 2:
        return (q**(m - t) - 1) // lam - s
    if case == 3:
        return (q**(m - t) - q) // lam + 1
    return 1


# ---------------------------------------------------------------------------
# closed-form lower bounds on the dual distance
# ---------------------------------------------------------------------------

def dual_lower_bound(spec: BchSpec) -> int:
    """Closed-form lower bound I(delta) + 1 on the dual distance of C_delta.

    Raises ValueError where the family's closed form for I(delta) does not
    apply: the power form needs m/s >= 3, the divisor form m >= 2.
    """
    closed = i_delta_closed_divisor_form if spec.family.s is None else i_delta_closed_power_form
    return closed(spec) + 1


# ---------------------------------------------------------------------------
# previously published bounds, for comparison
# ---------------------------------------------------------------------------

def _carlitz_uchiyama(family: Family, delta: int) -> PriorBound | None:
    """The Carlitz-Uchiyama bound at delta, None where it does not apply.

    It covers binary primitive codes (q = 2, lambda = 1) of odd designed
    distance 2s + 1, and changes at every such delta.
    """
    if family.q != 2 or family.lam != 1 or delta % 2 == 0:
        return None
    m, s = family.m, (delta - 1) // 2
    if m % 2 == 0:
        cu = 2**(m - 1) - (s - 1) * 2**(m // 2)
    else:
        cu = 2**(m - 1) - (s - 1) * math.sqrt(2.0**m)
    return PriorBound("carlitz_uchiyama", cu, cu <= 1)


def prior_bounds(spec: BchSpec) -> tuple[PriorBound, ...]:
    """Earlier bounds applicable to this length family, with raw values.

    carlitz_uchiyama, sidelnikov: binary primitive codes (q = 2,
    lambda = 1) with odd designed distance 2s + 1.
    primitive_length: length q^m - 1 (lambda = 1), m >= 3.
    projective_length: length (q^m - 1)/(q - 1) (lambda = q - 1), m >= 3.
    Bounds that assert nothing (value <= 1) are flagged vacuous, not hidden.
    """
    q, m, delta, lam, n = spec.q, spec.m, spec.delta, spec.lam, spec.n
    out = []
    cu = _carlitz_uchiyama(spec.family, delta)
    if cu is not None:
        s = (delta - 1) // 2
        sid = 2**(m - 1 - ((2 * s - 1).bit_length() - 1))
        out += [cu, PriorBound("sidelnikov", sid, sid <= 1)]
    if lam == 1 and m >= 3:
        vals = []
        if q == 2:
            for t in range(2, m - 2):
                if 2**t <= delta < 2**(t + 1):
                    vals.append(2**(m - t))
            if 2**(m - 2) <= delta < 2**(m - 1) - 2**((m - 1) // 2):
                vals.append(4)
        else:
            for t in range(1, m - 1):
                a = delta // q**t
                if 1 <= a <= q - 2 and delta <= (a + 1) * q**t - 1:
                    vals.append(q**(m - t) - a + 1)
                if (q - 1) * q**t <= delta <= q**(t + 1) - q + 1:
                    vals.append(q**(m - t) - q + 2)
            a = delta // q**(m - 1)
            if 1 <= a <= q - 3 and delta <= (a + 1) * q**(m - 1) - 1:
                vals.append(q - a + 1)
            if (q - 2) * q**(m - 1) <= delta < (q - 1) * q**(m - 1) - q**((m - 1) // 2):
                vals.append(3)
            for t in range(1, m):
                b = q**t - delta
                if 1 <= b <= q - 2 and delta >= 3:
                    vals.append((b + 1) * q**(m - t))
        if vals:
            v = max(vals)
            out.append(PriorBound("primitive_length", v, v <= 1))
    if lam == q - 1 and m >= 3:
        val = None
        for t in range(1, m - 1):
            if (q**t - 1) // (q - 1) < delta <= (q**(t + 1) - 1) // (q - 1):
                val = (q**(m - t) - 1) // (q - 1) + 1
                break
        if val is None and (q**(m - 1) - 1) // (q - 1) < delta < n:
            val = 2
        if val is not None:
            out.append(PriorBound("projective_length", val, val <= 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# dually-BCH criterion
# ---------------------------------------------------------------------------

def dually_bch_direct(t_perp: np.ndarray, table: CosetTable) -> tuple[bool, int]:
    """Whether the mask T_perp is the union of the cosets of 0 .. J-1, J = I(delta).

    Returns (verdict, witness): witness is J itself when true, else the
    least coset leader inside T_perp that is >= J.
    """
    return _dually_bch_given(t_perp, table, i_delta_direct(t_perp))


def _dually_bch_given(t_perp: np.ndarray, table: CosetTable, j: int) -> tuple[bool, int]:
    """dually_bch_direct given J = I(delta) of t_perp, so J is scanned for once."""
    leaders = table.leader_of[t_perp]
    offenders = leaders[leaders >= j]
    if offenders.size == 0:
        return True, j
    return False, int(offenders.min())


def delta_sweep(table: CosetTable, lo: int = 2,
                hi: int | None = None) -> list[tuple[int, bool, int]]:
    """(I(delta), verdict, witness) for every delta in [lo, hi], ascending.

    hi defaults to n.  Agrees at every delta with i_delta_direct and
    dually_bch_direct on T_perp(delta), in O(n + c log c) for c cosets
    whatever the range; only the rows asked for are built.  With neg(l) the
    leader of -l, for each nonzero leader l:

      * C_l lies in T_perp(delta) iff delta <= neg(l);
      * I(delta) = min(neg(l) : l < delta), since -C_l is removed from
        T_perp for each l < delta and its least element is neg(l).

    Both change only where delta is a leader.  Walking those deltas
    downward, each coset joins a min-heap once it enters T_perp, and
    leaders below J = I(delta) leave it for good because J only grows as
    delta falls; the heap's top is then the least offending leader.
    """
    n = table.n
    hi = n if hi is None else hi
    if lo < 2 or hi > n:
        raise ValueError(f"delta range [{lo}, {hi}] outside [2, {n}]")
    if lo > hi:
        return []
    leaders = table.leaders[1:]  # nonzero, ascending
    neg = table.leader_of[n - leaders]
    neg_at = np.full(n + 1, n, dtype=np.int64)
    neg_at[leaders + 1] = neg  # so its running minimum at delta is I(delta)
    i_delta = np.minimum.accumulate(neg_at)[2:]

    entering = np.argsort(-neg, kind="stable")
    enter_at = neg[entering].tolist()
    enter_leader = leaders[entering].tolist()
    events = [n, *leaders[leaders >= 2][::-1].tolist()]
    heap, k = [], 0
    offender = []  # least leader >= J in T_perp on each segment, -1 if none
    for delta in events:
        while k < len(enter_at) and enter_at[k] >= delta:
            heapq.heappush(heap, enter_leader[k])
            k += 1
        j = int(i_delta[delta - 2])
        while heap and heap[0] < j:
            heapq.heappop(heap)
        offender.append(heap[0] if heap else -1)
    # events[i] decides every delta in (events[i + 1], events[i]]
    lengths = -np.diff(events + [1])
    offender = np.repeat(offender, lengths)[::-1][lo - 2:hi - 1]
    i_delta = i_delta[lo - 2:hi - 1]
    verdict = offender < 0
    witness = np.where(verdict, i_delta, offender)
    return list(zip(i_delta.tolist(), verdict.tolist(), witness.tolist()))


def dually_bch_closed_intervals(family: Family,
                                table: CosetTable) -> tuple[tuple[int, int], ...]:
    """The deltas whose C_delta is dually-BCH, as ascending inclusive (lo, hi).

    Power form (m/s >= 3; m >= 4 when q >= 3, m >= 6 when q = 2):
    delta1 < delta <= n, except q = 2, s = 1: delta in {2, 3} or
    delta > delta2.  Divisor form (m >= 2): delta1 < delta <= n, except
    lambda = 1: delta = 2 or delta > delta2.  delta1/delta2 are the largest
    coset leaders mod n, from the table (brute force), never from the
    closed-form leader expressions.  Raises ValueError outside these
    hypotheses or on a table of another (n, q).
    """
    q, m, s = family.q, family.m, family.s
    if s is not None:
        validate_power_form(family)
        if q == 2 and m < 6:
            raise ValueError(f"m={m} < 6: criterion not applicable for q = 2")
        if q >= 3 and m < 4:
            raise ValueError(f"m={m} < 4: criterion not applicable for q >= 3")
        isolated = (2, 3) if q == 2 and s == 1 else None
    else:
        validate_divisor_form(family)
        isolated = (2, 2) if family.lam == 1 else None
    check_table(family, table)
    if isolated is None:
        return ((largest_leaders(table, 1)[0] + 1, family.n),)
    return (isolated, (largest_leaders(table, 2)[1] + 1, family.n))


def dually_bch_closed(spec: BchSpec, table: CosetTable) -> bool:
    """Whether delta lies in its family's dually_bch_closed_intervals."""
    intervals = dually_bch_closed_intervals(spec.family, table)
    return any(lo <= spec.delta <= hi for lo, hi in intervals)


# ---------------------------------------------------------------------------
# closed columns of one family, filled per segment of delta
# ---------------------------------------------------------------------------

def _closed_cuts(family: Family, table: CosetTable) -> list[int]:
    """2 and every delta in (2, n] at which a closed column may change, ascending.

    The cuts carry no values: they are the first delta of every case of
    _power_case, _divisor_case and prior_bounds and the first delta past
    it, and the bounds of dually_bch_closed_intervals.  Between two cuts
    each of those matches the same cases at every delta of one parity, so
    every closed column but Carlitz-Uchiyama is constant there.
    """
    q, m, s, lam, n = family.q, family.m, family.s, family.lam, family.n
    spans = []  # inclusive (lo, hi) on which one case holds
    if s is not None:
        spans += [((q**(t * s) - 1) // lam + 1, (q**((t + 1) * s) - 1) // lam)
                  for t in range(1, m // s - 1)]
        spans.append(((q**(m - s) - 1) // lam + 1, n))
    else:
        w = (q - 1) // lam
        for t in range(0, m - 1):  # case 1: one point per s
            at = (q**(t + 1) - q) // lam + 1
            spans += [(at + j, at + j) for j in range(1, w)]
        for t in range(1, m):  # case 2
            base = (q**t - 1) // lam
            spans += [(base + j * q**t + 1, base + (j + 1) * q**t) for j in range(w - 1)]
        spans += [((q**(t + 1) - 1) // lam - q**t + 1, (q**(t + 1) - q) // lam + 1)
                  for t in range(1, m - 1)]  # case 3
        spans.append((n - q**(m - 1) + 1, n))  # case 4
    if q == 2 and lam == 1:  # sidelnikov: 2s - 1 = delta - 2 has bit length j + 1
        spans += [(2**j + 2, 2**(j + 1) + 1) for j in range(m)]
    if lam == 1 and m >= 3:  # primitive_length
        if q == 2:
            spans += [(2**t, 2**(t + 1) - 1) for t in range(2, m - 2)]
            spans.append((2**(m - 2), 2**(m - 1) - 2**((m - 1) // 2) - 1))
        else:
            spans += [(a * q**t, (a + 1) * q**t - 1)
                      for t in range(1, m - 1) for a in range(1, q - 1)]
            spans += [((q - 1) * q**t, q**(t + 1) - q + 1) for t in range(1, m - 1)]
            spans += [(a * q**(m - 1), (a + 1) * q**(m - 1) - 1) for a in range(1, q - 2)]
            spans.append(((q - 2) * q**(m - 1), (q - 1) * q**(m - 1) - q**((m - 1) // 2) - 1))
            spans += [(q**t - b, q**t - b) for t in range(1, m) for b in range(1, q - 1)]
    if lam == q - 1 and m >= 3:  # projective_length
        spans += [((q**t - 1) // (q - 1) + 1, (q**(t + 1) - 1) // (q - 1))
                  for t in range(1, m - 1)]
        spans.append(((q**(m - 1) - 1) // (q - 1) + 1, n - 1))
    try:
        spans += dually_bch_closed_intervals(family, table)
    except ValueError:
        pass  # outside the criterion's hypotheses the verdict is None throughout
    return [2, *sorted({b for span in spans for b in (span[0], span[1] + 1) if 2 < b <= n})]


class ClosedColumns:
    """bound_report's closed columns for the deltas of one family, filled lazily.

    starts, from _closed_cuts, cuts [2, n] into segments.  The first query
    in a (segment, parity) slot runs dual_lower_bound, dually_bch_closed and
    prior_bounds at its delta; rows keeps the result, less Carlitz-Uchiyama,
    which is worked out per query, for the rest of the slot.  So a query
    costs a bisection and at most one call of each, whatever n.  A column
    is None where its function raises ValueError.  Only the cuts, the
    verdict and delta1/delta2 read the table, from its leaders, never its
    direct rows.  Raises ValueError on a table of another (n, q).
    """

    def __init__(self, family: Family, table: CosetTable):
        check_table(family, table)
        self.starts = _closed_cuts(family, table)
        # slot -> (I, I + 1, verdict, priors but Carlitz-Uchiyama, whether it applies)
        self.rows: dict[int, tuple] = {}
        tops = largest_leaders(table, 2)
        self.delta1 = tops[0]
        self.delta2 = tops[1] if len(tops) > 1 else None

    def at(self, spec: BchSpec, table: CosetTable) -> tuple:
        """(i_closed, lower_closed, verdict, prior bounds) of spec, on the table built from."""
        slot = 2 * bisect_right(self.starts, spec.delta) + spec.delta % 2
        row = self.rows.get(slot)
        if row is None:
            try:
                lower = dual_lower_bound(spec)
            except ValueError:
                lower = None
            try:
                verdict = dually_bch_closed(spec, table)
            except ValueError:
                verdict = None
            every = prior_bounds(spec)
            priors = tuple(b for b in every if b.name != "carlitz_uchiyama")
            row = self.rows[slot] = (None if lower is None else lower - 1, lower, verdict,
                                     priors, len(priors) < len(every))
        i_closed, lower, verdict, priors, cu = row
        if cu:
            priors = (_carlitz_uchiyama(spec.family, spec.delta), *priors)
        return i_closed, lower, verdict, priors


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------

def bound_report(spec: BchSpec, table: CosetTable) -> BoundReport:
    """Compute every direct quantity and every applicable closed form.

    Pass one table to every delta of a family: each side is worked out
    once and read back for the rest, so a repeated query is two lookups.
    The direct columns depend on delta only through k, the number of coset
    leaders below delta, because T = C_1 u ... u C_{delta-1} and so T_perp
    stay the same between two consecutive leaders.  The table keeps them,
    with |T|, in its direct_rows, keyed by k, scanning T_perp once per
    segment.  The closed columns come from a ClosedColumns kept in its
    closed_columns, keyed by family, which runs the per-delta closed
    functions once per segment of their cases; they never read the direct
    rows, so the two routes stay independent.  Raises ValueError on a
    table of another (n, q).
    """
    check_table(spec, table)
    k = int(table.leaders.searchsorted(spec.delta))
    row = table.direct_rows.get(k)
    if row is None:
        t = defining_set(spec, table)
        t_perp = dual_defining_set(t)
        j = i_delta_direct(t_perp)
        row = (int(np.count_nonzero(t)), j, *_dually_bch_given(t_perp, table, j),
               bch_bound_from_set(t_perp))
        table.direct_rows[k] = row
    closed = table.closed_columns.get(spec.family)
    if closed is None:
        closed = table.closed_columns[spec.family] = ClosedColumns(spec.family, table)
    dual_dim, i_direct, direct_verdict, witness, lower_direct = row
    i_closed, lower_closed, closed_verdict, priors = closed.at(spec, table)
    return BoundReport(
        spec=spec,
        dual_dim=dual_dim,
        i_delta_direct=i_direct,
        i_delta_closed=i_closed,
        lower_bound_closed=lower_closed,
        lower_bound_direct=lower_direct,
        prior_bounds=priors,
        dually_bch_direct=direct_verdict,
        dually_bch_witness=witness,
        dually_bch_closed=closed_verdict,
        delta1=closed.delta1,
        delta2=closed.delta2,
    )
