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
    comparison, reported with their raw values even when vacuous).
    Each of these piecewise forms is written once, as one table of
    (lo, hi, value) cases per family, built on first use,
  * the dually-BCH criterion: whether T_perp is exactly a union of the
    cosets of 0 .. J-1, per delta directly, per family by the theorems,
  * delta_sweep: I(delta) and the direct dually-BCH verdict for every delta
    in [2, n] from one pass over the coset leaders, which works them out
    once per segment of deltas between two consecutive leaders, where
    T_perp does not change,
  * direct_columns: every direct column of bound_report, one row per such
    segment, from that pass and one more over the leaders in descending
    order for the cyclic-run bound,
  * ClosedColumns: the closed I(delta), the prior bounds and the closed
    dually-BCH verdict of one family, computed by the per-delta functions
    once per segment of delta between two boundaries of the case tables
    or of the dually-BCH intervals, on first use,
  * bound_report: all of the above for one delta.  Given one table for
    every delta of a family, it scans T_perp for the table's first
    segment, builds direct_columns once a second segment is asked for, and
    keeps them on the table, next to the family's ClosedColumns, so a
    repeated query is two lookups.  The per-segment scans (i_delta_direct,
    dually_bch_direct, bch.bch_bound_from_set) stay the oracle.

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
from functools import lru_cache

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
    delta <= n; its absence signals corrupted input.  The first non-member
    is found by argmin over the mask, which allocates nothing.
    """
    if not t_perp[0]:
        raise ValueError("0 not in T_perp; not a dual defining set")
    rest = t_perp[1:]
    if rest.all():
        raise ValueError("T_perp is all of Z_n; I(delta) undefined")
    return int(rest.argmin()) + 1


# ---------------------------------------------------------------------------
# I(delta): closed forms
# ---------------------------------------------------------------------------

def validate_power_form(family: Family) -> None:
    """Raise ValueError unless the power-form analysis covers family: m/s >= 3."""
    if family.s is None:
        raise ValueError(f"lambda={family.lam} is not of the form q^s - 1")
    if family.m // family.s < 3:
        raise ValueError(f"m/s = {family.m}/{family.s} < 3: closed form not applicable")


def i_delta_closed_power_form(spec: BchSpec) -> int:
    """I(delta) for length (q^m - 1)/(q^s - 1), valid for m/s >= 3."""
    validate_power_form(spec.family)
    return _first_case(_i_delta_cases(spec.family), spec.delta)


def validate_divisor_form(family: Family) -> None:
    """Raise ValueError unless the divisor-form analysis covers family: m >= 2."""
    if family.s is not None:
        raise ValueError(f"lambda = q^{family.s} - 1 is served by the power form")
    if family.m < 2:
        raise ValueError(f"m={family.m} must be >= 2")


def i_delta_closed_divisor_form(spec: BchSpec) -> int:
    """I(delta) for length (q^m - 1)/lambda with lambda | q-1, lambda != q-1."""
    validate_divisor_form(spec.family)
    return _first_case(_i_delta_cases(spec.family), spec.delta)


@lru_cache(maxsize=256)
def _i_delta_cases(family: Family) -> tuple[tuple[int, int, int], ...]:
    """I(delta) of family as (lo, hi, value) cases: I = value if lo <= delta <= hi.

    The first case that holds delta gives I(delta).  Power form: one
    interval per t in [1, m/s - 2], then the tail, where I = 1; they tile
    [2, n].  Divisor form, with w = (q - 1)/lambda: case 1's exact points,
    one per t in [0, m - 2] and j in [1, w - 1], ahead of the intervals of
    case 2 (t in [1, m - 1], j in [0, w - 2]), case 3 (t in [1, m - 2]) and
    the tail.  The cases are built whatever the hypotheses, which the
    callers check, and once per family, on first use.
    """
    q, m, s, lam, n = family.q, family.m, family.s, family.lam, family.n
    if s is not None:
        cases = [((q**(t * s) - 1) // lam + 1, (q**((t + 1) * s) - 1) // lam,
                  (q**(m - t * s) - 1) // lam) for t in range(1, m // s - 1)]
        return (*cases, ((q**(m - s) - 1) // lam + 1, n, 1))
    w = (q - 1) // lam  # number of nonzero multiples of lambda below q
    cases = []
    for t in range(0, m - 1):  # case 1: the points (q^(t+1) - q)/lambda + 1 + j
        at = (q**(t + 1) - q) // lam + 1
        cases += [(at + j, at + j, (q**(m - t) - 1) // lam - j * q**(m - t - 1))
                  for j in range(1, w)]
    cases += [((q**t - 1) // lam + j * q**t + 1, (q**t - 1) // lam + (j + 1) * q**t,
               (q**(m - t) - 1) // lam - j)
              for t in range(1, m) for j in range(w - 1)]  # case 2
    cases += [((q**(t + 1) - 1) // lam - q**t + 1, (q**(t + 1) - q) // lam + 1,
               (q**(m - t) - q) // lam + 1) for t in range(1, m - 1)]  # case 3
    return (*cases, (n - q**(m - 1) + 1, n, 1))  # case 4, the tail


def _first_case(cases: tuple[tuple[int, int, int], ...], delta: int) -> int:
    """The value of the first (lo, hi, value) case with lo <= delta <= hi."""
    return next(v for lo, hi, v in cases if lo <= delta <= hi)  # the cases cover [2, n]


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
    All but Carlitz-Uchiyama are read from the family's _prior_cases.
    """
    delta = spec.delta
    cu = _carlitz_uchiyama(spec.family, delta)
    out = [] if cu is None else [cu]
    for name, cases in _prior_cases(spec.family):
        if name == "sidelnikov" and cu is None:
            continue  # odd delta only, as Carlitz-Uchiyama
        value = max((v for lo, hi, v in cases if lo <= delta <= hi), default=None)
        if value is not None:
            out.append(PriorBound(name, value, value <= 1))
    return tuple(out)


@lru_cache(maxsize=256)
def _prior_cases(family: Family) -> tuple[tuple[str, tuple[tuple[int, int, int], ...]], ...]:
    """(name, (lo, hi, value) cases) of each prior bound of family but Carlitz-Uchiyama.

    A bound holds at delta with the largest value of its cases that hold
    delta, lo <= delta <= hi, and is absent where none holds; only the
    primitive-length cases overlap.  sidelnikov: 2^(m-1-j) where
    2s - 1 = delta - 2 has bit length j + 1.  Built once per family, on
    first use.
    """
    q, m, lam, n = family.q, family.m, family.lam, family.n
    out = []
    if q == 2 and lam == 1:
        out.append(("sidelnikov", tuple((2**j + 2, 2**(j + 1) + 1, 2**(m - 1 - j))
                                        for j in range(m))))
    if lam == 1 and m >= 3:
        if q == 2:
            cases = [(2**t, 2**(t + 1) - 1, 2**(m - t)) for t in range(2, m - 2)]
            cases.append((2**(m - 2), 2**(m - 1) - 2**((m - 1) // 2) - 1, 4))
        else:
            cases = [(a * q**t, (a + 1) * q**t - 1, q**(m - t) - a + 1)
                     for t in range(1, m - 1) for a in range(1, q - 1)]
            cases += [((q - 1) * q**t, q**(t + 1) - q + 1, q**(m - t) - q + 2)
                      for t in range(1, m - 1)]
            cases += [(a * q**(m - 1), (a + 1) * q**(m - 1) - 1, q - a + 1)
                      for a in range(1, q - 2)]
            cases.append(((q - 2) * q**(m - 1), (q - 1) * q**(m - 1) - q**((m - 1) // 2) - 1, 3))
            cases += [(q**t - b, q**t - b, (b + 1) * q**(m - t))
                      for t in range(1, m) for b in range(1, q - 1) if q**t - b >= 3]
        out.append(("primitive_length", tuple(cases)))
    if lam == q - 1 and m >= 3:
        cases = [((q**t - 1) // (q - 1) + 1, (q**(t + 1) - 1) // (q - 1),
                  (q**(m - t) - 1) // (q - 1) + 1) for t in range(1, m - 1)]
        cases.append(((q**(m - 1) - 1) // (q - 1) + 1, n - 1, 2))
        out.append(("projective_length", tuple(cases)))
    return tuple(out)


# ---------------------------------------------------------------------------
# dually-BCH criterion
# ---------------------------------------------------------------------------

def dually_bch_direct(t_perp: np.ndarray, table: CosetTable) -> tuple[bool, int]:
    """Whether the mask T_perp is the union of the cosets of 0 .. J-1, J = I(delta).

    Returns (verdict, witness): witness is J itself when true, else the
    least coset leader inside T_perp that is >= J.  It gathers the leader
    of every member of T_perp, so it is the oracle of _dually_bch_given.
    """
    j = i_delta_direct(t_perp)
    leaders = table.leader_of[t_perp]
    offenders = leaders[leaders >= j]
    if offenders.size == 0:
        return True, j
    return False, int(offenders.min())


def _dually_bch_given(t_perp: np.ndarray, table: CosetTable, j: int) -> tuple[bool, int]:
    """dually_bch_direct given J = I(delta) of t_perp, read from the leaders.

    T_perp is a union of cosets, so it holds a leader >= J iff it meets a
    coset outside those of 0 .. J-1, and the least such leader is the
    witness.  It reads only the ascending leaders, not the leader array.
    """
    above = table.leaders[int(table.leaders.searchsorted(j)):]
    offenders = above[t_perp[above]]
    if offenders.size == 0:
        return True, j
    return False, int(offenders[0])


def _segments(table: CosetTable) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """(top, I, verdict, witness) of every segment of delta, in ascending order.

    Segment k, for k = 2 .. c with c coset leaders, holds the deltas with k
    leaders below them: leaders[k-1] < delta <= top, where top is
    leaders[k], or n for k = c.  T = C_1 u ... u C_{delta-1}, and so T_perp,
    is the same at every delta of a segment.  With neg(l) the leader of -l,
    for each nonzero leader l:

      * C_l lies in T_perp(delta) iff delta <= neg(l);
      * I(delta) = min(neg(l) : l < delta), since -C_l is removed from
        T_perp for each l < delta and its least element is neg(l).

    Walking the segments downward, each coset joins a min-heap once it
    enters T_perp, and leaders below J = I(delta) leave it for good because
    J only grows as delta falls; the heap's top is then the least offending
    leader.  O(c log c).
    """
    n = table.n
    leaders = table.leaders[1:]  # nonzero, ascending
    neg = table.leader_of[n - leaders]
    i_delta = np.minimum.accumulate(neg)  # segment k: least neg over table.leaders[1:k]
    tops = [*leaders[1:].tolist(), n]
    entering = np.argsort(-neg, kind="stable")
    enter_at = neg[entering].tolist()
    enter_leader = leaders[entering].tolist()
    i_list = i_delta.tolist()
    heap, e = [], 0
    offender = [-1] * len(tops)  # least leader >= J in T_perp, -1 if none
    for k in range(len(tops) - 1, -1, -1):
        while e < len(enter_at) and enter_at[e] >= tops[k]:
            heapq.heappush(heap, enter_leader[e])
            e += 1
        while heap and heap[0] < i_list[k]:
            heapq.heappop(heap)
        if heap:
            offender[k] = heap[0]
    offender = np.array(offender)
    verdict = offender < 0
    return tops, i_delta, verdict, np.where(verdict, i_delta, offender)


def delta_sweep(table: CosetTable, lo: int = 2,
                hi: int | None = None) -> list[tuple[int, bool, int]]:
    """(I(delta), verdict, witness) for every delta in [lo, hi], ascending.

    hi defaults to n.  Agrees at every delta with i_delta_direct and
    dually_bch_direct on T_perp(delta), in O(n + c log c) for c cosets
    whatever the range: _segments gives each segment of delta its row, and
    the row is repeated over the segment's deltas; only the rows asked for
    are built.
    """
    n = table.n
    hi = n if hi is None else hi
    if lo < 2 or hi > n:
        raise ValueError(f"delta range [{lo}, {hi}] outside [2, {n}]")
    if lo > hi:
        return []
    tops, *columns = _segments(table)
    lengths = np.diff(tops, prepend=1)  # the deltas of each segment
    i_delta, verdict, witness = (np.repeat(col, lengths)[lo - 2:hi - 1].tolist()
                                 for col in columns)
    return list(zip(i_delta, verdict, witness))


def direct_columns(table: CosetTable) -> list[tuple[int, int, bool, int, int]]:
    """bound_report's direct columns for every segment of delta, from one pass.

    Row k - 2 is (dual_dim, I, verdict, witness, run bound) of segment k,
    the deltas with k coset leaders below them (see _segments), and agrees
    with the scans of T_perp at each of its deltas: dual_dim with the count
    of T, I with i_delta_direct, the verdict and witness with
    dually_bch_direct and the run bound with bch_bound_from_set.  I, the
    verdict and the witness come from _segments, as in delta_sweep, and
    dual_dim = |T| is a running sum of coset sizes.

    The run bound is the largest cyclic gap between two nonmembers of
    T_perp.  With e[p] the leader of -p, those are the p != 0 with
    e[p] < delta.  They start, above the largest leader, as all of
    1 .. n-1, on a cyclic linked list; as delta falls past each leader l,
    the members of -C_l, the orbit of n - l under q, leave the list.  Each
    removal merges two gaps, so the largest gap only grows, and its running
    maximum is the bound of every segment.  The pass is pure Python over
    the n - 1 - |C_1| removals: about 0.6 s and 90 MB at n = 2^20 - 1, so
    bound_report builds it only for a table that answers a second segment.
    """
    n, q = table.n, table.q
    _, i_delta, verdict, witness = _segments(table)
    sizes = np.bincount(table.leader_of)[table.leaders[1:]]  # |C_l|, l > 0 ascending
    nxt = [*range(1, n), 1]  # nxt[p], prv[p]: the cyclic neighbours of the nonmember p
    prv = [n - 1, n - 1, *range(1, n - 1)]
    best = 2  # with only 0 in T_perp every gap is 1 but the one around 0
    runs = [best]
    for lead in table.leaders[:1:-1].tolist():  # every leader above 1, descending
        c = lead
        while True:
            p = n - c
            a, b = prv[p], nxt[p]
            nxt[a], prv[b] = b, a
            gap = (b - a - 1) % n + 1
            if gap > best:
                best = gap
            c = c * q % n
            if c == lead:
                break
        runs.append(best)
    return list(zip(np.cumsum(sizes).tolist(), i_delta.tolist(), verdict.tolist(),
                    witness.tolist(), runs[::-1]))


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

def _closed_cuts(family: Family,
                 intervals: tuple[tuple[int, int], ...] | None) -> list[int]:
    """2 and every delta in (2, n] at which a closed column may change, ascending.

    The cuts carry no values: they are the lo and hi + 1 of every case of
    _i_delta_cases and _prior_cases and of the dually-BCH intervals, None
    outside the criterion's hypotheses.  Between two cuts the same cases
    hold at every delta, so every closed column but Carlitz-Uchiyama is
    constant there at each parity of delta.
    """
    spans = [*_i_delta_cases(family), *(c for _, cases in _prior_cases(family) for c in cases),
             *(intervals or ())]
    return [2, *sorted({b for lo, hi, *_ in spans for b in (lo, hi + 1) if 2 < b <= family.n})]


class ClosedColumns:
    """bound_report's closed columns for the deltas of one family, filled lazily.

    The constructor reads the family's dually_bch_closed_intervals from the
    table, None outside the criterion's hypotheses, and starts, from
    _closed_cuts, cuts [2, n] into segments.  The first query in a
    (segment, parity) slot runs dual_lower_bound and prior_bounds at its
    delta and reads the verdict off the intervals; rows keeps the result,
    less Carlitz-Uchiyama, which is worked out per query, for the rest of
    the slot.  So a query costs a bisection and at most one call of each,
    whatever n.  A column is None where its function raises ValueError.
    Only the intervals and delta1/delta2 read the table, from its leaders,
    never its direct columns.  Raises ValueError on a table of another (n, q).
    """

    def __init__(self, family: Family, table: CosetTable):
        check_table(family, table)
        try:
            self.intervals = dually_bch_closed_intervals(family, table)
        except ValueError:
            self.intervals = None
        self.starts = _closed_cuts(family, self.intervals)
        # slot -> (I, I + 1, verdict, priors but Carlitz-Uchiyama, whether it applies)
        self.rows: dict[int, tuple] = {}
        tops = largest_leaders(table, 2)
        self.delta1 = tops[0]
        self.delta2 = tops[1] if len(tops) > 1 else None

    def at(self, spec: BchSpec) -> tuple:
        """(i_closed, lower_closed, verdict, prior bounds) of spec, of the family built for."""
        slot = 2 * bisect_right(self.starts, spec.delta) + spec.delta % 2
        row = self.rows.get(slot)
        if row is None:
            try:
                lower = dual_lower_bound(spec)
            except ValueError:
                lower = None
            verdict = (None if self.intervals is None
                       else any(lo <= spec.delta <= hi for lo, hi in self.intervals))
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
    once and read back for the rest.  The direct columns depend on delta
    only through k, the number of coset leaders below delta, because
    T = C_1 u ... u C_{delta-1} and so T_perp stay the same between two
    consecutive leaders.  The table's first query scans the T_perp mask of
    its own segment, with T scattered from its leaders' orbits and the
    verdict read off the leaders, so it builds no leader array, and keeps
    the row under k in the table's direct_columns; a query on a second
    segment adds every segment's row from one pass, direct_columns(table),
    and every later query is a dict lookup.  So a table that
    answers one query, or one segment, never pays for the pass.  The
    closed columns come from a ClosedColumns kept in its closed_columns,
    keyed by family, which runs the per-delta closed functions once per
    segment of their cases; they never read the direct columns, so the two
    routes stay independent.
    Raises ValueError on a table of another (n, q).
    """
    check_table(spec, table)
    k = int(table.leaders.searchsorted(spec.delta))
    rows = table.direct_columns  # k -> row: the first query's segment, or every segment
    row = rows.get(k)
    if row is None and rows:  # a second segment
        rows.update(enumerate(direct_columns(table), 2))
        row = rows[k]
    elif row is None:
        t = defining_set(spec, table)
        t_perp = dual_defining_set(t)
        j = i_delta_direct(t_perp)
        row = rows[k] = (int(np.count_nonzero(t)), j, *_dually_bch_given(t_perp, table, j),
                         bch_bound_from_set(t_perp))
    closed = table.closed_columns.get(spec.family)
    if closed is None:
        closed = table.closed_columns[spec.family] = ClosedColumns(spec.family, table)
    dual_dim, i_direct, direct_verdict, witness, lower_direct = row
    i_closed, lower_closed, closed_verdict, priors = closed.at(spec)
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
