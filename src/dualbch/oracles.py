"""Frozen statements of closed forms, kept as oracles for their case tables.

dualtools writes each piecewise bound once, as a table of (lo, hi, value)
cases per family, and reads every per-delta value off it.  A slip in a
table would then agree with itself everywhere, so the statements here are
written apart from the tables, as per-delta case loops, and never change
with them.  The tests and scripts/bound_survey.py compare the tables
against them; the package itself never imports this module.
"""

from __future__ import annotations

import math

from .bch import BchSpec
from .dualtools import PriorBound


def frozen_prior_bounds(spec: BchSpec) -> tuple[PriorBound, ...]:
    """prior_bounds(spec) stated as per-delta case loops, apart from the case tables.

    The prior bounds have no direct route, so this frozen statement is what
    dualtools._prior_cases is checked against, by the tests and by
    scripts/bound_survey.py.
    """
    q, m, delta, lam, n = spec.q, spec.m, spec.delta, spec.lam, spec.n
    out = []
    if q == 2 and lam == 1 and delta % 2 == 1:
        s = (delta - 1) // 2
        if m % 2 == 0:
            cu = 2**(m - 1) - (s - 1) * 2**(m // 2)
        else:
            cu = 2**(m - 1) - (s - 1) * math.sqrt(2.0**m)
        sid = 2**(m - 1 - ((2 * s - 1).bit_length() - 1))
        out += [PriorBound("carlitz_uchiyama", cu, cu <= 1),
                PriorBound("sidelnikov", sid, sid <= 1)]
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
