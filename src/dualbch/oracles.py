"""Frozen slow routes, kept as oracles for the package's fast ones.

dualtools writes each piecewise bound once, as a table of (lo, hi, value)
cases per family, and reads every per-delta value off it.  A slip in a
table would then agree with itself everywhere, so the statements here are
written apart from the tables, as per-delta case loops, and never change
with them.  The tests and scripts/bound_survey.py compare the tables
against them.

full_gray_best is the Gray walk over all q^k - 1 nonzero messages.
mindist._exhaustive_best walks one word per projective point of it and
must return its (weight, witness).  isd_best_built_sums is the
information-set search that builds every weight-2 sum before weighing it;
mindist._isd_best weighs them unbuilt and must return the same search.
dual_generator_by_division is the long division of x^n - 1 by g, which
bch._dual_generator replaces by the linear recurrence of g.

The package itself never imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from .bch import BchSpec
from .dualtools import PriorBound
from .gf import Poly, ScalarField
from .mindist import _block_digits, _lighter, _Search, _TableWords, _words_for


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


def dual_generator_by_division(g: Poly, n: int) -> Poly:
    """The monic reciprocal of (x^n - 1)/g by long division, frozen.

    Raises ValueError, as bch._dual_generator does, when g leaves a
    remainder.
    """
    h, rem = divmod(Poly.x_pow_minus_one(n, g.field), g)
    if not rem.is_zero:
        raise ValueError("the generator of C_delta does not divide x^n - 1")
    return h.reciprocal().monic()


def full_gray_best(gen: np.ndarray, field: ScalarField, words=None) -> _Search:
    """Lightest nonzero codeword over all q^k - 1 messages, frozen.

    The block of the low _block_digits message digits is materialized once;
    the high digits are walked in reflected Gray order, each pattern once,
    the all-zero one first.  The first lightest word in that order is the
    witness, kept through mindist._lighter.
    """
    k, n = gen.shape
    q = field.q
    if k == 0:
        raise ValueError("empty code: no nonzero codewords")
    words = words or _words_for(field, n)
    rows = words.pack(gen)
    k_lo = _block_digits(q, k, n)
    block = words.pack(np.zeros((1, n), dtype=np.int32))
    for i in range(k_lo):
        # digit i = 0 keeps the block; digit c > 0 adds c * row i to it
        block = np.concatenate(
            [block, *(words.add(block, m) for m in words.multiples(rows[i:i + 1]))])
    k_hi = k - k_lo
    steps = [words.multiples(rows[i:i + 1]) for i in range(k_lo, k)]

    # zero high part: skip the all-zero low word (block row 0)
    best = _lighter(words, block[0], block[1:], n + 1)

    digits = [0] * k_hi
    dirs = [1] * k_hi
    c_hi = np.zeros_like(block[0])
    while True:
        i = 0
        while i < k_hi:
            nd = digits[i] + dirs[i]
            if 0 <= nd < q:
                delta = int(field.sub_t[nd, digits[i]])
                digits[i] = nd
                c_hi = words.add(c_hi, steps[i][delta - 1])
                break
            dirs[i] = -dirs[i]
            i += 1
        else:
            break  # every high digit pattern visited
        best = _lighter(words, block[0], words.add(c_hi, block), best[0]) or best
    return _Search(*best, q**k - 1, 0, "exhausted")


def isd_best_built_sums(gen: np.ndarray, field: ScalarField, target: int,
                        trials: int, seed: int) -> _Search:
    """Lightest codeword from information-set search, frozen; stops at target.

    Each trial row-reduces the permuted generator with the table kernel,
    builds the reduced rows and then every weight-2 sum rows[i] + c * rows[j]
    (j > i, c-major), and weighs each batch by count_nonzero: its first
    lightest word replaces the best so far only when strictly lighter.
    """
    k, n = gen.shape
    if k == 0:
        raise ValueError("empty code: no nonzero codewords")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    words = _TableWords(field)
    rng = np.random.Generator(np.random.PCG64(seed))
    best_w, best_cw = n + 1, None
    seen = 0
    for trial in range(1, trials + 1):
        perm = rng.permutation(n)
        rows, _ = words.rref(gen[:, perm])
        inv = perm.argsort()
        batches = [rows, *(words.add(rows[i], words.multiples(rows[i + 1:]))
                           for i in range(len(rows) - 1))]
        for cands in batches:
            seen += len(cands)
            weights = np.count_nonzero(cands, axis=1)
            j = int(np.argmin(weights))
            if weights[j] < best_w:
                best_w, best_cw = int(weights[j]), cands[j][inv]
                if best_w <= target:
                    return _Search(best_w, best_cw, seen, trial, "target_met")
    return _Search(best_w, best_cw, seen, trials, "trials_done")
