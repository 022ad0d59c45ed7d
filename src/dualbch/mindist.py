"""Minimum-distance oracles: exhaustive enumeration and information-set search.

exhaustive_min_weight walks all q^k messages of a k-dimensional code in
mixed-radix Gray order, so each step updates the running codeword by a
single scalar multiple of one generator row.  A block of low-order message
digits is materialized as a matrix once, making the inner loop a vectorized
table gather; this keeps 2^26 codewords in the few-minutes range and the
acceptance-scale instances in seconds.  The block is capped both in rows
and in elements (rows * n), so long codes walk more Gray steps over a
smaller block instead of gathering matrices of hundreds of megabytes.

low_weight_search is a randomized information-set decoder: permute columns,
row-reduce to a systematic basis, and enumerate all information patterns of
weight <= 2.  It returns the lightest codeword seen, which upper-bounds the
minimum distance; meeting a proven lower bound certifies exactness.

certify combines both with the closed-form/BCH lower bounds into a
DistanceCertificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import CodeParams, generator_matrix
from .dualtools import BoundReport
from .gf import ScalarField, rref

DEFAULT_BUDGET = 1 << 26
DEFAULT_TRIALS = 20000
_BLOCK_CAP = 4096  # max rows of the materialized low-digit block
_BLOCK_ELEMS = 1 << 22  # max rows * n of that block; binds only for n > 1024


class BudgetExceeded(RuntimeError):
    """q^k exceeds the enumeration budget; use certification instead."""


@dataclass(frozen=True)
class DistanceCertificate:
    """Bracket [lower, upper] on a code's minimum distance, with evidence."""

    lower: int
    lower_source: str  # "exhaustive", "closed_form_bound", or "cyclic_run_bound"
    upper: int
    witness: tuple[int, ...]
    status: str  # "exact" | "bracketed"
    method: str  # "exhaustive" | "information_set"
    seed: int | None


def _weight_min_update(field, c_hi, block, best):
    """Min weight over {c_hi + b : b in block}, excluding nothing."""
    idx = c_hi.astype(np.int32) * field.q + block
    words = field.add_t.ravel()[idx]
    weights = np.count_nonzero(words, axis=1)
    j = int(np.argmin(weights))
    w = int(weights[j])
    if w < best[0]:
        best[0] = w
        best[1] = words[j].copy()
    return best


def _block_digits(q: int, k: int, n: int) -> int:
    """How many low message digits the materialized block covers.

    The block has q^k_lo rows of length n: at most _BLOCK_CAP rows and
    _BLOCK_ELEMS elements, but never fewer than q rows while q <= _BLOCK_CAP.
    """
    k_lo = 0
    while k_lo < k and q ** (k_lo + 1) <= _BLOCK_CAP and (
            k_lo == 0 or q ** (k_lo + 1) * n <= _BLOCK_ELEMS):
        k_lo += 1
    return k_lo


def _exhaustive_best(gen: np.ndarray, field: ScalarField, budget: int):
    """(min_weight, witness) over all nonzero codewords; exact."""
    k, n = gen.shape
    q = field.q
    if k == 0:
        raise ValueError("empty code: no nonzero codewords")
    if q**k > budget:
        raise BudgetExceeded(f"q^k = {q**k} exceeds budget {budget}")
    gen = gen.astype(np.int32)
    # split rows: low block materialized fully, high rows walked in Gray order
    k_lo = _block_digits(q, k, n)
    block = np.zeros((1, n), dtype=np.int32)
    for i in range(k_lo):
        scaled = [field.mul_t[c, gen[i]] for c in range(q)]
        block = np.concatenate([field.add_t[block, row[None, :]] for row in scaled])
    k_hi = k - k_lo
    hi_rows = gen[k_lo:]

    best = [n + 1, np.zeros(n, dtype=np.int32)]
    # zero high part: exclude the all-zero low word (block row 0)
    if block.shape[0] > 1:
        weights = np.count_nonzero(block[1:], axis=1)
        j = int(np.argmin(weights))
        if int(weights[j]) < best[0]:
            best = [int(weights[j]), block[1 + j].copy()]

    if k_hi == 0:
        return best[0], best[1]

    digits = [0] * k_hi
    dirs = [1] * k_hi
    nonzero_digits = 0
    c_hi = np.zeros(n, dtype=np.int32)
    while True:
        i = 0
        while i < k_hi:
            nd = digits[i] + dirs[i]
            if 0 <= nd < q:
                old = digits[i]
                digits[i] = nd
                nonzero_digits += (nd != 0) - (old != 0)
                delta = int(field.sub_t[nd, old])
                c_hi = field.add_t[c_hi, field.mul_t[delta, hi_rows[i]]]
                break
            dirs[i] = -dirs[i]
            i += 1
        else:
            return best[0], best[1]
        if nonzero_digits == 0:
            continue  # only the zero-high slice, already handled
        best = _weight_min_update(field, c_hi, block, best)


def exhaustive_min_weight(gen: np.ndarray, field: ScalarField,
                          budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming weight of the row space of gen.

    Enumerates all q^k - 1 nonzero codewords; raises BudgetExceeded when
    q^k > budget and ValueError for a zero-dimensional code.
    """
    w, _ = _exhaustive_best(gen, field, budget)
    return w


def _reduce_against(v, R, pivots, field):
    """Residual of v after elimination by the reduced rows R."""
    v = v.astype(np.int32).copy()
    for r, c in enumerate(pivots):
        if v[c]:
            v = field.sub_t[v, field.mul_t[int(v[c]), R[r]]]
    return v


def in_row_space(v: np.ndarray, gen: np.ndarray, field: ScalarField) -> bool:
    """Whether v lies in the row space of gen over GF(q)."""
    R, piv = rref(gen, field)
    return not _reduce_against(v, R[:len(piv)], piv, field).any()


def _isd_best(gen: np.ndarray, field: ScalarField, target: int,
              trials: int, seed: int):
    """(best_weight, witness) from information-set search; stops at target."""
    k, n = gen.shape
    q = field.q
    if k == 0:
        raise ValueError("empty code: no nonzero codewords")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    best_w = n + 1
    best_cw = None
    nonzero = np.arange(1, q, dtype=np.int32)
    for _ in range(trials):
        perm = rng.permutation(n)
        R, piv = rref(gen[:, perm], field)
        r = len(piv)
        rows = R[:r]
        # weight-1 information patterns: the reduced rows themselves
        weights = np.count_nonzero(rows, axis=1)
        j = int(np.argmin(weights))
        if int(weights[j]) < best_w:
            best_w = int(weights[j])
            best_cw = rows[j][perm.argsort()].copy()
            if best_w <= target:
                return best_w, best_cw
        # weight-2 patterns: row_i + c*row_j, first coefficient fixed to 1
        for i in range(r - 1):
            combos = field.add_t[rows[i][None, None, :],
                                 field.mul_t[nonzero[:, None, None],
                                             rows[i + 1:][None, :, :]]]
            combos = combos.reshape(-1, n)
            weights = np.count_nonzero(combos, axis=1)
            j = int(np.argmin(weights))
            if int(weights[j]) < best_w:
                best_w = int(weights[j])
                best_cw = combos[j][perm.argsort()].copy()
                if best_w <= target:
                    return best_w, best_cw
    return best_w, best_cw


def low_weight_search(gen: np.ndarray, field: ScalarField, target: int,
                      trials: int = DEFAULT_TRIALS, seed: int = 0):
    """Find a codeword of weight <= target, or None.

    Deterministic for a given seed.  The search enumerates weight-<=2
    information patterns over `trials` random information sets and stops as
    soon as the target is met.
    """
    w, cw = _isd_best(gen, field, target, trials, seed)
    return cw if w <= target else None


def certify(params: CodeParams, bounds: BoundReport,
            budget: int = DEFAULT_BUDGET, trials: int = DEFAULT_TRIALS,
            seed: int = 0) -> DistanceCertificate:
    """Distance certificate for the code described by params (the dual).

    Exhausts the row space when q^k <= budget (status "exact"); otherwise
    brackets between the best closed-form/BCH-run lower bound and the best
    information-set witness.  The witness is re-verified for membership.
    """
    field = params.generator.field
    gen = generator_matrix(params)
    closed = bounds.lower_bound_closed
    direct = bounds.lower_bound_direct
    if closed is not None and closed >= direct:
        lower, source = closed, "closed_form_bound"
    else:
        lower, source = direct, "cyclic_run_bound"
    try:
        w, cw = _exhaustive_best(gen, field, budget)
        lower, source, upper, method = w, "exhaustive", w, "exhaustive"
        used_seed = None
    except BudgetExceeded:
        w, cw = _isd_best(gen, field, lower, trials, seed)
        upper, method, used_seed = w, "information_set", seed
    if not in_row_space(cw, gen, field):
        raise AssertionError("witness fails row-space membership check")
    if int(np.count_nonzero(cw)) != upper:
        raise AssertionError("witness weight disagrees with reported upper")
    if upper < lower:
        raise AssertionError(
            f"upper {upper} < lower {lower}: a bound or the oracle is wrong")
    return DistanceCertificate(
        lower=lower, lower_source=source, upper=upper,
        witness=tuple(int(c) for c in cw),
        status="exact" if lower == upper else "bracketed",
        method=method, seed=used_seed)
