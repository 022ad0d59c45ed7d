"""Minimum-distance certificates: exhaustive enumeration or information-set search.

certify is the one public search.  Unless search_fits, it refuses the code.
When q^k fits the budget it exhausts the row space (_exhaustive_best).  The
messages of a k-dimensional code are walked in mixed-radix Gray order, so
each step updates the running codeword by a single scalar multiple of one
generator row.  A block of low-order message digits is materialized as a
matrix once, making the inner loop one vectorized sum of the running word
and every block row; this keeps 2^26 codewords in the few-minutes range and
the acceptance-scale instances in seconds.  The block is capped both in rows
and in elements (rows * n), so long codes walk more Gray steps over a
smaller block instead of building matrices of hundreds of megabytes.

Scalar multiples weigh the same, so the walk weighs one word per projective
point: the (q^k - 1)/(q - 1) messages whose leading (highest nonzero) digit
is 1, in the order of the full walk over all q^k - 1 (oracles.full_gray_best,
its test oracle).  The full walk's first lightest word leads with 1, since
c^-1 times a word leading with c comes earlier, so both return the same
(weight, witness).  For q = 2 every word leads with 1 and the two walks are
the same.  The budget still compares q^k.

When q^k exceeds the budget it runs a randomized information-set decoder
(Lee-Brickell, _isd_best): permute columns, row-reduce to a systematic
basis, and enumerate all information patterns of weight <= 2.  The lightest
codeword seen upper-bounds the minimum distance; meeting a proven lower
bound certifies exactness.  Each trial's row reduction is the kernel's: over
GF(2) it runs on the packed rows (gf.rref_gf2), XORing 64 positions per
word, and gives the same reduced rows and pivots as the int32 gf.rref, which
serves q > 2.  The witness's row-space check uses the same kernel.

Both searches keep their best through one step, _lighter: the first lightest
candidate of each batch replaces the best so far only when it is strictly
lighter.  Their codeword arithmetic runs through one of two kernels.  Over
GF(q) with q > 2, codewords are int32 rows of field elements, summed by
gathers from the field's addition table and weighed by count_nonzero.  A
Gray batch, the running word c plus every block row, is weighed without
building it: c + b is 0 exactly where b is -c, so its weight counts the
positions where b differs from -c, one comparison instead of a gather, and
only the lightest sum is built.  Over GF(2), codewords are bit-packed: 64
positions per uint64 word, a sum is an XOR and a weight is a popcount
(np.bitwise_count), which moves 32 times fewer bytes than int32 rows.  The
packing relies on GF(2) having one nonzero scalar and addition being XOR, so
it is binary only; a GF(q) element needs several bits and its sum is no
bitwise operation.  The kernels share the block split (_block_digits), the
Gray digit order and the information-pattern order, so both return the same
(weight, witness); the table kernel is the packed kernel's test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bch import CodeParams, generator_matrix
from .dualtools import BoundReport
from .gf import ScalarField, rref, rref_gf2

DEFAULT_BUDGET = 1 << 26
DEFAULT_TRIALS = 20000
_BLOCK_CAP = 4096  # max rows of the materialized low-digit block
_BLOCK_ELEMS = 1 << 22  # max rows * n of that block; binds only for n > 1024
MAX_SEARCH_ELEMS = 1 << 26  # q k n cap: at most ~13 bytes/element measured, so < 1 GB


@dataclass(frozen=True)
class DistanceCertificate:
    """Bracket [lower, upper] on a code's minimum distance, with evidence.

    codewords_enumerated counts the nonzero codewords the search weighed
    ((q^k - 1)/(q - 1) when exhaustive: one per projective point, as scalar
    multiples weigh the same), trials_run the information sets tried (0
    when exhaustive), and stop_reason says why the search ended:
    "exhausted", "target_met" (a witness reached the lower bound) or
    "trials_done".
    """

    lower: int
    lower_source: str  # "exhaustive", "closed_form_bound", or "cyclic_run_bound"
    upper: int
    witness: tuple[int, ...]
    status: str  # "exact" | "bracketed"
    method: str  # "exhaustive" | "information_set"
    seed: int | None
    codewords_enumerated: int
    trials_run: int
    stop_reason: str  # "exhausted" | "target_met" | "trials_done"


class _Search(NamedTuple):
    """Lightest codeword a search found, and what the search did."""

    weight: int
    witness: np.ndarray
    enumerated: int
    trials_run: int
    stop_reason: str


class _TableWords:
    """Codewords over GF(q) as int32 rows of field elements."""

    def __init__(self, field: ScalarField):
        self.field = field
        self.q = field.q
        self.add_flat = field.add_t.ravel()
        self.mul_t = field.mul_t
        self.nonzero = np.arange(1, field.q, dtype=np.int32)

    def pack(self, rows):
        return rows.astype(np.int32)

    def unpack(self, word):
        return word.copy()

    def add(self, a, b):
        return self.add_flat[a * self.q + b]

    def multiples(self, rows):
        """c * row for c = 1..q-1 and each row, c-major, as one matrix."""
        return self.mul_t[self.nonzero[:, None, None], rows[None]].reshape(
            -1, rows.shape[-1])

    def weights(self, words):
        return np.count_nonzero(words, axis=-1)

    def sum_weights(self, base, words):
        """Weights of base + each word: where a word is not -base, no sum built."""
        return np.count_nonzero(words != self.field.neg_t[base], axis=-1)

    def rref(self, mat):
        """rref's (R, pivots), R trimmed to the rank."""
        R, pivots = rref(mat, self.field)
        return R[:len(pivots)], pivots

    def reduce(self, word, R, pivots):
        """Residual of word after elimination by the reduced rows R."""
        sub_t, mul_t = self.field.sub_t, self.mul_t
        for r, c in enumerate(pivots):
            if word[c]:
                word = sub_t[word, mul_t[int(word[c]), R[r]]]
        return word


class _PackedWords:
    """Codewords over GF(2) as rows of uint64 words, 64 positions per word.

    The padding bits past position n are 0 in every packed row, and XOR
    keeps them 0, so a popcount is a Hamming weight.
    """

    def __init__(self, n: int):
        self.n = n
        self.width = -(-n // 64)

    def pack(self, rows):
        bits = np.zeros((len(rows), 64 * self.width), dtype=np.uint8)
        bits[:, :self.n] = rows != 0
        return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)

    def unpack(self, word):
        bits = np.unpackbits(word.view(np.uint8), bitorder="little")
        return bits[:self.n].astype(np.int32)

    def add(self, a, b):
        return a ^ b

    def multiples(self, rows):
        return rows  # 1 is the only nonzero scalar

    def weights(self, words):
        return np.bitwise_count(words).sum(axis=-1)

    def sum_weights(self, base, words):
        return self.weights(base ^ words)

    def rref(self, mat):
        """rref of mat as packed rows, trimmed to the rank; same pivots."""
        return rref_gf2(self.pack(mat), self.n)

    def reduce(self, word, R, pivots):
        """Residual of word after elimination by the reduced rows R.

        R is reduced, so pivot column c is set in row r alone, and word's
        bit c says whether row r is added: one XOR over the selected rows.
        """
        piv = np.asarray(pivots, dtype=np.uint64)
        hits = ((word[piv // 64] >> (piv % 64)) & 1).astype(bool)
        return word ^ np.bitwise_xor.reduce(R[hits], axis=0)


def _words_for(field: ScalarField, n: int):
    """The codeword kernel for length-n codes over field."""
    return _PackedWords(n) if field.q == 2 else _TableWords(field)


def _lighter(words, cands, best_w: int, base=None):
    """(weight, unpacked word) of the first lightest of base + cands, if lighter than best_w.

    Else None.  So a tie within a batch goes to the first index, and a tie
    across batches to the earlier batch.  base defaults to the zero word;
    a given base is added to the lightest candidate alone.
    """
    weights = words.weights(cands) if base is None else words.sum_weights(base, cands)
    j = int(np.argmin(weights))
    w = int(weights[j])
    if w >= best_w:
        return None
    return w, words.unpack(cands[j] if base is None else words.add(base, cands[j]))


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


def search_fits(q: int, k: int, n: int) -> bool:
    """Whether certify may search a [n, k] code over GF(q): q k n <= MAX_SEARCH_ELEMS.

    Each matrix either engine builds has under q k n elements, but the Gray
    walk's block of at most _BLOCK_ELEMS elements or q rows.
    """
    return q * k * n <= MAX_SEARCH_ELEMS


def _exhaustive_best(gen: np.ndarray, field: ScalarField, words=None) -> _Search:
    """Lightest nonzero codeword; exact.  words defaults to _words_for.

    Weighs the messages whose leading (highest nonzero) digit is 1, one per
    projective point, in the order of the full Gray walk that
    oracles.full_gray_best keeps.  That walk's first lightest word has
    leading digit 1: c^-1 times a word with leading digit c weighs the same
    and comes earlier.  So both return the same (weight, witness).
    """
    k, n = gen.shape
    q = field.q
    if k == 0:
        raise ValueError("empty code: no nonzero codewords")
    words = words or _words_for(field, n)
    rows = words.pack(gen)
    # split rows: low block materialized fully, high rows walked in Gray order
    k_lo = _block_digits(q, k, n)
    block = words.pack(np.zeros((1, n), dtype=np.int32))
    for i in range(k_lo):
        # digit i = 0 keeps the block; digit c > 0 adds c * row i to it
        block = np.concatenate(
            [block, *(words.add(block, m) for m in words.multiples(rows[i:i + 1]))])
    steps = [words.multiples(rows[i:i + 1]) for i in range(k_lo, k)]

    # zero high part: the block rows with leading digit 1 at position i are
    # rows [q^i, 2 q^i).  The block has q^k_lo >= q rows, since
    # q <= MAX_SCALAR_Q < _BLOCK_CAP gives k_lo >= 1.
    best = (n + 1, None)
    for i in range(k_lo):
        best = _lighter(words, block[q**i:2 * q**i], best[0]) or best

    # high digit j leads with 1: the full walk's sweep of the lower digits
    # between digit j's moves 0 -> 1 and 1 -> 2, from the state it has there
    for j in range(k - k_lo):
        # odd q: every lower digit at q - 1; even q: digit j - 1 at q - 1,
        # the rest at 0; every direction inward
        digits = [q - 1 if q % 2 or i == j - 1 else 0 for i in range(j)]
        dirs = [-1 if d else 1 for d in digits]
        c_hi = steps[j][0]
        for i, d in enumerate(digits):
            if d:
                c_hi = words.add(c_hi, steps[i][d - 1])
        while True:
            best = _lighter(words, block, best[0], c_hi) or best
            i = 0
            while i < j:
                nd = digits[i] + dirs[i]
                if 0 <= nd < q:
                    delta = int(field.sub_t[nd, digits[i]])
                    digits[i] = nd
                    c_hi = words.add(c_hi, steps[i][delta - 1])
                    break
                dirs[i] = -dirs[i]
                i += 1
            else:
                break  # digit j would move to 2
    return _Search(*best, (q**k - 1) // (q - 1), 0, "exhausted")


def in_row_space(v: np.ndarray, gen: np.ndarray, field: ScalarField) -> bool:
    """Whether v lies in the row space of gen over GF(q)."""
    words = _words_for(field, gen.shape[1])
    R, piv = words.rref(gen)
    return not words.reduce(words.pack(v[None])[0], R, piv).any()


def _information_patterns(words, rows):
    """The codewords of weight-1 then weight-2 information patterns, in batches.

    rows is a reduced basis.  The first batch is the rows themselves; batch
    i + 1 is rows[i] + c * rows[j] for every j > i and nonzero c, the first
    coefficient fixed to 1 because scalar multiples weigh the same.
    """
    yield rows
    for i in range(len(rows) - 1):
        yield words.add(rows[i], words.multiples(rows[i + 1:]))


def _isd_best(gen: np.ndarray, field: ScalarField, target: int,
              trials: int, seed: int, words=None) -> _Search:
    """Lightest codeword from information-set search; stops at target.

    words defaults to _words_for, whose rref reduces each permuted generator.
    """
    k, n = gen.shape
    if k == 0:
        raise ValueError("empty code: no nonzero codewords")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    words = words or _words_for(field, n)
    rng = np.random.Generator(np.random.PCG64(seed))
    best_w, best_cw = n + 1, None
    seen = 0
    for trial in range(1, trials + 1):
        perm = rng.permutation(n)
        rows, _ = words.rref(gen[:, perm])
        inv = perm.argsort()
        for cands in _information_patterns(words, rows):
            seen += len(cands)
            found = _lighter(words, cands, best_w)
            if found is not None:
                best_w, best_cw = found[0], found[1][inv]
                if best_w <= target:
                    return _Search(best_w, best_cw, seen, trial, "target_met")
    return _Search(best_w, best_cw, seen, trials, "trials_done")


def certify(params: CodeParams, bounds: BoundReport,
            budget: int = DEFAULT_BUDGET, trials: int = DEFAULT_TRIALS,
            seed: int = 0) -> DistanceCertificate:
    """Distance certificate for the code described by params (the dual).

    Exhausts the row space when q^k <= budget (status "exact"); otherwise
    brackets between the best closed-form/BCH-run lower bound and the best
    information-set witness.  The witness is re-verified for membership.
    Raises ValueError, before any matrix is built, unless search_fits.
    """
    field = params.generator.field
    q, k, n = field.q, params.k, params.n
    if not search_fits(q, k, n):
        raise ValueError(f"q*k*n = {q * k * n} exceeds the search cap {MAX_SEARCH_ELEMS}")
    gen = generator_matrix(params)
    closed = bounds.lower_bound_closed
    direct = bounds.lower_bound_direct
    if closed is not None and closed >= direct:
        lower, source = closed, "closed_form_bound"
    else:
        lower, source = direct, "cyclic_run_bound"
    if q**k <= budget:
        found = _exhaustive_best(gen, field)
        lower, source, method, used_seed = found.weight, "exhaustive", "exhaustive", None
    else:
        found = _isd_best(gen, field, lower, trials, seed)
        method, used_seed = "information_set", seed
    upper, cw = found.weight, found.witness
    if not in_row_space(cw, gen, field):
        raise AssertionError("witness fails row-space membership check")
    if int(np.count_nonzero(cw)) != upper:
        raise AssertionError("witness weight disagrees with reported upper")
    if upper < lower:
        raise AssertionError(
            f"upper {upper} < lower {lower}: a bound or the oracle is wrong")
    return DistanceCertificate(
        lower=lower, lower_source=source, upper=upper,
        witness=tuple(cw.tolist()),
        status="exact" if lower == upper else "bracketed",
        method=method, seed=used_seed,
        codewords_enumerated=found.enumerated, trials_run=found.trials_run,
        stop_reason=found.stop_reason)
