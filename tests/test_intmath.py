"""Exact number theory against sympy, which the tests keep as its oracle.

The package itself never imports sympy: the last test checks that in a
fresh interpreter.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint, integer_nthroot, isprime, n_order, nextprime
from sympy import perfect_power as sympy_perfect_power
from sympy.ntheory.primetest import is_strong_lucas_prp, mr

from dualbch.cyclotomic import MAX_N, multiplicative_order
from dualbch.intmath import (
    _MR_BASES,
    _MR_EXACT_BELOW,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    factorize,
    iroot,
    is_prime,
    perfect_power,
)

# a Carmichael number; the least strong pseudoprimes to base 2, to the
# bases 2..7, to the first 9, 12 and 13 prime bases; the first prime above
# 10^30, which the strong Baillie-PSW test decides
HARD_CASES = [561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461,
              _MR_EXACT_BELOW, 10**30 + 57]


class TestIsPrime:
    @pytest.mark.parametrize("n", HARD_CASES)
    def test_hard_cases(self, n):
        assert is_prime(n) == isprime(n)

    def test_pseudoprimes_pass_the_smaller_base_sets(self):
        # each is a strong pseudoprime to the bases of the bound below it, so
        # only more bases, or past the last bound BPSW, refuse it
        for n, count in zip(HARD_CASES[1:6], (1, 4, 9, 12, 13)):
            assert all(_strong_probable_prime(n, a) for a in _MR_BASES[:count])
            assert not is_prime(n)

    def test_matches_sympy_below_100000(self):
        assert [n for n in range(-2, 100000) if is_prime(n)] == \
            [n for n in range(-2, 100000) if isprime(n)]

    @given(st.integers(0, 2**120))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, n):
        assert is_prime(n) == isprime(n)

    @given(st.integers(_MR_EXACT_BELOW, 2**160))
    @settings(max_examples=40, deadline=None)
    def test_bpsw_range(self, n):
        # a prime above the 13-base bound, a semiprime with no small factor,
        # and the square of a prime, which the Lucas test must not see
        p, r = nextprime(n), nextprime(n + 10**6)
        assert is_prime(p) and isprime(p)
        assert not is_prime(p * r) and not isprime(p * r)
        assert not is_prime(p * p)

    def test_strong_tests_match_sympy(self):
        odd = range(5, 30000, 2)
        assert all(_strong_probable_prime(n, a) == mr(n, [a])
                   for n in odd for a in (2, 3) if n > a)
        # 5459, 5777, 10877, ... are strong Lucas pseudoprimes
        assert [n for n in odd if math.isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)] \
            == [n for n in odd if math.isqrt(n) ** 2 != n and is_strong_lucas_prp(n)]


class TestPerfectPower:
    @given(st.integers(0, 2**3000), st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_iroot_matches_sympy(self, n, k):
        assert iroot(n, k) == integer_nthroot(n, k)[0]

    @given(st.integers(2, 10**12), st.integers(1, 40), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, b, e, c):
        n = b**e * c
        assert perfect_power(n) == (sympy_perfect_power(n) or (n, 1))


class TestFactorize:
    @pytest.mark.parametrize("n", [2**62 - 1, 3**39 - 1, 7**22 - 1, 1, 2, 4096**2 - 1,
                                   4099**2, 4099 * 4111 * 4127, 2147483647**2])
    def test_named(self, n):
        assert factorize(n) == factorint(n)

    @given(st.integers(1, 2**63 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_below_2_pow_63(self, n):
        assert factorize(n) == factorint(n)

    @given(st.integers(2**20, 2**31), st.integers(2**20, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_two_large_primes(self, a, b):
        # rho has to split these: no factor is below the trial bound
        n = nextprime(a) * nextprime(b)
        assert factorize(n) == factorint(n)


class TestMultiplicativeOrder:
    def test_small_moduli_exhaustive(self):
        for n in range(2, 200):
            for q in range(0, 2 * n):
                if math.gcd(q, n) == 1:
                    assert multiplicative_order(q, n) == n_order(q, n), (q, n)

    @given(st.integers(2, MAX_N), st.integers(0, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, n, q):
        assume(math.gcd(q, n) == 1)
        assert multiplicative_order(q, n) == n_order(q, n)

    @pytest.mark.parametrize("q,n", [(2, 4), (6, 9), (10, 15), (0, 7), (MAX_N, MAX_N)])
    def test_not_a_unit_raises(self, q, n):
        with pytest.raises(ValueError, match="is not a unit"):
            multiplicative_order(q, n)

    def test_modulus_one(self):
        assert [multiplicative_order(q, 1) for q in (0, 1, 2, 10**9)] == [1, 1, 1, 1]


def test_package_runs_without_sympy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, dualbch.cli; assert 'sympy' not in sys.modules, 'sympy was imported'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
