"""Exact integer number theory: primality, perfect powers and factoring.

The codes need little of it: q must be a prime power, field_new needs the
primes of q^k - 1 < 2^63, and coset tables need ord_n(q) for n <= 2^24.

- is_prime: trial division by the primes below 2^12, then strong
  Miller-Rabin to the first 13 prime bases, which decides every n below
  3.317e24 (Sorenson-Webster, 2015).  Above that, the strong
  Baillie-PSW test: a strong base-2 test and a strong Lucas test with
  Selfridge's parameters.  No composite is known to pass it.
- perfect_power: n = b^e with e largest, from exact integer roots; trial
  division narrows the exponents to try.
- factorize: trial division, then Pollard-Brent rho on what is left.
"""

from __future__ import annotations

import math


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_SMALL_PRIMES = _primes_below(1 << 12)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # the least strong pseudoprime to all 13


def _strong_probable_prime(n: int, a: int) -> bool:
    """The strong (Miller-Rabin) test of odd n > 2 to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of odd n, not a square, with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes if U_d = 0 or
    V_{d 2^r} = 0 mod n for some r < s.
    """
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1

    def half(x):  # x / 2 mod odd n
        return (x + n if x & 1 else x) >> 1

    # left-to-right binary ladder from U_1 = 1, V_1 = P = 1, with
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, then the step k -> k + 1:
    # U_k+1 = (P U_k + V_k)/2, V_k+1 = (D U_k + P V_k)/2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V) % n, half((D * U + V) % n) % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime: exact below 3.317e24, strong Baillie-PSW above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    if math.isqrt(n) ** 2 == n:
        return False
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    b = n.bit_length()
    if b <= k:
        return 1
    # a float estimate of log2(n)/k, pushed up by far more than its error so
    # that x starts above the root; Newton's step then falls to it
    shift = max(b - 64, 0)
    e = (math.log2(n >> shift) + shift) / k + 1e-9
    t = max(int(e) - 52, 0)
    x = (int(2.0 ** (e - t)) + 1) << t
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_power(n: int) -> tuple[int, int]:
    """(b, e) with n = b^e and e largest, for n >= 2; e = 1 if n is no power.

    The exponents of n are the divisors of e, so e is the product of the
    primes p that can be taken out while n is a p-th power.  Trial division
    bounds the candidates: the multiplicity of the least prime factor of n
    is a multiple of e, and with no prime below 2^12 dividing n, b > 2^12
    and e < bits(n)/12.
    """
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n, 1  # n is prime
        if n % p == 0:
            mult, rest = 0, n
            while rest % p == 0:  # divide out p^(2^j), j largest, at each step
                power, k = p, 1
                while rest % (power * power) == 0:
                    power, k = power * power, 2 * k
                mult, rest = mult + k, rest // power
            candidates = factorize(mult)
            break
    else:
        candidates = _primes_below(n.bit_length() // 12 + 1)
    e = 1
    for p in candidates:
        while n.bit_length() > p and (r := iroot(n, p)) ** p == n:
            n, e = r, e * p
    return n, e


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n, not a prime power."""
    for c in range(1, n):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step again one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no factor of {n} found")  # unreachable


def factorize(n: int) -> dict[int, int]:
    """The prime factorisation {p: e} of n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, mult = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + mult
            continue
        b, e = perfect_power(m)
        if e > 1:
            stack.append((b, mult * e))
            continue
        d = _pollard_brent(m)
        stack += [(d, mult), (m // d, mult)]
    return dict(sorted(factors.items()))
