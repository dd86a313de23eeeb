"""Exact integer arithmetic helpers: valuations, primes, orders, Moebius.

Everything works on plain Python ints (arbitrary precision) and is sized for
desk-scale inputs; no probabilistic methods, no floating point.  Primality
is a Miller-Rabin test with a fixed base set that is exact below about
3.3e24, so it costs O(log n) multiplications there; factorization is still
trial division, O(sqrt n).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod


def nu(n: int, p: int) -> int:
    """p-adic valuation of the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError("p must be at least 2")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def nu_factorial(n: int, p: int) -> int:
    """nu_p(n!) by Legendre's formula, without forming the factorial."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p < 2:
        raise ValueError("p must be at least 2")
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


# Miller-Rabin with the first 13 primes as bases is exact below the smallest
# strong pseudoprime to all of them, 3317044064679887385961981 (about 3.3e24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of n: deterministic Miller-Rabin below _MR_LIMIT, trial division above."""
    if n < 2:
        return False
    for base in _MR_BASES:
        if n % base == 0:
            return n == base
    if n >= _MR_LIMIT:
        f = _MR_BASES[-1] + 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _MR_BASES:
        x = pow(base, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # base witnesses that n is composite
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p increasing."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, increasing."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


def moebius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def multiplicative_order(a: int, m: int) -> int:
    """Order of a modulo m; requires gcd(a, m) = 1.

    The order divides phi(m): start there and divide out each prime r of
    phi(m) while a^(order / r) is still 1 mod m.  The cost is that of
    factoring m and phi(m), not of stepping through the powers of a.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    order = prod((p - 1) * p ** (e - 1) for p, e in factorize(m))
    for r, _ in factorize(order):
        while order % r == 0 and pow(a, order // r, m) == 1:
            order //= r
    return order


def primitive_root(p: int) -> int:
    """Smallest generator of the cyclic group (Z/pZ)^x for a prime p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if p == 2:
        return 1
    prime_factors = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


def prime_power_radical(q: int) -> int:
    """The prime p with q = p^f, or raise if q is not a prime power."""
    if q < 2:
        raise ValueError("q must be at least 2")
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            while q % p == 0:
                q //= p
            if q != 1:
                raise ValueError("q is not a prime power")
            return p
    return q  # q itself is prime
