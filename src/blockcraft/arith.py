"""Exact integer arithmetic helpers: valuations, primes, orders, Moebius.

Everything works on plain Python ints (arbitrary precision); no floating
point, and no randomness.  Primality is a Miller-Rabin test with a fixed
base set, exact below _MR_LIMIT (about 3.3e24), where it costs O(log n)
multiplications; above that limit is_prime raises ValueError rather than
guess, and the CLI refuses such a p, q or ell.  factorize trial-divides by
2 and the odd numbers below 1024 only, then splits what is left with
Pollard's rho in Brent's form, x -> x^2 + c from x = 2 for c = 1, 2, ...,
testing each factor with Miller-Rabin: about n^(1/4) steps for the smallest
prime factor of n left after trial division, where trial division took
sqrt(n).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod


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
    """Primality of n by deterministic Miller-Rabin; ValueError at or above _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the exact primality range (below {_MR_LIMIT})")
    if n < 2:
        return False
    for base in _MR_BASES:
        if n % base == 0:
            return n == base
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


_TRIAL_BOUND = 1024


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n, which has no prime factor below _TRIAL_BOUND.

    Pollard's rho with Brent's cycle finding: the walk y -> y^2 + c mod n
    from y = 2, compared with its value x at the last power of two, for
    c = 1, 2, ... in turn until some walk meets itself mod a factor first.
    """
    for c in range(1, n):
        y, power, found = 2, 1, 1
        while found == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
                found = gcd(x - y, n)
                if found != 1:
                    break
            power *= 2
        if found != n:
            return found
    raise AssertionError(f"no rho walk splits {n}")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p increasing.

    Raises ValueError if a factor at or above _MR_LIMIT is left whose
    primality Miller-Rabin cannot settle exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    exponents: dict[int, int] = {}
    for p in (2, *range(3, _TRIAL_BOUND, 2)):  # an odd composite p divides nothing left
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            exponents[p] = exponents.get(p, 0) + 1
    pending = [n] if n > 1 else []
    while pending:  # every factor here is free of primes below _TRIAL_BOUND
        m = pending.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return tuple(sorted(exponents.items()))


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
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError("q is not a prime power")
    return factors[0][0]
