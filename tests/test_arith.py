import time
from itertools import takewhile

from blockcraft.arith import is_prime
from blockcraft.cli import main


def oracle_primes_below(limit):
    """Trial division of each n by the primes up to its square root."""
    primes = []
    for n in range(2, limit):
        if all(n % f for f in takewhile(lambda f: f * f <= n, primes)):
            primes.append(n)
    return primes


def test_is_prime_matches_trial_division_below_200000():
    primes = set(oracle_primes_below(200_000))
    assert [n for n in range(-5, 200_000) if is_prime(n)] == sorted(primes)


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # Strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 37.
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    assert is_prime(1000000007)
    assert not is_prime((2**31 - 1) * (2**41 - 1))  # 2**41 - 1 = 13367 * 164511353
    # Above the Miller-Rabin limit the test falls back to trial division.
    assert not is_prime(43**16)


def test_cli_sym_blocks_at_a_mersenne_prime_ends_quickly(capsys):
    start = time.perf_counter()
    assert main(["sym", "blocks", "--n", "5", "--p", str(2**61 - 1)]) == 0
    assert time.perf_counter() - start < 2
    assert "members=" in capsys.readouterr().out
