import json
import time
from itertools import takewhile

import pytest

from blockcraft.arith import _MR_LIMIT, factorize, is_prime, prime_power_radical
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
    # At and above the Miller-Rabin limit there is no exact answer to give.
    for n in (_MR_LIMIT, 43**16):
        with pytest.raises(ValueError):
            is_prime(n)


def test_cli_sym_blocks_at_a_mersenne_prime_ends_quickly(capsys):
    start = time.perf_counter()
    assert main(["sym", "blocks", "--n", "5", "--p", str(2**61 - 1)]) == 0
    assert time.perf_counter() - start < 2
    assert "members=" in capsys.readouterr().out


def oracle_factorize(n):
    """Trial division by every f up to sqrt(n)."""
    out = []
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factorize_matches_trial_division_up_to_100000():
    for n in range(1, 100_001):
        assert factorize.__wrapped__(n) == oracle_factorize(n), n  # unmemoized


def test_factorize_splits_large_factors_quickly():
    cases = {
        2**64 + 1: ((274177, 1), (67280421310721, 1)),
        (2**31 - 1) * (2**41 - 1): ((13367, 1), (164511353, 1), (2**31 - 1, 1)),
        1000003**2 * 1000033: ((1000003, 2), (1000033, 1)),
        # two 41-bit primes: the largest smallest factor below the limit, near enough
        1099511627791 * 1099511627803: ((1099511627791, 1), (1099511627803, 1)),
        2**61 - 1: ((2**61 - 1, 1),),
    }
    start = time.perf_counter()
    for n, expected in cases.items():
        assert factorize(n) == expected
    assert time.perf_counter() - start < 5
    with pytest.raises(ValueError):
        factorize(1000000007**3)  # the cofactor is beyond the exact primality range


def test_prime_power_radical_reads_the_factorization():
    assert prime_power_radical(1000003**3) == 1000003
    assert prime_power_radical(2**61 - 1) == 2**61 - 1
    for q in (1, 6, 1000003 * 1000033):
        with pytest.raises(ValueError):
            prime_power_radical(q)


@pytest.mark.parametrize(
    "argv",
    [
        ["gl", "mckay", "--n", "2", "--q", "2", "--ell", "1000000000000000003"],
        ["gl", "degrees", "--n", "1", "--q", "1000000000000000003"],
    ],
)
def test_gl_cells_at_an_18_digit_prime_end_quickly(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"{' '.join(argv)} took {elapsed:.1f}s (budget 5s)"
    assert "[PASS]" in capsys.readouterr().out


BEYOND = 10000000000000000000000013  # a prime above _MR_LIMIT


def test_a_prime_beyond_the_exact_range_is_one_error_line(capsys):
    start = time.perf_counter()
    assert main(["gl", "mckay", "--n", "1", "--q", "2", "--ell", str(BEYOND)]) == 1
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ell={BEYOND} is not below {_MR_LIMIT}, where primality is exact\n"


def test_a_prime_beyond_the_exact_range_is_a_sweep_skip(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    cells = [{"check": "sym_blocks", "n": 5, "p": BEYOND}, {"check": "gl_degrees", "n": 1, "q": BEYOND}]
    path.write_text(json.dumps({"cells": cells}))
    assert main(["sweep", "--config", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"skip gl_degrees n=1 q={BEYOND}: q={BEYOND} is not below {_MR_LIMIT}, where primality is exact",
        f"skip sym_blocks n=5 p={BEYOND}: p={BEYOND} is not below {_MR_LIMIT}, where primality is exact",
    ]
