import math
import sys
import time
import tracemalloc
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from blockcraft.arith import is_prime, nu
from blockcraft.partitions import (
    CoreQuotient,
    _beta_bits,
    _core_counts,
    _partition_of_bits,
    _rim_hooks,
    conjugate,
    core_census,
    count_partitions_with_core,
    d_core,
    d_core_and_quotient,
    enumerate_partitions,
    hook_lengths,
    hook_valuation,
    is_core,
    mn_character_value,
    partition_count,
    partition_tuple_count,
    partitions_by_core,
    validate_partition,
    valuation_census,
)
from blockcraft import partitions, sym_chars
from blockcraft.errors import CrossCheckError
from blockcraft.sym_chars import build_table, column_orthogonality_holds


# ---------------------------------------------------------------------------
# Independent oracles.  These deliberately avoid the bitmask abacus route
# used by the library: partition counts come from Euler's pentagonal
# recurrence, rim hooks are removed directly on the Young diagram, and the
# bead oracles use tuple beta-sets of their own.
# ---------------------------------------------------------------------------

def beta_tuple(lam, beads):
    """The beta-numbers lam_i + beads - 1 - i of lam padded with zeros, strictly decreasing."""
    return tuple(part + beads - 1 - i for i, part in enumerate(lam + (0,) * (beads - len(lam))))


def from_beta_tuple(beta):
    """The partition of a strictly decreasing beta-set: bead less the beads below, zeros dropped."""
    return tuple(part for part in (val - (len(beta) - 1 - i) for i, val in enumerate(beta)) if part)


def oracle_partition_count(n):
    counts = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            counts[m] += sign * counts[m - g1]
            if g2 <= m:
                counts[m] += sign * counts[m - g2]
            k += 1
    return counts[n]


def oracle_box_hooks(lam):
    """(i, j, hook length) for every box, 0-indexed, straight from arm+leg+1."""
    out = []
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - (j + 1)
            leg = sum(1 for k in range(i + 1, len(lam)) if lam[k] >= j + 1)
            out.append((i, j, arm + leg + 1))
    return out


def oracle_remove_rim_hook(lam, i, j):
    """Remove the rim hook anchored at box (i, j) by the row-shift rule."""
    m = max(k for k in range(i, len(lam)) if lam[k] >= j + 1)
    new = list(lam)
    for k in range(i, m):
        new[k] = lam[k + 1] - 1
    new[m] = j
    return tuple(p for p in new if p > 0)


def oracle_all_cores(lam, d):
    """Every partition reachable by exhaustively removing rim d-hooks."""
    hooks = [(i, j) for i, j, h in oracle_box_hooks(lam) if h == d]
    if not hooks:
        return {lam}
    result = set()
    for i, j in hooks:
        result |= oracle_all_cores(oracle_remove_rim_hook(lam, i, j), d)
    return result


def oracle_conjugate(lam):
    """Transpose by counting, for each column, the parts that reach it."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def oracle_hook_lengths(lam):
    """Sorted hook multiset from a double loop over the boxes."""
    conj = oracle_conjugate(lam)
    out = []
    for i, row in enumerate(lam):
        for j in range(row):
            out.append(row - j + conj[j] - i - 1)
    out.sort(reverse=True)
    return tuple(out)


def oracle_rim_hook_removals(lam, length):
    """(partition, leg) pairs by moving one bead of a tuple beta-set down by length."""
    beta = beta_tuple(lam, len(lam))
    present = set(beta)
    out = []
    for idx, pos in enumerate(beta):
        target = pos - length
        if target < 0 or target in present:
            continue
        new_beta = tuple(
            sorted((target if k == idx else val for k, val in enumerate(beta)), reverse=True)
        )
        leg = sum(1 for val in beta if target < val < pos)
        out.append((from_beta_tuple(new_beta), leg))
    return tuple(out)


def oracle_from_core_and_quotient(core, quotient, d):
    """Reinsert a d-quotient onto the abacus of a d-core; inverse of d_core_and_quotient."""
    assert len(quotient) == d and is_core(core, d)
    weight = sum(sum(mu) for mu in quotient)
    rows = max(1, len(core))
    beads = d * ((rows + d - 1) // d) + d * weight
    counts = [0] * d
    for pos in beta_tuple(core, beads):
        counts[pos % d] += 1
    positions = [r + d * level for r in range(d) for level in beta_tuple(quotient[r], counts[r])]
    return from_beta_tuple(tuple(sorted(positions, reverse=True)))


def mask_rim_hook_removals(lam, length):
    """(partition, leg) pairs from the library's mask engine, partitions._rim_hooks."""
    validate_partition(lam)
    if length < 1:
        raise ValueError("hook length must be positive")
    out = []
    for moved, leg in _rim_hooks(_beta_bits(lam), length):
        out.append((_partition_of_bits(moved), leg))
    return tuple(out)


def oracle_hook_valuation(lam, p):
    """nu_p of the whole hook product, from the double-loop hook oracle."""
    return nu(math.prod(oracle_hook_lengths(lam)), p)


def oracle_groups_by_core(n, d):
    """The former partitions_by_core: the core of each partition off its full abacus."""
    groups = {}
    for lam in enumerate_partitions(n):
        counts = Counter(pos % d for pos in beta_tuple(lam, d * -(-max(1, len(lam)) // d)))
        positions = (r + d * k for r in range(d) for k in range(counts[r]))
        core = from_beta_tuple(tuple(sorted(positions, reverse=True)))
        groups.setdefault(core, []).append(lam)
    return [(core, tuple(members)) for core, members in groups.items()]


@cache
def oracle_mn(lam, rho):
    """Murnaghan-Nakayama recursion on partition tuples, rho sorted decreasing."""
    if not rho:
        return 1
    total = 0
    for mu, leg in oracle_rim_hook_removals(lam, rho[0]):
        term = oracle_mn(mu, rho[1:])
        total += -term if leg % 2 else term
    return total


def centralizer_order(rho):
    mult = Counter(rho)
    z = 1
    for i, m in mult.items():
        z *= i**m * math.factorial(m)
    return z


@st.composite
def partitions_st(draw, max_n=16):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_partitions_trivial_and_order():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_enumerate_partitions_counts_match_pentagonal_oracle():
    for n in range(0, 26):
        parts = enumerate_partitions(n)
        assert len(parts) == oracle_partition_count(n)
        assert len(set(parts)) == len(parts)
        assert list(parts) == sorted(parts, reverse=True)
        assert all(sum(lam) == n for lam in parts)


def test_enumerate_partitions_30():
    assert len(enumerate_partitions(30)) == 5604
    assert oracle_partition_count(30) == 5604


def test_partition_count_agrees_with_oracle():
    for n in range(0, 60):
        assert partition_count(n) == oracle_partition_count(n)
    assert partition_count(-1) == 0


def test_enumerate_partitions_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------

def test_hook_lengths_examples():
    assert hook_lengths((5,)) == (5, 4, 3, 2, 1)
    assert hook_lengths((2, 1)) == (3, 1, 1)
    assert hook_lengths((3, 1)) == (4, 2, 1, 1)
    assert hook_lengths(()) == ()


@given(partitions_st())
def test_hook_lengths_match_box_oracle(lam):
    assert sorted(hook_lengths(lam)) == sorted(h for _, _, h in oracle_box_hooks(lam))


@given(partitions_st())
def test_hook_multiset_invariants(lam):
    hooks = hook_lengths(lam)
    assert len(hooks) == sum(lam)
    if lam:
        assert max(hooks) == lam[0] + len(lam) - 1


@given(partitions_st())
def test_hook_product_divides_factorial(lam):
    prod = math.prod(hook_lengths(lam))
    assert math.factorial(sum(lam)) % prod == 0


def test_hook_kernel_matches_loop_oracles():
    for n in range(0, 15):
        for lam in enumerate_partitions(n):
            assert conjugate(lam) == oracle_conjugate(lam)
            assert hook_lengths(lam) == oracle_hook_lengths(lam)


def test_hook_valuation_matches_per_box_oracle():
    for n in range(0, 17):
        for lam in enumerate_partitions(n):
            for p in (2, 3, 5, 7):
                assert hook_valuation(lam, p) == oracle_hook_valuation(lam, p), (lam, p)


def test_hook_valuation_examples_and_guards():
    assert hook_valuation((3, 1), 2) == 3  # hooks 4, 2, 1, 1
    assert hook_valuation((5,), 5) == 1
    assert hook_valuation((5,), 7) == 0
    assert hook_valuation((), 2) == 0
    assert hook_valuation((40, 1), 2) == oracle_hook_valuation((40, 1), 2)  # a wide row
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            hook_valuation((2, 1), p)
        with pytest.raises(ValueError):
            hook_valuation((), p)


# ---------------------------------------------------------------------------
# Beta-sets, cores, quotients
# ---------------------------------------------------------------------------

def test_partition_of_bits_roundtrip():
    # Extra beads below the lowest one, as many as 2d for d <= 5, give zero parts.
    for n in range(0, 13):
        for lam in enumerate_partitions(n):
            for extra in range(11):
                bits = _beta_bits(lam) << extra | (1 << extra) - 1
                assert _partition_of_bits(bits) == lam, (lam, extra)
    assert _beta_bits((4, 2, 2, 1)) == 0b10011010  # beads at 1, 3, 4 and 7


def test_core_quotient_examples():
    cq = d_core_and_quotient((1, 1, 1, 1), 3)
    assert cq.core == (1,)
    assert cq.weight == 1
    assert sum(sum(mu) for mu in cq.quotient) == 1

    cq = d_core_and_quotient((2, 1, 1), 3)
    assert cq.core == (2, 1, 1)
    assert cq.weight == 0

    cq = d_core_and_quotient((4,), 5)
    assert cq.core == (4,)
    assert cq.weight == 0


def test_core_matches_diagram_oracle():
    for n in range(0, 11):
        for d in (2, 3, 4, 5):
            for lam in enumerate_partitions(n):
                cores = oracle_all_cores(lam, d)
                assert len(cores) == 1, f"removal order changed the core of {lam}"
                assert d_core(lam, d) == next(iter(cores))


def test_core_quotient_roundtrip_full_grid():
    for n in range(0, 21):
        for d in range(2, 8):
            for lam in enumerate_partitions(n):
                cq = d_core_and_quotient(lam, d)
                assert sum(cq.core) + d * cq.weight == n
                assert oracle_from_core_and_quotient(cq.core, cq.quotient, d) == lam


def test_core_quotient_d1():
    cq = d_core_and_quotient((3, 2), 1)
    assert cq == CoreQuotient(d=1, core=(), weight=5, quotient=((3, 2),))
    assert oracle_from_core_and_quotient((), ((3, 2),), 1) == (3, 2)


def test_count_partitions_with_core_examples():
    assert count_partitions_with_core(4, 3, (1,)) == 3
    assert count_partitions_with_core(10, 5, ()) == 20
    assert count_partitions_with_core(2, 3, (2,)) == 1  # n = |core|
    assert count_partitions_with_core(5, 3, (1,)) == 0  # size gap not divisible
    with pytest.raises(ValueError):
        count_partitions_with_core(6, 3, (3,))  # (3) has a 3-hook


def test_core_census_sums_to_partition_count():
    for n in range(0, 13):
        for d in (2, 3, 5):
            cores = {d_core(lam, d) for lam in enumerate_partitions(n)}
            total = sum(count_partitions_with_core(n, d, mu) for mu in cores)
            assert total == partition_count(n)


def test_partitions_by_core_groups_partitions():
    # core_census counts, without listing, the groups partitions_by_core lists.
    for n in range(0, 21):
        for d in (1, 2, 3, 4, 5, 6, 7, 11, n + 1, 10**9 + 7):
            groups = partitions_by_core(n, d)
            counts = {core: len(group) for core, group in groups.items()}
            assert dict(core_census(n, d)) == counts, (n, d)
            if d < 10**9:  # the oracle's abacus has d runners
                assert list(groups.items()) == oracle_groups_by_core(n, d), (n, d)
            members = [lam for group in groups.values() for lam in group]
            assert sorted(members, reverse=True) == list(enumerate_partitions(n))
            for core, group in groups.items():
                assert d_core(core, d) == core
                assert list(group) == sorted(group, reverse=True)
                assert all(d_core(lam, d) == core for lam in group)
                assert len(group) == partition_tuple_count(d, (n - sum(core)) // d)
    for d in (1, 2, 10**9 + 7):
        assert dict(core_census(0, d)) == {(): 1}
    with pytest.raises(TypeError):
        core_census(4, 3)[()] = 0
    for n, d in ((-1, 2), (4, 0), (4, -3)):
        with pytest.raises(ValueError):
            core_census(n, d)


def test_core_census_above_n_takes_the_cores_from_the_walk(monkeypatch):
    # For d > n each partition is its own d-core: no packed key is decoded.
    decoded = []
    real = partitions._core_of_counts
    monkeypatch.setattr(
        partitions, "_core_of_counts", lambda counts, d: decoded.append(d) or real(counts, d)
    )
    core_census.cache_clear()
    try:
        census = core_census(20, 21)
    finally:
        core_census.cache_clear()
    assert dict(census) == {lam: 1 for lam in enumerate_partitions(20)}
    assert decoded == []


def test_core_census_matches_the_listing_oracle_past_small_n():
    # The census count of each core is the d-quotient count; the listed groups are the members.
    for n, d in ((40, 2), (40, 3), (36, 4), (36, 5), (30, 6)):
        groups = partitions_by_core(n, d)
        assert dict(core_census(n, d)) == {core: len(group) for core, group in groups.items()}


def test_core_walk_tries_at_most_d_parts_per_core():
    # A row that fits has part at most low + d - 1, so the walk tries at most d parts per core.
    started = time.process_time()
    cores = partitions._core_walk(2968, 3)
    assert time.process_time() - started < 0.2
    assert len(cores) == sum(partitions._core_counts(2968, 3)[2968::-3])


def _walk_dropping_a_core(n, d, walk=partitions._core_walk):
    cores = walk(n, d)
    del cores[next(iter(cores))]
    return cores


@pytest.mark.parametrize("n, d", [(12, 4), (14, 6), (9, 2)])
def test_core_census_refuses_a_walk_that_drops_a_core(n, d, monkeypatch):
    # Garvan-Kim-Stanton counts the d-cores for every d, composite d too.
    core_census.cache_clear()
    monkeypatch.setattr(partitions, "_core_walk", _walk_dropping_a_core)
    try:
        with pytest.raises(CrossCheckError, match="cores walked"):
            core_census(n, d)
    finally:
        core_census.cache_clear()


def test_partitions_by_core_above_n_decodes_no_key(monkeypatch):
    # For d > n each partition is its own d-core, so no bead counts become a core.
    decoded = []
    real = partitions._core_of_counts
    monkeypatch.setattr(
        partitions, "_core_of_counts", lambda counts, d: decoded.append(d) or real(counts, d)
    )
    partitions_by_core.cache_clear()
    try:
        groups = partitions_by_core(20, 21)
    finally:
        partitions_by_core.cache_clear()
    assert dict(groups) == {lam: (lam,) for lam in enumerate_partitions(20)}
    assert decoded == []


def test_partitions_by_core_example_and_guards():
    groups = partitions_by_core(4, 3)
    assert dict(groups) == {(1,): ((4,), (2, 2), (1, 1, 1, 1)), (3, 1): ((3, 1),),
                            (2, 1, 1): ((2, 1, 1),)}
    with pytest.raises(TypeError):
        groups[()] = ()
    with pytest.raises(ValueError):
        partitions_by_core(4, 0)


def test_partition_tuple_count_small():
    assert partition_tuple_count(1, 6) == partition_count(6)
    assert partition_tuple_count(5, 2) == 20
    assert partition_tuple_count(2, 2) == 5
    assert partition_tuple_count(3, 0) == 1
    assert partition_tuple_count(10**18, 0) == 1  # no loop over the d factors


def test_is_core_matches_rim_hook_removal():
    for n in range(0, 13):
        for lam in enumerate_partitions(n):
            for d in range(1, n + 3):
                assert is_core(lam, d) == (d_core(lam, d) == lam), (lam, d)
    assert is_core((3, 1), 10**18)
    with pytest.raises(ValueError):
        is_core((1, 2), 3)
    with pytest.raises(ValueError):
        is_core((1,), 0)


def test_huge_d_costs_no_more_than_d_equal_to_n_plus_1():
    # For d > n every partition of n is its own d-core, of weight 0.
    tracemalloc.start()
    try:
        groups = partitions_by_core(5, 1000000007)
        cores = [d_core(lam, 1000000007) for lam in enumerate_partitions(6)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dict(groups) == {lam: (lam,) for lam in enumerate_partitions(5)}
    assert cores == list(enumerate_partitions(6))
    assert count_partitions_with_core(5, 1000000007, (3, 2)) == 1
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# The streaming valuation census
# ---------------------------------------------------------------------------

def oracle_valuation_census(n, p):
    """The census by listing: partitions_by_core groups, hook_valuation per member.

    Each block gets (least valuation, top valuation, members at the top, members).
    """
    census = {}
    for core, members in partitions_by_core(n, p).items():
        values = [hook_valuation(lam, p) for lam in members]
        census[core] = (min(values), max(values), values.count(max(values)), len(values))
    return census


def test_valuation_census_matches_listing_oracle():
    for n in range(0, 23):
        above = next(p for p in range(n + 1, 2 * n + 3) if is_prime(p))  # n + 1 when prime
        for p in (2, 3, 5, 7, 11, 29, above):
            assert dict(valuation_census(n, p)) == oracle_valuation_census(n, p), (n, p)
    for n, p in ((40, 2), (40, 3), (36, 5)):
        assert dict(valuation_census(n, p)) == oracle_valuation_census(n, p), (n, p)


def test_core_counts_match_the_cores_listed():
    # c_p(k) from prod (1 - x^(pk))^p / (1 - x^k), against is_core on every partition of k.
    for p in (2, 3, 5, 7):
        counts = _core_counts(25, p)
        for k in range(26):
            assert counts[k] == sum(is_core(lam, p) for lam in enumerate_partitions(k)), (p, k)


def test_valuation_census_refuses_a_walk_that_drops_a_core(monkeypatch):
    # valuation_census reads its cores from core_census: neither may be cached.
    valuation_census.cache_clear()
    core_census.cache_clear()
    monkeypatch.setattr(partitions, "_core_walk", _walk_dropping_a_core)
    try:
        with pytest.raises(CrossCheckError, match="cores walked"):
            valuation_census(12, 3)
    finally:
        valuation_census.cache_clear()
        core_census.cache_clear()


def test_valuation_census_refuses_a_series_that_miscounts_the_quotients(monkeypatch):
    # One partition short in the weight-4 distribution: the block of () in S_12 at p = 3
    # has 3-tuples of partitions of total size 4, one more than it would count.
    real_series = partitions._block_series

    def short(top, p):
        series = real_series(top, p)
        least, high, at_top, total = series[top]
        series[top] = (least, high, at_top, total - 1)
        return series

    valuation_census.cache_clear()
    monkeypatch.setattr(partitions, "_block_series", short)
    try:
        with pytest.raises(CrossCheckError, match="weight 4 distribution does not count"):
            valuation_census(12, 3)
    finally:
        valuation_census.cache_clear()


def test_valuation_census_examples_and_guards():
    # Each block is (least valuation, top valuation, members at the top, members).
    assert dict(valuation_census(0, 2)) == {(): (0, 0, 1, 1)}
    # S_4 at p = 2: one block; degrees 1, 3, 2, 3, 1 have hook valuations 3, 3, 2, 3, 3.
    assert dict(valuation_census(4, 2)) == {(): (2, 3, 4, 5)}
    census = valuation_census(4, 3)
    assert dict(census) == {(1,): (1, 1, 3, 3), (3, 1): (0, 0, 1, 1), (2, 1, 1): (0, 0, 1, 1)}
    assert all(isinstance(value, int) for term in census.values() for value in term)
    with pytest.raises(TypeError):
        census[()] = ()
    with pytest.raises(ValueError):
        valuation_census(-1, 2)
    with pytest.raises(ValueError):
        valuation_census(4, 1)


def test_valuation_census_lists_no_partitions():
    enumerate_partitions.cache_clear()
    valuation_census.cache_clear()
    valuation_census(23, 3)
    assert enumerate_partitions.cache_info().currsize == 0


def test_valuation_census_walk_depth_does_not_grow_with_rows():
    # (1^40) has 40 rows; a walk that recursed once per row would need 40 frames.
    valuation_census.cache_clear()
    depth = 0
    frame = sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        census = valuation_census(40, 2)
        # At p = 41 every partition of 40 is its own core, and the core walk lists (1^40).
        huge = valuation_census(40, 41)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(total for *_, total in census.values()) == partition_count(40)
    assert len(huge) == partition_count(40) and huge[(1,) * 40] == (0, 0, 1, 1)


def test_valuation_census_at_a_huge_prime_is_one_core_per_partition():
    p = 2305843009213693951  # 2^61 - 1
    tracemalloc.start()
    try:
        census = valuation_census(6, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dict(census) == {lam: (0, 0, 1, 1) for lam in enumerate_partitions(6)}
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Rim hooks and Murnaghan-Nakayama
# ---------------------------------------------------------------------------

@given(partitions_st(max_n=12), st.integers(min_value=1, max_value=12))
def test_rim_hook_removals_match_diagram_oracle(lam, t):
    got = sorted(mask_rim_hook_removals(lam, t))
    expected = sorted(
        (oracle_remove_rim_hook(lam, i, j), sum(1 for k in range(i, len(lam)) if lam[k] >= j + 1) - 1)
        for i, j, h in oracle_box_hooks(lam)
        if h == t
    )
    assert got == expected


def test_rim_hook_removals_match_tuple_oracle():
    for n in range(0, 11):
        for lam in enumerate_partitions(n):
            for t in range(1, n + 2):
                assert mask_rim_hook_removals(lam, t) == oracle_rim_hook_removals(lam, t)


@pytest.mark.parametrize("lam", [(1, 2), (2, 0), (2, -1), [2, 1], (2.0, 1)])
def test_rim_hook_removals_rejects_non_partitions(lam):
    with pytest.raises(ValueError):
        mask_rim_hook_removals(lam, 1)


def test_rim_hook_removals_length_guards():
    with pytest.raises(ValueError):
        mask_rim_hook_removals((2, 1), 0)
    assert mask_rim_hook_removals((2, 1), 10**12) == ()
    assert mask_rim_hook_removals((), 1) == ()


def test_build_table_matches_tuple_oracle():
    for n in range(0, 10):
        table = build_table(n)
        assert table.columns == {
            rho: tuple(oracle_mn(lam, rho) for lam in enumerate_partitions(n))
            for rho in enumerate_partitions(n)
        }


def test_table_matches_per_value_route():
    for n in range(10, 13):
        table = sym_chars._table(n)
        for rho, column in table.columns.items():
            assert column == tuple(mn_character_value(lam, rho) for lam in table.classes)


def test_table_does_not_depend_on_build_order():
    sym_chars._table.cache_clear()
    sym_chars._table(13)
    table = build_table(8)
    assert table.columns == {
        rho: tuple(oracle_mn(lam, rho) for lam in enumerate_partitions(8))
        for rho in enumerate_partitions(8)
    }


def test_column_orthogonality_of_larger_tables():
    for n in (11, 12):
        assert column_orthogonality_holds(sym_chars._table(n))


def test_build_table_fills_no_mn_memo():
    for memo in (sym_chars._table, partitions._mn):
        memo.cache_clear()
    build_table(9)
    assert partitions._mn.cache_info().currsize == 0
    assert partitions._mn.cache_info().maxsize is not None


def test_mn_value_with_many_parts_does_not_recurse():
    assert mn_character_value((1200,), (1,) * 1200) == 1
    assert mn_character_value((1,) * 1200, (1,) * 1200) == 1
    assert mn_character_value((1199, 1), (2,) * 600) == -1  # fixed points minus 1


def test_mn_examples():
    assert mn_character_value((4,), (2, 1, 1)) == 1
    assert mn_character_value((4,), (4,)) == 1
    assert mn_character_value((2, 1), (3,)) == -1
    assert mn_character_value((2, 1), (1, 1, 1)) == 2
    with pytest.raises(ValueError):
        mn_character_value((2, 1), (2, 1, 1))


@settings(deadline=None)
@given(partitions_st(max_n=10))
def test_mn_degree_equals_hook_formula(lam):
    n = sum(lam)
    degree = math.factorial(n) // math.prod(hook_lengths(lam))
    assert mn_character_value(lam, (1,) * n) == degree


def test_mn_row_orthogonality_small():
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        sizes = {rho: math.factorial(n) // centralizer_order(rho) for rho in parts}
        for a, lam in enumerate(parts):
            for mu in parts[a:]:
                inner = sum(
                    sizes[rho] * mn_character_value(lam, rho) * mn_character_value(mu, rho)
                    for rho in parts
                )
                assert inner == (math.factorial(n) if lam == mu else 0)


def test_conjugate_involution():
    assert conjugate((3, 1)) == (2, 1, 1)
    for lam in enumerate_partitions(9):
        assert conjugate(conjugate(lam)) == lam
