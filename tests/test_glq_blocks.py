import math
import time
import tracemalloc
from functools import cache

import pytest

from blockcraft import glq_blocks
from blockcraft.arith import multiplicative_order
from blockcraft.cli import main
from blockcraft.glq_blocks import (
    EllContext,
    GlUnipotentBlockLabel,
    d_ell,
    series_is_lprime,
    unipotent_blocks,
    unipotent_is_lprime,
    verify_gl_mckay,
    verify_gl_mckay_defining,
)
from blockcraft.glq_chars import all_degrees, enumerate_series_labels, gl_order, green_degree
from blockcraft.partitions import core_census, d_core, enumerate_partitions, partition_count
from blockcraft.wreath_local import (
    MetacyclicSpec,
    cyclic_wreath_character_count,
    irr_lprime_count,
    metacyclic_degrees,
    wreath_degrees,
)


@cache
def oracle_cyclotomic_value(m: int, q: int) -> int:
    """Phi_m(q), by the exact recursion q^m - 1 = prod_{e | m} Phi_e(q)."""
    value = q**m - 1
    for e in range(1, m):
        if m % e == 0:
            value, rem = divmod(value, oracle_cyclotomic_value(e, q))
            assert not rem, "cyclotomic recursion left a remainder"
    return value


def oracle_phi_divisibility(m: int, q: int, ell: int) -> bool:
    """Whether ell divides Phi_m(q); dual route: big-integer value vs membership.

    The membership criterion is m in {d, d*ell, d*ell^2, ...} with d = d_ell(q).
    """
    direct = oracle_cyclotomic_value(m, q) % ell == 0
    quotient, rem = divmod(m, d_ell(q, ell))
    if rem:
        member = False
    else:
        while quotient % ell == 0:
            quotient //= ell
        member = quotient == 1
    assert direct == member, f"Phi_{m}({q}) mod {ell}: direct evaluation and membership disagree"
    return direct


def test_d_ell_examples():
    assert d_ell(4, 3) == 1
    assert d_ell(2, 5) == 4
    assert d_ell(2, 7) == 3
    with pytest.raises(ValueError):
        d_ell(6, 3)
    with pytest.raises(ValueError):
        d_ell(5, 4)  # not prime


def _order_by_powers(a, m):
    order, x = 1, a % m
    while x != 1:
        x = x * a % m
        order += 1
    return order


def test_multiplicative_order_matches_brute_force():
    for m in range(2, 300):
        for a in range(m):
            if math.gcd(a, m) != 1:
                with pytest.raises(ValueError, match=f"{a} is not invertible modulo {m}"):
                    multiplicative_order(a, m)
            else:
                assert multiplicative_order(a, m) == _order_by_powers(a, m)
    assert multiplicative_order(-1, 7) == 2
    with pytest.raises(ValueError):
        multiplicative_order(3, 1)


def test_cli_gl_mckay_at_a_huge_prime_ell_ends_quickly(capsys):
    # d_ell(2, 10^9 + 7) is 5 * 10^8 + 3: the order must not be found by
    # stepping through the powers of q.
    start = time.perf_counter()
    assert main(["gl", "mckay", "--n", "2", "--q", "2", "--ell", "1000000007"]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.startswith("[PASS] gl_mckay ell=1000000007 n=2 q=2:")


def test_unipotent_blocks_above_n_keep_the_abacus_small():
    # d_ell(2, 1000003) = 1000002 > n: each partition is its own block of
    # weight 0, found without an abacus of d runners per partition.
    context = EllContext.of(2, 1000003)
    tracemalloc.start()
    try:
        labels = unipotent_blocks(4, context)
        sizes = [core_census(4, context.d)[label.core] for label in labels]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(label.core for label in labels) == sorted(enumerate_partitions(4))
    assert all(label.weight == 0 and label.context.d == 1000002 for label in labels)
    assert sizes == [1] * 5
    assert peak < 1 << 20


def test_ell_context():
    ctx = EllContext.of(2, 7)
    assert (ctx.q, ctx.ell, ctx.d) == (2, 7, 3)
    assert EllContext(q=2, ell=7) == ctx
    with pytest.raises(ValueError):
        EllContext.of(6, 5)  # 6 is not a prime power


def test_cyclotomic_values():
    assert oracle_cyclotomic_value(1, 2) == 1
    assert oracle_cyclotomic_value(4, 2) == 5
    assert oracle_cyclotomic_value(8, 2) == 17
    assert oracle_cyclotomic_value(6, 3) == 7
    # product over divisors recovers q^m - 1
    for q in (2, 3, 5):
        for m in (1, 2, 6, 12):
            prod = 1
            for e in range(1, m + 1):
                if m % e == 0:
                    prod *= oracle_cyclotomic_value(e, q)
            assert prod == q**m - 1


def test_phi_divisibility_examples():
    assert oracle_phi_divisibility(4, 2, 5) is True
    assert oracle_phi_divisibility(8, 2, 5) is False
    assert oracle_phi_divisibility(d_ell(3, 11), 3, 11) is True


def test_phi_divisibility_grid_routes_agree():
    # the dual-route assertion never fires on the full grid
    for q in (2, 3, 4, 5):
        for ell in (2, 3, 5, 7, 11, 13):
            if q % ell == 0:
                continue
            for m in range(1, 31):
                oracle_phi_divisibility(m, q, ell)


def test_unipotent_is_lprime_examples():
    ctx = EllContext.of(2, 5)
    assert ctx.d == 4
    assert unipotent_is_lprime((5,), ctx) is True
    assert unipotent_is_lprime((3, 2), ctx) is True
    assert unipotent_is_lprime((1, 1, 1, 1, 1), ctx) is True  # Steinberg, degree q^10
    assert unipotent_is_lprime((3, 1, 1), ctx) is False  # degree 280 = 2^3*5*7
    ctx7 = EllContext.of(2, 7)
    assert unipotent_is_lprime((6,), ctx7) is True
    # trivial character is ell' in every context
    ctx3 = EllContext.of(4, 3)  # d = 1
    for n in range(1, 9):
        assert unipotent_is_lprime((n,), ctx3) is True
        assert unipotent_is_lprime((n,), ctx) is True


def test_unipotent_lprime_routes_agree_small_grid():
    for q in (2, 3):
        for ell in (3, 5, 7):
            if q % ell == 0:
                continue
            ctx = EllContext.of(q, ell)
            for n in range(0, 11):
                for lam in enumerate_partitions(n):
                    unipotent_is_lprime(lam, ctx)  # raises on route disagreement


def test_series_is_lprime_examples():
    # GL_2(3), ell = 2, split regular s: |C| = 4 but |G|_2 = 16
    split_regular = next(
        label
        for label, _ in enumerate_series_labels(2, 3)
        if len(label.components) == 2
    )
    ctx = EllContext.of(3, 2)
    assert series_is_lprime(split_regular, ctx) is False

    # trivial-type character
    trivial = next(
        label
        for label, _ in enumerate_series_labels(2, 3)
        if label.components == ((1, 2, (2,)),)
    )
    assert green_degree(trivial, 3) == 1
    assert series_is_lprime(trivial, ctx) is True

    # irreducible quadratic s has degree 2: not 2'
    quad = next(
        label
        for label, _ in enumerate_series_labels(2, 3)
        if label.components == ((2, 1, (1,)),)
    )
    assert series_is_lprime(quad, ctx) is False


def test_series_lprime_routes_agree():
    for n in range(1, 4):
        for q in (2, 3, 4):
            for ell in (2, 3, 5, 7):
                if q % ell == 0:
                    continue
                ctx = EllContext.of(q, ell)
                for label, _ in enumerate_series_labels(n, q):
                    series_is_lprime(label, ctx)  # raises on route disagreement


def test_local_overgroup_count_examples():
    assert verify_gl_mckay(2, 3, 2).local_count == 4  # C_2 wr S_2 = D_8
    assert verify_gl_mckay(2, 2, 3).local_count == 3  # C_3 x| C_2
    assert verify_gl_mckay(3, 2, 7).local_count == 5  # C_7 x| C_3
    # w = 0 degenerates to the group itself: d = 4 > 2
    assert verify_gl_mckay(2, 2, 5).local_count == irr_lprime_count(all_degrees(2, 2), 5)


OVERGROUP_CELLS = ((2, 3, 2), (4, 3, 5), (5, 4, 5), (5, 7, 3), (6, 2, 3), (7, 5, 3))


def test_local_overgroup_count_matches_factorised_count():
    # |Irr_{ell'}(B wr S_w)| * |Irr_{ell'}(GL_r(q))|, counted on each factor
    for n, q, ell in OVERGROUP_CELLS:
        ctx = EllContext.of(q, ell)
        w, r = divmod(n, ctx.d)
        m = q**ctx.d - 1
        base = metacyclic_degrees(MetacyclicSpec(m=m, d=ctx.d, u=q % m))
        local_base = irr_lprime_count(wreath_degrees(base, w), ell)
        expected = local_base * irr_lprime_count(all_degrees(r, q), ell)
        assert verify_gl_mckay(n, q, ell).local_count == expected


def test_local_overgroup_multiset_is_checked_against_its_order():
    # |M| = (d (q^d - 1))^w w! |GL_r(q)| for M = (C_{q^d-1} x| C_d) wr S_w x GL_r(q)
    for n, q, ell in OVERGROUP_CELLS + ((2, 2, 5),):
        ctx = EllContext.of(q, ell)
        w, r = divmod(n, ctx.d)
        order = (ctx.d * (q**ctx.d - 1)) ** w * math.factorial(w) * gl_order(r, q)
        assert glq_blocks._local_degrees(n, ctx).group_order == order


def test_verify_gl_mckay_builds_local_multiset_once(monkeypatch):
    calls = []

    def counting(base, w):
        calls.append(w)
        return wreath_degrees(base, w)

    monkeypatch.setattr(glq_blocks, "wreath_degrees", counting)
    assert verify_gl_mckay(5, 7, 3).passed
    assert calls == [5 // d_ell(7, 3)]


def test_verify_gl_mckay_spot_values():
    r = verify_gl_mckay(2, 3, 2)
    assert r.passed and r.global_count == 4 and r.local_count == 4

    r = verify_gl_mckay(2, 2, 3)
    assert r.passed and r.global_count == 3 and r.local_count == 3

    r = verify_gl_mckay(3, 2, 7)
    assert r.passed and r.global_count == 5 and r.local_count == 5


def test_verify_gl_mckay_defining():
    for n, q in ((1, 4), (2, 2), (2, 3), (3, 2), (3, 3)):
        r = verify_gl_mckay_defining(n, q)
        assert r.passed
        assert r.local_count == (q - 1) * q ** (n - 1)


def oracle_block_of(lam, context):
    """Oracle: the block label of rho^lam, from the d-core of lam itself."""
    core = d_core(lam, context.d)
    return GlUnipotentBlockLabel(
        context=context, core=core, weight=(sum(lam) - sum(core)) // context.d
    )


def test_unipotent_block_of_examples():
    ctx = EllContext.of(2, 7)  # d = 3
    label = oracle_block_of((1, 1, 1, 1), ctx)
    assert (label.core, label.weight) == ((1,), 1)

    label = oracle_block_of((2, 1, 1), ctx)
    assert (label.core, label.weight) == ((2, 1, 1), 0)

    label = oracle_block_of((2,), ctx)
    assert (label.core, label.weight) == ((2,), 0)


def test_unipotent_blocks_partition_everything():
    ctx = EllContext.of(2, 7)
    for n in range(0, 13):
        labels = unipotent_blocks(n, ctx)
        total = sum(core_census(n, ctx.d)[lab.core] for lab in labels)
        assert total == partition_count(n)


@pytest.mark.parametrize("q,ell", [(8, 7), (13, 7), (2, 7), (2, 31), (2, 127), (2, 3)])
def test_unipotent_blocks_match_per_partition_labels(q, ell):
    ctx = EllContext.of(q, ell)  # d = 1, 2, 3, 5, 7, and ell = 3
    for n in range(0, 17):
        per_partition = {oracle_block_of(lam, ctx) for lam in enumerate_partitions(n)}
        expected = sorted(per_partition, key=lambda lab: (lab.weight, lab.core), reverse=True)
        assert unipotent_blocks(n, ctx) == tuple(expected)


def test_unipotent_blocks_are_the_census_keys_largest_weight_first():
    # The six contexts of acceptance criterion 10: d = 1, ..., 6.
    for q, ell in ((8, 7), (13, 7), (2, 7), (5, 13), (3, 11), (3, 7)):
        ctx = EllContext.of(q, ell)
        for n in range(0, 26):
            labels = [
                GlUnipotentBlockLabel(ctx, core, (n - sum(core)) // ctx.d)
                for core in core_census(n, ctx.d)
            ]
            expected = sorted(labels, key=lambda lab: (lab.weight, lab.core), reverse=True)
            assert unipotent_blocks(n, ctx) == tuple(expected), (ctx, n)


def test_block_census_sizes_examples():
    # A block's census count is |Irr(C_d wr S_w)|, which gl blocks compares it with.
    for q, core, weight, size in (
        (2, (1,), 1, 3),  # d = 3
        (2, (2, 1, 1), 0, 1),
        (13, (), 2, 5),  # d = 2
    ):
        d = EllContext.of(q, 7).d
        assert core_census(sum(core) + d * weight, d)[core] == size
        assert cyclic_wreath_character_count(d, weight) == size
