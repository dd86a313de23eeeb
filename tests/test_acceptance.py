"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion computes its two sides by independent routes and asserts
exact equality (no tolerances anywhere: all arithmetic is over Z).  Stated
wall-clock budgets are asserted too; they are generous on any recent box.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the summary
lines on success).
"""

import math
import time
from fractions import Fraction

from blockcraft.glq_blocks import (
    EllContext,
    series_is_lprime,
    unipotent_blocks,
    unipotent_is_lprime,
    verify_gl_mckay,
)
from blockcraft.glq_chars import (
    all_degrees,
    enumerate_class_types,
    enumerate_series_labels,
    gl_order,
)
from blockcraft.partitions import (
    count_partitions_with_core,
    enumerate_partitions,
    partition_count,
    partition_tuple_count,
)
from blockcraft.sym_blocks import (
    am_verify_abelian,
    bhz_verify,
    bhz_witness_search,
    block_labels,
    block_members_and_heights,
    block_of,
)
from blockcraft.sym_chars import (
    block_idempotent,
    block_idempotent_p_integral,
    build_table,
    central_character_blocks,
    class_algebra_product,
    column_orthogonality_holds,
    irr_pprime_count_sym,
    macdonald_count,
    row_orthogonality_holds,
    sym_degree,
)
from blockcraft.wreath_local import cyclic_wreath_character_count, sylow2_local_count


def _done(criterion, started, budget, detail):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.1f}s)")


def test_criterion_01_mckay_sym_p2_up_to_40():
    started = time.perf_counter()
    for n in range(1, 41):
        hook_route = irr_pprime_count_sym(n, 2)
        binary_route = macdonald_count(n)
        local_route = sylow2_local_count(n)
        assert hook_route == binary_route == local_route, n
    _done(1, started, 60, "three routes agree for 1 <= n <= 40")


def test_criterion_02_nakayama_oracle():
    started = time.perf_counter()
    for n in range(1, 9):
        for p in (2, 3, 5, 7):
            oracle = set(central_character_blocks(n, p).blocks)
            nakayama = {
                frozenset(block_members_and_heights(label).members)
                for label in block_labels(n, p)
            }
            assert oracle == nakayama, (n, p)
    _done(2, started, 300, "central-character blocks = p-core blocks, n <= 8")


def test_criterion_03_table_sanity():
    started = time.perf_counter()
    for n in range(1, 9):
        table = build_table(n)
        assert row_orthogonality_holds(table), n
        assert column_orthogonality_holds(table), n
    for n in range(0, 31):
        square_sum = sum(sym_degree(lam) ** 2 for lam in enumerate_partitions(n))
        assert square_sum == math.factorial(n), n
    _done(3, started, 300, "orthogonality exact n <= 8; sum deg^2 = n! for n <= 30")


def test_criterion_04_bhz():
    started = time.perf_counter()
    blocks = 0
    for n in range(1, 21):
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            if p > n:
                continue
            for label in block_labels(n, p):
                assert bhz_verify(label).passed, label
                blocks += 1
    _done(4, started, 60, f"height-zero biconditional on {blocks} blocks, n <= 20")


def test_criterion_05_alperin_mckay_abelian_defect():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 21):
        for p in (3, 5, 7):
            for label in block_labels(n, p):
                if label.weight < p:
                    report = am_verify_abelian(label)
                    assert report.passed, label
                    assert report.global_count == report.local_count
                    checked += 1
    _done(5, started, 300, f"partition census = wreath count on {checked} blocks")


def test_criterion_06_gl_completeness():
    started = time.perf_counter()
    grid = [(n, q) for n in range(1, 5) for q in (2, 3, 4, 5)] + [(5, 2), (5, 3)]
    for n, q in grid:
        ms = all_degrees(n, q)
        assert sum(m * d * d for d, m in ms.entries) == gl_order(n, q), (n, q)
    _done(6, started, 120, "sum chi(1)^2 = |GL_n(q)| on the full grid incl (5,2),(5,3)")


def test_criterion_07_semisimple_class_census():
    started = time.perf_counter()
    for n in range(1, 7):
        for q in (2, 3, 4, 5, 7):
            total = sum(count for _, count in enumerate_class_types(n, q))
            assert total == (q - 1) * q ** (n - 1), (n, q)
    _done(7, started, 60, "class-type totals match (q-1)q^(n-1), n <= 6, q <= 7")


def test_criterion_08_gl_mckay_counts():
    started = time.perf_counter()
    cells = 0
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            for ell in (2, 3, 5, 7):
                if q % ell == 0:
                    continue
                assert verify_gl_mckay(n, q, ell).passed, (n, q, ell)
                cells += 1
    for n, q, ell, both in ((2, 3, 2, 4), (2, 2, 3, 3), (3, 2, 7, 5)):
        report = verify_gl_mckay(n, q, ell)
        assert report.global_count == report.local_count == both
    _done(8, started, 120, f"global = overgroup count on {cells} cells; spot values 4,3,5")


def test_criterion_09_lprime_criteria_equivalence():
    started = time.perf_counter()
    checked = 0
    for q in (2, 3, 4, 5):
        for ell in (3, 5, 7, 11, 13):
            if q % ell == 0:
                continue
            ctx = EllContext.of(q, ell)
            for n in range(0, 21):
                for lam in enumerate_partitions(n):
                    unipotent_is_lprime(lam, ctx)  # raises CrossCheckError on mismatch
                    checked += 1
    series_checked = 0
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            for ell in (2, 3, 5, 7):
                if q % ell == 0:
                    continue
                ctx = EllContext.of(q, ell)
                for label, _ in enumerate_series_labels(n, q):
                    series_is_lprime(label, ctx)  # raises CrossCheckError on mismatch
                    series_checked += 1
    _done(9, started, 300, f"{checked} hook/valuation + {series_checked} series/valuation checks")


def test_criterion_10_unipotent_block_census():
    started = time.perf_counter()
    contexts = [EllContext.of(q, ell) for q, ell in
                ((8, 7), (13, 7), (2, 7), (5, 13), (3, 11), (3, 7))]
    assert sorted(ctx.d for ctx in contexts) == [1, 2, 3, 4, 5, 6]
    assert all(ctx.ell >= 7 for ctx in contexts)
    for ctx in contexts:
        for n in range(0, 26):
            total = 0
            for label in unipotent_blocks(n, ctx):
                census = count_partitions_with_core(n, ctx.d, label.core)
                weyl = cyclic_wreath_character_count(ctx.d, label.weight)
                tuples = partition_tuple_count(ctx.d, label.weight)
                assert census == weyl == tuples, (label, census, weyl, tuples)
                total += census
            assert total == partition_count(n), (ctx, n)
    _done(10, started, 300, "census = Weyl count = d-tuple count, d <= 6, n <= 25")


def test_criterion_11_block_idempotents():
    started = time.perf_counter()
    for n in range(1, 7):
        for p in (2, 3, 5):
            table = build_table(n)
            blocks = central_character_blocks(n, p).blocks
            idempotents = [block_idempotent(table, p, b) for b in blocks]
            for b in blocks:
                assert block_idempotent_p_integral(n, p, b), (n, p, b)
            zero = {rho: Fraction(0) for rho in table.classes}
            for i in range(len(idempotents)):
                for j in range(i + 1, len(idempotents)):
                    product = class_algebra_product(table, idempotents[i], idempotents[j])
                    assert product == zero, (n, p, i, j)
    _done(11, started, 300, "e_B p-integral, idempotent, pairwise orthogonal; n <= 6")


def test_criterion_12_bhz_witness_existence():
    started = time.perf_counter()
    for w in range(2, 11):
        lam = bhz_witness_search(w)
        assert sum(lam) == 2 * w
        assert block_of(lam, 2).core == ()
        assert sym_degree(lam) % 2 == 0
    _done(12, started, 60, "even-degree empty-2-core witness found for 2 <= w <= 10")
