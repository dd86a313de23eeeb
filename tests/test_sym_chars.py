import math
from fractions import Fraction
from functools import cache

import pytest

from blockcraft import partitions, sym_chars
from blockcraft.arith import nu, nu_factorial
from blockcraft.budget import BUDGETS
from blockcraft.cli import main
from blockcraft.errors import CrossCheckError, ResourceLimitError
from blockcraft.partitions import (
    _rim_hook_map,
    conjugate,
    enumerate_partitions,
    hook_lengths,
    hook_valuation,
    mn_character_value,
)
from blockcraft.sym_chars import (
    block_idempotent,
    block_idempotent_p_integral,
    build_table,
    central_character_blocks,
    central_character_values,
    class_algebra_product,
    column_orthogonality_holds,
    cycle_type_class_size,
    irr_pprime_count_sym,
    macdonald_count,
    row_orthogonality_holds,
    sym_degree,
)
from blockcraft.wreath_local import sylow2_local_count


def test_sym_degree_examples():
    assert sym_degree((7,)) == 1
    assert sym_degree((2, 1)) == 2
    assert sym_degree((3, 1)) == 3
    assert [sym_degree(lam) for lam in enumerate_partitions(4)] == [1, 3, 2, 3, 1]


def test_degree_valuation_matches_direct():
    for n in range(0, 15):
        for lam in enumerate_partitions(n):
            deg = sym_degree(lam)
            for p in (2, 3, 5, 7):
                direct = 0
                d = deg
                while d % p == 0:
                    d //= p
                    direct += 1
                assert nu_factorial(n, p) - hook_valuation(lam, p) == direct


@pytest.mark.parametrize("p", [1, 0, -2])
def test_degree_valuation_rejects_p_below_2(p):
    with pytest.raises(ValueError):
        nu_factorial(3, p) - hook_valuation((2, 1), p)


def test_irr_pprime_count_examples():
    assert irr_pprime_count_sym(1, 2) == 1
    assert irr_pprime_count_sym(4, 2) == 4
    assert irr_pprime_count_sym(6, 2) == 8


def oracle_pprime_count(n, p):
    """The former count: enumerate the partitions, keep those with per-box valuation nu_p(n!)."""
    target = nu_factorial(n, p)
    return sum(
        1
        for lam in enumerate_partitions(n)
        if sum(nu(h, p) for h in hook_lengths(lam) if h % p == 0) == target
    )


def test_irr_pprime_count_matches_enumeration_oracle():
    for n in range(0, 31):
        for p in (2, 3, 5, 7):
            assert irr_pprime_count_sym(n, p) == oracle_pprime_count(n, p), (n, p)


def test_irr_pprime_count_lists_no_partitions():
    enumerate_partitions.cache_clear()
    irr_pprime_count_sym(23, 3)
    assert enumerate_partitions.cache_info().currsize == 0


def test_irr_pprime_count_guards():
    assert irr_pprime_count_sym(0, 2) == 1
    with pytest.raises(ValueError):
        irr_pprime_count_sym(-2, 2)
    with pytest.raises(ValueError):
        irr_pprime_count_sym(6, 4)


def test_macdonald_examples():
    assert macdonald_count(1) == 1
    assert macdonald_count(3) == 2
    assert macdonald_count(6) == 8
    assert macdonald_count(12) == 32


def test_sylow2_local_examples():
    assert sylow2_local_count(2) == 2
    assert sylow2_local_count(4) == 4
    assert sylow2_local_count(6) == 8


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(cycle_type_class_size(rho) for rho in enumerate_partitions(n)) == math.factorial(n)


def test_build_table_small():
    # Labels run in class order: (2,), (1, 1) and (3,), (2, 1), (1, 1, 1).
    t2 = build_table(2)
    assert t2.columns == {(2,): (1, -1), (1, 1): (1, 1)}

    t3 = build_table(3)
    assert [column[1] for column in t3.columns.values()] == [-1, 0, 2]  # chi^(2,1)
    assert t3.columns[(1, 1, 1)] == (1, 2, 1)  # the identity column holds the degrees


@cache
def oracle_columns(n):
    """The former build, one class at a time: a signed sum of a smaller column per label."""
    if not n:
        return {(): (1,)}
    columns = {}
    for rho in enumerate_partitions(n):
        take = oracle_columns(n - rho[0])[rho[1:]].__getitem__
        columns[rho] = tuple(
            sum(map(take, even)) - sum(map(take, odd)) for even, odd in _rim_hook_map(n, rho[0])
        )
    return columns


def test_packed_columns_match_the_per_class_oracle():
    for n in range(0, 15):
        assert list(sym_chars._table(n).columns.items()) == list(oracle_columns(n).items()), n


def test_largest_admitted_table_matches_the_per_value_route():
    columns = sym_chars._table(17).columns
    labels = enumerate_partitions(17)
    assert len(labels) == 297
    for i, rho in enumerate(labels):
        if i % 23 == 0 or rho[0] in (1, 16, 17):  # every 23rd class, and the outer families
            for j in range(i % 11, len(labels), 37):  # every 37th label, from a moving offset
                assert columns[rho][j] == mn_character_value(labels[j], rho), (labels[j], rho)
    assert columns[(1,) * 17] == tuple(map(sym_degree, labels))


def test_a_label_with_no_rim_hook_reads_zero():
    # (3, 2, 1), a 2-core, has no rim 2-hook: it reads 0 on every class of S_6 with first part 2.
    labels = enumerate_partitions(6)
    assert _rim_hook_map(6, 2)[labels.index((3, 2, 1))] == ((), ())
    family = [rho for rho in labels if rho[0] == 2]
    assert len(family) == 3
    columns = sym_chars._table(6).columns
    assert [columns[rho][labels.index((3, 2, 1))] for rho in family] == [0, 0, 0]
    columns = [(5, -7), (-3, 2)]  # two columns over two labels
    hooks = (((0,), (1,)), ((), ()), ((1, 1), (0,)))
    sums = sym_chars._packed_hook_sums(columns, hooks)
    assert list(sums) == [5 + 7, -3 - 2, 0, 0, -14 - 5, 4 + 3]


def test_packing_refuses_a_sum_that_could_leave_its_slot():
    most = 2**63 - 1
    hooks = (((0,), ()), ((0,), (1,)))  # a label with two rim hooks
    assert list(sym_chars._packed_hook_sums([(most // 2, -(most // 2))], hooks)) == [
        most // 2, most - 1,
    ]
    with pytest.raises(CrossCheckError, match="64-bit"):
        sym_chars._packed_hook_sums([(most // 2 + 1, 0)], hooks)
    with pytest.raises(CrossCheckError, match="64-bit"):  # past a slot: no OverflowError
        sym_chars._packed_hook_sums([(0, -(2**70))], hooks)


def test_table_is_stored_once_as_its_columns():
    for n in range(0, 8):
        table = build_table(n)
        assert table is sym_chars._table(n)
        assert tuple(table.columns) == table.classes


def test_a_cold_table_reads_each_rim_hook_map_once(monkeypatch):
    # The one cache is _table's: each (m, k) family of a smaller table is built once, and the
    # maps themselves are not kept.
    assert not hasattr(_rim_hook_map, "cache_info")
    calls = []
    monkeypatch.setattr(sym_chars, "_rim_hook_map", lambda m, k: calls.append((m, k)) or _rim_hook_map(m, k))
    sym_chars._table.cache_clear()
    sym_chars._table(12)
    assert sorted(calls) == [(m, k) for m in range(1, 13) for k in range(1, m + 1)]


def test_memoized_table_is_read_only():
    table = build_table(3)
    with pytest.raises(TypeError):
        table.columns[(3,)][0] = 99
    with pytest.raises(TypeError):
        table.columns[(3,)] = ()
    with pytest.raises(TypeError):
        table.class_sizes[(3,)] = 0
    fresh = build_table(3)
    assert [column[0] for column in fresh.columns.values()] == [1, 1, 1]  # chi^(3)
    assert fresh.class_sizes == {(3,): 2, (2, 1): 3, (1, 1, 1): 1}


def test_orthogonality_small():
    for n in range(1, 7):
        table = build_table(n)
        assert row_orthogonality_holds(table)
        assert column_orthogonality_holds(table)


def test_orthogonality_catches_any_one_wrong_entry():
    # Adding 1 to chi(rho) moves the row norm by |rho|(2 chi(rho) + 1) and the
    # column norm by 2 chi(rho) + 1, neither of which is zero.
    table = build_table(5)
    for i in range(len(table.classes)):
        for rho, column in table.columns.items():
            wrong = column[:i] + (column[i] + 1,) + column[i + 1:]
            bad = table._replace(columns={**table.columns, rho: wrong})
            assert not row_orthogonality_holds(bad)
            assert not column_orthogonality_holds(bad)


def test_table_bound(monkeypatch):
    # build_table checks the table budget itself: p(11)^3 = 175 616 products.
    monkeypatch.setitem(BUDGETS, "table product", 175_615)
    with pytest.raises(ResourceLimitError, match="175616 table products exceeds the budget"):
        build_table(11)
    monkeypatch.setitem(BUDGETS, "table product", 175_616)
    table = build_table(11)
    assert len(table.classes) == len(enumerate_partitions(11))


def test_idempotent_check_is_bounded_by_the_table_budget():
    # No budget of its own: build_table's p(n)^3 table products refuse S_18 and admit S_17.
    with pytest.raises(ResourceLimitError, match="table products exceeds the budget"):
        block_idempotent_p_integral(18, 2, {(18,)})
    principal = next(b for b in central_character_blocks(10, 2).blocks if (10,) in b)
    assert block_idempotent_p_integral(10, 2, principal)


def test_block_idempotent_rejects_a_non_prime_p():
    with pytest.raises(ValueError, match="prime"):
        block_idempotent(build_table(4), 4, {(4,)})
    with pytest.raises(ValueError, match="prime"):  # before the table budget is asked
        block_idempotent_p_integral(18, 4, {(18,)})


def test_central_character_values_are_integers():
    table = build_table(5)
    identity = table.classes.index((1, 1, 1, 1, 1))
    omegas = central_character_values(table)
    assert len(omegas) == len(table.classes)
    for omega in omegas:
        assert len(omega) == len(table.classes)
        assert all(isinstance(v, int) for v in omega)
        assert omega[identity] == 1  # identity class: |K| chi / chi(1) = 1


def test_central_character_values_refuse_a_fraction():
    # chi^(2,1) at a transposition set to 1: omega = 3 * 1 / 2 is not an integer.
    table = build_table(3)
    bad = table._replace(columns={**table.columns, (2, 1): (1, 1, -1)})
    with pytest.raises(CrossCheckError, match=r"of \(2, 1\) at \(2, 1\) is not integral"):
        central_character_values(bad)


def test_central_character_blocks_examples():
    oracle = central_character_blocks(3, 3)
    assert oracle.blocks == (frozenset({(3,), (2, 1), (1, 1, 1)}),)

    oracle = central_character_blocks(4, 3)
    assert set(oracle.blocks) == {
        frozenset({(4,), (2, 2), (1, 1, 1, 1)}),
        frozenset({(3, 1)}),
        frozenset({(2, 1, 1)}),
    }

    oracle = central_character_blocks(2, 3)
    assert set(oracle.blocks) == {frozenset({(2,)}), frozenset({(1, 1)})}


def test_central_characters_computed_once_for_all_primes(monkeypatch):
    n = 8
    calls = []
    original = sym_chars.central_character_values

    def counted(table):
        calls.append(table.n)
        return original(table)

    monkeypatch.setattr(sym_chars, "central_character_values", counted)
    sym_chars._omega_rows.cache_clear()
    for p in (2, 3, 5, 7):
        central_character_blocks(n, p)
    assert calls == [n]


def test_block_partition_covers_everything():
    for n in range(1, 7):
        for p in (2, 3, 5):
            oracle = central_character_blocks(n, p)
            union = set().union(*oracle.blocks)
            assert union == set(enumerate_partitions(n))
            assert sum(len(b) for b in oracle.blocks) == len(enumerate_partitions(n))


def test_block_idempotents_examples():
    assert block_idempotent_p_integral(3, 3, {(3,), (2, 1), (1, 1, 1)})
    assert block_idempotent_p_integral(4, 3, {(3, 1)})
    # principal 2-block of S_4 is everything (all partitions of 4 have empty 2-core)
    assert block_idempotent_p_integral(4, 2, set(enumerate_partitions(4)))


def test_non_block_subset_is_not_idempotent():
    # {(4,)} is a proper subset of the principal 3-block of S_4
    assert not block_idempotent_p_integral(4, 3, {(4,)})


def test_whole_block_partition_gives_identity():
    table = build_table(3)
    blocks = central_character_blocks(3, 3).blocks
    e = block_idempotent(table, 3, blocks[0])
    identity = {rho: Fraction(1 if rho == (1, 1, 1) else 0) for rho in table.classes}
    assert e == identity  # single block: e_B is the identity of the group algebra


def test_distinct_block_idempotents_are_orthogonal():
    for n in range(2, 7):
        for p in (2, 3, 5):
            table = build_table(n)
            blocks = central_character_blocks(n, p).blocks
            idems = [block_idempotent(table, p, b) for b in blocks]
            zero = {rho: Fraction(0) for rho in table.classes}
            for i in range(len(idems)):
                for j in range(i + 1, len(idems)):
                    assert class_algebra_product(table, idems[i], idems[j]) == zero


def oracle_structure_constants(table):
    """The former engine: a[K, L, M] = |K||L|/|G| sum_chi chi(K) chi(L) chi(M) / chi(1).

    Classes of S_n are self-inverse, so M needs no inversion.  Every constant
    must be a nonnegative integer.
    """
    order = math.factorial(table.n)
    degrees = table.columns[(1,) * table.n]
    constants = {}
    for rho_k, column_k in table.columns.items():
        for rho_l, column_l in table.columns.items():
            front = Fraction(table.class_sizes[rho_k] * table.class_sizes[rho_l], order)
            for rho_m, column_m in table.columns.items():
                value = front * sum(
                    Fraction(a * b * c, degree)
                    for a, b, c, degree in zip(column_k, column_l, column_m, degrees)
                )
                assert value.denominator == 1 and value >= 0, (rho_k, rho_l, rho_m)
                constants[rho_k, rho_l, rho_m] = int(value)
    return constants


def oracle_product(table, constants, left, right):
    out = {rho: Fraction(0) for rho in table.classes}
    for (rho_k, rho_l, rho_m), a in constants.items():
        out[rho_m] += left.get(rho_k, 0) * right.get(rho_l, 0) * a
    return out


def test_class_algebra_product_matches_the_structure_constant_oracle():
    for n in range(2, 7):
        table = build_table(n)
        constants = oracle_structure_constants(table)
        for p in (2, 3, 5):
            idems = [block_idempotent(table, p, b) for b in central_character_blocks(n, p).blocks]
            for left in idems:
                for right in idems:
                    expected = oracle_product(table, constants, left, right)
                    assert class_algebra_product(table, left, right) == expected, (n, p)
    # Read by class key, not position: these dicts list the classes in reverse order.
    left = {rho: Fraction(i + 1, 3) for i, rho in enumerate(reversed(table.classes))}
    right = {rho: Fraction(2 - i * i, 7) for i, rho in enumerate(reversed(table.classes))}
    assert class_algebra_product(table, left, right) == oracle_product(table, constants, left, right)


def test_class_algebra_product_reads_the_central_characters_of_build_table(monkeypatch):
    calls, built = [], []
    original, original_table = sym_chars.central_character_values, sym_chars._table
    monkeypatch.setattr(sym_chars, "central_character_values", lambda t: calls.append(t.n) or original(t))
    monkeypatch.setattr(sym_chars, "_table", lambda n: built.append(n) or original_table(n))
    sym_chars._omega_rows.cache_clear()
    table = build_table(7)
    e = block_idempotent(table, 3, central_character_blocks(7, 3).blocks[0])
    squares = [class_algebra_product(table, e, e) for _ in range(3)]
    assert calls == [7]  # once, for the memo, which central_character_blocks filled
    # A table that is not build_table's own, with equal values, takes its own central characters.
    copy = table._replace(columns=dict(table.columns))
    assert class_algebra_product(copy, e, e) == squares[0] == e
    assert calls == [7, 7]
    # Past the table budget no memo is asked for, so no table of that n is built.
    built.clear()
    monkeypatch.setitem(BUDGETS, "table product", sym_chars.table_products(6))
    assert class_algebra_product(copy, e, e) == e
    assert calls == [7, 7, 7] and built == []


def test_class_algebra_product_takes_int_coefficients_and_missing_classes():
    table = build_table(6)
    for block in central_character_blocks(6, 3).blocks:
        e = block_idempotent(table, 3, block)
        assert class_algebra_product(table, {(1,) * 6: 1}, e) == e  # the identity, one int entry
    transposition = {(2, 1, 1, 1, 1): 1}  # (sum of transpositions)^2 = 15 + 3 K_(3) + 2 K_(2,2)
    square = class_algebra_product(table, transposition, transposition)
    nonzero = {rho: c for rho, c in square.items() if c}
    assert nonzero == {(3, 1, 1, 1): 3, (2, 2, 1, 1): 2, (1,) * 6: 15}


def test_idempotents_sum_to_identity():
    for p in (2, 3, 5):
        table = build_table(5)
        blocks = central_character_blocks(5, p).blocks
        total = {rho: Fraction(0) for rho in table.classes}
        for b in blocks:
            for rho, c in block_idempotent(table, p, b).items():
                total[rho] += c
        identity = {rho: Fraction(1 if rho == (1,) * 5 else 0) for rho in table.classes}
        assert total == identity


def test_hook_data_consistency():
    # spot check that valuation-based counting agrees with naive degree parity
    for n in range(1, 13):
        odd = sum(1 for lam in enumerate_partitions(n) if sym_degree(lam) % 2)
        assert irr_pprime_count_sym(n, 2) == odd
        assert macdonald_count(n) == odd


# The former all-rows readers, kept as oracles for the ones that read one label per conjugate pair.


def oracle_central_character_values(table):
    """omega_lam(K) = |K| chi(K) / chi(1) for every label, each row computed from its own chi."""
    degrees = table.columns[(1,) * table.n]
    sizes = tuple(table.class_sizes.values())
    out = []
    for degree, row in zip(degrees, zip(*table.columns.values())):
        assert all(size * value % degree == 0 for size, value in zip(sizes, row))
        out.append(tuple(size * value // degree for size, value in zip(sizes, row)))
    return tuple(out)


def oracle_blocks(n, p):
    """Labels grouped by the tuple of their own omega residues mod p, in canonical order."""
    table = build_table(n)
    by_signature = {}
    for lam, omega in zip(table.classes, oracle_central_character_values(table)):
        by_signature.setdefault(tuple(v % p for v in omega), []).append(lam)
    return tuple(map(frozenset, by_signature.values()))


def oracle_row_orthogonality(table):
    """The full Gram matrix over every pair of labels."""
    order = math.factorial(table.n)
    rows = list(zip(*table.columns.values()))
    sizes = tuple(table.class_sizes.values())
    return all(
        sum(s * a * b for s, a, b in zip(sizes, rows[i], rows[j])) == (order if i == j else 0)
        for i in range(len(rows))
        for j in range(i, len(rows))
    )


def oracle_column_orthogonality(table):
    """Every pair of columns, summed over every label."""
    items = list(table.columns.items())
    return all(
        sum(map(lambda a, b: a * b, items[i][1], items[j][1]))
        == (math.factorial(table.n) // cycle_type_class_size(items[i][0]) if i == j else 0)
        for i in range(len(items))
        for j in range(i, len(items))
    )


def off_the_sign_rule(table, lam):
    """table with chi^{lam'} replaced by chi^lam: still integral, but not sgn times chi^lam."""
    j = table.classes.index(conjugate(lam))
    i = table.classes.index(lam)
    return table._replace(columns={
        rho: column[:j] + (column[i],) + column[j + 1:] for rho, column in table.columns.items()
    })


def test_central_characters_match_the_all_rows_oracle():
    for n in range(0, 16):
        table = build_table(n)
        assert central_character_values(table) == oracle_central_character_values(table), n


def test_blocks_match_the_tuple_keyed_oracle_in_order():
    # 257 is past one byte: its keys are the labels' own residues.
    for n in range(0, 17):
        for p in (2, 3, 5, 7, 11, 13, 17, 257):
            assert central_character_blocks(n, p).blocks == oracle_blocks(n, p), (n, p)


def test_orthogonality_verdicts_match_the_full_gram_oracle():
    for n in range(0, 16):
        table = build_table(n)
        assert row_orthogonality_holds(table) and oracle_row_orthogonality(table), n
        assert column_orthogonality_holds(table) and oracle_column_orthogonality(table), n
    for n in range(4, 8):
        table = build_table(n)
        for rho, column in table.columns.items():
            for i in range(len(column)):
                for step in (1, -1, 2):
                    wrong = column[:i] + (column[i] + step,) + column[i + 1:]
                    bad = table._replace(columns={**table.columns, rho: wrong})
                    assert row_orthogonality_holds(bad) == oracle_row_orthogonality(bad), (rho, i)
                    assert column_orthogonality_holds(bad) == oracle_column_orthogonality(bad)


def test_a_partner_off_the_sign_rule_is_refused():
    bad = off_the_sign_rule(build_table(4), (3, 1))
    with pytest.raises(CrossCheckError, match=r"chi\^\(2, 1, 1\) is not sgn times chi\^\(3, 1\)$"):
        central_character_values(bad)
    assert not row_orthogonality_holds(bad)
    assert not column_orthogonality_holds(bad)
    # A representative's fraction is reported first: chi^(3,1) at a 3-cycle set to 1 gives 8/3.
    column = bad.columns[(3, 1)]
    both = bad._replace(columns={**bad.columns, (3, 1): column[:1] + (1,) + column[2:]})
    with pytest.raises(CrossCheckError, match=r"of \(3, 1\) at \(3, 1\) is not integral"):
        central_character_values(both)


def test_nakayama_oracle_exits_2_on_a_table_off_the_sign_rule(monkeypatch, capsys):
    original = sym_chars._table
    bad = off_the_sign_rule(original(6), (6,))
    monkeypatch.setattr(sym_chars, "_table", lambda n: bad if n == 6 else original(n))
    sym_chars._omega_rows.cache_clear()
    assert main(["oracle", "nakayama", "--n", "6", "--p", "3"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["cross-check failure: chi^(1, 1, 1, 1, 1, 1) is not sgn times chi^(6,)"]
    sym_chars._omega_rows.cache_clear()


def test_the_table_and_the_nakayama_side_read_no_pair_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("read the conjugate map")

    monkeypatch.setattr(sym_chars, "_conjugate_pairs", refuse)
    monkeypatch.setattr(partitions, "conjugate", refuse)
    sym_chars._table.cache_clear()
    assert len(sym_chars._table(9).classes) == 30
    assert len(partitions.partitions_by_core.__wrapped__(12, 3)) == 7  # 3-cores of 12, 9, 6, 3, 0
    with pytest.raises(AssertionError, match="conjugate map"):
        row_orthogonality_holds(sym_chars._table(9))


def test_column_check_reads_the_self_conjugate_labels_at_opposite_signs():
    # chi^(2,2) = 2 on 4-cycles, every other label 0 there: the sign rule holds, and every sum of
    # columns of equal sign is right, but the 4-cycle column meets the even columns in chi^(2,2).
    table = build_table(4)
    assert table.classes[2] == (2, 2)
    bad = table._replace(columns={**table.columns, (4,): (0, 0, 2, 0, 0)})
    assert not column_orthogonality_holds(bad) and not oracle_column_orthogonality(bad)
    assert not row_orthogonality_holds(bad) and not oracle_row_orthogonality(bad)
