import hashlib
import math
from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from blockcraft import glq_chars
from blockcraft.arith import divisors, moebius, prime_power_radical
from blockcraft.glq_chars import (
    SeriesLabel,
    all_degrees,
    available_poly_count,
    centralizer_order,
    degree_square_sum,
    enumerate_class_types,
    enumerate_series_labels,
    gl_order,
    green_degree,
    irr_pprime_count_gl,
    label_count,
    semisimple_class_count,
    unipotent_degree,
)
from blockcraft.partitions import enumerate_partitions, hook_lengths, partition_count
from blockcraft.sym_chars import sym_degree


def oracle_poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def oracle_poly_div_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    num_list = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coeff = num_list[shift + len(den) - 1] // den[-1]
        out[shift] = coeff
        for j, cd in enumerate(den):
            num_list[shift + j] -= coeff * cd
    assert not any(num_list), "polynomial division left a remainder"
    return tuple(out)


def oracle_unipotent_degree_poly(lam) -> tuple[int, ...]:
    """Coefficients (ascending powers of q) of the unipotent degree polynomial.

    Evaluating at q recovers unipotent_degree(lam, q); evaluating at q = 1
    recovers the symmetric-group hook-formula degree.
    """
    numerator: tuple[int, ...] = (1,)
    for m in range(1, sum(lam) + 1):
        numerator = oracle_poly_mul(numerator, (1,) * m)
    denominator: tuple[int, ...] = (1,)
    for h in hook_lengths(lam):
        denominator = oracle_poly_mul(denominator, (1,) * h)
    a_stat = sum(i * part for i, part in enumerate(lam))
    return (0,) * a_stat + oracle_poly_div_exact(numerator, denominator)


def oracle_eval_poly(coeffs: tuple[int, ...], x: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def listed_degrees(ms) -> list[int]:
    """Each degree of the multiset, repeated by its multiplicity, increasing."""
    return [d for d, m in ms.entries for _ in range(m)]


def test_gl_order_examples():
    assert gl_order(1, 5) == 4
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168
    assert gl_order(0, 7) == 1


def oracle_irreducible_poly_count(d: int, q: int) -> int:
    """Monic irreducibles of degree d over F_q, X included: the necklace count."""
    count, rem = divmod(sum(moebius(d // e) * q**e for e in divisors(d)), d)
    assert not rem, "necklace count not integral"
    return count


def test_irreducible_poly_count_examples():
    assert oracle_irreducible_poly_count(1, 5) == 5
    assert oracle_irreducible_poly_count(2, 3) == 3
    assert oracle_irreducible_poly_count(3, 2) == 2
    assert available_poly_count(1, 5) == 4
    assert available_poly_count(2, 3) == 3


def test_poly_count_census():
    # sum over d | m of d * N_d(q) = q^m (factorization of X^{q^m} - X)
    for q in (2, 3, 4, 5):
        for m in (1, 2, 3, 4, 6):
            total = sum(
                d * oracle_irreducible_poly_count(d, q) for d in range(1, m + 1) if m % d == 0
            )
            assert total == q**m


def test_available_poly_count_is_the_necklace_count_without_x():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for d in range(1, 13):
            assert available_poly_count(d, q) == oracle_irreducible_poly_count(d, q) - (d == 1)
    with pytest.raises(ValueError):
        available_poly_count(0, 2)


def test_enumerate_class_types_gl2_f2():
    # Two distinct linear factors need two eligible linears; F_2 has one.
    assert enumerate_class_types(2, 2) == ((((2, 1),), 1), (((1, 2),), 1))
    assert semisimple_class_count(2, 2) == 2


@pytest.mark.parametrize("q", [1, 0, -3])
def test_class_type_functions_refuse_q_below_2(q):
    for n in (1, 2):
        with pytest.raises(ValueError):
            enumerate_class_types(n, q)
    with pytest.raises(ValueError):
        semisimple_class_count(3, q)
    with pytest.raises(ValueError):
        available_poly_count(1, q)


def _class_count_by_comb(entries, q):
    # Per degree d: comb(available, repeats) for each multiplicity value in turn.
    total = 1
    by_degree: dict[int, Counter] = {}
    for d, m in entries:
        by_degree.setdefault(d, Counter())[m] += 1
    for d, repeats in by_degree.items():
        remaining = available_poly_count(d, q)
        for repeat in repeats.values():
            total *= comb(remaining, repeat)
            if total == 0:
                return 0
            remaining -= repeat
    return total


def test_class_count_matches_comb_formula():
    for n in range(11):
        for q in (2, 3, 4):
            for entries, count in enumerate_class_types(n, q):
                assert count == _class_count_by_comb(entries, q) > 0


def oracle_class_types(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Multisets of (d, m) pairs with sum d*m = n, each sorted descending,
    listed in descending order: a partition of n, with each part k split
    as some d*m = k."""
    types = set()
    for length in range(n + 1):
        for parts in combinations_with_replacement(range(1, n + 1), length):
            if sum(parts) != n:
                continue
            splits = [[(d, k // d) for d in range(1, k + 1) if k % d == 0] for k in parts]
            for pairs in product(*splits):
                types.add(tuple(sorted(pairs, reverse=True)))
    return sorted(types, reverse=True)


def test_enumerate_class_types_matches_itertools_oracle():
    for n in range(11):
        for q in (2, 3, 4, 5):
            expected = [
                (entries, count)
                for entries in oracle_class_types(n)
                if (count := _class_count_by_comb(entries, q))
            ]
            assert list(enumerate_class_types(n, q)) == expected
    assert enumerate_class_types(0, 7) == (((), 1),)


def test_label_count_matches_the_class_type_walk():
    # sum over the listed class types of prod p(m_i), the labels enumerate_series_labels yields.
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 1000003):
        for n in range(13 if q < 20 else 10):
            walked = sum(
                math.prod(partition_count(m) for _, m in entries)
                for entries, _ in enumerate_class_types(n, q)
            )
            assert label_count(n, q) == walked, (n, q)
    assert label_count(4, 2) == sum(1 for _ in enumerate_series_labels(4, 2))
    assert label_count(26, 2) == 168483  # the 4 727 class types of GL_26(2)


def test_class_type_walk_lists_only_types_that_occur():
    listed = enumerate_class_types(26, 2)
    assert len(listed) == 4727
    assert all(count > 0 for _, count in listed)
    empty = [e for e in oracle_class_types(4) if not _class_count_by_comb(e, 2)]
    assert ((1, 2), (1, 1), (1, 1)) in empty
    assert not set(empty) & {entries for entries, _ in enumerate_class_types(4, 2)}


def test_semisimple_class_census():
    for n in range(1, 7):
        for q in (2, 3, 4, 5, 7):
            assert semisimple_class_count(n, q) == (q - 1) * q ** (n - 1)


def test_unipotent_degree_examples():
    for q in (2, 3, 4, 5):
        assert unipotent_degree((4,), q) == 1
        assert unipotent_degree((1, 1), q) == q
        assert unipotent_degree((2, 1), q) == q * (q + 1)
    assert unipotent_degree((3, 2), 2) == 124


def test_unipotent_degree_poly_matches_values_and_q1():
    for n in range(0, 8):
        for lam in enumerate_partitions(n):
            coeffs = oracle_unipotent_degree_poly(lam)
            assert oracle_eval_poly(coeffs, 1) == sym_degree(lam)
            for q in (2, 3, 5):
                assert oracle_eval_poly(coeffs, q) == unipotent_degree(lam, q)


def test_green_degree_gl2_3():
    # split regular semisimple class: degree 4
    label = SeriesLabel(components=(((1, 1, (1,))), (1, 1, (1,))))
    assert centralizer_order(label, 3) == 4
    assert green_degree(label, 3) == 4
    # irreducible quadratic: degree 2
    label = SeriesLabel(components=((2, 1, (1,)),))
    assert centralizer_order(label, 3) == 8
    assert green_degree(label, 3) == 2
    # regular with torus centralizer: degree = |G:T|_{p'}
    assert green_degree(label, 3) == (48 // 3) // 8


def _per_label_degrees(n, q):
    """Degree multiset of Irr(GL_n(q)), one green_degree per series label.

    A regression oracle for the per-type construction in all_degrees, not
    an independent route: it shares unipotent_degree and the p'-index
    formula with it, and differs only in visiting every label.
    """
    counts = Counter()
    for label, count in enumerate_series_labels(n, q):
        counts[green_degree(label, q)] += count
    return tuple(sorted(counts.items()))


def test_all_degrees_matches_per_label_oracle():
    for n in range(8):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert all_degrees(n, q).entries == _per_label_degrees(n, q)


def test_all_degrees_visits_no_series_label(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("all_degrees must build degrees per class type")

    monkeypatch.setattr(glq_chars, "green_degree", refuse)
    monkeypatch.setattr(glq_chars, "enumerate_series_labels", refuse)
    monkeypatch.setattr(glq_chars, "SeriesLabel", refuse)
    ms = all_degrees.__wrapped__(6, 3)
    assert ms.group_order == gl_order(6, 3)


def test_all_degrees_gl2():
    ms = all_degrees(2, 3)
    assert listed_degrees(ms) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert ms.group_order == 48

    ms = all_degrees(2, 2)
    assert listed_degrees(ms) == [1, 1, 2]  # GL_2(2) = S_3


def test_all_degrees_gl1():
    for q in (2, 3, 4, 5):
        ms = all_degrees(1, q)
        assert ms.entries == ((1, q - 1),)


def test_character_count_gl2_is_qsq_minus_1():
    for q in (2, 3, 4, 5, 7):
        assert all_degrees(2, q).character_count == q * q - 1


def test_gl3_f2_classical_degrees():
    # GL_3(2) is the simple group of order 168 with degrees 1,3,3,6,7,8
    assert listed_degrees(all_degrees(3, 2)) == [1, 3, 3, 6, 7, 8]


def test_gl2_degree_family():
    # q-1 linear, q(q-1)/2 cuspidal of degree q-1, q-1 Steinberg twists of
    # degree q, (q-1)(q-2)/2 principal series of degree q+1
    for q in (3, 4, 5, 7):
        expected = sorted(
            [1] * (q - 1)
            + [q - 1] * (q * (q - 1) // 2)
            + [q] * (q - 1)
            + [q + 1] * ((q - 1) * (q - 2) // 2)
        )
        assert listed_degrees(all_degrees(2, q)) == expected


def test_degrees_divide_group_order():
    for n, q in ((2, 3), (3, 2), (3, 3), (2, 5)):
        order = gl_order(n, q)
        for label, _ in enumerate_series_labels(n, q):
            assert order % green_degree(label, q) == 0


def test_irr_pprime_count_gl_examples():
    assert irr_pprime_count_gl(1, 7) == 6
    assert irr_pprime_count_gl(2, 3) == 6
    assert irr_pprime_count_gl(3, 2) == 4


@pytest.mark.parametrize("n, q", [(-1, 2), (2, 1), (1, 0)])
def test_irr_pprime_count_gl_refuses_what_gl_order_refuses(n, q):
    # (q - 1) q^(n - 1) read 0.25 at n = -1 and 0 at q = 1.
    with pytest.raises(ValueError):
        gl_order(n, q)
    with pytest.raises(ValueError):
        irr_pprime_count_gl(n, q)


@pytest.mark.parametrize("n, q", [(-1, 2), (0, 1), (-2, 0)])
def test_label_count_refuses_what_the_class_type_walk_refuses(n, q):
    # The label series read 1 at n = -1 for any q.
    with pytest.raises(ValueError):
        enumerate_class_types(n, q)
    with pytest.raises(ValueError):
        label_count(n, q)


def test_irr_pprime_matches_enumeration():
    # p'-characters are exactly those with all partitions one-row; their count
    # is the semisimple class census, and the degree valuation confirms it.
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            p = prime_power_radical(q)
            enumerated = 0
            for label, count in enumerate_series_labels(n, q):
                if green_degree(label, q) % p:
                    enumerated += count
                    assert all(lam == (m,) for _, m, lam in label.components)
            assert enumerated == irr_pprime_count_gl(n, q)


def test_sum_of_squares_small():
    for n, q in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        ms = all_degrees(n, q)
        assert sum(m * d * d for d, m in ms.entries) == gl_order(n, q)


def oracle_class_numbers(top: int, q: int) -> list[int]:
    """|Irr(GL_n(q))| for n <= top: the coefficients of prod_i (1 - x^i) / (1 - q x^i)."""
    coeffs = [1] + [0] * top
    for i in range(1, top + 1):
        for k in range(i, top + 1):  # times 1 / (1 - q x^i)
            coeffs[k] += q * coeffs[k - i]
        for k in range(top, i - 1, -1):  # times (1 - x^i)
            coeffs[k] -= coeffs[k - i]
    return coeffs


def test_degree_square_sum_matches_the_multiset():
    for q in (2, 3, 4, 5, 7, 8, 9):
        class_numbers = oracle_class_numbers(10, q)
        for n in range(11):
            ms = all_degrees(n, q)
            square_sum, characters = degree_square_sum(n, q)
            assert (square_sum, characters) == (ms.group_order, ms.character_count), (n, q)
            assert characters == class_numbers[n], (n, q)
            # label_count counts a class type's labels once, whatever its class count.
            assert label_count(n, q) <= characters


# sha256 of repr(all_degrees(n, q).entries) as first computed by the
# one-type-at-a-time build.  The benchmark's CSV digest sees only the sum
# of squared degrees and |G|, so these pin the multisets themselves.
PINNED_DEGREE_DIGESTS = {
    (13, 2): "671c03bec8605636116296f5948bd210431c65d627c88bd2a79595c397fb7bec",
    (14, 2): "4d2fbb0e9edd9b3b470f33cf0f9511b24eaa838d752f9fb558ebabce9014249b",
    (13, 3): "6e38d49a7d0f5f8c92012f719a53ade788159155f32bb08b1fbf8f17a06f855a",
    (14, 3): "cab6795656e0d23b98406d89068416a51f0c0cd2d1c2e48668819cc70e4e3d49",
    (16, 3): "768b8741331cf7b4116ab72ffe2dc0798fba3bb5d2a6df9cc7e71c932f8db111",
}


def test_all_degrees_pinned_digests():
    for (n, q), digest in PINNED_DEGREE_DIGESTS.items():
        entries = all_degrees(n, q).entries
        assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest
