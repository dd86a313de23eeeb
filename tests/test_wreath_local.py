import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from blockcraft import wreath_local
from blockcraft.arith import primitive_root
from blockcraft.errors import CrossCheckError
from blockcraft.partitions import (
    enumerate_partitions,
    partition_count,
    partition_tuple_count,
    partition_tuple_counts,
)
from blockcraft.sym_chars import sym_degree
from blockcraft.wreath_local import (
    DegreeMultiset,
    MetacyclicSpec,
    TRIVIAL_GROUP,
    cyclic_wreath_character_count,
    cyclic_wreath_character_counts,
    direct_product,
    irr_lprime_count,
    metacyclic_degrees,
    sylow2_local_count,
    wreath_degrees,
)


def cyclic_degrees(m):
    """The m linear characters of C_m."""
    return metacyclic_degrees(MetacyclicSpec(m=m, d=1, u=1 % m))


def test_the_trivial_group_is_c_1():
    assert cyclic_degrees(1) == TRIVIAL_GROUP


# ---------------------------------------------------------------------------
# Brute-force oracle: conjugacy classes of C_2 wr S_w by explicit group
# multiplication (|Irr| = number of classes).
# ---------------------------------------------------------------------------

def _perms(w):
    return list(product(*[range(w)] * w)) if w else [()]


def _valid_perms(w):
    return [p for p in _perms(w) if sorted(p) == list(range(w))]


def _act(perm, bits):
    out = [0] * len(bits)
    for i, b in enumerate(bits):
        out[perm[i]] = b
    return tuple(out)


def _mul(g, h):
    (a, s), (b, t) = g, h
    bits = tuple(x ^ y for x, y in zip(a, _act(s, b)))
    perm = tuple(s[t[i]] for i in range(len(s)))
    return bits, perm


def _inv(g):
    a, s = g
    s_inv = tuple(s.index(i) for i in range(len(s)))
    return _act(s_inv, a), s_inv


def oracle_c2_wreath_class_count(w):
    elements = [
        (bits, perm)
        for bits in product((0, 1), repeat=w)
        for perm in _valid_perms(w)
    ]
    seen = set()
    classes = 0
    for g in elements:
        if g in seen:
            continue
        classes += 1
        for h in elements:
            seen.add(_mul(_mul(h, g), _inv(h)))
    return classes


# ---------------------------------------------------------------------------
# Brute-force oracle: wreath degrees by enumerating every phi: Irr(B) ->
# partitions of total size w, one base character (with multiplicity) per
# recursion level.
# ---------------------------------------------------------------------------

def oracle_wreath_entries(base, w):
    chars = [d for d, m in base.entries for _ in range(m)]
    counts = Counter()

    def assign(idx, remaining, num, denom):
        if idx == len(chars):
            if remaining == 0:
                counts[math.factorial(w) // denom * num] += 1
            return
        for size in range(remaining + 1):
            for mu in enumerate_partitions(size):
                assign(
                    idx + 1,
                    remaining - size,
                    num * chars[idx] ** size * sym_degree(mu),
                    denom * math.factorial(size),
                )

    assign(0, w, 1, 1)
    return tuple(sorted(counts.items()))


def _gl_local_base(q, d):
    m = q**d - 1
    return metacyclic_degrees(MetacyclicSpec(m=m, d=d, u=q % m))


def _oracle_grid():
    # Covers w = 0, degrees of multiplicity 1 (a single fold) and
    # multiplicities above w (binomial powers truncated at size w).
    for w in range(7):
        yield f"C_2 w={w}", cyclic_degrees(2), w
    for p in (3, 5, 7):
        base = metacyclic_degrees(MetacyclicSpec(m=p, d=p - 1, u=primitive_root(p)))
        for w in range(p):
            yield f"C_{p}:C_{p - 1} w={w}", base, w
    for q, d, w in ((7, 4, 1), (9, 2, 2), (11, 2, 2), (11, 2, 3), (11, 1, 5)):
        yield f"gl_local q={q} d={d} w={w}", _gl_local_base(q, d), w
    yield "C_12 w=5", cyclic_degrees(12), 5


@pytest.mark.parametrize("base,w", [case[1:] for case in _oracle_grid()],
                         ids=[case[0] for case in _oracle_grid()])
def test_wreath_degrees_match_brute_force_oracle(base, w):
    assert wreath_degrees(base, w).entries == oracle_wreath_entries(base, w)


def oracle_wreath_degrees(base, w):
    """B wr S_w by the definition: each base character folded in on its own, with no powering."""
    shapes = [[sym_degree(mu) for mu in enumerate_partitions(t)] for t in range(w + 1)]
    table = [Counter({1: 1})] + [Counter() for _ in range(w)]
    for delta in (d for d, m in base.entries for _ in range(m)):
        folded = [Counter() for _ in range(w + 1)]
        for t1, partials in enumerate(table):
            for t2 in range(w + 1 - t1):
                for f in shapes[t2]:
                    for partial, count in partials.items():
                        folded[t1 + t2][math.comb(t1 + t2, t2) * partial * delta**t2 * f] += count
        table = folded
    return tuple(sorted(table[w].items()))


def test_wreath_degrees_match_the_one_at_a_time_fold():
    bases = {str(base): base for _, base, _ in _oracle_grid()}
    for base in bases.values():
        for w in range(6):
            assert wreath_degrees(base, w).entries == oracle_wreath_degrees(base, w), (base, w)


def test_wreath_degrees_makes_at_most_w_convolutions_per_degree(monkeypatch):
    # 2^61 - 2 linear characters: w - 1 powers of U and one fold, however many characters.
    calls = []

    def counted(*args):
        calls.append(args)
        return convolve(*args)

    convolve = wreath_local._convolve
    monkeypatch.setattr(wreath_local, "_convolve", counted)
    k = 2**61 - 2
    ms = wreath_degrees(DegreeMultiset(((1, k),), k), 14)
    assert len(calls) <= 15
    assert ms.character_count == cyclic_wreath_character_count(k, 14)


# ---------------------------------------------------------------------------
# Metacyclic groups
# ---------------------------------------------------------------------------

def oracle_metacyclic_degrees(spec):
    """Degrees of C_m x| C_d by walking the orbits of x -> u*x on Z_m, one element at a time."""
    seen = [False] * spec.m
    counts = Counter()
    for start in range(spec.m):
        size, x = 0, start
        while not seen[x]:
            seen[x] = True
            size += 1
            x = x * spec.u % spec.m
        if size:
            assert spec.d % size == 0
            counts[size] += spec.d // size
    return tuple(sorted(counts.items()))


def test_metacyclic_orbit_count_matches_the_orbit_walk():
    specs = 0
    for m in range(1, 121):
        for d in range(1, 13):
            for u in range(m):
                if pow(u, d, m) == 1 % m:
                    spec = MetacyclicSpec(m=m, d=d, u=u)
                    assert metacyclic_degrees(spec).entries == oracle_metacyclic_degrees(spec), spec
                    specs += 1
    assert specs > 5000


def test_metacyclic_s3_shape():
    ms = metacyclic_degrees(MetacyclicSpec(m=3, d=2, u=2))
    assert ms.entries == ((1, 2), (2, 1))
    assert ms.group_order == 6


def test_metacyclic_frobenius_primes():
    # C_p x| C_{p-1} with a primitive root: p-1 linear plus one of degree p-1
    for p, root in ((5, 2), (7, 3)):
        ms = metacyclic_degrees(MetacyclicSpec(m=p, d=p - 1, u=root))
        assert ms.entries == ((1, p - 1), (p - 1, 1))


def test_metacyclic_trivial_action():
    ms = metacyclic_degrees(MetacyclicSpec(m=6, d=1, u=1))
    assert ms.entries == ((1, 6),)


def test_metacyclic_gl1_base():
    # GL_1(q^d).C_d for q=2, d=3: orbits of <2> on Z_7 are {0},{1,2,4},{3,6,5}
    ms = metacyclic_degrees(MetacyclicSpec(m=7, d=3, u=2))
    assert ms.entries == ((1, 3), (3, 2))
    assert ms.character_count == 5
    # all degrees divide d
    assert all(3 % d == 0 for d, _ in ms.entries)


def oracle_metacyclic_class_count(m, d, u):
    """Conjugacy classes of C_m x| C_d by explicit multiplication."""
    elements = [(a, t) for a in range(m) for t in range(d)]

    def mul(x, y):
        (a, t), (b, s) = x, y
        return ((a + b * pow(u, t, m)) % m, (t + s) % d)

    def inv(x):
        a, t = x
        s = (d - t) % d
        return ((-a * pow(u, s, m)) % m, s)

    seen = set()
    classes = 0
    for g in elements:
        if g in seen:
            continue
        classes += 1
        for h in elements:
            seen.add(mul(mul(h, g), inv(h)))
    return classes


def test_metacyclic_count_matches_class_count_oracle():
    # |Irr| = number of conjugacy classes; also all degrees divide d
    for m, d, u in ((3, 2, 2), (7, 3, 2), (5, 4, 2), (15, 4, 2), (31, 5, 2), (8, 2, 3)):
        ms = metacyclic_degrees(MetacyclicSpec(m=m, d=d, u=u))
        assert ms.character_count == oracle_metacyclic_class_count(m, d, u)
        assert all(d % deg == 0 for deg, _ in ms.entries)


def test_metacyclic_rejects_bad_action():
    with pytest.raises(ValueError):
        MetacyclicSpec(m=5, d=2, u=3)  # 3^2 = 4 != 1 mod 5
    with pytest.raises(ValueError, match="0 <= u < m"):
        MetacyclicSpec(m=5, d=2, u=9)  # 9 = 4 mod 5 is a valid action, but not reduced


# ---------------------------------------------------------------------------
# Wreath products
# ---------------------------------------------------------------------------

def test_wreath_d8():
    ms = wreath_degrees(cyclic_degrees(2), 2)
    assert ms.entries == ((1, 4), (2, 1))
    assert ms.group_order == 8


def test_wreath_identity_cases():
    base = metacyclic_degrees(MetacyclicSpec(m=3, d=2, u=2))
    assert wreath_degrees(base, 0).entries == ((1, 1),)
    assert wreath_degrees(base, 1) == base


def test_wreath_count_matches_class_count_oracle():
    base = cyclic_degrees(2)
    for w in (0, 1, 2, 3):
        assert wreath_degrees(base, w).character_count == oracle_c2_wreath_class_count(w)


def test_wreath_count_is_tuple_count():
    # base with b characters: |Irr(B wr S_w)| = #{b-tuples of partitions, total w}
    for p, w in ((3, 2), (5, 3), (7, 4), (12, 8)):
        base = cyclic_degrees(p)
        assert wreath_degrees(base, w).character_count == partition_tuple_count(p, w)


def test_cyclic_wreath_count_recurrence_matches_degrees_and_tuples():
    # Two oracles that share no formula with the divisor-sum recurrence: the degree
    # listing of C_d wr S_w, which also checks sum m*deg^2 = |C_d wr S_w|, and the
    # pentagonal recurrence with the d-fold convolution.
    for d in range(1, 7):
        base = cyclic_degrees(d)
        counts = cyclic_wreath_character_counts(d, 15)
        for w in range(16):
            count = cyclic_wreath_character_count(d, w)
            assert count == counts[w] == wreath_degrees(base, w).character_count, (d, w)
            assert count == partition_tuple_count(d, w), (d, w)
    # One series gives every w <= 500.
    assert cyclic_wreath_character_counts(1, 500) == [partition_count(w) for w in range(501)]
    # A division that is not exact is refused, not rounded: [t] (1 - t)^(-1/2) = 1/2.
    with pytest.raises(CrossCheckError):
        cyclic_wreath_character_count(Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        cyclic_wreath_character_count(2, -1)


@pytest.mark.parametrize("d", [0, -1, -5])
def test_cyclic_wreath_counts_refuse_d_below_1_as_the_tuple_counts_do(d):
    # The recurrence read [1, 0, 0, ...] at d = 0 and [1, -1, -1, 0, 0] at d = -1.
    with pytest.raises(ValueError, match="need d >= 1 and w >= 0"):
        partition_tuple_counts(d, 4)
    with pytest.raises(ValueError, match="need d >= 1 and w >= 0"):
        cyclic_wreath_character_counts(d, 4)


def test_frobenius_wreath_count_abelian_defect_regime():
    for p in (3, 5, 7):
        base = metacyclic_degrees(MetacyclicSpec(m=p, d=p - 1, u=primitive_root(p)))
        assert base.character_count == p
        for w in range(0, p):
            assert wreath_degrees(base, w).character_count == partition_tuple_count(p, w)


def test_iterated_wreath_linear_count_is_power_of_two():
    # P_k = P_{k-1} wr C_2 is a Sylow 2-subgroup of S_{2^k}, and |P_k/P_k'| = 2^k
    ms = cyclic_degrees(1)
    for k in range(1, 6):
        ms = wreath_degrees(ms, 2)
        linear = dict(ms.entries).get(1, 0)
        assert linear == 2**k == sylow2_local_count(2**k)


def test_sylow2_local_count_wreathes_each_layer(monkeypatch):
    # 24 = 2^3 + 2^4: P_1..P_4 are built from P_0..P_3, of orders 2^(2^k - 1).
    calls = []

    def counting(base, w):
        calls.append((base.group_order, w))
        return wreath_degrees(base, w)

    monkeypatch.setattr(wreath_local, "wreath_degrees", counting)
    assert sylow2_local_count(24) == 2**7
    assert calls == [(1, 2), (2, 2), (8, 2), (128, 2)]


def test_sylow2_local_count_builds_each_layer_once():
    # 24 = 2^3 + 2^4 builds P_1..P_4; 29 = 2^0 + 2^2 + 2^3 + 2^4 then finds all four kept.
    wreath_degrees.cache_clear()
    for n, hits_and_misses in ((24, (0, 4)), (29, (4, 4))):
        sylow2_local_count(n)
        info = wreath_degrees.cache_info()
        assert (info.hits, info.misses) == hits_and_misses, n


def test_sylow2_local_count_never_forms_the_direct_product(monkeypatch):
    # 2047 = 2^0 + ... + 2^10: the odd-degree counts of the layers multiply.
    def refuse(a, b):
        raise AssertionError("direct_product called")

    monkeypatch.setattr(wreath_local, "direct_product", refuse)
    assert sylow2_local_count(2047) == 2**55


def test_direct_product_examples():
    c6 = direct_product(cyclic_degrees(2), cyclic_degrees(3))
    assert c6.entries == cyclic_degrees(6).entries
    assert c6.group_order == 6
    s3 = metacyclic_degrees(MetacyclicSpec(m=3, d=2, u=2))
    s3_squared = direct_product(s3, s3)
    assert s3_squared.entries == ((1, 4), (2, 4), (4, 1))
    assert s3_squared.group_order == 36


def test_irr_lprime_count_examples():
    d8 = wreath_degrees(cyclic_degrees(2), 2)
    assert irr_lprime_count(d8, 2) == 4
    assert irr_lprime_count(d8, 7) == d8.character_count

    base = metacyclic_degrees(MetacyclicSpec(m=5, d=4, u=2))
    big = wreath_degrees(base, 2)
    assert irr_lprime_count(big, 5) == 20
    assert big.character_count == 20


def test_degree_multiset_rejects_wrong_order():
    with pytest.raises(CrossCheckError):
        DegreeMultiset(entries=((1, 2),), group_order=3)
    with pytest.raises(ValueError):
        DegreeMultiset(entries=((2, 1), (1, 1)), group_order=5)


def test_degree_multiset_accepts_exactly_the_positive_sorted_entries():
    # The rule the constructor had when it sorted a copy of its entries to compare.
    values = (-1, 0, 1, 2)
    pairs = list(product(values, values))
    for size in range(4):
        for entries in product(pairs, repeat=size):
            order = sum(m * d * d for d, m in entries)
            expected = all(d >= 1 and m >= 1 for d, m in entries) and list(entries) == sorted(entries)
            try:
                accepted = DegreeMultiset(entries, order).entries == entries
            except ValueError:
                accepted = False
            assert accepted == expected, entries
    counts = Counter({5: 2, 1: 7, 3: 1, 2**70: 4, 4: 9})
    assert DegreeMultiset.from_counter(counts, sum(m * d * d for d, m in counts.items())).entries == (
        tuple(sorted(counts.items()))
    )


def test_wreath_sum_of_squares_explicit():
    base = metacyclic_degrees(MetacyclicSpec(m=7, d=3, u=2))
    for w in (2, 3):
        ms = wreath_degrees(base, w)
        assert sum(m * d * d for d, m in ms.entries) == 21**w * math.factorial(w)
