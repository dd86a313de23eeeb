import pytest

from blockcraft import partitions
from blockcraft.errors import CrossCheckError, UnsupportedRegimeError
from blockcraft.partitions import enumerate_partitions, partition_count, valuation_census
from blockcraft.sym_blocks import (
    SymBlockLabel,
    am_verify_abelian,
    bhz_verify,
    bhz_witness_search,
    block_labels,
    block_members_and_heights,
    block_of,
)
from blockcraft.sym_chars import central_character_blocks, sym_degree


def test_block_of_examples():
    label = block_of((2, 1, 1), 3)
    assert (label.core, label.weight) == ((2, 1, 1), 0)

    label = block_of((1, 1, 1, 1), 3)
    assert (label.core, label.weight) == ((1,), 1)

    label = block_of((4,), 5)
    assert (label.core, label.weight) == ((4,), 0)


def test_label_validation():
    with pytest.raises(ValueError):
        SymBlockLabel(p=4, core=(), weight=1)
    with pytest.raises(ValueError):
        SymBlockLabel(p=3, core=(3,), weight=0)  # (3) has a 3-hook


def test_block_members_and_heights_examples():
    data = block_members_and_heights(SymBlockLabel(p=3, core=(1,), weight=1))
    assert set(data.members) == {(4,), (2, 2), (1, 1, 1, 1)}
    assert all(h == 0 for h in data.heights.values())
    assert data.defect_group_order == 3

    data = block_members_and_heights(SymBlockLabel(p=2, core=(), weight=2))
    assert set(data.members) == set(enumerate_partitions(4))
    assert data.heights[(2, 2)] == 1
    assert data.defect_group_order == 8

    data = block_members_and_heights(SymBlockLabel(p=5, core=(3, 1), weight=0))
    assert data.members == ((3, 1),)
    assert data.heights == {(3, 1): 0}
    assert data.defect_group_order == 1


def test_block_labels_are_the_census_keys_largest_weight_first():
    for n in range(0, 21):
        for p in (2, 3, 5, 7):
            labels = [SymBlockLabel(p, core, (n - sum(core)) // p) for core in valuation_census(n, p)]
            expected = sorted(labels, key=lambda lab: (lab.weight, lab.core), reverse=True)
            assert block_labels(n, p) == tuple(expected), (n, p)


def test_blocks_partition_irr():
    for n in range(1, 26):
        for p in (2, 3, 5, 7):
            labels = block_labels(n, p)
            total = sum(len(block_members_and_heights(lab).members) for lab in labels)
            assert total == partition_count(n)


def test_block_labels_match_per_partition_labels():
    for n in range(0, 17):
        for p in (2, 3, 5, 7):
            per_partition = {block_of(lam, p) for lam in enumerate_partitions(n)}
            expected = sorted(per_partition, key=lambda lab: (lab.weight, lab.core), reverse=True)
            assert block_labels(n, p) == tuple(expected)


def test_nakayama_matches_central_character_oracle():
    for n in range(1, 8):
        for p in (2, 3, 5, 7):
            oracle = set(central_character_blocks(n, p).blocks)
            nakayama = {
                frozenset(block_members_and_heights(lab).members)
                for lab in block_labels(n, p)
            }
            assert oracle == nakayama


def test_bhz_verify_examples():
    r = bhz_verify(SymBlockLabel(p=3, core=(1,), weight=1))
    assert r.passed and r.global_count == 1 and r.local_count == 1

    r = bhz_verify(SymBlockLabel(p=2, core=(), weight=2))
    assert r.passed and r.global_count == 0 and r.local_count == 0

    r = bhz_verify(SymBlockLabel(p=7, core=(2, 1), weight=0))
    assert r.passed and r.global_count == 1 and r.local_count == 1


def test_bhz_witness_search():
    assert bhz_witness_search(2) == (2, 2)
    for w in range(2, 8):
        lam = bhz_witness_search(w)
        assert sum(lam) == 2 * w
        assert block_of(lam, 2).core == ()
        assert sym_degree(lam) % 2 == 0
    with pytest.raises(ValueError):
        bhz_witness_search(1)


def test_am_verify_examples():
    r = am_verify_abelian(SymBlockLabel(p=3, core=(), weight=1))
    assert r.passed and r.global_count == 3 and r.local_count == 3

    r = am_verify_abelian(SymBlockLabel(p=5, core=(), weight=2))
    assert r.passed and r.global_count == 20 and r.local_count == 20

    r = am_verify_abelian(SymBlockLabel(p=3, core=(1, 1), weight=0))
    assert r.passed and r.global_count == 1 and r.local_count == 1


def test_am_verify_rejects_nonabelian_regime():
    with pytest.raises(UnsupportedRegimeError):
        am_verify_abelian(SymBlockLabel(p=3, core=(), weight=3))


def test_am_small_grid():
    for n in range(1, 13):
        for p in (3, 5, 7):
            for label in block_labels(n, p):
                if label.weight < p:
                    assert am_verify_abelian(label).passed


def test_block_heights_match_per_member_heights():
    # The census's four numbers per block against hook_valuation on every member.
    for n in range(0, 19):
        for p in (2, 3, 5, 7):
            for label in block_labels(n, p):
                heights = block_members_and_heights(label).heights
                notes = bhz_verify(label).notes
                assert notes[1] == f"members {len(heights)}, max height {max(heights.values())}"
                if label.weight < p:
                    am = am_verify_abelian(label)
                    zero = max(heights.values()) == 0
                    assert am.global_count == len(heights), label
                    assert f"members all height zero: {zero}" in am.notes, label
                    assert am.passed is (zero and len(heights) == am.local_count), label


def test_block_heights_checks(monkeypatch):
    # The block of () in S_12 at p = 3 has weight 4, and its top valuation must be
    # nu_3(12!) = 5: one above makes a negative height, one below leaves no height zero.
    real_series = partitions._block_series

    def planted(shift):
        def series(top, p):
            terms = real_series(top, p)
            if top == 4:  # the outer call, not the recursion's, which reaches weight 1
                least, high, at_top, total = terms[top]
                terms[top] = (least, high + shift, at_top, total)
            return terms

        return series

    for shift, message in ((1, r"hook valuation 6 exceeds nu_3\(12!\) = 5"),
                           (-1, "has no height-zero character")):
        valuation_census.cache_clear()
        monkeypatch.setattr(partitions, "_block_series", planted(shift))
        try:
            with pytest.raises(CrossCheckError, match=message):
                valuation_census(12, 3)
        finally:
            valuation_census.cache_clear()


def test_block_labels_at_a_huge_prime():
    p = 1000000007
    labels = block_labels(4, p)
    assert sorted(label.core for label in labels) == sorted(enumerate_partitions(4))
    assert all(label.weight == 0 for label in labels)
    assert block_of((2, 1, 1), p) == SymBlockLabel(p=p, core=(2, 1, 1), weight=0)
    assert all(am_verify_abelian(label).passed for label in labels)
