"""Block labels, defect groups, heights, and local-global checks for S_n.

A p-block of S_n is labelled by its p-core and weight (Nakayama); its
members are exactly the partitions with that p-core.  The defect group is a
Sylow p-subgroup of S_{pw}, so its order is the p-part of (pw)!, and it is
abelian iff w < p (a Sylow p-subgroup of S_{pw} is elementary abelian of
rank w when pw < p^2 and contains a wreathed C_p wr C_p otherwise).

Heights are pure valuation arithmetic:

    height(lam) = nu_p((pw)!) - nu_p(prod of the hooks of lam).

The checks need only four numbers per block, its least and top hook
valuations and its members at the top and in all, so they read
``partitions.valuation_census(n, p)``.  block_members_and_heights is the
per-member route, with hook_valuation on each member.

Alperin-McKay counting is implemented in the abelian-defect regime w < p,
where the Brauer correspondent's character count is |Irr((C_p x| C_{p-1}) wr
S_w)|, built from explicit degree enumeration once per (p, w); the global
side is the block's p-quotient count, so the two sides share no code.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .arith import is_prime, nu_factorial, primitive_root
from .errors import CrossCheckError, UnsupportedRegimeError
from .partitions import (
    Partition,
    census_labels,
    d_core,
    enumerate_partitions,
    hook_valuation,
    is_core,
    partitions_by_core,
    valuation_census,
)
from .report import VerificationReport
from .sym_chars import sym_degree
from .wreath_local import (
    TRIVIAL_GROUP,
    MetacyclicSpec,
    irr_lprime_count,
    metacyclic_degrees,
    wreath_degrees,
)


class SymBlockLabel(namedtuple("SymBlockLabel", "p core weight")):
    """Nakayama label (p, p-core, weight) of a block of S_n, n = |core| + p*weight."""

    __slots__ = ()

    def __new__(cls, p: int, core: Partition, weight: int):
        if not is_prime(p):
            raise ValueError("p must be prime")
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        if not is_core(core, p):
            raise ValueError(f"{core!r} is not a {p}-core")
        return super().__new__(cls, p, core, weight)

    @property
    def n(self) -> int:
        return sum(self.core) + self.p * self.weight

    @property
    def defect_valuation(self) -> int:
        """nu_p of the defect group order: nu_p((pw)!)."""
        return nu_factorial(self.p * self.weight, self.p)


def block_of(lam: Partition, p: int) -> SymBlockLabel:
    """The block containing chi^lam: core and weight from rim p-hook removal."""
    core = d_core(lam, p)
    return SymBlockLabel(p=p, core=core, weight=(sum(lam) - sum(core)) // p)


def block_labels(n: int, p: int) -> tuple[SymBlockLabel, ...]:
    """All p-blocks of S_n, largest weight first: one label per p-core of valuation_census(n, p)."""
    # The census has checked p and its keys are p-cores, so __new__'s checks are skipped.
    return census_labels(valuation_census(n, p), n, p, lambda c, w: SymBlockLabel._make((p, c, w)))


class BlockCharacterData(
    namedtuple("BlockCharacterData", "label members heights defect_group_order")
):
    __slots__ = ()

    def __new__(cls, label: SymBlockLabel, members: tuple[Partition, ...], heights: dict,
                defect_group_order: int):
        if min(heights.values()) != 0:
            raise CrossCheckError(f"block {label} has no height-zero character")
        return super().__new__(cls, label, members, heights, defect_group_order)


def block_members_and_heights(label: SymBlockLabel) -> BlockCharacterData:
    """Members (same p-core), their heights, and the defect group order."""
    p, defect_valuation = label.p, label.defect_valuation
    members = partitions_by_core(label.n, p)[label.core]
    heights = {}
    for lam in members:
        height = defect_valuation - hook_valuation(lam, p)
        if height < 0:
            raise CrossCheckError(f"negative height for {lam!r} in block {label}")
        heights[lam] = height
    return BlockCharacterData(
        label=label,
        members=members,
        heights=heights,
        defect_group_order=p**defect_valuation,
    )


def bhz_verify(label: SymBlockLabel) -> VerificationReport:
    """Brauer height zero for one block: all heights zero <=> weight < p."""
    least, top, _, members = valuation_census(label.n, label.p)[label.core]
    defect_valuation = label.defect_valuation
    all_height_zero = least == top
    abelian_defect = label.weight < label.p
    return VerificationReport(
        conjecture="bhz",
        parameters={
            "n": label.n,
            "p": label.p,
            "core": label.core,
            "weight": label.weight,
        },
        global_count=int(all_height_zero),
        local_count=int(abelian_defect),
        passed=all_height_zero == abelian_defect,
        notes=(
            f"defect group order {label.p ** defect_valuation}",
            f"members {members}, max height {defect_valuation - least}",
        ),
    )


def bhz_witness_search(w: int) -> Partition:
    """First partition of 2w (canonical order) with empty 2-core and even degree.

    Such a witness exists for every w >= 2; exhausting the search without
    finding one would falsify the height-zero statement for the principal
    2-block of S_{2w}, so that case raises CrossCheckError.
    """
    if w < 2:
        raise ValueError("w must be at least 2 (for w < 2 every degree is odd)")
    for lam in enumerate_partitions(2 * w):
        if d_core(lam, 2) == () and sym_degree(lam) % 2 == 0:
            return lam
    raise CrossCheckError(
        f"no even-degree partition of {2 * w} with empty 2-core: BHZ witness missing"
    )


@lru_cache(maxsize=None)
def _am_local_group(p: int, w: int) -> tuple[int, int, bool]:
    """Order, character count and all-p'-degrees flag of (C_p x| C_{p-1}) wr S_w, once per (p, w).

    At w = 0 it is the trivial group, with no base.
    """
    if w == 0:
        local = TRIVIAL_GROUP
    else:
        local = wreath_degrees(metacyclic_degrees(MetacyclicSpec(m=p, d=p - 1, u=primitive_root(p))), w)
    count = local.character_count
    return local.group_order, count, irr_lprime_count(local, p) == count


def am_verify_abelian(label: SymBlockLabel) -> VerificationReport:
    """Alperin-McKay count for an abelian-defect block (weight < p).

    Global side: the block's members in valuation_census, whose total
    valuation_census checks against the p-quotient count.  Local side: |Irr((C_p x| C_{p-1}) wr S_w)| built from explicit degree
    enumeration; with w < p the defect group is C_p^w and this wreath product
    is the relevant local quotient.  Also checks that all local degrees are
    p' and all members have height zero (abelian defect forces both).
    """
    if label.weight >= label.p:
        raise UnsupportedRegimeError(
            f"weight {label.weight} >= p {label.p}: local character theory not modelled"
        )
    p, w = label.p, label.weight
    least, top, _, global_count = valuation_census(label.n, p)[label.core]

    local_order, local_count, local_all_pprime = _am_local_group(p, w)
    members_height_zero = least == top

    notes = [
        f"local group (C_{p} x| C_{p - 1}) wr S_{w}, order {local_order}",
        f"local degrees all p': {local_all_pprime}",
        f"members all height zero: {members_height_zero}",
    ]
    return VerificationReport(
        conjecture="alperin_mckay",
        parameters={
            "n": label.n,
            "p": p,
            "core": label.core,
            "weight": w,
        },
        global_count=global_count,
        local_count=local_count,
        passed=global_count == local_count and local_all_pprime and members_height_zero,
        notes=tuple(notes),
    )
