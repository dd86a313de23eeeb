"""Block labels, defect groups, heights, and local-global checks for S_n.

A p-block of S_n is labelled by its p-core and weight (Nakayama); its
members are exactly the partitions with that p-core.  The defect group is a
Sylow p-subgroup of S_{pw}, so its order is the p-part of (pw)!, and it is
abelian iff w < p (a Sylow p-subgroup of S_{pw} is elementary abelian of
rank w when pw < p^2 and contains a wreathed C_p wr C_p otherwise).

Heights are pure valuation arithmetic:

    height(lam) = nu_p((pw)!) - nu_p(prod of the hooks of lam),

with the hook valuation read off the beta-set of lam
(``partitions.hook_valuation``).

Alperin-McKay counting is implemented in the abelian-defect regime w < p,
where the Brauer correspondent's character count is |Irr((C_p x| C_{p-1}) wr S_w)|;
the global side is an explicit partition census, so the two sides of the
comparison never share code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .arith import is_prime, nu_factorial, primitive_root
from .errors import CrossCheckError, UnsupportedRegimeError
from .partitions import (
    Partition,
    count_partitions_with_core,
    d_core,
    d_core_and_quotient,
    enumerate_partitions,
    hook_valuation,
    partitions_by_core,
)
from .report import VerificationReport
from .sym_chars import sym_degree
from .wreath_local import MetacyclicSpec, irr_lprime_count, metacyclic_degrees, wreath_degrees


@dataclass(frozen=True)
class SymBlockLabel:
    """Nakayama label (p, p-core, weight) of a block of S_n, n = |core| + p*weight."""

    p: int
    core: Partition
    weight: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")
        if d_core(self.core, self.p) != self.core:
            raise ValueError(f"{self.core!r} is not a {self.p}-core")

    @property
    def n(self) -> int:
        return sum(self.core) + self.p * self.weight


def block_of(lam: Partition, p: int) -> SymBlockLabel:
    """The block containing chi^lam: core and weight from rim p-hook removal."""
    cq = d_core_and_quotient(lam, p)
    return SymBlockLabel(p=p, core=cq.core, weight=cq.weight)


def block_labels(n: int, p: int) -> tuple[SymBlockLabel, ...]:
    """All p-blocks of S_n, largest weight first.

    One label per p-core group of partitions of n, named by its first member.
    """
    labels = (block_of(members[0], p) for members in partitions_by_core(n, p).values())
    return tuple(sorted(labels, key=lambda lab: (lab.weight, lab.core), reverse=True))


@dataclass(frozen=True)
class BlockCharacterData:
    label: SymBlockLabel
    members: tuple[Partition, ...]
    heights: dict
    defect_group_order: int

    def __post_init__(self):
        if min(self.heights.values()) != 0:
            raise CrossCheckError(f"block {self.label} has no height-zero character")


def block_members_and_heights(label: SymBlockLabel) -> BlockCharacterData:
    """Members (same p-core), their heights, and the defect group order."""
    p, w = label.p, label.weight
    defect_valuation = nu_factorial(p * w, p)
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
    start = time.perf_counter()
    data = block_members_and_heights(label)
    all_height_zero = all(h == 0 for h in data.heights.values())
    abelian_defect = label.weight < label.p
    elapsed = int((time.perf_counter() - start) * 1000)
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
        elapsed_ms=elapsed,
        notes=(
            f"defect group order {data.defect_group_order}",
            f"members {len(data.members)}, max height {max(data.heights.values())}",
        ),
    )


def bhz_witness_search(w: int, p: int = 2) -> Partition:
    """First partition of 2w (canonical order) with empty 2-core and even degree.

    Such a witness exists for every w >= 2; exhausting the search without
    finding one would falsify the height-zero statement for the principal
    2-block of S_{2w}, so that case raises CrossCheckError.
    """
    if p != 2:
        raise UnsupportedRegimeError("witness search is specific to p = 2")
    if w < 2:
        raise ValueError("w must be at least 2 (for w < 2 every degree is odd)")
    for lam in enumerate_partitions(2 * w):
        if d_core(lam, 2) == () and sym_degree(lam) % 2 == 0:
            return lam
    raise CrossCheckError(
        f"no even-degree partition of {2 * w} with empty 2-core: BHZ witness missing"
    )


def am_verify_abelian(label: SymBlockLabel) -> VerificationReport:
    """Alperin-McKay count for an abelian-defect block (weight < p).

    Global side: census of partitions of n with the block's p-core.  Local
    side: |Irr((C_p x| C_{p-1}) wr S_w)| built from explicit degree
    enumeration; with w < p the defect group is C_p^w and this wreath product
    is the relevant local quotient.  Also checks that all local degrees are
    p' and all members have height zero (abelian defect forces both).
    """
    if label.weight >= label.p:
        raise UnsupportedRegimeError(
            f"weight {label.weight} >= p {label.p}: local character theory not modelled"
        )
    start = time.perf_counter()
    p, w = label.p, label.weight
    global_count = count_partitions_with_core(label.n, p, label.core)

    base = metacyclic_degrees(MetacyclicSpec(m=p, d=p - 1, u=primitive_root(p)))
    local = wreath_degrees(base, w)
    local_count = local.character_count
    local_all_pprime = irr_lprime_count(local, p) == local.character_count

    data = block_members_and_heights(label)
    members_height_zero = all(h == 0 for h in data.heights.values())

    elapsed = int((time.perf_counter() - start) * 1000)
    notes = [
        f"local group (C_{p} x| C_{p - 1}) wr S_{w}, order {local.group_order}",
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
        elapsed_ms=elapsed,
        notes=tuple(notes),
    )
