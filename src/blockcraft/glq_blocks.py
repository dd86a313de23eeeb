"""ell != p machinery for GL_n(q): ell'-criteria, the local overgroup, blocks.

Everything is governed by d = d_ell(q), the order of q mod ell.  The prime
ell divides Phi_m(q) exactly for m in {d, d*ell, d*ell^2, ...}; a unipotent
character rho^lam is ell' (for ell > 2) iff lam has the maximal number of
hooks divisible by L for every tower length L in that same set; and a
general character is ell' iff its semisimple part centralizes a Sylow
ell-subgroup and all unipotent components are ell'.
Each of the two character criteria is computed both structurally and by
direct valuation of exact degrees, and the two routes must agree.

The McKay comparison is against the overgroup
M = (C_{q^d-1} x| C_d) wr S_w x GL_r(q), n = wd + r, which contains the
Sylow ell-normalizer; the wreath_local engine builds M's degree multiset
(checked against |M|) and counts its ell'-characters, as it does GL_n(q)'s.

Unipotent ell-blocks are labelled by d-cores at every prime ell not
dividing q: for ell odd by Fong-Srinivasan (Invent. Math. 69 (1982)), and
for ell = 2, where d = 1 gives the one core (), by Broue (Asterisque
133-134 (1986)), who shows there is one unipotent 2-block.  The labels are
the keys of the d-core census ``core_census(n, d)``, so no core is
recomputed from a member; gl blocks compares each block's count with
|Irr(C_d wr S_w)| from the divisor-sum recurrence, and their sum with p(n).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache, partial
from typing import NamedTuple

from .arith import is_prime, multiplicative_order, nu, prime_power_radical
from .errors import CrossCheckError
from .glq_chars import (
    SeriesLabel,
    all_degrees,
    centralizer_order,
    gl_order,
    green_degree,
    irr_pprime_count_gl,
    semisimple_class_count,
    unipotent_degree,
)
from .partitions import Partition, census_labels, core_census, d_core
from .report import VerificationReport
from .wreath_local import (
    DegreeMultiset,
    MetacyclicSpec,
    direct_product,
    irr_lprime_count,
    metacyclic_degrees,
    wreath_degrees,
)

@cache  # a gl blocks cell asks twice: its cost, then its EllContext
def d_ell(q: int, ell: int) -> int:
    """Multiplicative order of q modulo ell (the prime ell must not divide q)."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if q % ell == 0:
        raise ValueError(f"ell={ell} divides q={q}")
    return multiplicative_order(q % ell, ell)


class EllContext(namedtuple("EllContext", "q ell d")):
    """A prime power q, a prime ell not dividing q, and d = d_ell(q)."""

    __slots__ = ()

    def __new__(cls, q: int, ell: int):
        prime_power_radical(q)
        return super().__new__(cls, q, ell, d_ell(q, ell))

    def __getnewargs__(self):  # copy and pickle rebuild from q and ell
        return self.q, self.ell

    @classmethod
    def of(cls, q: int, ell: int) -> "EllContext":
        return cls(q=q, ell=ell)


def hook_tower_criterion(lam: Partition, d: int, ell: int) -> bool:
    """Hook-combinatorial ell'-test: full L-weight for every L in {d, d*ell, ...}.

    For ell odd, nu_ell([m]_q) counts the tower lengths L = d*ell^j dividing
    m (the same set that governs ell | Phi_m(q)), so the degree is ell' iff
    lam has the maximal number floor(n/L) of hooks divisible by L for every
    tower length (for d = 1 the L = 1 layer cancels against the [m]_q
    denominator and is skipped).  When floor(n/d) < ell only the first layer
    is active and this reduces to full d-weight.
    """
    n = sum(lam)
    length = d if d > 1 else ell
    while length <= n:
        weight = (n - sum(d_core(lam, length))) // length
        if weight != n // length:
            return False
        length *= ell
    return True


def unipotent_is_lprime(lam: Partition, context: EllContext) -> bool:
    """Whether the unipotent character labelled lam has degree prime to ell.

    Valuation route: nu_ell of the exact q-hook degree.  Hook route (valid
    for ell > 2): the tower-weight criterion above.  Both are computed and
    must agree when ell > 2.
    """
    degree = unipotent_degree(lam, context.q)
    by_valuation = degree % context.ell != 0
    if context.ell > 2:
        by_hooks = hook_tower_criterion(lam, context.d, context.ell)
        if by_hooks != by_valuation:
            raise CrossCheckError(
                f"hook criterion and degree valuation disagree for {lam!r}, {context}"
            )
    return by_valuation


def series_is_lprime(label: SeriesLabel, context: EllContext) -> bool:
    """Whether the character rho^{s, lam} has degree prime to ell.

    Structural route: s centralizes a Sylow ell-subgroup (equal ell-valuations
    of |C(s)| and |G|) and every unipotent component is ell' over q^{d_i}.
    Direct route: ell-valuation of the Green degree.  Must agree.
    """
    q, ell = context.q, context.ell
    order = gl_order(label.n, q)
    cent = centralizer_order(label, q)
    structural = nu(cent, ell) == nu(order, ell)
    if structural:
        structural = all(
            unipotent_is_lprime(lam, EllContext.of(q**d, ell))
            for d, _, lam in label.components
        )
    direct = green_degree(label, q) % ell != 0
    if structural != direct:
        raise CrossCheckError(
            f"Sylow-centralizing criterion and degree valuation disagree for {label}"
        )
    return direct


def _local_degrees(n: int, context: EllContext) -> DegreeMultiset:
    """Degree multiset of M = (C_{q^d-1} x| C_d) wr S_w x GL_r(q), checked against |M|."""
    q, d = context.q, context.d
    w, r = n // d, n % d
    if w == 0:
        return all_degrees(n, q)
    m = q**d - 1
    base = metacyclic_degrees(MetacyclicSpec(m=m, d=d, u=q % m))
    return direct_product(wreath_degrees(base, w), all_degrees(r, q))


def _mod_ell_signature(degrees: DegreeMultiset, ell: int) -> Counter:
    """Multiset of degree residues mod ell, folded up to sign, over ell'-degrees."""
    out: Counter = Counter()
    for deg, mult in degrees.entries:
        residue = deg % ell
        if residue:
            out[min(residue, ell - residue)] += mult
    return out


def verify_gl_mckay(n: int, q: int, ell: int) -> VerificationReport:
    """McKay count for GL_n(q) at a prime ell not dividing q.

    Global side: ell'-characters from the full Green degree enumeration.
    Local side: the ell'-count of the overgroup's degree multiset.  A
    heuristic note records whether the two sides' ell'-degrees also agree mod
    ell up to sign (the labelled bijection needed to verify that congruence
    properly is not constructed); it is a callable, so only a format that
    prints notes computes the two signatures.
    """
    context = EllContext.of(q, ell)
    degrees = all_degrees(n, q)
    global_count = irr_lprime_count(degrees, ell)
    local = _local_degrees(n, context)
    local_count = irr_lprime_count(local, ell)
    w, r = n // context.d, n % context.d

    return VerificationReport(
        conjecture="gl_mckay",
        parameters={"n": n, "q": q, "ell": ell},
        global_count=global_count,
        local_count=local_count,
        passed=global_count == local_count,
        notes=(
            f"d={context.d} w={w} r={r}",
            lambda: "degrees mod ell match up to sign: "
            f"{_mod_ell_signature(degrees, ell) == _mod_ell_signature(local, ell)} (heuristic, unlabelled)",
        ),
    )


def verify_gl_mckay_defining(n: int, q: int) -> VerificationReport:
    """McKay count for GL_n(q) at its defining prime.

    Global side: characters of degree prime to p from the full enumeration.
    Local side: the closed-form count (q-1) q^(n-1) of the parameterization
    of Irr_{p'} of a Borel subgroup by degree-n characteristic polynomials.
    """
    p = prime_power_radical(q)
    global_count = irr_lprime_count(all_degrees(n, q), p)
    local_count = irr_pprime_count_gl(n, q)
    census = semisimple_class_count(n, q)
    return VerificationReport(
        conjecture="mckay",
        parameters={"n": n, "q": q, "ell": p},
        global_count=global_count,
        local_count=local_count,
        passed=global_count == local_count == census,
        notes=(f"defining characteristic p={p}", f"semisimple class census {census}"),
    )


class GlUnipotentBlockLabel(NamedTuple):
    """Unipotent ell-block label of GL_n(q): (context, d-core, weight), n = |core| + d*weight.

    The corresponding d-cuspidal pair is (GL_1(q^d)^w x GL_r(q)-shaped Levi,
    core), with r = |core|.
    """

    context: EllContext
    core: Partition
    weight: int


def unipotent_blocks(n: int, context: EllContext) -> tuple[GlUnipotentBlockLabel, ...]:
    """All unipotent block labels of GL_n(q) in the given context, largest weight first.

    One label per key of core_census(n, d), which lists no partition.
    """
    return census_labels(core_census(n, context.d), n, context.d, partial(GlUnipotentBlockLabel, context))
