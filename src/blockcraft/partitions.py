"""Partition, hook, abacus, and rim-hook combinatorics.

A partition is a plain tuple of weakly decreasing positive ints; ``()`` is
the unique partition of 0.  The canonical enumeration order is reverse
lexicographic: ``(4), (3,1), (2,2), (2,1,1), (1,1,1,1)``.

Hook-length multisets are tuples sorted in decreasing order, one entry per
box of the Young diagram.

Beads have one format, an int bitmask: bit k is set when there is a bead at
position k.  The row at depth k from the bottom with part a has its bead at
a + k, so a partition with r parts has r beads, position 0 is empty and each
partition has exactly one mask (``()`` is 0): that is ``_beta_bits``.  Its
inverse, ``_partition_of_bits``, takes any bead count, since a bead's part
is its position minus the beads below it, and zero parts drop out.  Cores
and quotients are read on the d-runner abacus with the mask padded to a
multiple of d beads; that normalization makes the d-quotient well defined
(it does not depend on how far we pad).  Runner r's bead at level k is the
bit r + d*k, and its level mask decodes to the quotient's r-th partition.

Removing a rim t-hook moves one bead from pos to the empty pos - t, which is
two XORs; the leg length is the number of beads strictly between them.  A
bead that lands on position 0 gives zero parts, and that low run of set bits
is shifted out to keep the mask unique.  ``_rim_hooks`` lists one mask's
hooks.  The table of S_m reads ``_rim_hook_map(m, k)`` once, for all its
classes with first part k: for each partition of m, the positions among the
partitions of m - k that one rim k-hook takes it to, by leg parity.
``mn_character_value`` is the per-value route: signed coefficients on
masks go through the parts of the cycle type without recursion.

``hook_valuation`` sums nu_p over the hooks of one partition, one hook at a
time, and shares no formula with the census.  ``valuation_census`` computes
no hook.  The hooks of lam that p divides are p times the hooks of its
p-quotient (James-Kerber 2.7), so its valuation is its weight w plus those
of the quotient's p partitions, and every block of weight w has the same
valuations: only the p-cores are walked, and each block reads a coefficient
of a power series whose terms are 4-tuples (least valuation, top valuation,
members at the top, members).  ``_block_series`` finds that series and its
powers in one forward pass, as the term at t^m reads block terms of weights
below m only.

No partition of n has a hook longer than n, so for d > n each one is its
own d-core: ``d_core``, ``is_core`` and the censuses never build an abacus
of more than n + 1 runners, however large d is.

Everything here is pure and deterministic.  The memo tables are
module-level ``functools`` caches of immutable values, so concurrent
readers always observe consistent results.  Three read-only censuses take
one pass per (n, d): ``partitions_by_core`` lists the partitions of n by
d-core, the per-member route; ``core_census`` counts them by d-core, which
is all gl blocks reads; ``valuation_census`` gives each p-core its block's
4-tuple, which is all the S_n block, height and p'-degree checks read.  The
two counting censuses list no partition: they walk only the d-cores
(``_core_walk``, checked in number by Garvan-Kim-Stanton).
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from collections.abc import Callable, Mapping
from functools import cache, lru_cache, reduce
from operator import sub
from types import MappingProxyType
from typing import NamedTuple

from .arith import is_prime, nu, nu_factorial
from .errors import CrossCheckError

Partition = tuple[int, ...]


def validate_partition(lam: Partition) -> None:
    """Raise ValueError unless lam is a weakly decreasing tuple of positive ints."""
    if not isinstance(lam, tuple):
        raise ValueError(f"partition must be a tuple, got {type(lam).__name__}")
    for i, part in enumerate(lam):
        if not isinstance(part, int) or part <= 0:
            raise ValueError(f"partition parts must be positive ints: {lam!r}")
        if i and lam[i - 1] < part:
            raise ValueError(f"partition parts must be weakly decreasing: {lam!r}")


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []
    prefix: list[int] = []

    def rec(remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            rec(remaining - part, part)
            prefix.pop()

    rec(n, n)
    return tuple(out)


_PARTITION_COUNTS = [1]  # p(0), extended on demand by Euler's recurrence
_PARTITION_COUNTS_LOCK = threading.Lock()  # the table only ever grows


def partition_count(n: int) -> int:
    """The partition number p(n), via the pentagonal-number recurrence."""
    if n < 0:
        return 0
    if len(_PARTITION_COUNTS) <= n:
        with _PARTITION_COUNTS_LOCK:
            while len(_PARTITION_COUNTS) <= n:
                m = len(_PARTITION_COUNTS)
                total = 0
                k = 1
                while True:
                    g1 = k * (3 * k - 1) // 2
                    g2 = k * (3 * k + 1) // 2
                    if g1 > m:
                        break
                    sign = -1 if k % 2 == 0 else 1
                    total += sign * _PARTITION_COUNTS[m - g1]
                    if g2 <= m:
                        total += sign * _PARTITION_COUNTS[m - g2]
                    k += 1
                _PARTITION_COUNTS.append(total)
    return _PARTITION_COUNTS[n]


def partition_count_capped(n: int, cap: int) -> int:
    """p(n) if at most cap, else p(k) > cap for the least such k: p(n) is never built at large n."""
    k = 0
    while k < n and partition_count(k) <= cap:
        k += 1
    return partition_count(k)


def conjugate(lam: Partition) -> Partition:
    """Transpose of lam, in one walk up its rows: O(lam[0] + len(lam))."""
    out = []
    rows = len(lam)
    for j in range(1, lam[0] + 1 if lam else 1):
        while lam[rows - 1] < j:
            rows -= 1
        out.append(rows)
    return tuple(out)


def hook_lengths(lam: Partition) -> tuple[int, ...]:
    """Multiset of hook lengths of lam, sorted decreasing.

    The hook at box (i, j) is arm + leg + 1; the largest entry is always
    lam[0] + len(lam) - 1.
    """
    conj = conjugate(lam)
    out = [row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row)]
    out.sort(reverse=True)
    return tuple(out)


def hook_valuation(lam: Partition, p: int) -> int:
    """nu_p of the product of the hook lengths of lam, one hook at a time."""
    if p < 2:
        raise ValueError("p must be at least 2")
    return sum(nu(hook, p) for hook in hook_lengths(lam) if hook % p == 0)


class CoreQuotient(NamedTuple):
    """d-core and d-quotient of a partition: size(core) + d*weight = n."""

    d: int
    core: Partition
    weight: int
    quotient: tuple[Partition, ...]


def _beta_bits(lam: Partition) -> int:
    """The beta-set of lam with len(lam) beads, as a bitmask (bit k set = bead at k)."""
    return sum(1 << (part + depth) for depth, part in enumerate(reversed(lam)))


def _partition_of_bits(bits: int) -> Partition:
    """Inverse of _beta_bits, for any bead count: a part is its bead less the beads below it."""
    parts = []
    while bits:
        low = bits & -bits  # the lowest bead left; len(parts) beads lie below it
        parts.append(low.bit_length() - 1 - len(parts))
        bits ^= low
    return tuple(part for part in reversed(parts) if part)


def _core_of_counts(counts, d: int) -> Partition:
    """The d-core with counts[r] beads on runner r, every bead slid to the top."""
    return _partition_of_bits(sum(1 << r + d * k for r, c in enumerate(counts) for k in range(c)))


@lru_cache(maxsize=None)
def d_core_and_quotient(lam: Partition, d: int) -> CoreQuotient:
    """Core and quotient of lam on the d-runner abacus.

    The core is what exhaustive rim d-hook removal leaves (independent of
    removal order); the quotient component for runner r is read off the bead
    levels of that runner.  d = 1 is allowed and gives an empty core with
    quotient (lam,).
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    validate_partition(lam)
    pad = -len(lam) % d  # beads put below lam's, to fill whole levels
    bits = _beta_bits(lam) << pad | (1 << pad) - 1
    runners = [0] * d  # the level mask of each runner
    for pos in range(bits.bit_length()):
        if bits >> pos & 1:
            runners[pos % d] |= 1 << pos // d
    core = _core_of_counts([levels.bit_count() for levels in runners], d)
    quotient = tuple(map(_partition_of_bits, runners))
    weight = sum(sum(mu) for mu in quotient)
    if sum(core) + d * weight != sum(lam):
        raise CrossCheckError("abacus core/quotient sizes inconsistent")
    return CoreQuotient(d=d, core=core, weight=weight, quotient=quotient)


def d_core(lam: Partition, d: int) -> Partition:
    """The d-core of lam; for d > |lam| that is lam, found on an (|lam| + 1)-runner abacus."""
    return d_core_and_quotient(lam, min(d, sum(lam) + 1)).core


def is_core(lam: Partition, d: int) -> bool:
    """Whether lam is a d-core: no bead of its beta-set has an empty position d below it."""
    if d < 1:
        raise ValueError("d must be at least 1")
    validate_partition(lam)
    bits = _beta_bits(lam)
    return not (bits >> d) & ~bits


def partition_tuple_counts(d: int, top: int) -> list[int]:
    """The numbers of d-tuples of partitions of total size w, for w = 0..top, by d convolutions."""
    if d < 1 or top < 0:
        raise ValueError("need d >= 1 and w >= 0")
    if top == 0:  # one tuple of empty partitions, however large d is
        return [1]
    counts = [partition_count(k) for k in range(top + 1)]
    coeffs = [1] + [0] * top
    for _ in range(d):
        coeffs = [sum(coeffs[j] * counts[k - j] for j in range(k + 1)) for k in range(top + 1)]
    return coeffs


def partition_tuple_count(d: int, w: int) -> int:
    """Number of d-tuples of partitions with total size w."""
    return partition_tuple_counts(d, w)[w]


@lru_cache(maxsize=None)
def partitions_by_core(n: int, d: int) -> Mapping[Partition, tuple[Partition, ...]]:
    """The partitions of n grouped by d-core, in one pass over enumerate_partitions(n).

    Maps each d-core that occurs to the tuple of its partitions, in canonical
    order; cores appear in the order of their first member.  The d-core is
    fixed by how many beads lie on each runner of the d-abacus, so the pass
    keys each partition by those counts, packed into one int, and turns each
    distinct key into a core once.  No partition of n has a hook longer than
    n, so for d > n each one is its own d-core and no key is made.  The
    mapping is read-only, since every caller shares the cached value.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > n:
        return MappingProxyType({lam: (lam,) for lam in enumerate_partitions(n)})
    count_bits = n.bit_length()  # a runner holds at most n beads
    mask = (1 << count_bits) - 1
    cores: dict[int, Partition] = {}
    groups: dict[Partition, list[Partition]] = {}
    for lam in enumerate_partitions(n):
        key = sum(1 << count_bits * ((a + depth) % d) for depth, a in enumerate(reversed(lam)))
        if key not in cores:
            counts = [key >> (count_bits * r) & mask for r in range(d)]
            low = min(counts)  # full bottom levels, which depend on the bead count only
            cores[key] = _core_of_counts([count - low for count in counts], d)
        groups.setdefault(cores[key], []).append(lam)
    return MappingProxyType({core: tuple(members) for core, members in groups.items()})


def _core_walk(n: int, d: int) -> dict[Partition, int]:
    """Each d-core of size n - d*w, mapped to its weight w; nothing else is listed.

    The rows go on bottom up, one call per run of equal rows: the row of
    part a at depth k has bead a + k, which the rows above it never move.
    So removing the top row of a d-core leaves a d-core, and the walk enters
    only d-cores: a row goes on only if its bead b is below d or b - d
    already holds a bead.  The top bead so far is low + depth - 1, so a row
    that fits has part at most low + d - 1, and no larger part is tried.  For
    d > n nothing is pruned, and each partition of n is its own core.
    """
    cores: dict[Partition, int] = {}
    rows: list[int] = []  # the parts placed so far, bottom up

    def fits(bead: int, beads: int) -> bool:
        return bead < d or beads >> (bead - d) & 1

    def walk(remaining: int, low: int, depth: int, beads: int) -> None:
        start = len(rows)
        while True:  # the top row placed so far has part low (low = 1 at the root)
            if remaining % d == 0:
                cores[tuple(reversed(rows))] = remaining // d
            top = min(remaining, low + d - 1)
            for part in range(low + 1, min(remaining // 2, top) + 1):  # room for a row >= part
                if fits(part + depth, beads):
                    rows.append(part)
                    walk(remaining - part, part, depth + 1, beads | 1 << (part + depth))
                    rows.pop()
            for part in range(top - (top - remaining) % d, max(low, remaining // 2), -d):
                if fits(part + depth, beads):
                    cores[(part, *reversed(rows))] = (remaining - part) // d
            if low > remaining or not fits(low + depth, beads):
                break
            rows.append(low)
            beads, remaining, depth = beads | 1 << (low + depth), remaining - low, depth + 1
        del rows[start:]

    walk(n, 1, 0, 0)
    return cores


@lru_cache(maxsize=None)
def core_census(n: int, d: int) -> Mapping[Partition, int]:
    """For each d-core of a partition of n, how many partitions of n have it.

    The cores are _core_walk's, and a core of weight w is had by
    partition_tuple_count(d, w) partitions, the d-tuples of partitions of
    total size w (the d-quotient bijection), read off one series up to the
    largest weight, so no partition is listed.  CrossCheckError is raised
    unless the walk finds c_d(k) cores of each size k = n - d*w
    (Garvan-Kim-Stanton).  The mapping is read-only, as it is shared.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d < 1:
        raise ValueError("d must be at least 1")
    cores = _core_walk(n, d)
    weights = Counter(cores.values())
    if tuple(weights[w] for w in range(n // d + 1)) != _core_counts(n, d)[n::-d]:
        raise CrossCheckError(f"the {d}-cores walked for n = {n} are not c_{d}(n - {d}w) in number")
    sizes = partition_tuple_counts(d, max(weights))
    return MappingProxyType({core: sizes[w] for core, w in cores.items()})


@lru_cache(maxsize=128)
def _core_counts(n: int, d: int) -> tuple[int, ...]:
    """c_d(k) for k <= n: the coefficients of prod_k (1 - x^(dk))^d / (1 - x^k).

    Memoized, so a census cell's cost and its core_census share one count.
    The bound holds a census sweep's keys (47 on the sym_census benchmark
    grid), so a sweep counts each (n, d) once, and keeps at most 128 rows.
    """
    counts = [partition_count(k) for k in range(n + 1)]
    for step in range(d, n + 1, d):
        for _ in range(d):  # times (1 - x^step), reading the old coefficients
            counts[step:] = map(sub, counts[step:], counts[:-step])
    return tuple(counts)


def _plus(a: tuple, b: tuple) -> tuple:
    """The sum of two terms: the smaller least, the larger top with its members, the totals."""
    top = max(a[1], b[1])
    at_top = (a[2] if a[1] == top else 0) + (b[2] if b[1] == top else 0)
    return min(a[0], b[0]), top, at_top, a[3] + b[3]


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two terms: valuations add and counts multiply."""
    return a[0] + b[0], a[1] + b[1], a[2] * b[2], a[3] * b[3]


def _block_series(top: int, p: int) -> list:
    """[t^w] G(t)^p for w <= top, as (least, top valuation, members at the top, members).

    G(t) = sum_m D_m t^m, where D_m sums the terms of [t^w] G^p, shifted by
    w, over the c_p(m - pw) p-cores of m of each weight w.  So D_m = (0, 0,
    p(m), p(m)) for m < p, where no hook reaches p.  D_m reads only weights
    w <= m // p < m, whose terms need D_0, ..., D_w alone, so one pass up m
    finds each D_m and then the t^m coefficient of each of G^2, ..., G^p,
    with no recursion and no powering.
    """
    if top == 0:  # before powers is sized by p, which may be huge
        return [(0, 0, 1, 1)]
    cores = _core_counts(top, p)
    powers = [[(0, 0, 1, 1)] for _ in range(p)]  # powers[j][m] = [t^m] G^(j+1)
    for m in range(1, top + 1):
        weights = ((w, k) for w in range(m // p + 1) if (k := cores[m - p * w]))
        powers[0].append(reduce(_plus, (_times(powers[-1][w], (w, w, k, k)) for w, k in weights)))
        for lower, power in zip(powers, powers[1:]):
            power.append(reduce(_plus, map(_times, powers[0], reversed(lower))))
    return powers[-1]


@lru_cache(maxsize=None)
def valuation_census(n: int, p: int) -> Mapping[Partition, tuple[int, int, int, int]]:
    """For each p-core of a partition of n, (least, top valuation, members at the top, members).

    The hook valuation of lam is nu_p of its hook product, so lam has height
    nu_p((pw)!) - valuation in its block of weight w, and p'-degree iff the
    valuation is nu_p(n!).  It is w plus the valuations of the p partitions
    of lam's p-quotient, so each block of weight w has the term [t^w] G(t)^p
    of _block_series shifted by w, and only the cores are walked: they are
    the keys of core_census(n, p), which checks them against the
    Garvan-Kim-Stanton count.  CrossCheckError is raised unless each
    weight's term counts as many partitions as core_census gives its blocks
    and its top is nu_p((pw)!): above it a height is negative, below it no
    height is zero.  The mapping is read-only, as every caller shares it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not is_prime(p):
        raise ValueError("p must be prime")
    census = core_census(n, p)
    weights = {core: (n - sum(core)) // p for core in census}
    blocks, terms = _block_series(n // p, p), {}
    for w, members in {w: census[core] for core, w in weights.items()}.items():
        _, top, _, total = terms[w] = _times(blocks[w], (w, w, 1, 1))  # shifted by w
        if total != members:
            raise CrossCheckError(f"weight {w} distribution does not count the {p}-quotients")
        defect = nu_factorial(p * w, p)
        if top > defect:
            raise CrossCheckError(f"hook valuation {top} exceeds nu_{p}({p * w}!) = {defect}")
        if top < defect:
            raise CrossCheckError(f"a {p}-block of weight {w} has no height-zero character")
    return MappingProxyType({core: terms[w] for core, w in weights.items()})


def census_labels(census: Mapping[Partition, object], n: int, d: int, label: Callable) -> tuple:
    """label(core, weight) for each d-core key of a census of n, largest weight first."""
    weights = sorted(((*divmod(n - sum(core), d), core) for core in census), reverse=True)
    for _, rest, core in weights:
        if rest:
            raise CrossCheckError(f"{d}-core {core!r} of a partition of {n} leaves {rest} boxes")
    return tuple(label(core, weight) for weight, _, core in weights)


def count_partitions_with_core(n: int, d: int, core: Partition) -> int:
    """Number of partitions of n with the given d-core.

    Read off core_census, which gives a core of weight w the d-quotient count
    partition_tuple_count(d, w), so nothing here compares the two.  Returns 0
    when n - |core| is negative or not divisible by d; raises ValueError if
    core is not actually a d-core.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if not is_core(core, d):
        raise ValueError(f"{core!r} is not a {d}-core")
    rest = n - sum(core)
    if rest < 0 or rest % d != 0:
        return 0
    return core_census(n, d).get(core, 0)


def _rim_hooks(bits: int, length: int) -> list[tuple[int, int]]:
    """(mask, leg) for each rim hook of the given length, top row first.

    A rim hook is a bead at pos moving down to the empty position pos - length;
    its leg length is the number of beads strictly between the two.  A bead
    landing on position 0 is stripped with the run of beads above it (zero
    parts), so every result is again the unique len(partition)-bead mask.
    """
    hooks, targets = [], (bits >> length) & ~bits  # empty positions with a bead length above
    while targets:
        target = 1 << (targets.bit_length() - 1)
        bead = target << length
        moved = bits ^ bead ^ target
        if moved & 1:
            moved >>= (moved ^ (moved + 1)).bit_length() - 1
        hooks.append((moved, (bits & (bead - (target << 1))).bit_count()))
        targets ^= target
    return hooks


@cache
def _mask_positions(m: int) -> Mapping[int, int]:
    """The beta-set mask of each partition of m, mapped to its position in the canonical order."""
    return MappingProxyType({_beta_bits(lam): i for i, lam in enumerate(enumerate_partitions(m))})


def _rim_hook_map(m: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Where one rim k-hook takes each partition of m, in canonical order.

    Entry i is (even, odd): the positions in enumerate_partitions(m - k) of
    the i-th partition of m with one rim k-hook removed, split by the parity
    of the hook's leg length.  Not memoized: the one table build that reads
    each map is, so a map is freed once its table is built.
    """
    position = _mask_positions(m - k)
    out = []
    for bits in _mask_positions(m):
        even: list[int] = []
        odd: list[int] = []
        for moved, leg in _rim_hooks(bits, k):
            (odd if leg & 1 else even).append(position[moved])
        out.append((tuple(even), tuple(odd)))
    return tuple(out)


def mn_character_value(lam: Partition, rho: Partition) -> int:
    """Exact value chi^lam(rho) of the S_n character by the Murnaghan-Nakayama rule.

    rho is the cycle type of the class; both arguments must partition the
    same n.  At the identity class (1^n) this equals the hook-length degree.
    """
    validate_partition(lam)
    validate_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: |{lam!r}| != |{rho!r}|")
    return _mn(_beta_bits(lam), tuple(sorted(rho, reverse=True)))


@lru_cache(maxsize=1024)
def _mn(bits: int, rho: Partition) -> int:
    """chi(rho) for the partition with beta-set mask bits; rho sorted decreasing.

    One rim hook comes off per part of rho.  The frontier maps each mask
    reached so far to its signed coefficient, equal masks merge and zero
    coefficients drop, so no recursion runs however many parts rho has.
    """
    frontier = {bits: 1}
    for cycle in rho:
        reached: dict[int, int] = defaultdict(int)
        for mask, coeff in frontier.items():
            for moved, leg in _rim_hooks(mask, cycle):
                reached[moved] += -coeff if leg & 1 else coeff
        frontier = {mask: coeff for mask, coeff in reached.items() if coeff}
    return frontier.get(0, 0)
