"""Partition, hook, abacus, and rim-hook combinatorics.

A partition is a plain tuple of weakly decreasing positive ints; ``()`` is
the unique partition of 0.  The canonical enumeration order is reverse
lexicographic: ``(4), (3,1), (2,2), (2,1,1), (1,1,1,1)``.

Hook-length multisets are tuples sorted in decreasing order, one entry per
box of the Young diagram.  Cores and quotients are computed on the d-runner
abacus with the beta-set padded to a multiple of d beads; that normalization
makes the d-quotient well defined (it does not depend on how far we pad).

The Murnaghan-Nakayama kernel works on beta-sets as int bitmasks: bit k is
set when there is a bead at position k.  A partition with r parts has r
beads, so position 0 is empty and each partition has exactly one mask
(``()`` is 0).  Removing a rim t-hook moves one bead from pos to the empty
pos - t, which is two XORs; the leg length is the number of beads strictly
between them.  A bead that lands on position 0 gives zero parts, and that
low run of set bits is shifted out to keep the mask unique.  The character
tables use the rule on whole columns, through ``_rim_hook_map(m, k)``: for
each partition of m, the positions among the partitions of m - k that one
rim k-hook takes it to, split by leg parity.  ``mn_character_value`` is the
per-value route, which carries signed coefficients on masks through the parts
of the cycle type without recursion.

Hook valuations are read off the beta-set too.  In the row with bead b the
hooks are {1, ..., b} minus {b - c : c a lower bead}, so

    nu_p(prod of hooks) = sum over beads b of (nu_p(b!) - sum_{c < b} nu_p(b - c)),

and only the lower beads on b's runner of the p-abacus (c = b mod p) give
nonzero terms.  Adding rows from the bottom up, the row at depth k with part
a has bead a + k whatever lies above it, so its term is final as soon as
the rows below it are known: ``hook_valuation`` sums these terms for one
partition, and ``valuation_census`` sums them along every partition in one
depth-first walk over runs of equal rows, without listing any.

No partition of n has a hook longer than n, so for d > n each one is its
own d-core: ``d_core``, ``is_core`` and the censuses never build an abacus
of more than n + 1 runners, however large d is.

Everything here is pure and deterministic.  The memo tables are
module-level ``functools`` caches of immutable values, so concurrent
readers always observe consistent results.  They hold the last 1024
Murnaghan-Nakayama values ``_mn``, keyed on (mask, cycle type); the rim-hook
maps behind the character tables, one per (m, k), with the position of each
mask among the partitions of m; the tables of nu_p(m) and nu_p(m!) behind
every hook valuation, one per p and power-of-two size; and three read-only
censuses, each one pass per (n, d):
``partitions_by_core`` lists the partitions of n grouped by d-core (the
per-member route: the Nakayama oracle and block_members_and_heights),
``core_census`` counts them by d-core, which is all gl blocks reads, and
``valuation_census`` counts them by d-core and hook valuation, which is
all the S_n block, height and p'-degree checks read.  The two counting
censuses list no partition.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, lru_cache
from types import MappingProxyType

from .arith import is_prime, nu_factorial
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


@lru_cache(maxsize=64)
def _valuation_tables(p: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """nu_p(m) and nu_p(m!) for 0 <= m < 2**bits, with nu_p(0) stored as 0."""
    if p < 2:
        raise ValueError("p must be at least 2")
    nu = [0] * (1 << bits)
    nu_fact = nu[:]
    for m in range(1, len(nu)):
        if m % p == 0:
            nu[m] = nu[m // p] + 1
        nu_fact[m] = nu_fact[m - 1] + nu[m]
    return tuple(nu), tuple(nu_fact)


def _row_hook_valuation(bead: int, lower: list[int], nu, nu_fact) -> int:
    """nu_p of the hook product of the row with this bead.

    lower holds the beads below it on its runner of the p-abacus; nu and
    nu_fact come from _valuation_tables(p, ...).
    """
    value = nu_fact[bead]
    for below in lower:
        value -= nu[bead - below]
    return value


def hook_valuation(lam: Partition, p: int) -> int:
    """nu_p of the product of the hook lengths of lam, read off its beta-set."""
    top = lam[0] + len(lam) - 1 if lam else 0  # the highest bead
    nu, nu_fact = _valuation_tables(p, top.bit_length())
    runners: dict[int, list[int]] = {}
    total = 0
    for depth, part in enumerate(reversed(lam)):
        bead = part + depth
        lower = runners.setdefault(bead % p, [])
        total += _row_hook_valuation(bead, lower, nu, nu_fact)
        lower.append(bead)
    return total


def beta_set(lam: Partition, beads: int) -> tuple[int, ...]:
    """First-column beta-numbers of lam with the given number of beads.

    Returns (lam_i + beads - 1 - i) for i = 0..beads-1 with lam padded by
    zeros; strictly decreasing.
    """
    if beads < len(lam):
        raise ValueError("bead count smaller than the number of parts")
    padded = lam + (0,) * (beads - len(lam))
    return tuple(padded[i] + beads - 1 - i for i in range(beads))


def partition_from_beta(beta: tuple[int, ...]) -> Partition:
    """Inverse of beta_set: recover the partition from a strictly decreasing beta-set."""
    b = len(beta)
    parts = []
    for i, val in enumerate(beta):
        if val < 0 or (i and val >= beta[i - 1]):
            raise ValueError("beta-set must be strictly decreasing and nonnegative")
        part = val - (b - 1 - i)
        if part > 0:
            parts.append(part)
    return tuple(parts)


@dataclass(frozen=True)
class CoreQuotient:
    """d-core and d-quotient of a partition: size(core) + d*weight = n."""

    d: int
    core: Partition
    weight: int
    quotient: tuple[Partition, ...]


def _abacus_runners(lam: Partition, d: int) -> list[list[int]]:
    """Bead levels of lam on each runner of the d-abacus, highest first."""
    rows = max(1, len(lam))
    beads = d * ((rows + d - 1) // d)
    runners: list[list[int]] = [[] for _ in range(d)]
    for pos in beta_set(lam, beads):  # strictly decreasing, so each runner is too
        runners[pos % d].append(pos // d)
    return runners


def _core_of_counts(counts, d: int) -> Partition:
    """The d-core with counts[r] beads on runner r, every bead slid to the top."""
    positions = [r + d * k for r, count in enumerate(counts) for k in range(count)]
    positions.sort(reverse=True)
    return partition_from_beta(tuple(positions))


def _core_decoder(runners: int, count_bits: int):
    """Census key (count_bits bits of bead count per runner) -> core, each key converted once."""
    mask = (1 << count_bits) - 1

    @cache
    def core_of(key: int) -> Partition:
        counts = [key >> (count_bits * r) & mask for r in range(runners)]
        low = min(counts)  # full bottom levels, which depend on the bead count only
        return _core_of_counts([count - low for count in counts] if low else counts, runners)

    return core_of


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
    runners = _abacus_runners(lam, d)
    core = _core_of_counts([len(levels) for levels in runners], d)
    quotient = tuple(partition_from_beta(tuple(levels)) for levels in runners)
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


def partition_tuple_count(d: int, w: int) -> int:
    """Number of d-tuples of partitions with total size w."""
    if d < 1 or w < 0:
        raise ValueError("need d >= 1 and w >= 0")
    if w == 0:  # one tuple of empty partitions, however large d is
        return 1
    coeffs = [1] + [0] * w
    for _ in range(d):
        coeffs = [
            sum(coeffs[j] * partition_count(k - j) for j in range(k + 1))
            for k in range(w + 1)
        ]
    return coeffs[w]


@lru_cache(maxsize=None)
def partitions_by_core(n: int, d: int) -> Mapping[Partition, tuple[Partition, ...]]:
    """The partitions of n grouped by d-core, in one pass over enumerate_partitions(n).

    Maps each d-core that occurs to the tuple of its partitions, in canonical
    order; cores appear in the order of their first member.  The d-core is
    fixed by how many beads lie on each runner of the d-abacus, so the pass
    keys each partition by those counts, as the counting censuses do, and
    turns each distinct key into a core once.  No partition of n has a hook
    longer than n, so for d > n each one is its own d-core, as on n + 1
    runners: a huge d costs no more than d = n + 1.  The mapping is
    read-only, since every caller shares the cached value.  Only the routes
    that need the members read it: the Nakayama oracle and
    block_members_and_heights.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    runners, count_bits = min(d, n + 1), n.bit_length()
    core_of = _core_decoder(runners, count_bits)
    groups: dict[Partition, list[Partition]] = {}
    for lam in enumerate_partitions(n):
        key = sum(1 << (count_bits * (pos % runners)) for pos in beta_set(lam, len(lam)))
        groups.setdefault(core_of(key), []).append(lam)
    return MappingProxyType({core: tuple(members) for core, members in groups.items()})


@lru_cache(maxsize=None)
def core_census(n: int, d: int) -> Mapping[Partition, int]:
    """For each d-core of a partition of n, how many partitions of n have it.

    valuation_census's walk without the valuations, so no partition is listed
    and the recursion depth is O(sqrt n); for d > n each partition is its own
    d-core, on n + 1 runners.  The mapping is read-only, as it is shared.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d < 1:
        raise ValueError("d must be at least 1")
    runners, count_bits = min(d, n + 1), n.bit_length()  # a runner holds at most n beads
    unit = [1 << (count_bits * r) for r in range(runners)]
    tally: dict[int, int] = defaultdict(int)

    def walk(remaining: int, low: int, depth: int, key: int) -> None:
        # As in valuation_census: the row of part a at depth k has bead a + k.
        while True:
            for part in range(low + 1, remaining // 2 + 1):
                walk(remaining - part, part, depth + 1, key + unit[(part + depth) % runners])
            tally[key + unit[(remaining + depth) % runners]] += 1
            if 2 * low > remaining:
                return
            key += unit[(low + depth) % runners]
            remaining -= low
            depth += 1

    if n:
        walk(n, 1, 0, 0)
    else:
        tally[0] = 1  # the empty partition, with no beads
    core_of = _core_decoder(runners, count_bits)
    census: dict[Partition, int] = defaultdict(int)
    for key, count in tally.items():
        census[core_of(key)] += count
    return MappingProxyType(dict(census))


@lru_cache(maxsize=None)
def valuation_census(n: int, p: int) -> Mapping[Partition, tuple[tuple[int, int], ...]]:
    """For each p-core of a partition of n, the sorted (hook valuation, count) pairs of its group.

    The hook valuation of lam is nu_p of its hook product, so lam has height
    nu_p((pw)!) - valuation in its block of weight w, and p'-degree iff the
    valuation is nu_p(n!).  One walk over rows, bottom up, reaches every
    partition without listing any: a call places the rows of one part, and
    each larger part starts a new call, so the recursion depth is the number
    of distinct parts, O(sqrt n), and the memory O(n).  Each row's term of
    the hook valuation is final once the rows below it are placed, and no
    term is negative, so a prefix sum above nu_p(n!), which would make some
    degree fractional, shows at every leaf above it, where it raises
    CrossCheckError.  At each leaf the partition is keyed by its bead
    count on each runner, min(p, n + 1) of them (for p > n every partition
    is its own p-core), packed into one int together with its valuation;
    each distinct count vector becomes a core once, as in core_census.
    The mapping is read-only, since every caller shares the cached value.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not is_prime(p):
        raise ValueError("p must be prime")
    target = nu_factorial(n, p)
    nu, nu_fact = _valuation_tables(p, n.bit_length())  # beads never pass n
    runners: list[list[int]] = [[] for _ in range(min(p, n + 1))]
    # The low value_bits bits of a leaf's slot hold its valuation (at most
    # target); above them, count_bits bits per runner hold its bead count.
    value_bits, count_bits = target.bit_length(), n.bit_length()
    unit = [1 << (value_bits + count_bits * r) for r in range(len(runners))]
    tally: dict[int, int] = defaultdict(int)

    def walk(remaining: int, low: int, depth: int, below: int, key: int) -> None:
        # The top row placed so far has part low (low = 1 at the root).  Each
        # larger part starts a run in a new call; one more row of part low
        # goes on in this call's loop, so the depth grows with runs, not rows.
        placed = []
        while True:
            for part in range(low + 1, remaining // 2 + 1):  # leaves room for a row >= part
                bead = part + depth
                lower = runners[bead % p]
                total = below + _row_hook_valuation(bead, lower, nu, nu_fact)
                lower.append(bead)
                walk(remaining - part, part, depth + 1, total, key + unit[bead % p])
                lower.pop()
            bead = remaining + depth  # the top row takes all that remains
            total = below + _row_hook_valuation(bead, runners[bead % p], nu, nu_fact)
            if total > target:
                raise CrossCheckError(f"hook valuation {total} exceeds nu_{p}({n}!) = {target}")
            tally[key + unit[bead % p] + total] += 1
            if 2 * low > remaining:
                break
            bead = low + depth
            lower = runners[bead % p]
            below += _row_hook_valuation(bead, lower, nu, nu_fact)
            key += unit[bead % p]
            lower.append(bead)
            placed.append(lower)
            remaining -= low
            depth += 1
        for lower in placed:
            lower.pop()

    if n:
        walk(n, 1, 0, 0, 0)
    else:
        tally[0] = 1  # the empty partition, with no beads
    core_of = _core_decoder(len(runners), count_bits)
    value_mask = (1 << value_bits) - 1
    census: dict[Partition, Counter] = {}
    for slot, count in tally.items():
        census.setdefault(core_of(slot >> value_bits), Counter())[slot & value_mask] += count
    return MappingProxyType(
        {core: tuple(sorted(values.items())) for core, values in census.items()}
    )


def count_partitions_with_core(n: int, d: int, core: Partition) -> int:
    """Number of partitions of n with the given d-core.

    Read off the census of all partitions of n by d-core (core_census), then
    cross-checked against the d-quotient bijection (d-tuples of partitions
    of total size (n - |core|)/d).  Returns 0 when n - |core| is negative or
    not divisible by d; raises ValueError if core is not actually a d-core.
    Its caller is gl blocks, through unipotent_block_series_size.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if not is_core(core, d):
        raise ValueError(f"{core!r} is not a {d}-core")
    rest = n - sum(core)
    if rest < 0 or rest % d != 0:
        return 0
    census = core_census(n, d).get(core, 0)
    expected = partition_tuple_count(d, rest // d)
    if census != expected:
        raise CrossCheckError(
            f"core census {census} != d-quotient count {expected} for n={n}, d={d}"
        )
    return census


def _beta_bits(lam: Partition) -> int:
    """The beta-set of lam with len(lam) beads, as a bitmask (bit k set = bead at k)."""
    return sum(1 << pos for pos in beta_set(lam, len(lam)))


def _rim_hooks(bits: int, length: int):
    """(mask, leg) for each rim hook of the given length, top row first.

    A rim hook is a bead at pos moving down to the empty position pos - length;
    its leg length is the number of beads strictly between the two.  A bead
    landing on position 0 is stripped with the run of beads above it (zero
    parts), so every result is again the unique len(partition)-bead mask.
    """
    targets = (bits >> length) & ~bits  # empty positions with a bead length above
    while targets:
        target = 1 << (targets.bit_length() - 1)
        bead = target << length
        moved = bits ^ bead ^ target
        if moved & 1:
            moved >>= (moved ^ (moved + 1)).bit_length() - 1
        yield moved, (bits & (bead - (target << 1))).bit_count()
        targets ^= target


@cache
def _mask_positions(m: int) -> Mapping[int, int]:
    """The beta-set mask of each partition of m, mapped to its position in the canonical order."""
    return MappingProxyType({_beta_bits(lam): i for i, lam in enumerate(enumerate_partitions(m))})


@cache
def _rim_hook_map(m: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Where one rim k-hook takes each partition of m, in canonical order.

    Entry i is (even, odd): the positions in enumerate_partitions(m - k) of
    the i-th partition of m with one rim k-hook removed, split by the parity
    of the hook's leg length.
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
