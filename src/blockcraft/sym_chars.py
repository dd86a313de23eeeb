"""Character degrees and exact character tables of symmetric groups.

Degrees come from the hook formula n!/prod(hooks).  The p'-degree count
compares hook valuations with Legendre's nu_p(n!), so no large factorial is
formed.  It reads them off ``partitions.valuation_census``, which the block
checks read too: it walks only the p-cores and computes no hook.
macdonald_count counts the odd degrees in closed form.  Character tables
come from the Murnaghan-Nakayama rule on whole columns (_table), one
first part at a time on ints of 64-bit slots, refused if a rim-hook sum
could overflow a slot.  Stored once as columns, the identity column holds
the degrees, and code that reads rows transposes them while it runs.

The block oracle implements the central-character criterion: chi and psi lie
in the same p-block iff |x^G| chi(x)/chi(1) = |x^G| psi(x)/psi(1) mod p for
every class x.  For S_n all central-character values are rational integers
(verified at runtime), so the congruence is ordinary integer congruence.
They do not depend on p, so they are computed once per n and only reduced
mod each p.

Block idempotents e_B = sum_{chi in B} chi(1)/|G| sum_{x p-regular} chi(x) x^{-1}
are handled as exact rational coefficient vectors on class sums, and
multiplied through the central characters, which diagonalize the class
algebra, so no structure constant is formed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from functools import cache
from itertools import groupby, repeat
from math import factorial, lcm, prod
from operator import floordiv, itemgetter, mod, mul
from sys import byteorder
from types import MappingProxyType
from typing import NamedTuple

from .arith import is_prime, nu_factorial
from .budget import BUDGETS, over_budget
from .errors import CrossCheckError, ResourceLimitError
from .partitions import (
    Partition,
    _rim_hook_map,
    enumerate_partitions,
    hook_lengths,
    partition_count_capped,
    valuation_census,
)


def table_products(n: int) -> int:
    """Products in the orthogonality sums of S_n's table: p(n)^3, a lower bound past the budget."""
    return partition_count_capped(n, BUDGETS["table product"]) ** 3


def sym_degree(lam: Partition) -> int:
    """Hook-formula degree of the S_n character labelled by lam."""
    quotient, rem = divmod(factorial(sum(lam)), prod(hook_lengths(lam)))
    if rem:
        raise CrossCheckError(f"hook product does not divide n! for {lam!r}")
    return quotient


def irr_pprime_count_sym(n: int, p: int) -> int:
    """|Irr_{p'}(S_n)|: partitions of n whose hook product has the p-valuation of n!.

    Read off ``partitions.valuation_census``, which gives each block its top
    hook valuation and how many members reach it, and raises CrossCheckError
    unless that top is nu_p((pw)!).  Only the blocks whose top is nu_p(n!)
    have p'-degree members, and those are the members at the top.
    """
    target = nu_factorial(n, p)
    return sum(at_top for _, top, at_top, _ in valuation_census(n, p).values() if top == target)


def macdonald_count(n: int) -> int:
    """Macdonald's odd-degree count: 2^(k_1+k_2+...) for n = 2^{k_1}+2^{k_2}+...."""
    if n < 1:
        raise ValueError("n must be positive")
    return 1 << sum(k for k in range(n.bit_length()) if n >> k & 1)


def cycle_type_centralizer_order(rho: Partition) -> int:
    """z_rho = prod i^{m_i} m_i! for the cycle type rho."""
    return prod(i**m * factorial(m) for i, m in Counter(rho).items())


def cycle_type_class_size(rho: Partition) -> int:
    return factorial(sum(rho)) // cycle_type_centralizer_order(rho)


class SymCharacterTable(NamedTuple):
    """Exact character table of S_n, stored once, by columns.

    classes holds the cycle types in canonical (reverse lexicographic)
    order, which is also the order of the labels; columns maps each class
    to its values over the labels in that order, so the identity column
    (1^n) holds the degrees.  build_table hands the same table, the memo
    of _table(n), to every caller, so columns and class_sizes are read-only.
    """

    n: int
    classes: tuple[Partition, ...]
    class_sizes: Mapping[Partition, int]
    columns: Mapping[Partition, tuple[int, ...]]


def build_table(n: int) -> SymCharacterTable:
    """Full exact table of S_n via the Murnaghan-Nakayama rule."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    reason = over_budget("table product", table_products(n))
    if reason:
        raise ResourceLimitError(f"character table of S_{n}: {reason}")
    return _table(n)


def _packed_hook_sums(columns: list, hooks: tuple) -> Sequence[int]:
    """sum(column[even]) - sum(column[odd]) for each (even, odd) in hooks and each column, in turn.

    A row packs into sum(value_i 2^(64 i)) by flipping and subtracting the sign bits (bias)
    of its array('q') bytes, and sums unpack by the inverse.  CrossCheckError is raised
    unless |value| times a label's most hooks is below 2^63: no slot may overflow silently.
    """
    from array import array  # here, not at the top: only the tables load it
    most = max(max(map(abs, column)) for column in columns)
    if most * max(len(even) + len(odd) for even, odd in hooks) >> 63 or most >> 63:
        raise CrossCheckError(f"rim hook sums of values up to {most} leave their 64-bit slots")
    bias, size = int.from_bytes((bytes(7) + b"\x80") * len(columns), "little"), 8 * len(columns)
    rows = (int.from_bytes(array("q", row).tobytes(), byteorder) for row in zip(*columns))
    take = [(row ^ bias) - bias for row in rows].__getitem__
    sums = (sum(map(take, even)) - sum(map(take, odd)) for even, odd in hooks)
    return array("q", b"".join(((total + bias) ^ bias).to_bytes(size, byteorder) for total in sums))


@cache
def _table(n: int) -> SymCharacterTable:
    """The memo behind build_table, keyed on n alone; callers check the budget.

    The columns come from the Murnaghan-Nakayama rule on whole columns:
    chi^lam(rho) is the signed sum of chi^mu(rho[1:]) over the rim rho[0]-hooks
    lam -> mu.  The classes with first part k (the k-family, together in class
    order) all read _rim_hook_map(n, k), so _packed_hook_sums builds a family's
    columns at once: at most n * p(n) sums, not p(n)^2.  Smaller tables are
    built first, so each is computed once, shared by every larger n, and the
    memo never nests deeper than two calls.
    """
    classes = enumerate_partitions(n)
    class_sizes = {rho: cycle_type_class_size(rho) for rho in classes}
    if sum(class_sizes.values()) != factorial(n):
        raise CrossCheckError("class sizes do not sum to n!")
    if n:
        smaller = [_table(m).columns for m in range(n)]
        columns = {}
        for k, family in groupby(classes, itemgetter(0)):
            family = tuple(family)
            hooks = _rim_hook_map(n, k)
            sums = _packed_hook_sums([smaller[n - k][rho[1:]] for rho in family], hooks)
            columns.update((rho, tuple(sums[i :: len(family)])) for i, rho in enumerate(family))
    else:  # groupby cannot read the first part of ()
        columns = {(): (1,)}
    return SymCharacterTable(
        n=n, classes=classes, class_sizes=MappingProxyType(class_sizes),
        columns=MappingProxyType(columns),
    )


def row_orthogonality_holds(table: SymCharacterTable) -> bool:
    """<chi, psi> = delta, computed exactly over class sizes."""
    order = factorial(table.n)
    rows = list(zip(*table.columns.values()))
    sizes = tuple(table.class_sizes.values())
    for i, row in enumerate(rows):
        weighted = tuple(map(mul, sizes, row))
        for j in range(i, len(rows)):
            if sum(map(mul, weighted, rows[j])) != (order if i == j else 0):
                return False
    return True


def column_orthogonality_holds(table: SymCharacterTable) -> bool:
    """Column sums equal the centralizer order on the diagonal, 0 off it."""
    columns = list(table.columns.values())
    for i, (rho, column) in enumerate(zip(table.columns, columns)):
        for j in range(i, len(columns)):
            expected = cycle_type_centralizer_order(rho) if i == j else 0
            if sum(map(mul, column, columns[j])) != expected:
                return False
    return True


def central_character_values(table: SymCharacterTable) -> tuple[tuple[int, ...], ...]:
    """omega_lam(K) = |K| chi(K) / chi(1) for each label lam and class K, both in class order.

    Every value is a rational integer; one that is not raises CrossCheckError.
    """
    degrees = table.columns[(1,) * table.n]
    sizes = tuple(table.class_sizes.values())
    out = []
    for lam, degree, row in zip(table.classes, degrees, zip(*table.columns.values())):
        products = tuple(map(mul, sizes, row))
        omega = tuple(map(floordiv, products, repeat(degree)))
        if tuple(map(mul, omega, repeat(degree))) != products:
            rho = next(rho for rho, a, b in zip(table.classes, omega, products) if a * degree != b)
            raise CrossCheckError(f"central character of {lam!r} at {rho!r} is not integral")
        out.append(omega)
    return tuple(out)


class BlockPartitionOracle(NamedTuple):
    """Partition of Irr(S_n) into p-blocks by the central-character congruence."""

    n: int
    p: int
    blocks: tuple[frozenset, ...]


@cache
def _omega_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The central characters of S_n, in class order; the same for every p."""
    return central_character_values(_table(n))


def central_character_blocks(n: int, p: int) -> BlockPartitionOracle:
    """Brute-force p-blocks of S_n: group labels by omega mod p signatures.

    Labels are scanned in canonical order, so blocks come out ordered by
    their first member.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    table = build_table(n)
    by_signature: dict = {}
    for lam, omega in zip(table.classes, _omega_rows(n)):
        by_signature.setdefault(tuple(map(mod, omega, repeat(p))), []).append(lam)
    return BlockPartitionOracle(n=n, p=p, blocks=tuple(map(frozenset, by_signature.values())))


def block_idempotent(table: SymCharacterTable, p: int, block) -> dict:
    """Coefficients of e_B on class sums: exact rationals, zero off p-regular classes."""
    from fractions import Fraction  # here, not at the top: it loads decimal and numbers
    if not is_prime(p):
        raise ValueError("p must be prime")
    order = factorial(table.n)
    weights = [
        degree if lam in block else 0
        for lam, degree in zip(table.classes, table.columns[(1,) * table.n])
    ]
    return {
        rho: Fraction(sum(map(mul, weights, column)) if all(part % p for part in rho) else 0, order)
        for rho, column in table.columns.items()
    }


def class_algebra_product(table: SymCharacterTable, left: dict, right: dict) -> dict:
    """Product of two central elements given by class-sum coefficient vectors.

    The central characters diagonalize the class algebra: omega(xy) =
    omega(x) omega(y), and x = sum_chi omega_chi(x) f_chi with
    f_chi = chi(1)/|G| sum_K chi(K) K.  So the coefficient of the class sum
    of M in xy is sum_chi omega_chi(x) omega_chi(y) chi(1) chi(M) / |G|.
    Each side is scaled to integer numerators, so only ints are summed.
    """
    from fractions import Fraction
    x, y = ([side.get(rho, 0) for rho in table.classes] for side in (left, right))
    x_den, y_den = lcm(*(v.denominator for v in x)), lcm(*(v.denominator for v in y))
    x, y = [int(v * x_den) for v in x], [int(v * y_den) for v in y]
    memo = not over_budget("table product", table_products(table.n)) and table is _table(table.n)
    omegas = _omega_rows(table.n) if memo else central_character_values(table)
    weights = [
        sum(map(mul, x, omega)) * sum(map(mul, y, omega)) * degree
        for omega, degree in zip(omegas, table.columns[(1,) * table.n])
    ]
    order = factorial(table.n) * x_den * y_den
    return {
        rho: Fraction(sum(map(mul, weights, column)), order)
        for rho, column in table.columns.items()
    }


def block_idempotent_p_integral(n: int, p: int, block) -> bool:
    """True iff e_B has p-integral coefficients and squares to itself exactly.

    The coefficient formula only sees p-regular classes; idempotency is
    checked by genuine multiplication in the exact rational class algebra.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    table = build_table(n)
    coeffs = block_idempotent(table, p, frozenset(block))
    p_integral = all(c.denominator % p for c in coeffs.values())
    return p_integral and class_algebra_product(table, coeffs, coeffs) == coeffs
