"""Green's parameterization of Irr(GL_n(q)): class types, degrees, statistics.

No finite-field elements are ever constructed.  A semisimple class is
determined by the factorization type of its characteristic polynomial into
distinct monic irreducibles (degree d_i, multiplicity m_i, sum d_i m_i = n),
and every count or degree we need depends only on that type plus the number
of available irreducibles per degree other than X (the Frobenius orbits
of size d on the nonzero elements of F_{q^d}: q - 1 in degree one).
Characters are labelled (type, one partition of m_i per polynomial); the
degree is

    |G : C(s)|_{p'} * prod_i (unipotent degree of lam^i over q^{d_i})

with C(s) = prod GL_{m_i}(q^{d_i}), and the unipotent degree is the q-hook
formula q^{a(lam)} [n]_q! / prod_h [len(h)]_q.

enumerate_class_types lists only the class types that occur over F_q, in
one walk per (n, q), and label_count counts their labels without it.
all_degrees builds the multiset one class type at a time and visits no
label: each type extends the products of the prefix of factors it shares
with the type before it.  degree_square_sum lists no type and no degree:
sum chi(1)^2 and the character count are products over polynomial degrees.
SeriesLabel and green_degree give the same degrees one label at a time,
for callers that need the label.  All arithmetic is exact.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import product
from math import comb, prod

from .arith import divisors, moebius
from .errors import CrossCheckError
from .partitions import (
    Partition,
    enumerate_partitions,
    hook_lengths,
    partition_count,
    validate_partition,
)
from .wreath_local import DegreeMultiset


def _exact(numerator: int, denominator: int, what: str) -> int:
    quotient, rem = divmod(numerator, denominator)
    if rem:
        raise CrossCheckError(f"{what} is not integral")
    return quotient


@lru_cache(maxsize=None)
def _gl_pprime_part(m: int, q: int) -> int:
    """|GL_m(q)|_{p'} = prod_{j<=m} (q^j - 1)."""
    return prod(q**j - 1 for j in range(1, m + 1))


def gl_order(n: int, q: int) -> int:
    """|GL_n(q)| = q^(n(n-1)/2) prod_{j<=n} (q^j - 1); GL_0 is trivial."""
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    return q ** (n * (n - 1) // 2) * _gl_pprime_part(n, q)


@lru_cache(maxsize=None)
def available_poly_count(d: int, q: int) -> int:
    """Monic irreducibles of degree d over F_q other than X: (1/d) sum_{e|d} mu(d/e) (q^e - 1).

    They are the Frobenius orbits of size d on the nonzero elements of
    F_{q^d}, so at d = 1 the count is q - 1, with no special case.
    """
    if d < 1 or q < 2:
        raise ValueError("need d >= 1 and q >= 2")
    return _exact(sum(moebius(d // e) * (q**e - 1) for e in divisors(d)), d, "orbit count")


def enumerate_class_types(n: int, q: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """((entries, class count), ...) for the factorization types of degree n over F_q.

    Entries ((d_i, m_i), ...) are in descending order, and so are the types.
    A type goes on with a pair (d, m) no larger than its last one: d from
    that pair's d down, m from the most that fits down.  Entries of degree d
    take distinct polynomials, and a run of r equal entries is unordered, so
    the count is a running product carried down the walk: a new degree d
    starts from available_poly_count(d, q) polynomials, and each entry
    multiplies by those left and divides by its place in its run (after the
    j-th entry of a run that began with R polynomials, the run has
    contributed C(R, j), so every division is exact).  The walk never enters
    a degree with no polynomial left, so only types that occur are listed.
    The counts total (q-1) q^(n-1), the semisimple class census.
    """
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    types: list[tuple[tuple[tuple[int, int], ...], int]] = []

    def walk(entries, count, left, last, polys_left, run):
        if not left:
            types.append((entries, count))
            return
        d_last, m_last = last
        for d in range(min(d_last, left), 0, -1):
            polys = polys_left if d == d_last else available_poly_count(d, q)
            if not polys:
                continue
            m_most = min(m_last, left // d) if d == d_last else left // d
            for m in range(m_most, 0, -1):
                place = run + 1 if (d, m) == last else 1
                walk(
                    entries + ((d, m),), count * polys // place,
                    left - d * m, (d, m), polys - 1, place,
                )

    walk((), 1, n, (n + 1, 0), 0, 0)
    return tuple(types)


def label_count(n: int, q: int) -> int:
    """The Green labels of GL_n(q), sum over its class types of prod p(m_i), listing no type.

    A type takes at most available_poly_count(d, q) polynomials of degree d; by_size[j][t]
    sums prod p(m) over the multisets of j multiplicities m of total t.
    """
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    labels = [1] + [0] * n
    for d in range(1, n + 1):
        top = n // d
        polys = min(top, available_poly_count(d, q))
        by_size = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(polys)]
        for m in range(1, top + 1):
            for j in range(1, len(by_size)):  # j ascending: a multiplicity may repeat
                for t in range(m, top + 1):
                    by_size[j][t] += partition_count(m) * by_size[j - 1][t - m]
        f = [sum(column) for column in zip(*by_size)]  # the degree-d factor, in powers of x^d
        labels = [sum(labels[k - d * t] * f[t] for t in range(k // d + 1)) for k in range(n + 1)]
    return labels[n]


def semisimple_class_count(n: int, q: int) -> int:
    """Census over all class types; must equal (q-1) q^(n-1)."""
    return sum(count for _, count in enumerate_class_types(n, q))


@lru_cache(maxsize=None)
def _q_integers(m: int, q: int) -> tuple[tuple[int, ...], int]:
    """([0]_q, [1]_q, ..., [m]_q) with [j]_q = (q^j - 1)/(q - 1), and [m]_q!."""
    q_ints = tuple((q**j - 1) // (q - 1) for j in range(m + 1))
    return q_ints, prod(q_ints[1:])


def _a_stat(lam: Partition) -> int:
    """a(lam) = sum (i-1) lam_i."""
    return sum(i * part for i, part in enumerate(lam))


@lru_cache(maxsize=None)
def unipotent_degree(lam: Partition, q: int) -> int:
    """q-hook-formula degree of the unipotent character labelled by lam."""
    if q < 2:
        raise ValueError("q must be at least 2")
    validate_partition(lam)
    q_ints, q_factorial = _q_integers(sum(lam), q)
    hooks = prod(q_ints[h] for h in hook_lengths(lam))
    return q ** _a_stat(lam) * _exact(q_factorial, hooks, f"q-hook quotient of {lam!r}, q={q}")


class SeriesLabel(namedtuple("SeriesLabel", "components")):
    """Green label of one irreducible character: ((d_i, m_i, lam^i), ...).

    One component per distinct polynomial factor of the semisimple part,
    carrying the unipotent label lam^i of GL_{m_i}(q^{d_i}).
    """

    __slots__ = ()

    def __new__(cls, components: tuple[tuple[int, int, Partition], ...]):
        for d, m, lam in components:
            if sum(lam) != m:
                raise ValueError(f"partition {lam!r} does not have size {m}")
        return super().__new__(cls, components)

    @property
    def n(self) -> int:
        return sum(d * m for d, m, _ in self.components)


def centralizer_order(label: SeriesLabel, q: int) -> int:
    """|C(s)| = prod GL_{m_i}(q^{d_i})."""
    return prod(gl_order(m, q**d) for d, m, _ in label.components)


def green_degree(label: SeriesLabel, q: int) -> int:
    """Degree of the character: |G : C(s)|_{p'} times the unipotent factors.

    The p-part of gl_order(m, Q) is the Q-power prefactor, so the p'-part of
    the index is a quotient of the (q^j - 1)-style products; it is computed
    as an exact division, never by factoring.
    """
    index_p_prime = _exact(
        _gl_pprime_part(label.n, q),
        prod(_gl_pprime_part(m, q**d) for d, m, _ in label.components),
        "p'-part of the centralizer index",
    )
    return index_p_prime * prod(unipotent_degree(lam, q**d) for d, m, lam in label.components)


def enumerate_series_labels(n: int, q: int):
    """Yield (label, class multiplicity): every series label once per class count.

    Characters in the same Lusztig series of a fixed class correspond to
    ordered tuples of partitions, one per distinct polynomial; classes of the
    same type contribute identical degree blocks, hence the multiplicity.
    """
    for entries, count in enumerate_class_types(n, q):
        partition_choices = [enumerate_partitions(m) for _, m in entries]
        for tup in product(*partition_choices):
            components = tuple((d, m, lam) for (d, m), lam in zip(entries, tup))
            yield SeriesLabel(components=components), count


@lru_cache(maxsize=None)
def _unipotent_counts(m: int, q: int) -> tuple[tuple[int, int], ...]:
    """Unipotent degrees of GL_m(q) with multiplicity: ((degree, count), ...)."""
    return tuple(Counter(unipotent_degree(lam, q) for lam in enumerate_partitions(m)).items())


@lru_cache(maxsize=None)
def all_degrees(n: int, q: int) -> DegreeMultiset:
    """Exact degree multiset of Irr(GL_n(q)), built one class type at a time.

    stack[i] holds the unipotent products and the centralizer's p'-part over
    the first i factors of the last type built.  The next type keeps the
    prefix it shares, extends the stack by the rest but its last factor,
    and folds that factor, its index and its class count straight into the
    multiset.  A whole type is never a prefix of another, so only proper
    prefixes are stacked.

    Completeness of Green's parameterization is enforced by the multiset
    constructor: sum of squared degrees must equal |GL_n(q)|.
    """
    if n == 0:
        return DegreeMultiset(((1, 1),), gl_order(0, q))
    top = _gl_pprime_part(n, q)
    counts: dict[int, int] = {}
    stack: list[tuple[dict[int, int], int]] = [({1: 1}, 1)]
    previous: tuple[tuple[int, int], ...] = ()
    for entries, class_count in enumerate_class_types(n, q):
        *prefix, (d, m) = entries
        shared = 0
        for entry, before in zip(prefix, previous):
            if entry != before:
                break
            shared += 1
        del stack[shared + 1 :]
        for d_i, m_i in prefix[shared:]:
            partial, centralizer = stack[-1]
            extended: dict[int, int] = {}
            for unipotent, k in _unipotent_counts(m_i, q**d_i):
                for degree, mult in partial.items():
                    key = degree * unipotent
                    extended[key] = extended.get(key, 0) + mult * k
            stack.append((extended, centralizer * _gl_pprime_part(m_i, q**d_i)))
        previous = entries
        partial, centralizer = stack[-1]
        centralizer *= _gl_pprime_part(m, q**d)
        index = _exact(top, centralizer, "p'-part of the centralizer index")
        for unipotent, k in _unipotent_counts(m, q**d):
            scale, weight = index * unipotent, k * class_count
            for degree, mult in partial.items():
                key = degree * scale
                counts[key] = counts.get(key, 0) + mult * weight
    return DegreeMultiset.from_counter(counts, gl_order(n, q))


def _unipotent_square_sums(top: int, q: int) -> list[int]:
    """[S(0, q), ..., S(top, q)], S(k, q) = sum of unipotent_degree(lam, q)^2 over lam |- k."""
    sums = [1]
    for k in range(1, top + 1):
        term, newton = 1, 0
        for r in range(1, k + 1):
            term *= q ** (k - r + 1) - 1
            newton += sums[k - r] * _exact(term, q**r - 1, "a Newton coefficient") ** 2
        sums.append(_exact(newton, k, "a unipotent square sum"))
    return sums


def _convolve(a: list[int], b: list[int], weight: list[list[int]]) -> list[int]:
    """(a * b)_k = sum_i weight[k][i] a_{k-i} b_i, for k < len(a)."""
    out = [0] * len(a)
    b_terms = [(i, v) for i, v in enumerate(b) if v]
    for j, u in enumerate(a):
        for i, v in b_terms if u else ():
            if i + j >= len(a):
                break
            out[i + j] += weight[i + j][i] * u * v
    return out


def _over_polynomials(n: int, q: int, leaves, weight: list[list[int]]) -> int:
    """[x^n] prod_d (1 + F_d)^{N_d} under the weighted product, F_d = sum_m leaf_d[m] x^{dm}."""
    total = [1] + [0] * n
    for d, leaf in enumerate(leaves, 1):
        f, polys = [0] * (n + 1), available_poly_count(d, q)
        f[d::d] = leaf[1:]
        power = series = [1] + [0] * n
        for j in range(1, min(polys, n // d) + 1):  # (1 + F)^N = sum_j C(N, j) F^j
            power = _convolve(power, f, weight)
            series = [s + comb(polys, j) * t for s, t in zip(series, power)]
        total = _convolve(total, series, weight)
    return total[n]


def degree_square_sum(n: int, q: int) -> tuple[int, int]:
    """(sum of chi(1)^2, character count) over Irr(GL_n(q)), listing no class type or degree.

    A character gives each of the N_d = available_poly_count(d, q) polynomials of degree d a
    multiplicity m and a partition lam of m.  So, with g_k = |GL_k(q)|_{p'}, sum chi(1)^2 is
    [x^n] prod_d (1 + W_d)^{N_d} under (a * b)_k = sum_i [k choose i]_q^2 a_i b_{k-i}, where W_d
    holds S(m, q^d) (g_{dm} / |GL_m(q^d)|_{p'})^2 at x^{dm}; the count puts p(m) there.  As
    u_lam(Q) is s_lam(1, Q, Q^2, ...) prod_{j<=k} (1 - Q^j), Cauchy's identity and Newton's give
    the S(k, Q) = sum over lam |- k of u_lam(Q)^2 by k S(k) = sum_r S(k-r) c(k, r)^2, with
    c(k, r) = prod_{k-r<j<=k} (Q^j - 1) / (Q^r - 1) (Macdonald, Symmetric Functions, Ch. I).
    Inexact division raises CrossCheckError: the q-binomials and centralizer indices guard the
    orders g_k, c(k, r) the Newton terms, and the division by k the sums S.
    """
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    g = [_gl_pprime_part(k, q) for k in range(n + 1)]
    binomials = [[_exact(g[k], g[i] * g[k - i], "a q-binomial") ** 2 for i in range(k + 1)]
                 for k in range(n + 1)]
    squares = (
        [s * _exact(g[d * m], _gl_pprime_part(m, q**d), "p'-part of the centralizer index") ** 2
         for m, s in enumerate(_unipotent_square_sums(n // d, q**d))]
        for d in range(1, n + 1)
    )
    counts = ([partition_count(m) for m in range(n // d + 1)] for d in range(1, n + 1))
    ones = [[1] * (n + 1)] * (n + 1)
    return _over_polynomials(n, q, squares, binomials), _over_polynomials(n, q, counts, ones)


def irr_pprime_count_gl(n: int, q: int) -> int:
    """|Irr_{p'}(GL_n(q))| = (q-1) q^(n-1): one character per semisimple class."""
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    return (q - 1) * q ** (n - 1) if n else 1
