"""The local-group engine: exact degree multisets of C_m x| C_d, B wr S_w and A x B.

Every local side is built here, and irr_lprime_count is the one place that
counts ell'-characters.  The checks are pure counts, so no character label
is stored.  The constructions are standard Clifford theory:

* For C_m x| C_d acting by x -> u*x, each orbit O of <u> on Z_m = Irr(C_m)
  of size o contributes d/o characters of degree o (the stabilizer is cyclic,
  so invariant characters extend, and Gallagher gives d/o extensions).  The
  orbits are counted, not walked: gcd(u^e - 1, m) elements, the kernel of
  x -> (u^e - 1)x, have an orbit size dividing e.

* For B wr S_w, characters are indexed by functions phi from Irr(B) to
  partitions with total size w, of degree
  w! * prod_chi chi(1)^{|phi(chi)|} f(phi(chi)) / |phi(chi)|!   where f is
  the hook-formula dimension of the symmetric-group label.

  The multiset is built without visiting each phi.  A table maps each size
  t <= w to a Counter of exact partial degrees.  One base character of degree
  delta has the table t -> {delta^t * f(mu) : mu |- t}, with the f(mu) taken
  once per t.  Two tables combine by adding sizes, and a pair of partial
  degrees at sizes t1, t2 multiplies by the binomial C(t1+t2, t1); the
  product of these binomials over all folds is the integer multinomial
  w!/prod |phi(chi)|!, so every entry is an exact int and no Fraction is
  needed.  The k characters of one degree, of table 1 + U, are folded in as
  (1 + U)^k = sum_{j <= min(k, w)} C(k, j) U^j, since U^j is empty up to size
  j - 1: at most w convolutions, whatever k is.

* For A x B, Irr(A x B) = Irr(A) x Irr(B), and degrees multiply.

Every constructed multiset is verified against sum(mult * degree^2) = |G| at
construction time, so a wrong degree formula cannot propagate silently.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import comb, factorial, gcd, prod
from operator import itemgetter, le

from .arith import divisors, is_prime
from .errors import CrossCheckError
from .partitions import enumerate_partitions
from .sym_chars import sym_degree


class DegreeMultiset(namedtuple("DegreeMultiset", "entries group_order")):
    """Multiset of exact character degrees: ((degree, multiplicity), ...) plus |G|."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, int], ...], group_order: int):
        if any(d < 1 or m < 1 for d, m in entries):
            raise ValueError("degrees and multiplicities must be positive")
        if not all(map(le, entries, entries[1:])):  # as list(entries) == sorted(entries)
            raise ValueError("entries must be sorted by degree")
        square_sum = sum(m * d * d for d, m in entries)
        if square_sum != group_order:
            raise CrossCheckError(
                f"sum of squared degrees {square_sum} != group order {group_order}"
            )
        return super().__new__(cls, entries, group_order)

    @classmethod
    def from_counter(cls, counts: Counter, group_order: int) -> "DegreeMultiset":
        return cls(tuple(sorted(counts.items(), key=itemgetter(0))), group_order)  # keys are distinct

    @property
    def character_count(self) -> int:
        return sum(m for _, m in self.entries)


# The trivial group, which is also B wr S_0 for every base group B.
TRIVIAL_GROUP = DegreeMultiset(((1, 1),), 1)


class MetacyclicSpec(namedtuple("MetacyclicSpec", "m d u")):
    """C_m x| C_d with the generator of C_d acting on Z_m as x -> u*x."""

    __slots__ = ()

    def __new__(cls, m: int, d: int, u: int):
        self = super().__new__(cls, m, d, u)
        if m < 1 or d < 1:
            raise ValueError("m and d must be positive")
        if not 0 <= u < m:
            raise ValueError("u must satisfy 0 <= u < m")
        if pow(u, d, m) != 1 % m:
            raise ValueError(f"u^d != 1 mod m for {self!r}: not a valid action")
        return self


def metacyclic_degrees(spec: MetacyclicSpec) -> DegreeMultiset:
    """Degree multiset of C_m x| C_d; sum of squares is m*d by construction.

    exact[e] elements of Z_m have orbit size e | d: gcd(u^e - 1, m), less exact[f] for f | e.
    """
    exact: dict[int, int] = {}
    counts: Counter = Counter()
    for e in divisors(spec.d):  # ascending, so each f | e is counted before e
        exact[e] = gcd(pow(spec.u, e, spec.m) - 1, spec.m) - sum(
            n for f, n in exact.items() if e % f == 0
        )
        orbits, rest = divmod(exact[e], e)
        if rest:
            raise CrossCheckError(f"{exact[e]} elements of orbit size {e} are not whole orbits")
        counts[e] = orbits * (spec.d // e)
    return DegreeMultiset.from_counter(+counts, spec.m * spec.d)


def direct_product(a: DegreeMultiset, b: DegreeMultiset) -> DegreeMultiset:
    """Degree multiset of A x B: each pair of characters gives one of the product degree."""
    counts: Counter = Counter()
    for deg_a, mult_a in a.entries:
        for deg_b, mult_b in b.entries:
            counts[deg_a * deg_b] += mult_a * mult_b
    return DegreeMultiset.from_counter(counts, a.group_order * b.group_order)


def _convolve(left: list[Counter], right: list[Counter], w: int) -> list[Counter]:
    """Combine two size tables (entry t: partial degree -> count), dropping sizes above w."""
    out = [Counter() for _ in range(w + 1)]
    for t1, left_t in enumerate(left):
        for t2 in range(w + 1 - t1):
            scale = comb(t1 + t2, t1)
            for d1, c1 in left_t.items():
                for d2, c2 in right[t2].items():
                    out[t1 + t2][scale * d1 * d2] += c1 * c2
    return out


@lru_cache(maxsize=None)
def wreath_degrees(base: DegreeMultiset, w: int) -> DegreeMultiset:
    """Degree multiset of (base group) wr S_w, built once per (base, w) in a process."""
    if w < 0:
        raise ValueError("w must be nonnegative")
    shapes = [Counter(sym_degree(mu) for mu in enumerate_partitions(t)) for t in range(w + 1)]
    table = [Counter({1: 1})] + [Counter() for _ in range(w)]
    for delta, count in base.entries:
        single = [Counter({delta**t * f: c for f, c in shapes[t].items()}) for t in range(w + 1)]
        single[0] = Counter()  # U, one character's table less its size-0 entry
        fold = [Counter({1: 1})] + [Counter() for _ in range(w)]
        for j in range(1, min(count, w) + 1):  # fold = (1 + U)^count, power = U^j
            power = _convolve(power, single, w) if j > 1 else single
            for t in range(j, w + 1):
                fold[t].update({degree: comb(count, j) * c for degree, c in power[t].items()})
        table = _convolve(table, fold, w)
    return DegreeMultiset.from_counter(table[w], base.group_order**w * factorial(w))


def cyclic_wreath_character_counts(d: int, top: int) -> list[int]:
    """|Irr(C_d wr S_w)| = [t^w] prod_k (1 - t^k)^-d for w = 0..top.

    By w a(w) = d sum_k sigma(k) a(w - k): no degree is listed, and every
    division must be exact; a d that is not an integer is left to that check.
    """
    if d <= 0 or top < 0:
        raise ValueError("need d >= 1 and w >= 0")
    sigma = [0] + [sum(divisors(m)) for m in range(1, top + 1)]
    counts = [1]
    for m in range(1, top + 1):
        count, rest = divmod(d * sum(sigma[k] * counts[m - k] for k in range(1, m + 1)), m)
        if rest:
            raise CrossCheckError(f"|Irr(C_{d} wr S_{m})|: the divisor sum is not divisible by {m}")
        counts.append(count)
    return counts


def cyclic_wreath_character_count(d: int, w: int) -> int:
    """|Irr(C_d wr S_w)|, the last term of cyclic_wreath_character_counts(d, w)."""
    return cyclic_wreath_character_counts(d, w)[w]


def irr_lprime_count(degrees: DegreeMultiset, ell: int) -> int:
    """Number of characters (with multiplicity) whose degree is prime to ell."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    return sum(m for d, m in degrees.entries if d % ell)


def sylow2_local_count(n: int) -> int:
    """|Irr_{2'}(N_{S_n}(P))| = |P/P'| for P a Sylow 2-subgroup, which is self-normalizing.

    P is the direct product of P_k over the binary digits 2^k of n, where
    P_0 = 1 and P_k = P_{k-1} wr C_2 is built as P_{k-1} wr S_2.  A degree
    of a direct product is odd iff both factors' are, so the count is the
    product of the layers' odd-degree counts, and P itself is never formed.
    wreath_degrees keeps each layer, so a process builds P_k once for all n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    layers = [TRIVIAL_GROUP]
    while len(layers) < n.bit_length():
        layers.append(wreath_degrees(layers[-1], 2))
    return prod(irr_lprime_count(layer, 2) for k, layer in enumerate(layers) if n >> k & 1)
