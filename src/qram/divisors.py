"""Exact divisor-sum arithmetic.

Three divisor-sum flavors, integers for n >= 1:

    sigma_s(n)       = sum of d^s over divisors d of n
    sigma~_s(n)      = sum of (-1)^(d-1) d^s        (sign by divisor parity)
    sigma^_s(n)      = sum of (-1)^(n/d-1) d^s      (sign by codivisor parity)

For n = 2^a m with m odd, only the power of 2 in d decides either sign, so
sigma~_s(n) = sigma_s(m) (1 - sum_{1<=j<=a} 2^(js)) and
sigma^_s(n) = sigma_s(m) (2^(as) - sum_{j<a} 2^(js)). sigma^_1(n) is the
odd-divisor sum sigma_1(m), but for s > 1 sigma^_s differs from it
(sigma^_3(2) = 7).

Convention: every flavor is 0 when n is negative or not an integer, which makes
expressions like sigma_s(n/2) uniform. At n = 0 a flavor takes the rational
boundary value b that makes its generator (b + sum sigma_s(n) q^n)/b start
with 1 (sigma_3(0) = 1/240 from Q, sigma~_1(0) = 1/8 from P~); boundary_value
derives it, and a pair with no generator has none. GENERATORS names the
seven generators of the two rings by their (flavor, s).

divisor_sum_table sieves a whole table additively; pointwise_tables factors
every n with a smallest-prime-factor sieve and builds each weight and flavor
multiplicatively from the prime powers, so that each checks the other, and
divisor_sum's trial division checks both; lambert() is the double Lambert
series on a sieved table. convolution() is the brute-force oracle for the
convolution identities: a literal sum over all compositions i_1 + ... + i_k
= n of products of divisor sums, using the boundary values at argument 0.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from operator import sub

from . import series as S


class DivisorKind(enum.Enum):
    """Which sign pattern a divisor sum carries."""

    PLAIN = "plain"
    TILDE = "tilde"
    HAT = "hat"


# (ring, letter) -> (flavor, s) of each generator (b + sum sigma_s(n) q^n)/b:
# Ramanujan's P, Q, R (E_2, E_4, E_6) and Hahn's (2007) signed P~, E~, Q~, R~
GENERATORS = {
    ("classical", "P"): (DivisorKind.PLAIN, 1),
    ("classical", "Q"): (DivisorKind.PLAIN, 3),
    ("classical", "R"): (DivisorKind.PLAIN, 5),
    ("hahn", "P"): (DivisorKind.TILDE, 1),
    ("hahn", "E"): (DivisorKind.HAT, 1),
    ("hahn", "Q"): (DivisorKind.TILDE, 3),
    ("hahn", "R"): (DivisorKind.TILDE, 5),
}


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Signed Bernoulli number B_n, with B_1 = -1/2.

    Standard recurrence from x/(e^x - 1) = sum B_n x^n / n!:
    B_0 = 1 and sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1.
    """
    if n < 0:
        raise ValueError("bernoulli: n must be nonnegative")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def _parity_factor(kind: DivisorKind, s: int) -> int:
    """c with sigma_s(n) - c sigma_s(n/2) the signed flavor kind of sigma_s(n):
    2^(s+1) for TILDE, 2 for HAT (see divisor_sum_table)."""
    return 2 ** (s + 1) if kind is DivisorKind.TILDE else 2


def boundary_value(kind: DivisorKind, s: int) -> Fraction:
    """The rational value b assigned to a divisor sum at n = 0.

    Each generator is (b + sum_{n>=1} sigma_s(n) q^n) / b, with constant
    term 1. For the plain flavor and odd s >= 1 that is E_{s+1}, so
    b = -B_{s+1}/(2(s+1)). A signed pair of GENERATORS takes b (1 - c) from
    that b and the parity reduction's c, since its series is the plain one
    at q less c times the plain one at q^2. Raises LookupError for a pair
    with no generator.
    """
    if kind is DivisorKind.PLAIN and s >= 1 and s % 2 or (kind, s) in GENERATORS.values():
        b = -bernoulli(s + 1) / (2 * (s + 1))
        return b if kind is DivisorKind.PLAIN else b * (1 - _parity_factor(kind, s))
    raise LookupError(f"no boundary value defined for ({kind.value}, s={s})")


def _divisors(n: int) -> list[int]:
    # trial division to sqrt(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _divisor_sum_positive(kind: DivisorKind, s: int, n: int) -> int:
    total = 0
    for d in _divisors(n):
        term = d**s
        if kind is DivisorKind.TILDE and d % 2 == 0:
            term = -term
        elif kind is DivisorKind.HAT and (n // d) % 2 == 0:
            term = -term
        total += term
    return total


def divisor_sum(kind: DivisorKind, s: int, n) -> Fraction:
    """sigma_s(n) in the requested flavor; Fraction-valued.

    n may be an int or Fraction. Non-integer or negative n gives 0; n = 0 gives
    the boundary value (LookupError if the pair has none).
    """
    if isinstance(n, Fraction):
        if n.denominator != 1:
            return Fraction(0)
        n = int(n)
    if n < 0:
        return Fraction(0)
    if n == 0:
        return boundary_value(kind, s)
    return Fraction(_divisor_sum_positive(kind, s, n))


def divisor_sum_table(kind: DivisorKind, s: int, n_max: int) -> list[int]:
    """[sigma_s(0..n_max)] as ints, with a sieve; index 0 holds 0, not the
    boundary value.

    Each divisor d up to n_max/2 adds d^s to each of its multiples in a plain
    loop (faster than a slice assignment per d); a larger d divides only
    itself, so it is added on its own. O(n_max log n_max) additions, for
    dense consumers (Lambert coefficients, bulk property checks). A signed
    flavor then takes one pass over the even n, from the plain values: the
    even divisors of n are 2d for d | n/2, and the divisors d with n/d even
    are the divisors of n/2, so

        sigma~_s(n) = sigma_s(n) - 2^(s+1) sigma_s(n/2),
        sigma^_s(n) = sigma_s(n) - 2 sigma_s(n/2),

    and odd n have no even divisor or codivisor, so all three flavors agree
    there. Pointwise values agree with divisor_sum for n >= 1.
    """
    table = [0] * (n_max + 1)
    for d in range(1, n_max // 2 + 1):
        ds = d**s
        for k in range(d, n_max + 1, d):
            table[k] += ds
    for d in range(n_max // 2 + 1, n_max + 1):
        table[d] += d**s
    if kind is not DivisorKind.PLAIN:
        k = _parity_factor(kind, s)
        table[2::2] = map(sub, table[2::2], map(k.__mul__, table[1 : n_max // 2 + 1]))
    return table


def lambert(kind: DivisorKind, r: int, s: int, n_max: int) -> S.Series:
    """sum_{m,d>=1} sgn m^r d^s q^(md) to order n_max, for r, s >= 0: the
    q^n coefficient sums sgn d^s (n/d)^r over d | n, with sgn (-1)^(d-1) for
    TILDE, (-1)^(n/d-1) for HAT and 1 for PLAIN, and the constant term is 0.
    As d^s (n/d)^r = n^r d^(s-r), that is n^r sigma_{s-r}(n) in kind's flavor
    for s >= r, and n^s sigma_{r-s}(n) over the codivisors n/d for s < r,
    where the sign rides the codivisor, so TILDE and HAT swap.
    """
    lo = min(r, s)
    if s < r and kind is not DivisorKind.PLAIN:
        kind = DivisorKind.HAT if kind is DivisorKind.TILDE else DivisorKind.TILDE
    table = divisor_sum_table(kind, abs(s - r), n_max)
    if lo:
        table = [n**lo * v for n, v in enumerate(table)]
    return S.Series(tuple(table))


def pointwise_tables(pairs: list[tuple[DivisorKind, int]], n_max: int) -> list[list[int]]:
    """[sigma_s(0..n_max)] for each (kind, s) of pairs, laid out as
    divisor_sum_table's (index 0 holds 0), from a factorisation of each n.

    A smallest-prime-factor sieve (Gries-Misra, CACM 21, 1978) splits each
    n >= 2 as q*m, q = p^e the full power of its least prime p, so
    t[n] = t[m] f(q) by multiplicativity, with f(q) the sum of the signed d^s
    over d = p^j, once per prime power. Every sign is + for odd p and the
    plain flavor; at p = 2 tilde negates each j >= 1 and hat each j < e
    (whose codivisor 2^(e-j) is even).
    """
    least = list(range(n_max + 1))  # the least prime factor of each n >= 2
    for p in range(math.isqrt(n_max), 1, -1):
        least[p * p :: p] = [p] * ((n_max - p * p) // p + 1)
    power, rest = [1] * (n_max + 1), [1] * (n_max + 1)  # n = power[n] rest[n]
    for n in range(2, n_max + 1):
        p, m = least[n], n // least[n]
        power[n], rest[n] = (p * power[m], rest[m]) if least[m] == p else (p, m)
    prime_powers = [q for q in range(2, n_max + 1) if power[q] == q]
    tables = []
    for kind, s in pairs:
        f = [1] * (n_max + 1)
        for q in prime_powers:
            f[q] = f[q // least[q]] + q**s
        q = 1 << n_max.bit_length() >> 1  # the powers of 2, downwards
        while q > 1 and kind is not DivisorKind.PLAIN:
            f[q] = 2 - f[q] if kind is DivisorKind.TILDE else q**s - f[q >> 1]
            q >>= 1
        table = [0] + [1] * n_max
        for n in range(2, n_max + 1):
            table[n] = table[rest[n]] * f[power[n]]
        tables.append(table)
    return tables


def convolution(terms: list[tuple[DivisorKind, int]], n: int) -> Fraction:
    """Brute-force k-fold convolution at a single n.

    sum over all (i_1, ..., i_k) with i_j >= 0 and i_1 + ... + i_k = n of
    prod_j sigma_{s_j}(i_j), with boundary values at 0. Literal enumeration;
    this IS the oracle the convolution identities are checked against.
    """
    if not terms:
        raise ValueError("convolution: empty term list")
    if n < 0:
        raise ValueError("convolution: n must be nonnegative")

    def fold(rest: list[tuple[DivisorKind, int]], m: int) -> Fraction:
        kind, s = rest[0]
        if len(rest) == 1:
            return divisor_sum(kind, s, m)
        total = Fraction(0)
        for i in range(m + 1):
            total += divisor_sum(kind, s, i) * fold(rest[1:], m - i)
        return total

    return fold(list(terms), n)


def convolution_sequence(sums: dict[tuple[tuple[DivisorKind, int], ...], int], n_max: int):
    """sum c convolution(terms, n) over the terms -> c of sums (ints c), for
    all n = 0..n_max, as one Series.

    Each distinct (kind, s) is one generator sum_{n>=0} sigma_s(n) q^n, from
    its sieved table with its boundary value as the constant term; each
    product of terms is a monomial in them, and series.eval_poly forms the
    whole sum on one Kronecker image. Agrees coefficientwise with
    convolution().
    """
    if not sums or not all(sums):
        raise ValueError("convolution_sequence: empty term list")
    pairs = list(dict.fromkeys(pair for terms in sums for pair in terms))
    gens = []
    for kind, s in pairs:
        b, table = boundary_value(kind, s), divisor_sum_table(kind, s, n_max)
        den = b.denominator
        gens.append(S.Series((b.numerator, *(den * x for x in table[1:])), den))
    nums: dict[tuple[int, ...], int] = {}
    for terms, c in sums.items():
        e = tuple(map(terms.count, pairs))
        nums[e] = nums.get(e, 0) + c
    return S.eval_poly(tuple(gens), nums, n_max)
