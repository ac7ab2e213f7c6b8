"""Exact divisor-sum arithmetic.

Three divisor-sum flavors, integers for n >= 1:

    sigma_s(n)       = sum of d^s over divisors d of n
    sigma~_s(n)      = sum of (-1)^(d-1) d^s        (sign by divisor parity)
    sigma^_s(n)      = sum of (-1)^(n/d-1) d^s      (sign by codivisor parity,
                                                     equivalently the odd-divisor sum)

Convention: every flavor is 0 when n is negative or not an integer, which makes
expressions like sigma_s(n/2) uniform. At n = 0 a flavor takes the rational
boundary value b that makes its generator (b + sum sigma_s(n) q^n)/b start
with 1 (sigma_3(0) = 1/240 from Q, sigma~_1(0) = 1/8 from P~); boundary_value
derives it, and a pair with no generator has none.

convolution() is the brute-force oracle for the convolution identities: a literal
sum over all compositions i_1 + ... + i_k = n of products of divisor sums, using
the boundary values at argument 0.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache, reduce


class DivisorKind(enum.Enum):
    """Which sign pattern a divisor sum carries."""

    PLAIN = "plain"
    TILDE = "tilde"
    HAT = "hat"


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


# The signed flavors' boundary values, one per signed generator (Hahn 2007).
_SIGNED_BOUNDARY = {
    (DivisorKind.TILDE, 1): Fraction(1, 8),
    (DivisorKind.TILDE, 3): Fraction(-1, 16),
    (DivisorKind.TILDE, 5): Fraction(1, 8),
    (DivisorKind.HAT, 1): Fraction(1, 24),
}


def boundary_value(kind: DivisorKind, s: int) -> Fraction:
    """The rational value b assigned to a divisor sum at n = 0.

    Each generator is (b + sum_{n>=1} sigma_s(n) q^n) / b, with constant
    term 1. For the plain flavor and odd s >= 1 that is E_{s+1}, so
    b = -B_{s+1}/(2(s+1)); the signed pairs are the four signed generators.
    Raises LookupError for a pair with no generator.
    """
    if kind is DivisorKind.PLAIN and s >= 1 and s % 2:
        return -bernoulli(s + 1) / (2 * (s + 1))
    try:
        return _SIGNED_BOUNDARY[(kind, s)]
    except KeyError:
        raise LookupError(
            f"no boundary value defined for ({kind.value}, s={s})"
        ) from None


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

    O(n_max log n_max), for dense consumers (Lambert coefficients, bulk property
    checks). Pointwise values agree with divisor_sum for n >= 1.
    """
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        ds = d**s
        if kind is DivisorKind.TILDE and d % 2 == 0:
            ds = -ds
        for m in range(d, n_max + 1, d):
            if kind is DivisorKind.HAT and (m // d) % 2 == 0:
                table[m] -= ds
            else:
                table[m] += ds
    return table


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


def convolution_sequence(terms: list[tuple[DivisorKind, int]], n_max: int):
    """Values of convolution(terms, n) for all n = 0..n_max, as one Series.

    The product of the factors' series sum_{n>=0} sigma_s(n) q^n, each with
    its boundary value as the constant term, to order n_max. Agrees
    coefficientwise with convolution().
    """
    from . import series as S  # series imports this module

    if not terms:
        raise ValueError("convolution_sequence: empty term list")
    factors = [
        S.add(S.monomial(boundary_value(kind, s), 0, n_max), S.lambert(kind, s, n_max))
        for kind, s in terms
    ]
    return reduce(S.mul, factors)
