"""Truncated formal power series in q over exact rationals.

A Series is a tuple of int numerators indexed 0..N over one positive common
denominator, with truncation order N (inclusive); the kernels run on ints.
Mixing two orders silently truncates to the smaller one, and identity checks
always compare at an explicitly requested order. Dense storage, schoolbook
O(N^2) products: every series here is dense and N stays at desk scale (a few
hundred).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul as _imul

from .divisors import DivisorKind, divisor_sum_table


@dataclass(frozen=True)
class Series:
    """nums[n] / den is the coefficient of q^n; order == len(nums) - 1.

    Construction reduces to lowest terms, den > 0 and gcd(den, *nums) == 1,
    so equal fields mean equal series.
    """

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if not self.nums:
            raise ValueError("Series needs at least the constant coefficient")
        if self.den != 1:
            if self.den == 0:
                raise ZeroDivisionError("Series denominator is zero")
            g = math.gcd(self.den, *self.nums) * (1 if self.den > 0 else -1)
            object.__setattr__(self, "nums", tuple(x // g for x in self.nums))
            object.__setattr__(self, "den", self.den // g)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Read-only Fraction view, rebuilt on each access; kernels use nums/den."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self.nums[n], self.den)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [rational_str(c) for c in self.coeffs],
        }

    def __repr__(self) -> str:
        return f"Series({to_text(self)!r}, order={self.order})"


def rational_str(c: Fraction) -> str:
    """Canonical "num/den" form, denominator omitted when 1."""
    c = c if isinstance(c, Fraction) else Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def from_coeffs(values, order: int | None = None) -> Series:
    """Series from an iterable of rationals (ints or Fractions), optionally
    truncated or zero-padded to order."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    if order is not None:
        nums = nums[: order + 1] + [0] * (order + 1 - len(nums))
    return Series(tuple(nums), den)


def zero(order: int) -> Series:
    return Series((0,) * (order + 1))


def one(order: int) -> Series:
    return Series((1,) + (0,) * order)


def monomial(c, k: int, order: int) -> Series:
    """c * q^k, truncated at order (possibly to the zero series)."""
    c = Fraction(c)
    nums = [0] * (order + 1)
    if 0 <= k <= order:
        nums[k] = c.numerator
    return Series(tuple(nums), c.denominator)


def truncate(a: Series, order: int) -> Series:
    if order == a.order:
        return a
    if order < a.order:
        return Series(a.nums[: order + 1], a.den)
    return Series(a.nums + (0,) * (order - a.order), a.den)


def add(a: Series, b: Series) -> Series:
    den = math.lcm(a.den, b.den)
    ma, mb = den // a.den, den // b.den
    return Series(tuple(x * ma + y * mb for x, y in zip(a.nums, b.nums)), den)


def sub(a: Series, b: Series) -> Series:
    return add(a, neg(b))


def neg(a: Series) -> Series:
    return Series(tuple(-x for x in a.nums), a.den)


def scale(c, a: Series) -> Series:
    c = Fraction(c)
    return Series(tuple(c.numerator * x for x in a.nums), c.denominator * a.den)


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at min(order)."""
    n = min(a.order, b.order)
    xs, ys = a.nums, b.nums[n::-1]  # ys[n - k:] is b_k, ..., b_0
    out = tuple(sum(map(_imul, xs[: k + 1], ys[n - k :])) for k in range(n + 1))
    return Series(out, a.den * b.den)


def div(a: Series, b: Series) -> Series:
    """c with b*c = a to the truncation order; b must be a unit (b[0] != 0).

    Integer long division: with D = b.nums[0], nums(a)/nums(b) has q^k
    coefficient C_k / D^(k+1), C_k = A_k D^k - sum_{i=1..k} B_i D^(i-1) C_{k-i}.
    """
    d = b.nums[0]
    if d == 0:
        raise ZeroDivisionError("non-unit divisor: constant term is zero")
    n = min(a.order, b.order)
    bd = [b.nums[i] * d ** (i - 1) for i in range(1, n + 1)]  # B_i D^(i-1)
    cs: list[int] = []
    for k in range(n + 1):
        cs.append(a.nums[k] * d**k - sum(map(_imul, bd, reversed(cs))))
    nums = tuple(c * d ** (n - k) * b.den for k, c in enumerate(cs))
    return Series(nums, a.den * d ** (n + 1))


def euler_op(a: Series) -> Series:
    """q d/dq: the q^n coefficient becomes n*a_n. Order unchanged."""
    return Series(tuple(n * x for n, x in enumerate(a.nums)), a.den)


def substitute_power(a: Series, k: int) -> Series:
    """q -> q^k. Output order is a.order * k; all needed inputs are known."""
    if k < 1:
        raise ValueError("substitute_power: k must be >= 1")
    if k == 1:
        return a
    out = [0] * (a.order * k + 1)
    out[::k] = a.nums
    return Series(tuple(out), a.den)


def substitute_negate(a: Series) -> Series:
    """q -> -q: flips the sign of odd coefficients."""
    return Series(tuple(-x if n % 2 else x for n, x in enumerate(a.nums)), a.den)


def shift(a: Series, m: int) -> Series:
    """q^m * a, with the order raised by m so no information is lost."""
    if m < 0:
        raise ValueError("shift: m must be nonnegative")
    return Series((0,) * m + a.nums, a.den)


def lambert(kind: DivisorKind, s: int, order: int) -> Series:
    """sum_{n>=1} sigma_s(n) q^n in the requested flavor, no constant term.

    Equals sum_k k^s q^k/(1 -+ q^k) expanded; generated from divisor sums.
    """
    return Series((0,) + tuple(divisor_sum_table(kind, s, order)[1:]))


def product_expansion(
    factors: list[tuple[int, int, int]], order: int
) -> Series:
    """prod over factors (a, b, e) of prod_{n>=0} (1 - q^{a+bn})^e, truncated.

    Requires b >= 1 and a >= 0 with a + bn never 0 (a = 0 would contribute the
    vanishing factor 1 - q^0). Every integer e takes the same path, Euler's
    logarithmic-derivative recurrence (Knuth, TAOCP Vol. 2, 4.7): q f'/f is
    sum_k g_k q^k with g_k = -sum e*m over the factor indices m dividing k,
    so n f_n = sum_{k=1..n} g_k f_{n-k}. The f_n are integers, so the
    recurrence runs on ints and the division by n is exact.
    """
    g = [0] * (order + 1)
    for a, b, e in factors:
        if b < 1:
            raise ValueError("product_expansion: modulus b must be >= 1")
        if a == 0:
            raise ValueError("vanishing factor: a + b*0 = 0 gives 1 - q^0 = 0")
        if a < 0:
            raise ValueError("product_expansion: offset a must be nonnegative")
        for m in range(a, order + 1, b):
            for k in range(m, order + 1, m):
                g[k] -= e * m
    terms = [(k, gk) for k, gk in enumerate(g) if gk]
    f = [1]
    for n in range(1, order + 1):
        acc = 0
        for k, gk in terms:
            if k > n:
                break
            acc += gk * f[n - k]
        f.append(acc // n)
    return Series(tuple(f))


def to_text(a: Series) -> str:
    """Human form: "1 + 8q - 8q^2 + ..." with exact rational coefficients."""
    parts: list[str] = []
    for n, c in enumerate(a.coeffs):
        if c == 0:
            continue
        mag = rational_str(abs(c))
        if n == 0:
            term = mag
        else:
            qpow = "q" if n == 1 else f"q^{n}"
            term = qpow if mag == "1" else f"{mag}{qpow}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
