"""Truncated formal power series in q over exact rationals.

A Series is a tuple of Fractions indexed 0..N together with its truncation
order N (inclusive). All arithmetic is exact; mixing two orders silently
truncates to the smaller one, and identity checks always compare at an
explicitly requested order. Dense storage, schoolbook O(N^2) products: every
series here is dense and N stays at desk scale (a few hundred).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import DivisorKind, divisor_sum_table

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Series:
    """coeffs[n] is the coefficient of q^n; order == len(coeffs) - 1."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("Series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    # arithmetic sugar; the named module functions below are the real interface
    def __add__(self, other: "Series") -> "Series":
        return add(self, other)

    def __sub__(self, other: "Series") -> "Series":
        return sub(self, other)

    def __neg__(self) -> "Series":
        return neg(self)

    def __mul__(self, other: "Series") -> "Series":
        return mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [rational_str(c) for c in self.coeffs],
        }

    def __repr__(self) -> str:
        return f"Series({to_text(self)!r}, order={self.order})"


def rational_str(c: Fraction) -> str:
    """Canonical "num/den" form, denominator omitted when 1."""
    c = _frac(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def from_coeffs(values, order: int | None = None) -> Series:
    """Series from an iterable of rationals, optionally zero-padded to order."""
    cs = [_frac(v) for v in values]
    if order is not None:
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs.extend([_ZERO] * (order + 1 - len(cs)))
    return Series(tuple(cs))


def zero(order: int) -> Series:
    return Series((_ZERO,) * (order + 1))


def one(order: int) -> Series:
    return from_coeffs([Fraction(1)], order)


def monomial(c, k: int, order: int) -> Series:
    """c * q^k, truncated at order (possibly to the zero series)."""
    cs = [_ZERO] * (order + 1)
    if 0 <= k <= order:
        cs[k] = _frac(c)
    return Series(tuple(cs))


def truncate(a: Series, order: int) -> Series:
    if order == a.order:
        return a
    if order < a.order:
        return Series(a.coeffs[: order + 1])
    return Series(a.coeffs + (_ZERO,) * (order - a.order))


def add(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    return Series(tuple(a.coeffs[i] + b.coeffs[i] for i in range(n + 1)))


def sub(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    return Series(tuple(a.coeffs[i] - b.coeffs[i] for i in range(n + 1)))


def neg(a: Series) -> Series:
    return Series(tuple(-c for c in a.coeffs))


def scale(c, a: Series) -> Series:
    c = _frac(c)
    return Series(tuple(c * x for x in a.coeffs))


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at min(order)."""
    n = min(a.order, b.order)
    out = [_ZERO] * (n + 1)
    for i in range(n + 1):
        ai = a.coeffs[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj != 0:
                out[i + j] += ai * bj
    return Series(tuple(out))


def div(a: Series, b: Series) -> Series:
    """c with b*c = a to the truncation order; b must be a unit (b[0] != 0)."""
    if b.coeffs[0] == 0:
        raise ZeroDivisionError("non-unit divisor: constant term is zero")
    n = min(a.order, b.order)
    b0 = b.coeffs[0]
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = a.coeffs[k]
        for i in range(1, k + 1):
            bi = b.coeffs[i]
            if bi != 0:
                acc -= bi * out[k - i]
        out.append(acc / b0)
    return Series(tuple(out))


def euler_op(a: Series) -> Series:
    """q d/dq: the q^n coefficient becomes n*a_n. Order unchanged."""
    return Series(tuple(n * c for n, c in enumerate(a.coeffs)))


def substitute_power(a: Series, k: int) -> Series:
    """q -> q^k. Output order is a.order * k; all needed inputs are known."""
    if k < 1:
        raise ValueError("substitute_power: k must be >= 1")
    if k == 1:
        return a
    out = [_ZERO] * (a.order * k + 1)
    for n, c in enumerate(a.coeffs):
        out[n * k] = c
    return Series(tuple(out))


def substitute_negate(a: Series) -> Series:
    """q -> -q: flips the sign of odd coefficients."""
    return Series(tuple(-c if n % 2 else c for n, c in enumerate(a.coeffs)))


def shift(a: Series, m: int) -> Series:
    """q^m * a, with the order raised by m so no information is lost."""
    if m < 0:
        raise ValueError("shift: m must be nonnegative")
    return Series((_ZERO,) * m + a.coeffs)


def lambert(kind: DivisorKind, s: int, order: int) -> Series:
    """sum_{n>=1} sigma_s(n) q^n in the requested flavor, no constant term.

    Equals sum_k k^s q^k/(1 -+ q^k) expanded; generated from divisor sums.
    """
    table = divisor_sum_table(kind, s, order)
    return Series((_ZERO,) + tuple(table[1:]))


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
    return from_coeffs(f, order)


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
