"""Truncated formal power series in q over exact rationals.

A Series is a tuple of int numerators indexed 0..N over one positive common
denominator, with truncation order N (inclusive); the kernels run on ints.
Mixing two orders silently truncates to the smaller one, and identity checks
always compare at an explicitly requested order. Storage is dense, and a
product is one bigint multiply by Kronecker substitution (see mul), so orders
in the thousands stay cheap.

One codec serves every Kronecker image in the package: _pack writes
numerators a_0..a_n as the int sum a_i 2^(8wi), one signed slot of w bytes
each, _slot_bytes picks the w that holds a given bound, and _unpack reads
the slots back from any int congruent to such a sum modulo 2^(8w(n+1)). mul
packs two series and unpacks their product; eval_poly packs each generator
once, forms a whole polynomial in them on the packed ints and unpacks once,
for weighted.eval_as_series and divisors.convolution_sequence.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .record import Record


class Series(Record):
    """nums[n] / den is the coefficient of q^n; order == len(nums) - 1.

    Construction reduces to lowest terms, den > 0 and gcd(den, *nums) == 1,
    so equal fields mean equal series.
    """

    __slots__ = _fields = ("nums", "den")

    def __init__(self, nums: tuple[int, ...], den: int = 1):
        if not nums:
            raise ValueError("Series needs at least the constant coefficient")
        if den != 1:
            if den == 0:
                raise ZeroDivisionError("Series denominator is zero")
            g = math.gcd(den, *nums) * (1 if den > 0 else -1)
            if g != 1:
                nums = tuple(x // g for x in nums)
                den //= g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Read-only Fraction view, rebuilt on each access; kernels use nums/den."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self.nums[n], self.den)

    def coeff_strs(self) -> list[str]:
        """Each coefficient in rational_str form."""
        if self.den == 1:
            return [str(x) for x in self.nums]
        return [rational_str(x, self.den) for x in self.nums]

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": self.coeff_strs()}

    def __repr__(self) -> str:
        return f"Series({to_text(self)!r}, order={self.order})"


def rational_str(c, den: int = 1) -> str:
    """Canonical "num/den" form of c/den, denominator omitted when 1; c is an
    int or a Fraction and den a positive int. Series and WeightedPoly pass
    their int numerators with their denominator, so no Fraction is built."""
    if not isinstance(c, int):
        c = Fraction(c)
        c, den = c.numerator, c.denominator * den
    g = math.gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


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
    num = c.numerator
    return Series(tuple(num * x for x in a.nums), c.denominator * a.den)


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at n = min(order), by Kronecker substitution
    (Schoenhage 1982; Harvey, J. Symb. Comp. 44, 2009).

    Each side's numerators a_0..a_n become one int sum a_i 2^(iB) with one
    signed B-bit slot per coefficient, so the product of the two ints holds
    c_k = sum_{i<=k} a_i b_(k-i) in slot k. c_k has at most n + 1 terms, so
    |c_k| <= (n+1) max|a| max|b|; B is a whole number of bytes with 2^(B-1)
    above that bound (max|a| and max|b| taken as at least 1, so every input
    fits a slot too), and _unpack reads the c_k off the product.
    """
    n = min(a.order, b.order)
    xs, ys = a.nums[: n + 1], b.nums[: n + 1]
    bound = (n + 1) * max(1, *map(abs, xs)) * max(1, *map(abs, ys))
    w = _slot_bytes(bound)
    return Series(_unpack(_pack(xs, w) * _pack(ys, w), n + 1, w), a.den * b.den)


def eval_poly(gens: tuple[Series | None, ...], nums: dict, order: int, den: int = 1) -> Series:
    """sum_e nums[e] prod_i gens[i]^(e_i) / den to the given order, for int
    nums keyed by exponent tuples; every generator has at least that order,
    and gens[i] may be None where every e_i is 0.

    With n = order, X = 2^(8w) and K = 8w(n+1), f -> f(X) mod 2^K is a ring homomorphism
    Z[q]/(q^(n+1)) -> Z/2^K, as X^(n+1) = 2^K is 0 there. So each generator is
    packed once; each distinct monomial of degree >= 2 is one int product mod
    2^K, the square of its half when every exponent is even and otherwise its
    parent (last nonzero exponent lowered by one) times a generator; and the
    numerators sum_e c_e (L/D_e) m_e, for terms c_e m_e / D_e with D_e the
    generators' denominators to the powers e and L their lcm, are formed on
    the same ints and unpacked once.

    The slot width. Let M_i be max|nums| of generator i, taken as at least 1.
    The q^k numerator of a monomial of degree d >= 1 is a sum of
    C(k+d-1, d-1) <= (n+1)^(d-1) products of d generator numerators, so its
    absolute value is at most (n+1)^(d-1) prod M_i^(e_i); a monomial of
    degree 0 is 1. So every numerator of the sum is at most

        B = sum_e |c_e| (L/D_e) (n+1)^max(d_e-1, 0) prod M_i^(e_i)

    in absolute value, and w is the fewest bytes with 2^(8w-1) above B and
    every M_i, so that each generator packs and _unpack reads each numerator
    off its own slot. The monomials may overflow their slots: only their
    images mod 2^K are used, which the homomorphism makes exact.
    """
    peaks = {i: max(1, *map(abs, g.nums)) for i, g in enumerate(gens) if g is not None}
    dens = {e: math.prod(gens[i].den ** k for i, k in enumerate(e) if k) for e in nums}
    lcm = math.lcm(*dens.values())
    bound = sum(
        abs(c) * (lcm // dens[e]) * (order + 1) ** max(sum(e) - 1, 0)
        * math.prod(peaks[i] ** k for i, k in enumerate(e) if k) for e, c in nums.items()
    )
    w = _slot_bytes(max([bound, *peaks.values()]))
    mask = (1 << 8 * w * (order + 1)) - 1
    zero = (0,) * len(gens)
    packed = {i: _pack(gens[i].nums, w) for i in peaks}
    table = {zero: 1} | {zero[:i] + (1,) + zero[i + 1 :]: x for i, x in packed.items()}

    def image(exps: tuple[int, ...]) -> int:
        if exps not in table:
            if any(map((1).__and__, exps)):  # some exponent is odd
                i = max(i for i, e in enumerate(exps) if e)
                z = image(exps[:i] + (exps[i] - 1,) + exps[i + 1 :]) * packed[i]
            else:
                z = image(tuple(e >> 1 for e in exps)) ** 2
            table[exps] = z & mask
        return table[exps]

    total = sum(c * (lcm // dens[e]) * image(e) for e, c in nums.items())
    return Series(_unpack(total, order + 1, w), den * lcm)


def _slot_bytes(bound: int) -> int:
    """The fewest whole bytes w with 2^(8w-1) > bound: a signed slot for
    every value of absolute value at most bound."""
    return bound.bit_length() // 8 + 1


def _pack(vs: tuple[int, ...], w: int) -> int:
    """sum vs[i] 2^(8wi): each value as w two's-complement bytes, less the
    2^(8w) that every negative slot's bytes carry over its value."""
    one, nil = (1).to_bytes(w, "little"), bytes(w)
    slots = b"".join([v.to_bytes(w, "little", signed=True) for v in vs])
    carries = b"".join([one if v < 0 else nil for v in vs])
    return int.from_bytes(slots, "little") - (int.from_bytes(carries, "little") << 8 * w)


def _unpack(z: int, count: int, w: int) -> tuple[int, ...]:
    """The c_0..c_(count-1) of any z congruent to sum c_k 2^(8wk) modulo
    2^(8w count), given -2^(8w-1) <= c_k < 2^(8w-1). Adding 2^(8w-1) to each
    slot makes every one nonnegative and below 2^(8w), so no slot borrows
    from the next and each reads off its own bytes."""
    half = 1 << 8 * w - 1
    size = count * w
    biased = z + int.from_bytes(half.to_bytes(w, "little") * count, "little")
    data = (biased & (1 << 8 * size) - 1).to_bytes(size, "little")
    return tuple(int.from_bytes(data[i : i + w], "little") - half for i in range(0, size, w))


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
    for n, c in enumerate(a.nums):
        if c == 0:
            continue
        mag = rational_str(abs(c), a.den)
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
