"""Slow reference kernels on qram Series, kept only as test oracles.

schoolbook_mul is the integer Cauchy product that series.mul replaced; div is
integer long division by a unit, which no part of the package needs.
"""

from operator import mul as _imul

from qram import series as S


def schoolbook_mul(a: S.Series, b: S.Series) -> S.Series:
    """Cauchy product truncated at min(order), one dot product per coefficient."""
    n = min(a.order, b.order)
    xs, ys = a.nums, b.nums[n::-1]  # ys[n - k:] is b_k, ..., b_0
    out = tuple(sum(map(_imul, xs[: k + 1], ys[n - k :])) for k in range(n + 1))
    return S.Series(out, a.den * b.den)


def div(a: S.Series, b: S.Series) -> S.Series:
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
    return S.Series(nums, a.den * d ** (n + 1))
