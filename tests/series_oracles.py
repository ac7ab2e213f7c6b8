"""Slow reference kernels on qram Series, kept only as test oracles.

schoolbook_mul is the integer Cauchy product that series.mul replaced; div is
integer long division by a unit, which no part of the package needs;
eval_by_mul is the evaluator of weighted polynomials that
weighted.eval_as_series replaced by one packed series.eval_poly, one
series.mul per monomial on the generators.generator series; ratio_chain is
the ratio recurrence that weighted.ratio_polys replaced, one normalised
WeightedPoly per product and derivative.
"""

from fractions import Fraction
from operator import mul as _imul

from qram import generators as G
from qram import series as S
from qram.weighted import (
    _GEN_EXPS,
    FAMILY_SETUP,
    Exps,
    WeightedPoly,
    canonicalize,
    constant,
    derive,
    family_rules,
)


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


def eval_by_mul(p: WeightedPoly, order: int) -> S.Series:
    """Substitute the generator q-expansions and expand to the given order.

    Only the generators that occur in p are built, each once, by
    generators.generator. Each distinct monomial of degree >= 2 costs one
    S.mul, as its parent (last nonzero exponent lowered by one) times that
    generator; the terms are summed on the int numerators and divided by the
    denominator once.
    """
    table = {(0, 0, 0, 0): S.one(order)}

    def monomial(exps: Exps) -> S.Series:
        if exps not in table:
            pos = max(q for q, e in enumerate(exps) if e)
            name = "PEQR"[pos]
            if sum(exps) == 1:
                table[exps] = G.generator(p.ring, name, order)
            else:
                parent = exps[:pos] + (exps[pos] - 1,) + exps[pos + 1 :]
                table[exps] = S.mul(monomial(parent), monomial(_GEN_EXPS[name]))
        return table[exps]

    total = S.zero(order)
    for exps, c in p.nums.items():
        total = S.add(total, S.scale(c, monomial(exps)))
    return S.scale(Fraction(1, p.den), total)


def ratio_chain(fam: str, top: int) -> list[WeightedPoly]:
    """ratio_poly(fam, n) for n = 0..top, as r_{n+1} = r_n*g + derive(rules, r_n)
    on WeightedPoly records, each step reduced to lowest terms."""
    ring, _, gspec = FAMILY_SETUP[fam]
    g = WeightedPoly(ring, gspec)
    rules = family_rules(fam)
    chain = [constant(ring, 1)]
    for _ in range(top):
        r = chain[-1]
        chain.append(r * g + derive(rules, r))
    return [canonicalize(r) for r in chain]
