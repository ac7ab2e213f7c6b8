"""Ring axioms and operator laws for truncated series, plus frozen expansions."""

import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qram import series as S
from qram.generators import eps0, fneg, generator
from series_oracles import div, schoolbook_mul

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def series_st(order=10, unit=False):
    def build(vals):
        if unit and vals[0] == 0:
            vals = [Fraction(1)] + vals[1:]
        return S.from_coeffs(vals)

    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(build)


def coeff_lists(unit=False):
    """Fraction coefficient lists of order 0..12 over mixed denominators, with
    up to three zero leading terms (none for a unit)."""
    head = st.just([]) if unit else st.lists(st.just(Fraction(0)), max_size=3)
    first = rationals.filter(bool) if unit else rationals
    return st.builds(
        lambda h, f, rest: (h + [f] + rest)[:13],
        head,
        first,
        st.lists(rationals, max_size=12),
    )


def fraction_schoolbook(xs, ys):
    n = min(len(xs), len(ys))
    return [sum((xs[i] * ys[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]


def fraction_long_division(xs, ys):
    out = []
    for k in range(min(len(xs), len(ys))):
        acc = xs[k] - sum((ys[i] * out[k - i] for i in range(1, k + 1)), Fraction(0))
        out.append(acc / ys[0])
    return out


def assert_normal_form(s):
    assert all(type(x) is int for x in s.nums)
    assert s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    assert S.from_coeffs(s.coeffs) == s


@given(coeff_lists(), coeff_lists(), rationals)
@settings(max_examples=150)
def test_integer_kernels_match_fraction_oracle(xs, ys, c):
    a, b = S.from_coeffs(xs), S.from_coeffs(ys)
    cases = [
        (S.add(a, b), [x + y for x, y in zip(xs, ys)]),
        (S.sub(a, b), [x - y for x, y in zip(xs, ys)]),
        (S.mul(a, b), fraction_schoolbook(xs, ys)),
        (S.scale(c, a), [c * x for x in xs]),
        (S.neg(b), [-y for y in ys]),
    ]
    for out, want in cases:
        assert list(out.coeffs) == want
        assert_normal_form(out)


def _big_nums(order, sign):
    """order + 1 ints of up to 300 digits, drawn with many zeros; sign -1
    makes every one of them nonpositive, 0 makes them all zero."""
    magnitude = st.one_of(
        st.just(0), st.integers(0, 10), st.integers(0, 10**30), st.integers(0, 10**300)
    )
    if sign == 0:
        return st.just([0] * (order + 1))
    if sign == -1:
        return st.lists(magnitude.map(lambda m: -m), min_size=order + 1, max_size=order + 1)
    signed = st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
    return st.lists(signed, min_size=order + 1, max_size=order + 1)


@st.composite
def big_series(draw):
    order = draw(st.one_of(st.integers(0, 12), st.integers(0, 300)))
    nums = draw(_big_nums(order, draw(st.sampled_from([1, 1, 1, -1, 0]))))
    den = draw(st.one_of(st.just(1), st.integers(2, 10**40)))
    return S.Series(tuple(nums), den)


@given(big_series(), big_series())
@settings(max_examples=100, deadline=None)
def test_mul_matches_schoolbook_oracle(a, b):
    out = S.mul(a, b)
    assert out == schoolbook_mul(a, b)
    assert out.order == min(a.order, b.order)
    assert_normal_form(out)


def test_mul_slot_bound_is_tight():
    # every c_k at its bound (n+1) max|a| max|b|, of either sign, and one
    # slot's worth of borrows from negative neighbours
    for n in (0, 1, 7, 64):
        for m in (1, 255, 256, 2**64 - 1, 10**300):
            for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                a = S.Series((sa * m,) * (n + 1))
                b = S.Series((sb * m,) * (n + 1))
                assert S.mul(a, b) == schoolbook_mul(a, b)
                alt = S.Series(tuple(m if k % 2 else -m for k in range(n + 1)))
                assert S.mul(alt, b) == schoolbook_mul(alt, b)


@st.composite
def packed_polys(draw):
    """(gens, nums, order, den) for eval_poly: an order 0..300; up to three
    generators of that order or up to 2 past it, each with numerators of one
    sign or mixed over a denominator >= 1, None for some unused ones; up to
    five monomials with exponents 0..4 and signed int coefficients, zero
    among them; den >= 1."""
    top = draw(st.one_of(st.just(0), st.integers(0, 12), st.integers(0, 300)))
    k = draw(st.integers(1, 3))
    nums = draw(
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * k), st.integers(-(10**30), 10**30),
                        max_size=5)
    )
    dens = st.one_of(st.just(1), st.integers(2, 10**12))
    gens = []
    for i in range(k):
        if not any(e[i] for e in nums) and draw(st.booleans()):
            gens.append(None)
            continue
        size = top + 1 + draw(st.integers(0, 2))
        magnitude = st.one_of(st.just(0), st.integers(0, 10), st.integers(0, 10**30))
        sign = draw(st.sampled_from([1, -1, 0]))
        signed = st.tuples(magnitude, st.booleans()).map(
            lambda t, sign=sign: -t[0] if sign == -1 or sign == 0 and t[1] else t[0]
        )
        values = draw(st.lists(signed, min_size=size, max_size=size))
        gens.append(S.Series(tuple(values), draw(dens)))
    return tuple(gens), nums, top, draw(dens)


def eval_by_mul_chain(gens, nums, order, den):
    """The same sum with one S.mul per factor, each monomial a left-to-right
    reduce, and the terms added as Series."""
    total = S.zero(order)
    for e, c in nums.items():
        factors = [g for g, k in zip(gens, e) for _ in range(k)]
        total = S.add(total, S.scale(c, reduce(S.mul, factors, S.one(order))))
    return S.scale(Fraction(1, den), total)


# At order 0 every numerator sits at its slot bound B when the generators'
# numerators and the coefficients share a sign: B = 2^63 - 1 fills 8 bytes.
@given(packed_polys())
@example(((S.Series((2**63 - 1,)),), {(1,): 1}, 0, 1))
@example(((S.Series((-(2**31),), 3), S.Series((2**31,) * 3)), {(1, 1): 1, (0, 0): 5}, 0, 7))
@example(((S.Series((1,) * 201), None), {(4, 0): -(2**40), (0, 0): 3}, 200, 2))
@settings(max_examples=60, deadline=None)
def test_eval_poly_matches_a_mul_chain(case):
    gens, nums, order, den = case
    out = S.eval_poly(gens, nums, order, den)
    assert out == eval_by_mul_chain(gens, nums, order, den)
    assert out.order == order
    assert_normal_form(out)


@given(coeff_lists(), coeff_lists(unit=True))
@settings(max_examples=150)
def test_div_matches_fraction_long_division(xs, ys):
    out = div(S.from_coeffs(xs), S.from_coeffs(ys))
    assert list(out.coeffs) == fraction_long_division(xs, ys)
    assert_normal_form(out)


@given(series_st(), series_st(), series_st())
@settings(max_examples=80)
def test_ring_axioms(a, b, c):
    assert S.add(a, b) == S.add(b, a)
    assert S.mul(a, b) == S.mul(b, a)
    assert S.add(S.add(a, b), c) == S.add(a, S.add(b, c))
    assert S.mul(S.mul(a, b), c) == S.mul(a, S.mul(b, c))
    assert S.mul(a, S.add(b, c)) == S.add(S.mul(a, b), S.mul(a, c))
    assert S.mul(a, S.one(a.order)) == a
    assert S.add(a, S.zero(a.order)) == a
    assert S.add(a, S.neg(a)) == S.zero(a.order)


@given(series_st(), series_st(unit=True))
@settings(max_examples=80)
def test_div_undoes_mul(a, b):
    assert div(S.mul(a, b), b) == a


@given(series_st(unit=True))
def test_div_one_is_inverse(b):
    inv = div(S.one(b.order), b)
    assert S.mul(inv, b) == S.one(b.order)


def test_normal_form_on_construction():
    assert S.Series((2, -4, 6), -4) == S.Series((-1, 2, -3), 2)
    assert S.Series((0, 0), 7) == S.zero(1)
    with pytest.raises(ZeroDivisionError):
        S.Series((1, 2), 0)


def test_div_by_non_unit_raises():
    q = S.monomial(1, 1, 6)
    with pytest.raises(ZeroDivisionError):
        div(S.one(6), q)


@given(series_st(), series_st())
@settings(max_examples=80)
def test_euler_op_leibniz(a, b):
    lhs = S.euler_op(S.mul(a, b))
    rhs = S.add(S.mul(S.euler_op(a), b), S.mul(a, S.euler_op(b)))
    assert lhs == rhs


@given(series_st(order=6), series_st(order=6), st.integers(1, 4))
@settings(max_examples=60)
def test_substitute_power_is_a_homomorphism(a, b, k):
    assert S.substitute_power(S.mul(a, b), k) == S.mul(
        S.substitute_power(a, k), S.substitute_power(b, k)
    )
    assert S.substitute_power(S.add(a, b), k) == S.add(
        S.substitute_power(a, k), S.substitute_power(b, k)
    )


@given(series_st())
def test_substitute_negate_involution(a):
    assert S.substitute_negate(S.substitute_negate(a)) == a


@given(series_st(order=6), series_st(order=6))
def test_substitute_negate_multiplicative(a, b):
    assert S.substitute_negate(S.mul(a, b)) == S.mul(
        S.substitute_negate(a), S.substitute_negate(b)
    )


@given(series_st(), st.integers(0, 5))
def test_shift_prepends_zeros(a, m):
    out = S.shift(a, m)
    assert out.order == a.order + m
    assert out.coeffs[:m] == (Fraction(0),) * m
    assert out.coeffs[m:] == a.coeffs


def test_add_truncates_to_min_order():
    a = S.one(10)
    b = S.one(4)
    assert S.add(a, b).order == 4
    assert S.mul(a, b).order == 4


def test_product_expansion_pentagonal():
    # prod (1 - q^n) has the pentagonal-number expansion
    p = S.product_expansion([(1, 1, 1)], 30)
    assert p == fneg(30)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}
    for n in range(27):
        assert p.coeffs[n] == expected.get(n, 0)


def test_product_expansion_negative_exponent_is_partition_series():
    inv = S.product_expansion([(1, 1, -1)], 10)
    assert [int(c) for c in inv.coeffs] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert S.mul(inv, S.product_expansion([(1, 1, 1)], 10)) == S.one(10)


def test_product_expansion_rejects_vanishing_factor():
    # a = 0 (the factor 1 - q^0), b < 1 and a < 0 are refused, even at e = 0
    for a, b in ((0, 1), (1, 0), (-1, 2)):
        for e in (1, 0, -2):
            with pytest.raises(ValueError):
                S.product_expansion([(1, 1, 1), (a, b, e)], 5)


def reference_product(factors, order):
    """The sweep-then-multiply expansion: (1 - q^m) swept |e| times per index
    m = a + bn into a positive power, then multiplied in (e > 0) or divided
    out (e < 0)."""
    acc = S.one(order)
    for a, b, e in factors:
        if e == 0:
            continue
        pos = [Fraction(1)] + [Fraction(0)] * order
        for m in range(a, order + 1, b):
            for _ in range(abs(e)):
                for i in range(order, m - 1, -1):
                    pos[i] -= pos[i - m]
        pos_series = S.from_coeffs(pos)
        acc = S.mul(acc, pos_series) if e > 0 else div(acc, pos_series)
    return acc


factor_st = st.tuples(st.integers(1, 8), st.integers(1, 6), st.integers(-4, 4))


@given(st.lists(factor_st, max_size=4), st.integers(0, 80))
@settings(max_examples=60, deadline=None)
def test_product_expansion_matches_reference(factors, order):
    assert S.product_expansion(factors, order) == reference_product(factors, order)


def test_frozen_quotient_eps_by_eps_of_q_squared():
    # eps(q) / eps(q^2) through q^8
    num = eps0(8)
    den = S.truncate(S.substitute_power(eps0(4), 2), 8)
    quotient = div(num, den)
    assert list(quotient.coeffs) == [1, 1, 0, -1, -1, 1, 1, 1, 0]


def test_to_text_and_json():
    h = S.truncate(generator("hahn", "P", 3), 3)
    assert S.to_text(h) == "1 + 8q - 8q^2 + 32q^3"
    js = h.to_json()
    assert js == {"order": 3, "coeffs": ["1", "8", "-8", "32"]}
    third = S.scale(Fraction(1, 3), S.one(1))
    assert third.to_json()["coeffs"] == ["1/3", "0"]
    assert S.to_text(S.Series((3, -2, 0, 6), 6)) == "1/2 - 1/3q + q^3"


def test_rational_str_canonical():
    assert S.rational_str(Fraction(-5461, 8)) == "-5461/8"
    assert S.rational_str(Fraction(4, 2)) == "2"
    assert S.rational_str(-5461 * 3, 24) == "-5461/8"
    assert S.rational_str(4, 2) == S.rational_str(2, 1) == "2"
    assert S.rational_str(0, 691) == "0"
