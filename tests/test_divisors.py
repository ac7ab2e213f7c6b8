"""Divisor-sum flavors against literal enumeration, boundaries, convolutions."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qram.divisors import (
    DivisorKind,
    bernoulli,
    boundary_value,
    convolution,
    convolution_sequence,
    divisor_sum,
    divisor_sum_table,
)

PLAIN, TILDE, HAT = DivisorKind.PLAIN, DivisorKind.TILDE, DivisorKind.HAT
KINDS = (PLAIN, TILDE, HAT)


def naive(kind: DivisorKind, s: int, n: int) -> int:
    """Literal definition, kept independent of the implementation."""
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        term = d**s
        if kind is TILDE and d % 2 == 0:
            term = -term
        if kind is HAT and (n // d) % 2 == 0:
            term = -term
        total += term
    return total


@given(st.sampled_from(KINDS), st.integers(0, 9), st.integers(1, 500))
@settings(max_examples=200)
def test_matches_literal_enumeration(kind, s, n):
    assert divisor_sum(kind, s, n) == naive(kind, s, n)


@given(st.sampled_from(KINDS), st.integers(0, 7), st.integers(1, 200))
def test_sieve_table_matches_pointwise(kind, s, n):
    table = divisor_sum_table(kind, s, n)
    assert len(table) == n + 1
    assert table[0] == 0
    assert table[n] == divisor_sum(kind, s, n)


@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 5))
def test_plain_multiplicative(m, n, s):
    if gcd(m, n) != 1:
        return
    assert divisor_sum(PLAIN, s, m * n) == divisor_sum(PLAIN, s, m) * divisor_sum(
        PLAIN, s, n
    )


def test_parity_reductions_to_ten_thousand():
    # sigma~_s(n) = sigma_s(n) - 2^{s+1} sigma_s(n/2)
    # sigma^_s(n) = sigma_s(n) - 2 sigma_s(n/2)
    n_max = 10_000
    for s in (1, 3, 5):
        plain = divisor_sum_table(PLAIN, s, n_max)
        tilde = divisor_sum_table(TILDE, s, n_max)
        hat = divisor_sum_table(HAT, s, n_max)
        for n in range(1, n_max + 1):
            half = plain[n // 2] if n % 2 == 0 else 0
            assert tilde[n] == plain[n] - 2 ** (s + 1) * half
            assert hat[n] == plain[n] - 2 * half


def test_boundary_table():
    assert boundary_value(PLAIN, 3) == Fraction(1, 240)
    assert boundary_value(PLAIN, 5) == Fraction(-1, 504)
    assert boundary_value(PLAIN, 7) == Fraction(1, 480)
    assert boundary_value(TILDE, 1) == Fraction(1, 8)
    assert boundary_value(TILDE, 3) == Fraction(-1, 16)
    assert boundary_value(TILDE, 5) == Fraction(1, 8)
    assert boundary_value(HAT, 1) == Fraction(1, 24)
    with pytest.raises(LookupError):
        boundary_value(HAT, 3)
    with pytest.raises(LookupError):
        boundary_value(PLAIN, 2)


def test_extrapolated_boundary_is_minus_half_bernoulli_ratio():
    # the plain boundaries are -B_{s+1} / (2(s+1)) for every odd s
    assert boundary_value(PLAIN, 3) == Fraction(1, 240)
    assert boundary_value(PLAIN, 5) == Fraction(-1, 504)
    assert boundary_value(PLAIN, 7) == Fraction(1, 480)
    assert boundary_value(PLAIN, 1) == Fraction(-1, 24)
    assert boundary_value(PLAIN, 9) == Fraction(-1, 264)
    assert boundary_value(PLAIN, 13) == Fraction(-1, 24)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(7) == 0


def test_out_of_domain_arguments_vanish():
    assert divisor_sum(PLAIN, 3, -4) == 0
    assert divisor_sum(TILDE, 5, Fraction(3, 2)) == 0
    assert divisor_sum(HAT, 1, Fraction(7, 3)) == 0
    # integral-valued Fractions are integers in disguise
    assert divisor_sum(PLAIN, 3, Fraction(10, 2)) == divisor_sum(PLAIN, 3, 5)


def test_divisor_sum_at_zero_uses_boundary():
    assert divisor_sum(PLAIN, 3, 0) == Fraction(1, 240)
    assert divisor_sum(TILDE, 5, 0) == Fraction(1, 8)
    assert divisor_sum(HAT, 1, 0) == Fraction(1, 24)
    # the value P's scalar -24 fixes
    assert divisor_sum(PLAIN, 1, 0) == Fraction(-1, 24)
    # pairs with no generator have no boundary value
    for kind, s in ((PLAIN, 2), (HAT, 3), (TILDE, 7)):
        with pytest.raises(LookupError):
            divisor_sum(kind, s, 0)


# only flavors with a boundary value can sit in a sum that reaches index 0
_BOUNDED_TERMS = [(PLAIN, 3), (PLAIN, 5), (PLAIN, 7), (TILDE, 1), (TILDE, 3), (TILDE, 5), (HAT, 1)]


@given(
    st.lists(st.sampled_from(_BOUNDED_TERMS), min_size=1, max_size=3),
    st.integers(0, 25),
)
@settings(max_examples=60, deadline=None)
def test_bulk_convolution_matches_recursive(terms, n):
    seq = convolution_sequence(terms, n)
    assert seq[n] == convolution(terms, n)


def test_worked_convolution_examples():
    # sigma~_5(4) = -1055 via -48 sum sigma^ * sigma~_3
    assert divisor_sum(TILDE, 5, 4) == -1055
    assert -48 * convolution([(HAT, 1), (TILDE, 3)], 4) == -1055
    # sigma_3(5) = 126 via 12 sum sigma^ sigma^ (odd n)
    assert divisor_sum(PLAIN, 3, 5) == 126
    assert 12 * convolution([(HAT, 1), (HAT, 1)], 5) == 126
    # sigma_5(3) = 244 via 192 * triple sum
    assert divisor_sum(PLAIN, 5, 3) == 244
    assert 192 * convolution([(HAT, 1)] * 3, 3) == 244
    # sigma_7(3) = 2188 via the quadruple/pair combination, with the exact
    # intermediate sums
    quad = convolution([(HAT, 1)] * 4, 3)
    pair = convolution([(HAT, 1), (TILDE, 5)], 3)
    assert quad == Fraction(163, 864)
    assert pair == Fraction(-58, 3)
    assert 12 * (864 * quad - pair) == 2188 == divisor_sum(PLAIN, 7, 3)


def test_convolution_of_one_term_is_the_sum_itself():
    for kind, s in ((PLAIN, 3), (TILDE, 5), (HAT, 1)):
        for n in range(0, 8):
            assert convolution([(kind, s)], n) == divisor_sum(kind, s, n)
