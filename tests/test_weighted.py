"""Graded polynomial algebra: derivations, recurrences, frozen tables."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qram import generators as G
from qram import series as S
from qram.generators import eisenstein, family, generator
from qram.weighted import (
    CLASSICAL_RULES,
    HAHN_RULES,
    DerivationRules,
    WeightedPoly,
    canonicalize,
    classical_to_hahn,
    constant,
    derive,
    eval_as_series,
    family_rules,
    from_terms,
    gen,
    phi_poly,
    pretty,
    ratio_poly,
    ratio_polys,
)
from series_oracles import eval_by_mul, ratio_chain


def wp(ring, spec):
    return from_terms(ring, spec)


def terms_st(ring, max_denominator=6, max_size=4):
    exps = st.tuples(
        st.integers(0, 2),
        st.integers(0, 2) if ring == "hahn" else st.just(0),
        st.integers(0, 2),
        st.integers(0, 1),
    )
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=max_denominator)
    return st.dictionaries(exps, coeff, max_size=max_size)


def poly_st(ring):
    return terms_st(ring).map(lambda d: from_terms(ring, d))


# a test-side Fraction-dict implementation of the algebra, as the oracle


def f_clean(xs):
    return {e: c for e, c in xs.items() if c}


def f_add(xs, ys):
    out = dict(xs)
    for e, c in ys.items():
        out[e] = out.get(e, 0) + c
    return f_clean(out)


def f_scale(c, xs):
    return f_clean({e: c * v for e, v in xs.items()})


def f_mul(xs, ys):
    out = {}
    for e1, c1 in xs.items():
        for e2, c2 in ys.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return f_clean(out)


def f_derive(images, xs):
    """c X^m Y -> c m image(X) X^(m-1) Y, summed over the generators X."""
    out = {}
    for exps, c in xs.items():
        for pos, name in enumerate("PEQR"):
            m = exps[pos]
            if m and name in images:
                lowered = exps[:pos] + (m - 1,) + exps[pos + 1 :]
                for e, v in images[name].items():
                    key = tuple(u + w for u, w in zip(lowered, e))
                    out[key] = out.get(key, 0) + c * m * v
    return f_clean(out)


def f_canonicalize(xs):
    out = {}
    for (i, j, k, l), c in xs.items():
        m = min(j, k)
        e = (i, j - m, k - m, l + m)
        out[e] = out.get(e, 0) + c
    return f_clean(out)


def assert_normal_form(p):
    assert all(type(v) is int and v != 0 for v in p.nums.values())
    assert p.den > 0
    assert math.gcd(p.den, *p.nums.values()) == 1
    again = from_terms(p.ring, p.terms)
    assert again == p and hash(again) == hash(p)


# both rings; the F and rescaled hahn rules have images over denominators 3, 4
ORACLE_RULES = [
    CLASSICAL_RULES,
    HAHN_RULES,
    family_rules("F"),
    family_rules("eps"),
    HAHN_RULES.rescaled(3),
]


@given(st.sampled_from(ORACLE_RULES), st.data())
@settings(max_examples=200)
def test_integer_algebra_matches_fraction_oracle(rules, data):
    ring = rules.ring
    xs = data.draw(terms_st(ring, max_denominator=12, max_size=6))
    ys = data.draw(terms_st(ring, max_denominator=12, max_size=6))
    c = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=12))
    a, b = from_terms(ring, xs), from_terms(ring, ys)
    images = {name: img.terms for name, img in rules.images.items()}
    want_canonical = f_canonicalize(xs) if ring == "hahn" else f_clean(xs)
    cases = [
        (a + b, f_add(xs, ys)),
        (a - b, f_add(xs, f_scale(-1, ys))),
        (a.scale(c), f_scale(c, xs)),
        (a * b, f_mul(xs, ys)),
        (derive(rules, a), f_derive(images, xs)),
        (canonicalize(a), want_canonical),
        (a - a, {}),
        (a + b - b, f_clean(xs)),
    ]
    for got, want in cases:
        assert got.terms == want
        assert_normal_form(got)
    assert a + b - b == a and hash(a + b - b) == hash(a)
    assert (a - a).den == 1


@given(poly_st("hahn"), poly_st("hahn"))
@settings(max_examples=60)
def test_derive_satisfies_leibniz(p, q):
    rules = HAHN_RULES
    lhs = derive(rules, p * q)
    rhs = derive(rules, p) * q + p * derive(rules, q)
    assert lhs == rhs


@given(poly_st("classical"), poly_st("classical"))
@settings(max_examples=60)
def test_classical_derive_leibniz(p, q):
    rules = CLASSICAL_RULES
    assert derive(rules, p * q) == derive(rules, p) * q + p * derive(rules, q)


def test_rules_validate_weights():
    # an image of the wrong weight is rejected at construction
    with pytest.raises(ValueError):
        DerivationRules(
            "classical",
            Fraction(12),
            {"P": wp("classical", {(0, 0, 0, 1): 1})},  # weight 6, want 4
        )


def test_normal_form_on_construction():
    p = WeightedPoly("hahn", {(1, 0, 0, 0): 2, (0, 1, 0, 0): -4, (0, 0, 1, 0): 0}, -6)
    assert (p.nums, p.den) == ({(1, 0, 0, 0): -1, (0, 1, 0, 0): 2}, 3)
    assert p == from_terms(
        "hahn", {(1, 0, 0, 0): Fraction(-1, 3), (0, 1, 0, 0): Fraction(2, 3)}
    )
    assert WeightedPoly("classical", {(0, 0, 1, 0): 0}, 5) == WeightedPoly("classical")
    assert WeightedPoly("classical").den == 1
    with pytest.raises(ZeroDivisionError):
        WeightedPoly("classical", {(0, 0, 1, 0): 1}, 0)


def test_classical_ring_rejects_second_generator():
    with pytest.raises(ValueError):
        WeightedPoly("classical", {(0, 1, 0, 0): 1})


def test_derive_matches_euler_operator_on_series():
    # derive is scale * q d/dq through the evaluation bridge
    p = gen("classical", "Q") * gen("classical", "P")
    lhs = eval_as_series(derive(CLASSICAL_RULES, p), 40)
    rhs = S.scale(12, S.euler_op(eval_as_series(p, 40)))
    assert lhs == rhs
    h = gen("hahn", "R")
    assert eval_as_series(derive(HAHN_RULES, h), 40) == S.scale(
        4, S.euler_op(eval_as_series(h, 40))
    )


def test_ratio_tables_pentagonal_family():
    assert ratio_poly("T", 0) == constant("classical", 1)
    assert ratio_poly("T", 1) == wp("classical", {(1, 0, 0, 0): 1})
    assert ratio_poly("T", 2) == wp("classical", {(2, 0, 0, 0): 3, (0, 0, 1, 0): -2})
    assert ratio_poly("T", 3) == wp(
        "classical", {(3, 0, 0, 0): 15, (1, 0, 1, 0): -30, (0, 0, 0, 1): 16}
    )
    assert ratio_poly("T", 4) == wp(
        "classical",
        {(4, 0, 0, 0): 105, (2, 0, 1, 0): -420, (1, 0, 0, 1): 448, (0, 0, 2, 0): -132},
    )


def test_ratio_tables_triangular_family():
    assert ratio_poly("F", 1) == wp("classical", {(1, 0, 0, 0): 1})
    assert ratio_poly("F", 2) == wp(
        "classical", {(2, 0, 0, 0): Fraction(5, 3), (0, 0, 1, 0): Fraction(-2, 3)}
    )
    assert ratio_poly("F", 3) == wp(
        "classical",
        {
            (3, 0, 0, 0): Fraction(35, 9),
            (1, 0, 1, 0): Fraction(-14, 3),
            (0, 0, 0, 1): Fraction(16, 9),
        },
    )
    assert ratio_poly("F", 4) == wp(
        "classical",
        {
            (4, 0, 0, 0): Fraction(35, 3),
            (2, 0, 1, 0): -28,
            (0, 0, 2, 0): -4,
            (1, 0, 0, 1): Fraction(64, 3),
        },
    )


def test_ratio_tables_signed_families():
    assert ratio_poly("psi", 1) == wp("hahn", {(1, 0, 0, 0): 1})
    assert ratio_poly("psi", 2) == wp("hahn", {(2, 0, 0, 0): 3, (0, 0, 1, 0): -2})
    assert ratio_poly("psi", 3) == wp(
        "hahn", {(3, 0, 0, 0): 15, (1, 0, 1, 0): -30, (0, 0, 0, 1): 16}
    )
    assert ratio_poly("eps", 1) == wp("hahn", {(1, 0, 0, 0): 9, (0, 1, 0, 0): -8})
    assert ratio_poly("eps", 2) == wp(
        "hahn",
        {(2, 0, 0, 0): 135, (1, 1, 0, 0): -240, (0, 2, 0, 0): 64, (0, 0, 1, 0): 42},
    )


def test_ratio_integrality_observation():
    # psi, eps, T ratios stay integral through index 6; F picks up thirds
    for fam in ("T", "psi", "eps"):
        for n in range(7):
            poly = ratio_poly(fam, n)
            assert all(c.denominator == 1 for c in poly.terms.values()), (fam, n)
    denoms = {
        c.denominator for n in range(1, 7) for c in ratio_poly("F", n).terms.values()
    }
    assert any(d > 1 for d in denoms)
    for d in denoms:
        while d % 3 == 0:
            d //= 3
        assert d == 1  # only powers of three appear


def test_phi_poly_plain_table():
    assert phi_poly("plain", 1, 2).scale(288) == wp(
        "classical", {(0, 0, 1, 0): 1, (2, 0, 0, 0): -1}
    )
    assert phi_poly("plain", 1, 4).scale(720) == wp(
        "classical", {(1, 0, 1, 0): 1, (0, 0, 0, 1): -1}
    )
    assert phi_poly("plain", 1, 6).scale(1008) == wp(
        "classical", {(0, 0, 2, 0): 1, (1, 0, 0, 1): -1}
    )
    assert phi_poly("plain", 2, 3).scale(1728) == wp(
        "classical", {(1, 0, 1, 0): 3, (0, 0, 0, 1): -2, (3, 0, 0, 0): -1}
    )
    assert phi_poly("plain", 2, 5).scale(1728) == wp(
        "classical", {(2, 0, 1, 0): 1, (1, 0, 0, 1): -2, (0, 0, 2, 0): 1}
    )
    assert phi_poly("plain", 2, 7).scale(1728) == wp(
        "classical", {(1, 0, 2, 0): 2, (2, 0, 0, 1): -1, (0, 0, 1, 1): -1}
    )


def test_phi_poly_tilde_table():
    assert phi_poly("tilde", 1, 2).scale(32) == wp(
        "hahn", {(2, 0, 0, 0): 1, (0, 0, 1, 0): -1}
    )
    assert phi_poly("tilde", 1, 4).scale(16) == wp(
        "hahn", {(1, 0, 1, 0): -1, (0, 0, 0, 1): 1}
    )
    assert phi_poly("tilde", 1, 6).scale(16) == wp(
        "hahn", {(1, 0, 0, 1): 3, (0, 0, 2, 0): -1, (0, 1, 0, 1): -2}
    )
    assert phi_poly("tilde", 2, 3).scale(64) == wp(
        "hahn", {(3, 0, 0, 0): 1, (1, 0, 1, 0): -3, (0, 0, 0, 1): 2}
    )
    assert phi_poly("tilde", 2, 5).scale(64) == wp(
        "hahn",
        {(2, 0, 1, 0): -5, (0, 0, 2, 0): -1, (1, 0, 0, 1): 10, (0, 1, 0, 1): -4},
    )
    assert phi_poly("tilde", 2, 7).scale(64) == wp(
        "hahn",
        {
            (2, 0, 0, 1): 21,
            (0, 0, 1, 1): 13,
            (1, 0, 2, 0): -14,
            (1, 1, 0, 1): -28,
            (0, 2, 0, 1): 8,
        },
    )


def test_phi_poly_base_cases_and_rejections():
    assert phi_poly("plain", 0, 3) == wp(
        "classical", {(0, 0, 1, 0): Fraction(1, 240), (0, 0, 0, 0): Fraction(-1, 240)}
    )
    assert phi_poly("tilde", 0, 1) == wp(
        "hahn", {(1, 0, 0, 0): Fraction(1, 8), (0, 0, 0, 0): Fraction(-1, 8)}
    )
    with pytest.raises(ValueError):
        phi_poly("plain", 1, 3)  # s - r = 2 has no degree-one base case
    with pytest.raises(ValueError):
        phi_poly("frobnicate", 0, 1)


def test_canonicalize_rewrites_eq_pairs():
    p = gen("hahn", "E") * gen("hahn", "Q")
    assert canonicalize(p) == gen("hahn", "R")
    p2 = gen("hahn", "E") * gen("hahn", "Q") * gen("hahn", "Q")
    assert canonicalize(p2) == gen("hahn", "Q") * gen("hahn", "R")


def test_hahn_relation_r_equals_eq_as_series():
    assert eval_as_series(
        gen("hahn", "R") - gen("hahn", "E") * gen("hahn", "Q"), 60
    ) == S.zero(60)


def test_classical_to_hahn_images():
    assert classical_to_hahn(gen("classical", "P")) == wp(
        "hahn", {(1, 0, 0, 0): 3, (0, 1, 0, 0): -2}
    )
    assert classical_to_hahn(gen("classical", "Q")) == wp(
        "hahn", {(0, 2, 0, 0): 4, (0, 0, 1, 0): -3}
    )
    assert classical_to_hahn(gen("classical", "R")) == wp(
        "hahn", {(0, 3, 0, 0): -8, (0, 0, 0, 1): 9}
    )


@given(poly_st("classical"))
@settings(max_examples=25, deadline=None)
def test_substitution_consistent_as_series(p):
    assert eval_as_series(p, 24) == eval_as_series(classical_to_hahn(p), 24)


def test_family_rules_scales():
    assert family_rules("T").scale == 24
    assert family_rules("F").scale == 8
    assert family_rules("psi").scale == 8
    assert family_rules("eps").scale == 24


def test_ratio_poly_weight_homogeneous():
    for fam in ("T", "F", "psi", "eps"):
        table = ratio_polys(fam, 8)  # one pass of the recurrence
        for n in range(0, 9):
            poly = ratio_poly(fam, n)
            assert table[n] == poly, (fam, n)
            assert poly.homogeneous_weight() == 2 * n, (fam, n)


def test_ratio_polys_match_the_record_chain_oracle():
    # the one-dict recurrence reduces only at the end; the oracle reduces
    # every step, so equal records mean equal rationals at every index
    for fam in ("T", "F", "psi", "eps"):
        want = ratio_chain(fam, 20)
        assert ratio_polys(fam, 20) == want, fam
        for n in range(21):
            assert ratio_poly(fam, n) == want[n], (fam, n)


def test_eval_bridge_reproduces_family_members():
    # X_{2n} = ratio * X_0 as series
    t0, t4 = family("T", 0, 80), family("T", 4, 80)
    assert S.mul(eval_as_series(ratio_poly("T", 2), 80), t0) == t4
    e1, e5 = family("eps", 1, 80), family("eps", 5, 80)
    assert S.mul(eval_as_series(ratio_poly("eps", 2), 80), e1) == e5


def test_eval_as_series_generators():
    assert eval_as_series(gen("classical", "P"), 20) == eisenstein(1, 20)
    assert eval_as_series(gen("hahn", "Q"), 20) == generator("hahn", "Q", 20)


@pytest.fixture
def builds(monkeypatch):
    """Every G.generator call's (ring, letter, order), in call order."""
    log, build = [], G.generator

    def record(*args):
        log.append(args)
        return build(*args)

    monkeypatch.setattr(G, "generator", record)
    return log


def test_eval_as_series_builds_only_the_generators_it_uses(builds):
    q = gen("classical", "Q")
    got = eval_as_series(q * q, 30)
    assert builds == [("classical", "Q", 30)]
    assert got == S.mul(eisenstein(2, 30), eisenstein(2, 30))
    builds.clear()
    e, r = gen("hahn", "E"), gen("hahn", "R")
    eval_as_series((e**4).scale(15) - (e * r).scale(30), 30)
    assert sorted(builds) == [("hahn", "E", 30), ("hahn", "R", 30)]


@pytest.mark.parametrize("ring, letter", [("hahn", "X"), ("classical", "E")])
def test_gen_rejects_a_letter_outside_the_ring(ring, letter):
    with pytest.raises(ValueError, match=f"no generator '{letter}' in the '{ring}' ring"):
        gen(ring, letter)


@st.composite
def wide_polys(draw):
    """Polynomials of degree up to 8 in either ring, with coefficients up to
    10^30 over denominators up to 10^12; the zero and constant polynomials
    among them."""
    ring = draw(st.sampled_from(["classical", "hahn"]))
    names = "PEQR" if ring == "hahn" else "PQR"
    exps = st.lists(st.sampled_from(names), max_size=8).map(
        lambda gens: tuple(gens.count(x) for x in "PEQR")
    )
    coeff = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12)
    return from_terms(ring, draw(st.dictionaries(exps, coeff, max_size=6)))


@given(wide_polys(), st.integers(0, 200))
@example(WeightedPoly("hahn"), 0)
@example(WeightedPoly("classical"), 200)
@example(constant("classical", Fraction(-(10**30), 7)), 0)
@example(constant("hahn", 10**30), 200)
@example(gen("classical", "R") ** 8 - gen("classical", "P") ** 8, 200)
@example(gen("hahn", "E") ** 4 * gen("hahn", "R") ** 4, 200)
@settings(max_examples=80, deadline=None)
def test_eval_as_series_matches_the_mul_oracle(p, order):
    assert eval_as_series(p, order) == eval_by_mul(p, order)


def test_eval_as_series_result_at_the_slot_bound():
    # At order 0 every generator is the constant 1, so the one numerator is
    # the sum of the c_e, which is the bound B when the c_e share a sign; a
    # constant polynomial sits at B at every order. B = 2^(8w-1) - 1 fills a
    # w-byte slot, and 2^(8w-1) needs one byte more.
    for w in (1, 2, 3, 8):
        for top in (2 ** (8 * w - 1) - 1, 2 ** (8 * w - 1)):
            for sign in (1, -1):
                c = sign * top
                for ring, exps in (
                    ("classical", [(1, 0, 0, 0), (0, 0, 2, 0), (3, 0, 2, 3)]),
                    ("hahn", [(0, 1, 0, 0), (2, 0, 1, 0), (1, 2, 2, 3)]),
                ):
                    terms = {(0, 0, 0, 0): c - 3 * sign} | dict.fromkeys(exps, sign)
                    assert eval_as_series(from_terms(ring, terms), 0) == S.Series((c,))
                    for order in (1, 5):
                        want = S.Series((c,) + (0,) * order)
                        assert eval_as_series(constant(ring, c), order) == want


def test_pretty_rendering():
    assert pretty(ratio_poly("T", 3)) == "15P^3 - 30PQ + 16R"
    assert (
        pretty(ratio_poly("F", 3)) == "(35/9)P^3 - (14/3)PQ + (16/9)R"
    )
    assert pretty(ratio_poly("eps", 1), ascii_letters=True) == "9P~ - 8E~"
    assert pretty(constant("classical", 0)) == "0"
    assert pretty(wp("classical", {(0, 0, 0, 0): -2, (1, 0, 0, 0): 1})) == "P - 2"
