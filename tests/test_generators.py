"""Generator expansions against frozen prefixes and literal-definition oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qram import series as S
from qram.divisors import GENERATORS, DivisorKind, boundary_value, lambert
from qram.generators import (
    MAX_NAME_INDEX,
    eisenstein,
    eps0,
    family,
    fneg,
    generator,
    phi_series,
    psi0,
    series_by_name,
    theta_f,
    varphi,
)


def sig(kind: str, s: int, n: int) -> int:
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        term = d**s
        if kind == "tilde" and d % 2 == 0:
            term = -term
        if kind == "hat" and (n // d) % 2 == 0:
            term = -term
        total += term
    return total


def test_eisenstein_prefixes():
    # classical expansions, standard values
    assert list(eisenstein(1, 6).coeffs) == [1, -24, -72, -96, -168, -144, -288]
    assert list(eisenstein(2, 4).coeffs) == [1, 240, 2160, 6720, 17520]
    assert list(eisenstein(3, 4).coeffs) == [1, -504, -16632, -122976, -532728]
    assert list(eisenstein(4, 2).coeffs) == [1, 480, 61920]
    assert list(eisenstein(5, 2).coeffs) == [1, -264, -135432]
    assert list(eisenstein(7, 2).coeffs) == [1, -24, -196632]


def test_eisenstein_coefficient_formula():
    # E_{2k} = 1 + c sum sigma_{2k-1}(n) q^n with the standard constants
    consts = {1: -24, 2: 240, 3: -504, 4: 480, 5: -264, 7: -24}
    for k, c in consts.items():
        ser = eisenstein(k, 12)
        for n in range(1, 13):
            assert ser.coeffs[n] == c * sig("plain", 2 * k - 1, n)


def test_hahn_expansions_match_signed_divisor_sums():
    spec = {"P": ("tilde", 1, 8), "E": ("hat", 1, 24), "Q": ("tilde", 3, -16), "R": ("tilde", 5, 8)}
    for name, (kind, s, mult) in spec.items():
        ser = generator("hahn", name, 20)
        assert ser.coeffs[0] == 1
        for n in range(1, 21):
            assert ser.coeffs[n] == mult * sig(kind, s, n)


def test_hahn_prefix_frozen():
    assert list(generator("hahn", "P", 4).coeffs) == [1, 8, -8, 32, -40]
    assert list(generator("hahn", "E", 4).coeffs) == [1, 24, 24, 96, 24]
    assert list(generator("hahn", "Q", 4).coeffs) == [1, -16, 112, -448, 1136]
    assert list(generator("hahn", "R", 4).coeffs) == [1, 8, -248, 1952, -8440]


@pytest.mark.parametrize("order", [0, 1, 70, 300])
def test_unit_lambert_matches_the_series_arithmetic(order):
    # one pass over the sieve against 1 + (1/b) * lambert, b the boundary value
    specs = [(lambda n, k=k: eisenstein(k, n), DivisorKind.PLAIN, 2 * k - 1) for k in range(1, 8)]
    specs += [(lambda n, pair=pair: generator(*pair, n), *GENERATORS[pair]) for pair in GENERATORS]
    for build, kind, s in specs:
        c = 1 / boundary_value(kind, s)
        want = S.add(S.one(order), S.scale(c, lambert(kind, 0, s, order)))
        assert build(order) == want
    for k, x in enumerate("PQR", 1):
        assert generator("classical", x, order) == eisenstein(k, order)


def test_generator_outside_the_table_is_a_key_error():
    with pytest.raises(KeyError):
        generator("classical", "E", 4)
    with pytest.raises(KeyError, match="unknown series name 'hahnX'"):
        series_by_name("hahnX", 4)


def test_family_T_exponents_and_weights():
    # T_j = sum_k (-1)^k (6k+1)^j q^{k(3k+1)/2}
    t4 = family("T", 4, 8)
    assert list(t4.coeffs) == [1, -625, -2401, 0, 0, 14641, 0, 28561, 0]
    t0 = family("T", 0, 12)
    assert t0 == S.product_expansion([(1, 1, 1)], 12)
    with pytest.raises(ValueError):
        family("T", 3, 10)


def test_family_F_is_signed_triangular():
    # F_j = sum_{k>=0} (-1)^k (2k+1)^{j+1} q^{k(k+1)/2}
    f0 = family("F", 0, 10)
    assert list(f0.coeffs) == [1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9]
    f2 = family("F", 2, 10)
    assert f2.coeffs[0] == 1
    assert f2.coeffs[1] == -27
    assert f2.coeffs[3] == 125
    assert f2.coeffs[6] == -343


def test_family_psi_eps_unsigned():
    p0 = psi0(10)
    assert list(p0.coeffs) == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1]
    p2 = family("psi", 2, 10)
    assert p2.coeffs[1] == 9 and p2.coeffs[3] == 25 and p2.coeffs[6] == 49
    e0 = eps0(12)
    assert list(e0.coeffs) == [1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1]
    e1 = family("eps", 1, 12)
    # eps_1 has coefficient 6k+1 on exponent k(3k+1)/2
    assert e1.coeffs[0] == 1 and e1.coeffs[1] == -5 and e1.coeffs[2] == 7
    assert e1.coeffs[5] == -11 and e1.coeffs[7] == 13


def test_theta_f_basic_values():
    assert list(varphi(9).coeffs) == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]
    assert list(fneg(12).coeffs) == list(S.product_expansion([(1, 1, 1)], 12).coeffs)
    # f(q, q^5): exponents 3k^2 - 2k
    f15 = theta_f(1, 1, 1, 5, 16)
    nonzero = {n for n in range(17) if f15.coeffs[n] != 0}
    assert nonzero == {0, 1, 5, 8, 16}
    assert all(f15.coeffs[n] == 1 for n in nonzero)


def test_bilateral_f_q_q3_equals_one_sided_psi():
    # the k-sum over Z at (q, q^3) lands on distinct triangular exponents,
    # reproducing the one-sided sum exactly
    assert theta_f(1, 1, 1, 3, 40) == psi0(40)


def test_theta_collisions_add():
    # f(q, q) = varphi: k and -k collide at exponent k^2 and the weights add
    assert theta_f(1, 1, 1, 1, 25) == varphi(25)


@given(
    st.sampled_from(["plain", "tilde"]),
    st.sampled_from([(0, 1), (0, 3), (0, 5), (1, 2), (2, 3), (1, 6), (2, 7), (3, 1), (2, 0), (5, 2)]),
)
@settings(max_examples=40, deadline=None)
def test_phi_series_against_double_sum_oracle(variant, rs):
    r, s = rs
    order = 24
    ser = phi_series(variant, r, s, order)
    # literal double sum: sum_{m,d>=1} sgn(d) m^r d^s q^{md}
    acc = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        for d in range(1, order // m + 1):
            sgn = -1 if (variant == "tilde" and d % 2 == 0) else 1
            acc[m * d] += sgn * m**r * d**s
    assert list(ser.coeffs) == acc


def test_phi_series_spec_example():
    # coefficient of q^2 in Phi~_{0,5} is sigma~_5(2) = 1 - 32 = -31
    ser = phi_series("tilde", 0, 5, 4)
    assert ser.coeffs[1] == 1
    assert ser.coeffs[2] == -31


def test_series_by_name_all_shapes():
    assert series_by_name("P", 6) == eisenstein(1, 6)
    assert series_by_name("E8", 6) == eisenstein(4, 6)
    assert series_by_name("hahnQ", 6) == generator("hahn", "Q", 6)
    assert series_by_name("R", 6) == generator("classical", "R", 6)
    assert series_by_name("T4", 8) == family("T", 4, 8)
    assert series_by_name("eps3", 8) == family("eps", 3, 8)
    assert series_by_name("psi6", 8) == family("psi", 6, 8)
    assert series_by_name("varphi", 8) == varphi(8)
    assert series_by_name("fneg", 8) == fneg(8)
    assert series_by_name("poch", 8) == S.product_expansion([(1, 1, 1)], 8)
    assert series_by_name("poch", 300) == S.product_expansion([(1, 1, 1)], 300)
    assert series_by_name("theta_p1_p5", 8) == theta_f(1, 1, 1, 5, 8)
    assert series_by_name("theta_m1_m2", 8) == theta_f(-1, 1, -1, 2, 8)
    assert series_by_name("phi_tilde_2_7", 8) == phi_series("tilde", 2, 7, 8)
    assert series_by_name("phi_1_2", 8) == phi_series("plain", 1, 2, 8)


def test_series_by_name_admits_indices_up_to_the_cap():
    top = MAX_NAME_INDEX
    assert series_by_name(f"T{top}", 1) == family("T", top, 1)
    assert series_by_name(f"phi_tilde_{top}_0", 1) == phi_series("tilde", top, 0, 1)
    assert series_by_name(f"theta_p1_m{top}", 1) == theta_f(1, 1, -1, top, 1)
    assert series_by_name("psi" + "0" * 20 + "6", 8) == family("psi", 6, 8)
    for name in (f"T{top + 2}", f"E{top + 2}", f"theta_p{top + 1}_p1"):
        with pytest.raises(ValueError, match=f"above {top}"):
            series_by_name(name, 1)


def test_series_by_name_rejects_unknown():
    for bad in ("nope", "E3", "T5", "theta_x1_p2", "phi_tilde_2"):
        with pytest.raises(KeyError):
            series_by_name(bad, 4)


def test_fneg_is_eta_like_product():
    # f(-q) = (q; q)_inf
    assert fneg(30) == S.product_expansion([(1, 1, 1)], 30)


# the four families, straight from family's docstring: (exponent, coefficient
# at index i, whether k runs over Z or k >= 0)
def _lit_sign(k):
    return -1 if k % 2 else 1


_LITERAL_FAMILIES = {
    "T": (lambda k: k * (3 * k + 1) // 2, lambda k, i: _lit_sign(k) * (6 * k + 1) ** i, True),
    "eps": (lambda k: k * (3 * k + 1) // 2, lambda k, i: (6 * k + 1) ** i, True),
    "F": (lambda k: k * (k + 1) // 2, lambda k, i: _lit_sign(k) * (2 * k + 1) ** (i + 1), False),
    "psi": (lambda k: k * (k + 1) // 2, lambda k, i: (2 * k + 1) ** i, False),
}


@given(
    st.one_of(
        st.tuples(st.just("T"), st.integers(0, 6).map(lambda j: 2 * j)),
        st.tuples(st.sampled_from(["eps", "F", "psi"]), st.integers(0, 12)),
    ),
    st.integers(0, 300),
)
@settings(max_examples=80, deadline=None)
def test_family_against_literal_sum(fam_index, order):
    fam, i = fam_index
    expo, coeff, bilateral = _LITERAL_FAMILIES[fam]
    acc = [0] * (order + 1)
    for k in range(-order - 1, order + 2):
        if (bilateral or k >= 0) and expo(k) <= order:
            acc[expo(k)] += coeff(k, i)
    assert family(fam, i, order) == S.Series(tuple(acc))


@given(
    st.sampled_from([1, -1]),
    st.integers(1, 6),
    st.sampled_from([1, -1]),
    st.integers(1, 6),
    st.integers(0, 300),
)
@settings(max_examples=80, deadline=None)
def test_theta_f_against_literal_sum(sa, u, sb, v, order):
    # f(a, b) = sum_{k in Z} a^{k(k+1)/2} b^{k(k-1)/2} at a = sa q^u, b = sb q^v
    acc = [0] * (order + 1)
    for k in range(-order - 1, order + 2):
        ta, tb = k * (k + 1) // 2, k * (k - 1) // 2
        e = u * ta + v * tb
        if e <= order:
            acc[e] += sa**ta * sb**tb
    assert theta_f(sa, u, sb, v, order) == S.Series(tuple(acc))
