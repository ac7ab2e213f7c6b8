"""High-precision evaluation against closed forms."""

import hashlib
import math
from fractions import Fraction
from heapq import merge
from itertools import count, islice

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_ln2, mpf_ln10

from qram import numeric
from qram.divisors import DivisorKind, boundary_value
from qram.numeric import (
    _A,
    _BASES,
    _LOG2_SLACK,
    _STOP_MARGIN,
    SPECIALS,
    _agm,
    _exp,
    _lambert,
    _lambert_coefficients,
    _lambert_sum,
    _ln2_ln10,
    _log2,
    _nstr,
    _pi,
    _power_sum,
    _root,
    _theta,
    check_all_specials,
    check_special,
    gamma_quarter,
    gamma_three_quarters,
)

HAT, TILDE = DivisorKind.HAT, DivisorKind.TILDE


def _lambert_terms(kind, r, s, x):
    """The terms sgn(d) d^s A(x^d) of a Lambert route, one mpf at a time: the
    oracle for the fixed-point _lambert_sum."""
    a = _A[r]
    xd = x
    for d in count(1):
        t = d**s * (-a(-xd) if kind is HAT else a(xd))
        yield -t if kind is TILDE and d % 2 == 0 else t
        xd *= x


def _oracle_partial(kind, r, s):
    return lambda x, n: mp.fsum(islice(_lambert_terms(kind, r, s, x), n))


def _fixed(x):
    """The point x (a float, or a decimal string) as a function of the scale
    w: x 2^w rounded down."""
    q = Fraction(x)
    return lambda w: math.floor(q * 2**w)


def _mpf(v, w):
    """The fixed-point int v at scale 2^-w as an exact mpf, whatever the
    working precision."""
    return mp.make_mpf(from_man_exp(v, -w))


def _stop(route, bits):
    """The stop index and log2 tail bound that check_special uses at `bits`."""
    return route.stop(_log2(route.point) + _LOG2_SLACK, bits + _STOP_MARGIN)


def test_gamma_constants_match_reference():
    # AGM route cross-checked against the library gamma at 300 bits
    with mp.workprec(300):
        g14, g34 = _mpf(gamma_quarter(300), 300), _mpf(gamma_three_quarters(300), 300)
        assert mp.almosteq(g14, mp.gamma(mp.mpf(1) / 4), rel_eps=mp.mpf(2) ** -290)
        assert mp.almosteq(g34, mp.gamma(mp.mpf(3) / 4), rel_eps=mp.mpf(2) ** -290)
        assert mp.almosteq(g14 * g34, mp.pi * mp.sqrt(2), rel_eps=mp.mpf(2) ** -290)


def test_catalogue_contents():
    assert len(SPECIALS) == 19
    for id_, sv in SPECIALS.items():
        assert sv.id == id_
        assert sv.statement.strip() and sv.source.strip()
    assert {"hahn.P", "hahn.E", "hahn.Q", "hahn.R", "t8.f15", "l3.psi6pi"} <= set(SPECIALS)


def test_generator_scalars_are_the_boundary_reciprocals():
    # the six generator values scale their sums as generators.generator does
    pairs = {
        "hahn.P": (TILDE, 1, 8),
        "hahn.E": (HAT, 1, 24),
        "hahn.Q": (TILDE, 3, -16),
        "hahn.R": (TILDE, 5, 8),
        "classical.Q_2pi": (DivisorKind.PLAIN, 3, 240),
        "classical.Q_neg_pi": (DivisorKind.PLAIN, 3, 240),
    }
    for id_, (kind, s, c1) in pairs.items():
        route = SPECIALS[id_].route
        assert (route.c0, route.c1) == (1, c1) == (1, 1 / boundary_value(kind, s)), id_


def test_zero_targets_flagged():
    zeros = {id_ for id_, sv in SPECIALS.items() if sv.zero_target}
    assert zeros == {"hahn.E", "hahn.R"}


@pytest.mark.parametrize("id_", sorted(SPECIALS))
def test_each_special_at_128_bits(id_):
    rep = check_special(id_, 128)
    assert rep["status"] == "pass", rep
    assert rep["precision_bits"] == 128
    assert float(rep["abs_err"]) > 0.0  # truncation residual, never exact


def test_all_specials_at_192_bits():
    reports = check_all_specials(192)
    assert [r["id"] for r in reports] == sorted(SPECIALS)
    assert all(r["status"] == "pass" for r in reports)


def test_doubling_precision_shrinks_every_error():
    for id_ in sorted(SPECIALS):
        lo = check_special(id_, 128)
        hi = check_special(id_, 256)
        assert float(hi["abs_err"]) < float(lo["abs_err"]), id_
        if not SPECIALS[id_].zero_target:
            assert float(hi["rel_err"]) < float(lo["rel_err"]), id_


def test_report_fields_and_errors_are_strings():
    rep = check_special("ct5.phi16", 160)
    for key in ("id", "precision_bits", "series_value", "closed_form", "abs_err", "rel_err", "status"):
        assert key in rep
    assert isinstance(rep["series_value"], str)
    assert isinstance(rep["abs_err"], str)


def test_value_spot_checks():
    # report strings carry 30 significant digits; compare at that resolution
    with mp.workprec(200):
        rep = check_special("hahn.Q", 192)
        target = mp.pi**2 / mp.gamma(mp.mpf(3) / 4) ** 8
        assert mp.almosteq(mp.mpf(rep["closed_form"]), target, rel_eps=mp.mpf(10) ** -28)
        rep2 = check_special("ct5b.phi09", 192)
        assert mp.almosteq(mp.mpf(rep2["closed_form"]), mp.mpf(-31) / 8, rel_eps=mp.mpf(10) ** -28)


def test_transcription_notes_survive():
    assert "note" in check_special("classical.Q_neg_pi", 128)
    assert "note" in check_special("ct5b.phi013", 128)
    assert "note" not in check_special("hahn.P", 128)


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        check_special("no.such.value", 128)


@pytest.mark.parametrize("bits", [0, 8, 32, 63])
def test_check_special_rejects_vacuous_precision(bits):
    # at 32 bits the gate 2^-(32-32) = 1 passed any relative error below 1
    with pytest.raises(ValueError):
        check_special("hahn.P", bits)
    assert check_special("hahn.P", 64)["status"] == "pass"


@pytest.mark.parametrize("bits", [64, 128, 256, 1024])
def test_residual_is_below_the_stop_bound(bits):
    # each sum stops where its proved tail bound is below 2^-(bits+16)
    tol = mp.mpf(2) ** -(bits + 16)
    for id_ in sorted(SPECIALS):
        rep = check_special(id_, bits)
        assert mp.mpf(rep["abs_err"]) < tol, (id_, rep["abs_err"])


def _assert_tail_bound_holds(route, partial, bits=64):
    """At the stop index N the route picks, the partial sum to N-1 lies
    within the claimed bound of the sum to 2N; partial(n) sums the route's
    first n terms as an mpf at the working precision."""
    n, log2_bound = route.stop(_log2(route.point), bits)
    assert log2_bound < -bits
    with mp.workprec(bits + 256):
        gap = abs(route.c1 * (partial(n - 1) - partial(2 * n)))
        assert gap < mp.mpf(2) ** log2_bound, (n, gap, log2_bound)


# |x| = 0.9: Lambert terms grow for about s / -ln|x| = 120 indices and
# theta terms decay slowly, far from the small |x| of the special values
@pytest.mark.parametrize("x", ["0.9", "-0.9"])
@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("kind", list(DivisorKind), ids=lambda k: k.value)
def test_lambert_tail_bound_near_unit_radius(kind, r, x):
    route = _lambert(kind, r, 13, _fixed(x), c1=-16)
    _assert_tail_bound_holds(route, lambda n: _oracle_partial(kind, r, 13)(mp.mpf(x), n))


@pytest.mark.parametrize("x", ["0.9", "-0.9"])
@pytest.mark.parametrize("uv", [(1, 3), (1, 2), (1, 5)], ids=["psi", "eps", "f15"])
def test_theta_tail_bound_near_unit_radius(uv, x):
    route = _theta(*uv, _fixed(x))
    wp = 64 + 256
    _assert_tail_bound_holds(route, lambda n: _mpf(route.partial(route.point, n, wp), wp))


THETA_IDS = (
    "l2.psi3pi", "l2.psi3pi_neg", "l3.psi6pi",
    "t6.eps_minus", "t6.eps_plus", "t7.eps_2pi", "t8.f15",
)


def _exponents(route, n, wp=4096):
    """The exponents in the first n terms of a theta route, read off at
    x = 1/2: products of powers of 2 are exact in fixed point, and each
    exponent e, all distinct here, sets the bit of 2^-e."""
    v = route.partial(lambda w: 1 << w - 1, n, wp)
    exponents = {wp - i for i in range(v.bit_length()) if v >> i & 1}
    assert len(exponents) == n  # none lies past 2^-wp
    return exponents


@pytest.mark.parametrize("bits", [64, 128, 256, 1024])
@pytest.mark.parametrize("id_", THETA_IDS)
def test_theta_stop_is_within_one_exponent_step(id_, bits):
    # the sum stops at the first exponent whose tail bound meets the target,
    # so the bound lies below it by at most one step between exponents
    route = SPECIALS[id_].route
    log2_x = _log2(route.point) + _LOG2_SLACK
    target = -(bits + _STOP_MARGIN)
    n, log2_bound = route.stop(log2_x, -target)
    summed = _exponents(route, n - 1)
    step = min(_exponents(route, n + 1) - summed) - max(summed, default=0)
    assert target + step * log2_x <= log2_bound < target, (n, step, log2_bound)


def _linear_stop(route, log2_x, bits):
    """The stop index found by trying n = 1, 2, ... in turn: the oracle for
    Route.stop's gallop and bisection."""
    for n in count(1):
        bound = math.log2(abs(route.c1)) + route.log2_tail(log2_x, n)
        if bound < -bits:
            return n, bound


@pytest.mark.parametrize("bits", [64, 100, 128, 256, 1000, 1024, 4096, 16384])
def test_stop_matches_linear_scan(bits):
    for id_ in sorted(SPECIALS):
        route = SPECIALS[id_].route
        log2_x = _log2(route.point) + _LOG2_SLACK
        for target in (bits, bits + _STOP_MARGIN):
            assert route.stop(log2_x, target) == _linear_stop(route, log2_x, target), id_


@pytest.mark.parametrize("x", ["0.9", "-0.9", "0.5"])
def test_stop_matches_linear_scan_near_unit_radius(x):
    # where a Lambert bound is infinite for its first indices, then falls
    routes = [_lambert(kind, r, 13, _fixed(x), c1=-16) for kind in DivisorKind for r in (0, 1, 2)]
    routes += [_theta(u, v, _fixed(x)) for u, v in ((1, 3), (1, 2), (1, 5))]
    for route in routes:
        log2_x = _log2(route.point)
        for bits in (1, 64, 65, 256, 1024):
            assert route.stop(log2_x, bits) == _linear_stop(route, log2_x, bits)


# sha256 of the lines "ID BITS N LOG2_BOUND.hex()" for BITS in 64, 256, 1024,
# 4096 and each special-value id in sorted order, recorded while the Lambert
# sums were still summed term by term in mpf
STOPS_GOLDEN = "9373c2d767fc163b1d2911017f1ebf3e6e980e6b481988b57d1b0f1d0d5fb4ba"


def test_stop_index_and_tail_bound_are_pinned():
    digest = hashlib.sha256()
    for bits in (64, 256, 1024, 4096):
        for id_ in sorted(SPECIALS):
            n, log2_bound = _stop(SPECIALS[id_].route, bits)
            digest.update(f"{id_} {bits} {n} {log2_bound.hex()}\n".encode())
    assert digest.hexdigest() == STOPS_GOLDEN


def _brute_coefficients(kind, r, s, n, m_max):
    """c_0..c_M of sum_{d<=n} sgn(d) d^s A(x^d) by expanding each term: the
    double loop over d and the k-th power of x^d in A(y) = sum_k k^r y^k
    (for HAT, A(y) = -A_r(-y) = sum_k (-1)^(k-1) k^r y^k)."""
    c = [0] * (m_max + 1)
    for d in range(1, n + 1):
        for k in range(1, m_max // d + 1):
            t = d**s * k**r
            if (kind is TILDE and d % 2 == 0) or (kind is HAT and k % 2 == 0):
                t = -t
            c[d * k] += t
    return c


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(list(DivisorKind)),
    r=st.integers(0, 2),
    s=st.integers(0, 7),
    n=st.integers(0, 80),
    extra=st.integers(-40, 200),
)
@example(kind=TILDE, r=2, s=1, n=30, extra=90)  # s < r, M = 4n
@example(kind=HAT, r=2, s=1, n=25, extra=60)
@example(kind=HAT, r=0, s=5, n=40, extra=45)  # M >= 2n: d > n has k >= 2
@example(kind=DivisorKind.PLAIN, r=1, s=0, n=1, extra=20)
def test_lambert_coefficients_match_the_double_loop(kind, r, s, n, extra):
    m_max = max(n + extra, 0)
    assert _lambert_coefficients(kind, r, s, n, m_max) == _brute_coefficients(
        kind, r, s, n, m_max
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(DivisorKind)),
    r=st.integers(0, 2),
    s=st.integers(1, 13),
    x=st.floats(-0.95, 0.95).filter(lambda v: abs(v) > 1e-3)
    | st.floats(-0.95, 0.95).filter(bool),
    bits=st.integers(64, 2048),
)
@example(kind=TILDE, r=0, s=1, x=-math.exp(-math.pi), bits=1024)
@example(kind=HAT, r=2, s=13, x=math.exp(-math.pi), bits=2048)
@example(kind=DivisorKind.PLAIN, r=1, s=3, x=math.exp(-2 * math.pi), bits=64)
@example(kind=TILDE, r=2, s=13, x=0.9, bits=256)
@example(kind=HAT, r=1, s=7, x=-0.9, bits=512)
@example(kind=TILDE, r=2, s=13, x=0.95, bits=2048)
@example(kind=TILDE, r=2, s=1, x=0.9, bits=64)  # s < r near the unit radius
@example(kind=TILDE, r=1, s=6, x=-math.exp(-math.pi), bits=4096)
@example(kind=TILDE, r=2, s=7, x=-math.exp(-math.pi), bits=4096)
@example(kind=HAT, r=0, s=1, x=-math.exp(-math.pi), bits=4096)
@example(kind=DivisorKind.PLAIN, r=0, s=3, x=math.exp(-2 * math.pi), bits=4096)
@example(kind=TILDE, r=0, s=13, x=-math.exp(-math.pi), bits=4096)
def test_lambert_sum_within_its_rounding_bound(kind, r, s, x, bits):
    # the sum check_special would make at `bits`, at the scale 2^-w the route
    # sums at, against the termwise oracle at 256 bits past w: |t_d| < 2^100
    # for |x| <= 0.95 and s <= 13, so the oracle's own rounding stays far
    # below the bound of 2^b + 1 ulps, b = (s+1) bitlen(n)
    route = _lambert(kind, r, s, _fixed(x))
    n, log2_bound = _stop(route, bits)
    wp = math.ceil(-log2_bound) + 64
    b = (s + 1) * (n - 1).bit_length()
    w = wp + b + 8
    xw = route.point(w)
    got = _mpf(_lambert_sum(kind, r, s, xw, n - 1, w), w)
    with mp.workprec(w + 256):
        want = _oracle_partial(kind, r, s)(_mpf(xw, w), n - 1)
        bound = (2**b + 1) * mp.mpf(2) ** -w
        assert abs(got - want) <= bound, (n, wp, got - want, bound)


def _power_sum_oracle(c, x):
    """sum_m c_m x^m for a Fraction x, exactly, by Horner's rule."""
    total = Fraction(0)
    for cm in reversed(c):
        total = total * x + cm
    return total


BIG = 10**30


@settings(max_examples=80, deadline=None)
@given(
    c=st.lists(st.integers(-BIG, BIG), max_size=400)
    | st.lists(st.integers(0, BIG), max_size=400)
    | st.lists(st.integers(0, 1), max_size=400),
    x=st.floats(-0.95, 0.95),
    w=st.integers(64, 2048),
    b=st.integers(1, 40),
)
# the largest error a scan over x = 0.01..0.95 and patterned c found, 2^-3.7
# of the bound: a kernel five guard bits short fails here
@example(c=[BIG - 7**k % BIG for k in range(400)], x=0.07, w=64, b=40)
@example(c=[BIG] * 400, x=0.95, w=64, b=40)
@example(c=[BIG] * 400, x=-0.95, w=2048, b=1)
@example(c=[0, 1] * 200, x=0.95, w=64, b=1)
@example(c=[], x=0.5, w=64, b=1)
@example(c=[3], x=0.0, w=64, b=40)
def test_power_sum_within_its_rounding_bound(c, x, w, b):
    xw = _fixed(x)(w)
    got = _power_sum(c, xw, w, b)
    want = _power_sum_oracle(c, Fraction(xw, 2**w)) * 2**w
    assert abs(got - want) <= 2 ** (b - 1) + 1, (float(got - want), b)


@pytest.mark.parametrize("b", [1, 2, 3, 40])
@pytest.mark.parametrize("sign", [1, -1])
def test_power_sum_rejects_a_point_past_its_precondition(b, sign):
    # the largest |x| 2^w with |x| <= 1 - 2^-(w-b+2) passes, the next is refused
    w = 64
    edge = ((1 << w + 2) - (1 << b)) >> 2
    _power_sum([1, 2, 3], sign * edge, w, b)
    with pytest.raises(ValueError):
        _power_sum([1, 2, 3], sign * (edge + 1), w, b)


def _p_power(base, num, den):
    """base^(num/den) through mp.power, the closed forms' former route."""
    return mp.power(base, mp.mpf(num) / den)


def _power_forms():
    """The bases and closed forms as mpmath computes them, through mp.power
    and mp.gamma: the oracle for numeric's integer roots and AGM."""
    rt2, rt3 = mp.sqrt(2), mp.sqrt(3)
    q14, q34 = _p_power(3, 1, 4), _p_power(3, 3, 4)
    g34 = mp.gamma(mp.mpf(3) / 4)
    pref = _p_power(mp.pi, 1, 4) / g34
    a, b, c = 1 + rt2 * q14 + rt3, 2 * rt3 - 3, 1 + rt3 + rt2 * q34
    d = 2 + rt3 + (rt2 + mp.sqrt(6)) / 2 * q34
    bases = {
        "two": mp.mpf(2), "three": mp.mpf(3), "pi": +mp.pi, "gamma": g34,
        "e_pi": mp.exp(mp.pi), "a": a, "b": b, "c": c, "d": d, "rt3p1": rt3 + 1,
    }
    e = lambda num, den: mp.exp(num * mp.pi / den)  # noqa: E731
    closed = {
        "hahn.P": 2 / mp.pi,
        "hahn.E": mp.mpf(0),
        "hahn.Q": mp.pi**2 / g34**8,
        "hahn.R": mp.mpf(0),
        "classical.Q_2pi": 3 * mp.pi**2 / (4 * g34**8),
        "classical.Q_neg_pi": -3 * mp.pi**2 / g34**8,
        "ct5.phi01": 1 / (4 * mp.pi) - mp.mpf(1) / 8,
        "ct5.phi05": -mp.mpf(1) / 8,
        "ct5.phi16": -mp.pi**4 / (16 * g34**16),
        "ct5.phi27": -7 * mp.pi**3 / (16 * g34**16),
        "ct5b.phi09": -mp.mpf(31) / 8,
        "ct5b.phi013": -mp.mpf(5461) / 8,
        "l2.psi3pi": _p_power(2, -1, 8) * _p_power(3, -3, 8) * e(3, 8)
        * _p_power(a, -1, 2) * pref,
        "l2.psi3pi_neg": _p_power(2, -3, 4) * _p_power(3, -1, 2) * e(3, 8)
        * _p_power(b, 1, 4) * pref,
        "l3.psi6pi": e(3, 4) / (_p_power(3, 3, 8) * _p_power(rt3 + 1, 5, 6)
                                * _p_power(c, 2, 3)) * pref,
        "t6.eps_plus": _p_power(2, -9, 8) * _p_power(3, -3, 8) * e(1, 24) * c
        * _p_power(a, -1, 2) * pref,
        "t6.eps_minus": _p_power(2, -3, 4) * _p_power(3, -1, 2) * e(1, 24) * (1 + rt3)
        * _p_power(b, 1, 4) * pref,
        "t7.eps_2pi": e(1, 12) * d / (_p_power(3, 3, 8) * _p_power(rt3 + 1, 5, 6)
                                      * _p_power(c, 2, 3)) * pref,
        "t8.f15": _p_power(2, -5, 4) * _p_power(3, -3, 8) * e(1, 3)
        * _p_power(rt3 + 1, 5, 6) * _p_power(c, 5, 3) / (a * d) * pref,
    }
    return bases, closed


@pytest.mark.parametrize("wp", [256, 1024, 4096])
def test_root_closed_forms_match_power_forms(wp):
    # every closed form and every base it is built from, at scale 2^-wp,
    # against mpmath's power forms at wp bits
    tol = mp.mpf(2) ** -(wp - 8)
    with mp.workprec(wp):
        bases, closed = _power_forms()
        assert sorted(closed) == sorted(SPECIALS)
        new = [_mpf(SPECIALS[id_].closed(wp), wp) for id_ in sorted(closed)]
        new_parts = [_mpf(_BASES[name](wp, _pi), wp) for name in sorted(bases)]
        old = [closed[id_] for id_ in sorted(closed)]
        old_parts = [bases[name] for name in sorted(bases)]
        for got, want in zip(new + new_parts, old + old_parts):
            assert abs(got - want) <= tol * abs(want), (wp, got, want)


# ---------------------------------------------------------------------------
# the fixed-point primitives against mpmath, at random precisions

BITS = st.integers(64, 4096)
PRIMITIVES = settings(max_examples=60, deadline=None)


def _ulps(v, w, want):
    """|v - want 2^w|, the error in ulps of the int v at scale 2^-w."""
    return abs(mp.mpf(v) - mp.ldexp(want, w))


@PRIMITIVES
@given(w=BITS)
def test_pi_within_two_ulps(w):
    with mp.workprec(w + 64):
        assert _ulps(_pi(w), w, mp.pi) <= 2


@PRIMITIVES
@given(w=BITS, x=st.fractions(-20, 4))
@example(w=1024, x=Fraction(-6) * Fraction(math.pi))
def test_exp_within_two_ulps(w, x):
    v = math.floor(x * 2**w)
    with mp.workprec(w + 64):
        assert _ulps(_exp(v, w), w, mp.exp(_mpf(v, w))) <= 2


@PRIMITIVES
@given(w=BITS, x=st.fractions(0, 1000), n=st.sampled_from([2, 3, 4, 6, 8, 24]))
@example(w=1326, x=Fraction(2), n=24)
def test_root_rounds_down(w, x, n):
    # r 2^-w <= (v 2^-w)^(1/n) < (r+1) 2^-w, checked exactly on ints: at the
    # example, mpmath's root at w + 64 bits is off by more than an ulp
    v = math.floor(x * 2**w)
    r = _root(v, n, w)
    assert r**n <= v << (n - 1) * w < (r + 1) ** n


@PRIMITIVES
@given(w=BITS, a=st.fractions(1, 100), b=st.fractions(1, 100))
def test_agm_within_two_ulps(w, a, b):
    va, vb = math.floor(a * 2**w), math.floor(b * 2**w)
    with mp.workprec(w + 64):
        assert _ulps(_agm(va, vb), w, mp.agm(_mpf(va, w), _mpf(vb, w))) <= 2


@PRIMITIVES
@given(x=st.fractions(-1, 1).filter(lambda q: 0 < abs(q) < 1), e=st.integers(0, 60))
@example(x=Fraction(9, 10), e=0)
def test_log2_is_the_float_nearest_log2(x, e):
    point = _fixed(x / 2**e)
    with mp.workprec(400):
        assert _log2(point) == float(mp.log(abs(_mpf(point(400), 400)), 2))


def test_log2_equals_mpmaths_64_bit_log2_at_every_route_point():
    # check_special's stop indices were pinned with log2|x| from mpmath: the
    # point rounded to 64 bits, then its log2 at 64 bits, then a float
    points = {route.point(256): route.point for route in (sv.route for sv in SPECIALS.values())}
    assert len(points) == 6
    for v, point in points.items():
        with mp.workprec(64):
            assert _log2(point) == float(mp.log(abs(_mpf(v, 256)), 2)), v


def test_ln2_and_ln10_cut_as_mpmath_cuts_them():
    for p in range(3, 160):
        l2, l10 = _ln2_ln10(p)
        assert from_man_exp(l2, -p) == mpf_ln2(p)
        assert from_man_exp(l10, 2 - p) == mpf_ln10(p)


@settings(max_examples=300, deadline=None)
@given(
    man=st.integers(1, 2**4096),
    # below 2^3500 in size, as every printed value is
    exp=st.integers(-16500, -3500) | st.integers(-4500, -700),
    sign=st.sampled_from([1, -1]),
    n=st.integers(1, 40),
)
@example(man=1, exp=-14400, sign=1, n=8)
@example(man=2**300 - 1, exp=-300, sign=1, n=8)
@example(man=10**30 - 1, exp=0, sign=-1, n=30)
@example(man=3, exp=-3502, sign=1, n=8)
def test_nstr_prints_as_mpmath_prints(man, exp, sign, n):
    # the value itself at full size, its 256-bit copy printed, as
    # check_special printed mp.nstr(mp.mpf(x, prec=256), n)
    x = mp.make_mpf(from_man_exp(sign * man, exp))
    assert _nstr(sign * man, exp, n) == mp.nstr(mp.mpf(x, prec=256), n)


def test_nstr_of_zero():
    assert _nstr(0, -100, 8) == mp.nstr(mp.mpf(0), 8) == "0.0"


def _theta_oracle(u, v, x, n):
    """x^e_1 + ... + x^e_n of _theta(u, v), one mpf power at a time."""
    return mp.fsum(x**e for e in _theta_exponents(u, v, n))


def _theta_exponents(u, v, n):
    """e_1, ..., e_n of _theta(u, v): e(k) and e(-k), k >= 1, merged."""
    expo = lambda k: u * k * (k + 1) // 2 + v * k * (k - 1) // 2  # noqa: E731
    return list(islice(merge((expo(k) for k in count(1)), (expo(-k) for k in count(1))), n))


@settings(max_examples=60, deadline=None)
@given(
    uv=st.sampled_from([(1, 3), (1, 2), (1, 5)]),
    x=st.floats(-0.95, 0.95),
    n=st.integers(0, 80),
    w=st.integers(64, 1024),
)
@example(uv=(1, 5), x=-math.exp(-math.pi), n=40, w=1024)
@example(uv=(1, 2), x=0.95, n=80, w=64)
def test_theta_sum_within_its_rounding_bound(uv, x, n, w):
    # the theta coefficients summed by _power_sum at b = 1, against each power
    # taken on its own, exactly; the route's partial sums the same ones
    exponents = _theta_exponents(*uv, n)
    c = [0] * (max(exponents, default=-1) + 1)
    for e in exponents:
        c[e] += 1
    xw = _fixed(x)(w)
    got = _power_sum(c, xw, w, 1)
    assert _theta(*uv, _fixed(x)).partial(_fixed(x), n, w - 9) == got >> 9
    with mp.workprec(w * 80 + 64):
        want = mp.ldexp(_theta_oracle(*uv, _mpf(xw, w), n), w)
        assert abs(got - want) <= 2, (got - want)
