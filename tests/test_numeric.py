"""High-precision evaluation against closed forms."""

import hashlib
import math
from itertools import count, islice

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qram import numeric
from qram.divisors import DivisorKind, boundary_value
from qram.numeric import (
    _A,
    _LOG2_SLACK,
    _STOP_MARGIN,
    SPECIALS,
    _lambert,
    _lambert_sum,
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


def _stop(route, bits):
    """The stop index and log2 tail bound that check_special uses at `bits`."""
    with mp.workprec(64):
        log2_x = float(mp.log(abs(route.point()), 2)) + _LOG2_SLACK
    return route.stop(log2_x, bits + _STOP_MARGIN)


def test_gamma_constants_match_reference():
    # AGM route cross-checked against the library gamma at 300 bits
    with mp.workprec(300):
        assert mp.almosteq(gamma_quarter(), mp.gamma(mp.mpf(1) / 4), rel_eps=mp.mpf(2) ** -290)
        assert mp.almosteq(
            gamma_three_quarters(), mp.gamma(mp.mpf(3) / 4), rel_eps=mp.mpf(2) ** -290
        )
        assert mp.almosteq(
            gamma_quarter() * gamma_three_quarters(),
            mp.pi * mp.sqrt(2),
            rel_eps=mp.mpf(2) ** -290,
        )


def test_catalogue_contents():
    assert len(SPECIALS) == 19
    for id_, sv in SPECIALS.items():
        assert sv.id == id_
        assert sv.statement.strip() and sv.source.strip()
    assert {"hahn.P", "hahn.E", "hahn.Q", "hahn.R", "t8.f15", "l3.psi6pi"} <= set(SPECIALS)


def test_generator_scalars_are_the_boundary_reciprocals():
    # the six generator values scale their sums as generators.eisenstein/hahn
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
        target = mp.pi**2 / gamma_three_quarters() ** 8
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
    within the claimed bound of the sum to 2N; partial(x, n) sums the
    route's first n terms."""
    with mp.workprec(64):
        log2_x = float(mp.log(abs(route.point()), 2))
    n, log2_bound = route.stop(log2_x, bits)
    assert log2_bound < -bits
    with mp.workprec(bits + 256):
        x = route.point()
        gap = abs(route.c1 * (partial(x, n - 1) - partial(x, 2 * n)))
        assert gap < mp.mpf(2) ** log2_bound, (n, gap, log2_bound)


# |x| = 0.9: Lambert terms grow for about s / -ln|x| = 120 indices and
# theta terms decay slowly, far from the small |x| of the special values
@pytest.mark.parametrize("x", ["0.9", "-0.9"])
@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("kind", list(DivisorKind), ids=lambda k: k.value)
def test_lambert_tail_bound_near_unit_radius(kind, r, x):
    route = _lambert(kind, r, 13, lambda: mp.mpf(x), c1=-16)
    _assert_tail_bound_holds(route, _oracle_partial(kind, r, 13))


@pytest.mark.parametrize("x", ["0.9", "-0.9"])
@pytest.mark.parametrize("uv", [(1, 3), (1, 2), (1, 5)], ids=["psi", "eps", "f15"])
def test_theta_tail_bound_near_unit_radius(uv, x):
    route = _theta(*uv, lambda: mp.mpf(x))
    _assert_tail_bound_holds(route, route.partial)


THETA_IDS = (
    "l2.psi3pi", "l2.psi3pi_neg", "l3.psi6pi",
    "t6.eps_minus", "t6.eps_plus", "t7.eps_2pi", "t8.f15",
)


def _exponents(route, n):
    """The exponents in the first n terms of a theta route, read off at x = 2:
    the partial sum is exact while it stays below 2^prec."""
    with mp.workprec(4096):
        v = int(route.partial(mp.mpf(2), n))
    assert v.bit_length() <= 4096
    return {i for i in range(v.bit_length()) if v >> i & 1}


@pytest.mark.parametrize("bits", [64, 128, 256, 1024])
@pytest.mark.parametrize("id_", THETA_IDS)
def test_theta_stop_is_within_one_exponent_step(id_, bits):
    # the sum stops at the first exponent whose tail bound meets the target,
    # so the bound lies below it by at most one step between exponents
    route = SPECIALS[id_].route
    with mp.workprec(64):
        log2_x = float(mp.log(abs(route.point()), 2)) + _LOG2_SLACK
    target = -(bits + _STOP_MARGIN)
    n, log2_bound = route.stop(log2_x, -target)
    summed = _exponents(route, n - 1)
    step = min(_exponents(route, n + 1) - summed) - max(summed, default=0)
    assert target + step * log2_x <= log2_bound < target, (n, step, log2_bound)


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


_KERNEL_C = (3, 10, 47)  # c_r of _lambert_sum's rounding bound


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
def test_lambert_sum_within_its_rounding_bound(kind, r, s, x, bits):
    # the sum check_special would make at `bits`, against the termwise oracle
    # at 256 more bits: |t_d| < 2^100 for |x| <= 0.95 and s <= 13, so the
    # oracle's own rounding stays far below the bound
    route = _lambert(kind, r, s, lambda: mp.mpf(x))
    n, log2_bound = _stop(route, bits)
    wp = math.ceil(-log2_bound) + 64
    with mp.workprec(wp):
        got = _lambert_sum(kind, r, s, x, n - 1)
    with mp.workprec(wp + 256):
        want = _oracle_partial(kind, r, s)(mp.mpf(x), n - 1)
        nu = 1 / (1 - abs(mp.mpf(x)) - mp.mpf(2) ** -(wp + 8))
        bound = _KERNEL_C[r] * nu ** (r + 3) * mp.mpf(2) ** -(wp + 8)
        # plus the final rounding to wp bits
        bound += (abs(want) + bound) * mp.mpf(2) ** -wp
        assert abs(got - want) <= bound, (n, wp, got - want, bound)


def _p_power(base, num, den):
    """base^(num/den) through mp.power, the closed forms' former route."""
    return mp.power(base, mp.mpf(num) / den)


def _radical_parts_power():
    rt2, rt3 = mp.sqrt(2), mp.sqrt(3)
    q14 = mp.power(3, mp.mpf(1) / 4)
    q34 = mp.power(3, mp.mpf(3) / 4)
    pref = mp.power(mp.pi, mp.mpf(1) / 4) / gamma_three_quarters()
    return rt2, rt3, q14, q34, pref


@pytest.mark.parametrize("wp", [256, 1024, 4096])
def test_root_closed_forms_match_power_forms(wp, monkeypatch):
    tol = mp.mpf(2) ** -(wp - 8)
    with mp.workprec(wp):
        new = [SPECIALS[id_].closed() for id_ in THETA_IDS]
        new_parts = numeric._radical_parts()
        monkeypatch.setattr(numeric, "_p", _p_power)
        monkeypatch.setattr(numeric, "_radical_parts", _radical_parts_power)
        old = [SPECIALS[id_].closed() for id_ in THETA_IDS]
        old_parts = _radical_parts_power()
        for got, want in zip(new + list(new_parts), old + list(old_parts)):
            assert abs(got - want) <= tol * abs(want), (wp, got, want)
