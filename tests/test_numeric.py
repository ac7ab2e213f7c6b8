"""High-precision evaluation against closed forms."""

from itertools import islice

import mpmath as mp
import pytest

from qram.divisors import DivisorKind
from qram.numeric import (
    _LOG2_SLACK,
    _STOP_MARGIN,
    SPECIALS,
    _lambert,
    _theta,
    check_all_specials,
    check_special,
    gamma_quarter,
    gamma_three_quarters,
)


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


def _assert_tail_bound_holds(route, bits=64):
    """At the stop index N the route picks, the partial sum to N-1 lies
    within the claimed bound of the sum to 2N."""
    with mp.workprec(64):
        log2_x = float(mp.log(abs(route.point()), 2))
    n, log2_bound = route.stop(log2_x, bits)
    assert log2_bound < -bits
    with mp.workprec(bits + 256):
        terms = list(islice(route.terms(route.point()), 2 * n))
        gap = abs(route.c1 * (mp.fsum(terms[: n - 1]) - mp.fsum(terms)))
        assert gap < mp.mpf(2) ** log2_bound, (n, gap, log2_bound)


# |x| = 0.9: Lambert terms grow for about s / -ln|x| = 120 indices and
# theta terms decay slowly, far from the small |x| of the special values
@pytest.mark.parametrize("x", ["0.9", "-0.9"])
@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("kind", list(DivisorKind), ids=lambda k: k.value)
def test_lambert_tail_bound_near_unit_radius(kind, r, x):
    _assert_tail_bound_holds(_lambert(kind, r, 13, lambda: mp.mpf(x), c1=-16))


@pytest.mark.parametrize("x", ["0.9", "-0.9"])
@pytest.mark.parametrize(
    "expo",
    [
        lambda k: k * (2 * k + 1),
        lambda k: k * (3 * k + 1) // 2,
        lambda k: 3 * k * k - 2 * k,
    ],
    ids=["psi", "eps", "f15"],
)
def test_theta_tail_bound_near_unit_radius(expo, x):
    _assert_tail_bound_holds(_theta(expo, lambda: mp.mpf(x)))


THETA_IDS = (
    "l2.psi3pi", "l2.psi3pi_neg", "l3.psi6pi",
    "t6.eps_minus", "t6.eps_plus", "t7.eps_2pi", "t8.f15",
)


def _exponents(route, n):
    """The exponents in the first n terms of a theta route, read off at x = 2."""
    found = set()
    with mp.workprec(64):
        for t in islice(route.terms(mp.mpf(2)), n):
            v = int(t)
            found |= {i for i in range(v.bit_length()) if v >> i & 1}
    return found


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
