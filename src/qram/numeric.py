"""Arbitrary-precision checks of closed-form special values.

Each special value pairs two fully independent computations:

  series route:  the defining sum itself (Lambert sum, weighted Lambert sum,
                 or theta sum) evaluated termwise at the point, never through
                 the polynomial identities;
  closed route:  the radical/pi/Gamma(3/4) closed form, with Gamma(3/4)
                 obtained from the arithmetic-geometric mean, not from a
                 library gamma function.

check_special runs both at `precision + 64` working bits (widened further when
a sum's tail is smaller than that resolution, as happens for theta sums whose
exponents grow quadratically) while the sums stop at the first term below
2^-(precision+16), which is left out and returned as the tail scale. The
reported error is therefore the genuine truncation residual: far below the
2^-(precision-32) pass gate, far above arithmetic noise, nonzero, and
strictly shrinking as the requested precision grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from mpmath import mp

_GUARD_BITS = 64
_STOP_MARGIN = 16
_PASS_MARGIN = 32
# below this the pass gate 2^-(precision - _PASS_MARGIN) accepts errors of
# 2^-32 and more, so a pass would say nothing about the closed form
MIN_PRECISION = 2 * _PASS_MARGIN


# ---------------------------------------------------------------------------
# constants via AGM


def gamma_quarter():
    """Gamma(1/4) from Gamma(1/4)^2 = (2 pi)^{3/2} / agm(sqrt 2, 1)."""
    two_pi = 2 * mp.pi
    return mp.sqrt(two_pi * mp.sqrt(two_pi) / mp.agm(mp.sqrt(2), 1))


def gamma_three_quarters():
    """Gamma(3/4) by reflection: Gamma(1/4) Gamma(3/4) = pi sqrt(2)."""
    return mp.pi * mp.sqrt(2) / gamma_quarter()


# ---------------------------------------------------------------------------
# series routes (all expect to run inside an mp.workprec block)


def _lambert(s: int, x, stop, alternating: bool, plus_denom: bool):
    """sum_{d>=1} (+-) d^s x^d / (1 -+ x^d), signs per the divisor flavor.

    alternating: factor (-1)^{d-1}    (the sigma~ flavor)
    plus_denom:  denominator 1 + x^d  (the sigma^ flavor)
    Terms grow before they decay, so the stop test waits until d is past the
    small-d hump. Returns (partial sum, first omitted term): the sum stops
    just before the first sub-`stop` term, which sets the residual scale.
    """
    total = mp.mpf(0)
    d, xd = 1, x
    while True:
        term = mp.mpf(d) ** s * xd / ((1 + xd) if plus_denom else (1 - xd))
        if alternating and d % 2 == 0:
            term = -term
        if d > s + 4 and abs(term) < stop:
            return total, abs(term)
        total += term
        d += 1
        xd *= x


def _phi_tilde(r: int, s: int, x, stop):
    """sum_n n^r sigma~_{s-r}(n) x^n as sum_d (-1)^{d-1} d^s A_r(x^d)."""
    if r not in (0, 1, 2):
        raise ValueError("numeric Phi~ route implemented for r in {0, 1, 2}")
    total = mp.mpf(0)
    d, xd = 1, x
    while True:
        y = xd
        if r == 0:
            a = y / (1 - y)
        elif r == 1:
            a = y / (1 - y) ** 2
        else:
            a = y * (1 + y) / (1 - y) ** 3
        term = mp.mpf(d) ** s * a
        if d % 2 == 0:
            term = -term
        if d > s + 4 and abs(term) < stop:
            return total, abs(term)
        total += term
        d += 1
        xd *= x


def _psi_sum(x, stop):
    """sum_{k>=0} x^{k(k+1)/2}."""
    total = mp.mpf(1)
    k = 1
    while True:
        term = x ** (k * (k + 1) // 2)
        if abs(term) < stop:
            return total, abs(term)
        total += term
        k += 1


def _theta_sum(x, expo: Callable[[int], int], stop):
    """sum_{k in Z} x^{expo(k)} for a quadratic exponent, walked outward."""
    total = x ** expo(0)
    m = 1
    while True:
        up = x ** expo(m)
        dn = x ** expo(-m)
        if abs(up) < stop and abs(dn) < stop:
            return total, abs(up) + abs(dn)
        total += up + dn
        m += 1


# ---------------------------------------------------------------------------
# the special values


@dataclass(frozen=True)
class SpecialValue:
    id: str
    statement: str
    source: str
    series: Callable  # (stop) -> (mpf, tail scale), inside workprec
    closed: Callable  # () -> mpf, inside workprec
    zero_target: bool = False  # compare absolutely when the target is 0
    note: Optional[str] = None


def _x_neg_pi():
    return -mp.exp(-mp.pi)


def _radical_parts():
    rt2, rt3 = mp.sqrt(2), mp.sqrt(3)
    q14 = mp.power(3, mp.mpf(1) / 4)
    q34 = mp.power(3, mp.mpf(3) / 4)
    pref = mp.power(mp.pi, mp.mpf(1) / 4) / gamma_three_quarters()
    return rt2, rt3, q14, q34, pref


def _p(base, num, den):
    return mp.power(base, mp.mpf(num) / den)


def _affine(c0, c1, pair):
    """c0 + c1 * sum, tail rescaled along."""
    v, t = pair
    return c0 + c1 * v, abs(c1) * t


def _specials() -> dict[str, SpecialValue]:
    out: list[SpecialValue] = []

    def add(id_, statement, source, series, closed, zero_target=False, note=None):
        out.append(
            SpecialValue(id_, statement, source, series, closed, zero_target, note)
        )

    # signed Eisenstein values at q = -e^{-pi}
    add(
        "hahn.P",
        "P~(-e^{-pi}) = 2/pi",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        lambda stop: _affine(1, 8, _lambert(1, _x_neg_pi(), stop, True, False)),
        lambda: 2 / mp.pi,
    )
    add(
        "hahn.E",
        "E~(-e^{-pi}) = 0",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        lambda stop: _affine(1, 24, _lambert(1, _x_neg_pi(), stop, False, True)),
        lambda: mp.mpf(0),
        zero_target=True,
    )
    add(
        "hahn.Q",
        "Q~(-e^{-pi}) = pi^2 / Gamma(3/4)^8",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        lambda stop: _affine(1, -16, _lambert(3, _x_neg_pi(), stop, True, False)),
        lambda: mp.pi**2 / gamma_three_quarters() ** 8,
    )
    add(
        "hahn.R",
        "R~(-e^{-pi}) = 0",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        lambda stop: _affine(1, 8, _lambert(5, _x_neg_pi(), stop, True, False)),
        lambda: mp.mpf(0),
        zero_target=True,
    )

    # classical Q at the companion points
    add(
        "classical.Q_2pi",
        "Q(e^{-2pi}) = 3 pi^2 / (4 Gamma(3/4)^8)",
        "Ramanujan; Berndt, Notebooks (values at e^{-2pi})",
        lambda stop: _affine(
            1, 240, _lambert(3, mp.exp(-2 * mp.pi), stop, False, False)
        ),
        lambda: 3 * mp.pi**2 / (4 * gamma_three_quarters() ** 8),
    )
    add(
        "classical.Q_neg_pi",
        "Q(-e^{-pi}) = -3 pi^2 / Gamma(3/4)^8",
        "Ramanujan; Berndt, Notebooks (companion value at -e^{-pi})",
        lambda stop: _affine(1, 240, _lambert(3, _x_neg_pi(), stop, False, False)),
        lambda: -3 * mp.pi**2 / gamma_three_quarters() ** 8,
        note=(
            "equals -4 Q(e^{-2pi}); printed chains sometimes end with the "
            "e^{-2pi} value itself, a transcription slip"
        ),
    )

    # weighted signed Lambert sums at q = -e^{-pi}
    phi_cases = [
        ("ct5.phi01", 0, 1, "Phi~_{0,1}(-e^{-pi}) = 1/(4 pi) - 1/8",
         lambda: 1 / (4 * mp.pi) - mp.mpf(1) / 8, None),
        ("ct5.phi05", 0, 5, "Phi~_{0,5}(-e^{-pi}) = -1/8",
         lambda: -mp.mpf(1) / 8, None),
        ("ct5.phi16", 1, 6, "Phi~_{1,6}(-e^{-pi}) = -pi^4 / (16 Gamma(3/4)^16)",
         lambda: -mp.pi**4 / (16 * gamma_three_quarters() ** 16), None),
        ("ct5.phi27", 2, 7, "Phi~_{2,7}(-e^{-pi}) = -7 pi^3 / (16 Gamma(3/4)^16)",
         lambda: -7 * mp.pi**3 / (16 * gamma_three_quarters() ** 16), None),
        ("ct5b.phi09", 0, 9, "Phi~_{0,9}(-e^{-pi}) = -31/8",
         lambda: -mp.mpf(31) / 8, None),
        ("ct5b.phi013", 0, 13, "Phi~_{0,13}(-e^{-pi}) = -5461/8",
         lambda: -mp.mpf(5461) / 8,
         "the value is negative; a positive rendering seen in print is a slip"),
    ]
    for id_, r_, s_, stmt, closed, note in phi_cases:
        add(
            id_,
            stmt,
            "signed weighted Lambert sums at q = -e^{-pi}",
            (lambda stop, rr=r_, ss=s_: _phi_tilde(rr, ss, _x_neg_pi(), stop)),
            closed,
            note=note,
        )

    # psi values
    def psi3pi_closed():
        rt2, rt3, q14, _, pref = _radical_parts()
        return _p(2, -1, 8) * _p(3, -3, 8) * mp.exp(3 * mp.pi / 8) * _p(
            1 + rt2 * q14 + rt3, -1, 2
        ) * pref

    def psi3pi_neg_closed():
        rt2, rt3, _, _, pref = _radical_parts()
        return _p(2, -3, 4) * _p(3, -1, 2) * mp.exp(3 * mp.pi / 8) * _p(
            2 * rt3 - 3, 1, 4
        ) * pref

    def psi6pi_closed():
        rt2, rt3, _, q34, pref = _radical_parts()
        return (
            mp.exp(3 * mp.pi / 4)
            / (_p(3, 3, 8) * _p(rt3 + 1, 5, 6) * _p(1 + rt3 + rt2 * q34, 2, 3))
            * pref
        )

    add(
        "l2.psi3pi",
        "psi(e^{-3pi}) = 2^{-1/8} 3^{-3/8} e^{3pi/8} (1 + sqrt2 3^{1/4} + sqrt3)^{-1/2} pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        lambda stop: _psi_sum(mp.exp(-3 * mp.pi), stop),
        psi3pi_closed,
    )
    add(
        "l2.psi3pi_neg",
        "psi(-e^{-3pi}) = 2^{-3/4} 3^{-1/2} e^{3pi/8} (2 sqrt3 - 3)^{1/4} pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        lambda stop: _psi_sum(-mp.exp(-3 * mp.pi), stop),
        psi3pi_neg_closed,
    )
    add(
        "l3.psi6pi",
        "psi(e^{-6pi}) = e^{3pi/4} 3^{-3/8} (sqrt3+1)^{-5/6} (1+sqrt3+sqrt2 3^{3/4})^{-2/3} pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        lambda stop: _psi_sum(mp.exp(-6 * mp.pi), stop),
        psi6pi_closed,
    )

    # eps = f(q, q^2) values, exponents k(3k+1)/2
    eps_expo = lambda k: k * (3 * k + 1) // 2

    def eps_plus_closed():
        rt2, rt3, q14, q34, pref = _radical_parts()
        return (
            _p(2, -9, 8)
            * _p(3, -3, 8)
            * mp.exp(mp.pi / 24)
            * (1 + rt3 + rt2 * q34)
            * _p(1 + rt3 + rt2 * q14, -1, 2)
            * pref
        )

    def eps_minus_closed():
        rt2, rt3, _, _, pref = _radical_parts()
        return (
            _p(2, -3, 4)
            * _p(3, -1, 2)
            * mp.exp(mp.pi / 24)
            * (1 + rt3)
            * _p(2 * rt3 - 3, 1, 4)
            * pref
        )

    def eps_2pi_closed():
        rt2, rt3, _, q34, pref = _radical_parts()
        return (
            mp.exp(mp.pi / 12)
            * (2 + rt3 + (rt2 + mp.sqrt(6)) / 2 * q34)
            / (_p(3, 3, 8) * _p(rt3 + 1, 5, 6) * _p(1 + rt3 + rt2 * q34, 2, 3))
            * pref
        )

    add(
        "t6.eps_plus",
        "eps(e^{-pi}) = 2^{-9/8} 3^{-3/8} e^{pi/24} (1+sqrt3+sqrt2 3^{3/4}) (1+sqrt3+sqrt2 3^{1/4})^{-1/2} pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        lambda stop: _theta_sum(mp.exp(-mp.pi), eps_expo, stop),
        eps_plus_closed,
    )
    add(
        "t6.eps_minus",
        "eps(-e^{-pi}) = 2^{-3/4} 3^{-1/2} e^{pi/24} (1+sqrt3) (2 sqrt3 - 3)^{1/4} pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        lambda stop: _theta_sum(-mp.exp(-mp.pi), eps_expo, stop),
        eps_minus_closed,
    )
    add(
        "t7.eps_2pi",
        "eps(e^{-2pi}) = e^{pi/12} (2+sqrt3+(sqrt2+sqrt6)/2 3^{3/4}) / (3^{3/8} (sqrt3+1)^{5/6} (1+sqrt3+sqrt2 3^{3/4})^{2/3}) pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        lambda stop: _theta_sum(mp.exp(-2 * mp.pi), eps_expo, stop),
        eps_2pi_closed,
    )

    # f(e^{-pi}, e^{-5pi}): exponents 3k^2 - 2k in the base e^{-pi}
    def f15_closed():
        rt2, rt3, q14, q34, pref = _radical_parts()
        return (
            _p(2, -5, 4)
            * _p(3, -3, 8)
            * mp.exp(mp.pi / 3)
            * _p(rt3 + 1, 5, 6)
            * _p(1 + rt3 + rt2 * q34, 5, 3)
            / ((1 + rt3 + rt2 * q14) * (2 + rt3 + (rt2 + mp.sqrt(6)) / 2 * q34))
            * pref
        )

    add(
        "t8.f15",
        "f(e^{-pi}, e^{-5pi}) = 2^{-5/4} 3^{-3/8} e^{pi/3} (sqrt3+1)^{5/6} (1+sqrt3+sqrt2 3^{3/4})^{5/3} / ((1+sqrt3+sqrt2 3^{1/4})(2+sqrt3+(sqrt2+sqrt6)/2 3^{3/4})) pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        lambda stop: _theta_sum(mp.exp(-mp.pi), lambda k: 3 * k * k - 2 * k, stop),
        f15_closed,
    )

    return {sv.id: sv for sv in out}


SPECIALS: dict[str, SpecialValue] = _specials()


def check_special(id_: str, precision: int = 256) -> dict:
    """Compare the defining sum with the closed form at `precision` bits.

    Passes when the relative error (absolute, for zero targets) is below
    2^-(precision-32). The sum is truncated at the first term below
    2^-(precision+16); working precision starts at precision + 64 bits and is
    widened when that omitted term sits below the resolution (theta tails
    jump quadratically), so the reported error is the actual truncation
    residual, not arithmetic noise. Returns a JSON-ready report. Precisions
    below MIN_PRECISION raise ValueError.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} bits, got {precision}")
    if id_ not in SPECIALS:
        known = ", ".join(sorted(SPECIALS))
        raise KeyError(f"unknown special value {id_!r}; known ids: {known}")
    sv = SPECIALS[id_]
    work = precision + _GUARD_BITS
    with mp.workprec(work):
        stop = mp.mpf(2) ** (-(precision + _STOP_MARGIN))
        _, tail = sv.series(stop)
        # resolution needed to see the residual above rounding error
        work = max(work, -mp.mag(tail) + _GUARD_BITS if tail > 0 else 0)
    with mp.workprec(work):
        stop = mp.mpf(2) ** (-(precision + _STOP_MARGIN))
        got, _ = sv.series(stop)
        want = sv.closed()
        abs_err = abs(got - want)
        rel_err = abs_err / abs(want) if want != 0 else abs_err
        err = abs_err if sv.zero_target else rel_err
        tol = mp.mpf(2) ** (-(precision - _PASS_MARGIN))
        report = {
            "id": id_,
            "precision_bits": precision,
            "series_value": mp.nstr(got, 30),
            "closed_form": mp.nstr(want, 30),
            "abs_err": mp.nstr(abs_err, 8),
            "rel_err": mp.nstr(rel_err, 8),
            "status": "pass" if err < tol else "fail",
        }
    if sv.note:
        report["note"] = sv.note
    return report


def check_all_specials(precision: int = 256) -> list[dict]:
    return [check_special(id_, precision) for id_ in sorted(SPECIALS)]
