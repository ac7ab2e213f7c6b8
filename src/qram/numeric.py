"""Arbitrary-precision checks of closed-form special values.

Each special value pairs two fully independent computations:

  series route:  the defining sum itself, c0 + c1 * sum_{k>=1} t_k at a point
                 x, evaluated termwise, never through the polynomial
                 identities;
  closed route:  the radical/pi/Gamma(3/4) closed form, with Gamma(3/4)
                 obtained from the arithmetic-geometric mean, not from a
                 library gamma function.

Every defining sum is a weighted Lambert sum or a theta sum f(x^u, x^v), each
with a proved tail bound (_lambert, _theta). check_special makes one pass:
from log2|x|, computed once at low precision, it picks the first index N at
which |c1| times the tail bound is below 2^-(precision+16), works 64 bits
below that bound, and sums terms 1..N-1 once: a Lambert sum in integer fixed
point with a proved rounding bound (_lambert_sum), a theta sum in mpf. The
reported error is thus the genuine truncation residual: provably below
2^-(precision+16), far above arithmetic noise, and shrinking as the requested
precision grows. A zero target's series value is that residual, printed with
the 8 digits of abs_err.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import merge
from itertools import count
from typing import Callable, Optional

from mpmath import mp
from mpmath.libmp import to_fixed

from .divisors import DivisorKind

PLAIN, TILDE, HAT = DivisorKind.PLAIN, DivisorKind.TILDE, DivisorKind.HAT

_GUARD_BITS = 64
_STOP_MARGIN = 16
# keeps the 64-bit log2|x| an upper bound through float tail arithmetic
_LOG2_SLACK = 2.0**-20
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
# the two term families


@dataclass(frozen=True)
class Route:
    """c0 + c1 * (t_1 + t_2 + ...) at x = point().

    point and partial run inside workprec; partial(x, n) is t_1 + ... + t_n at
    x. log2_tail(l, k) is log2 of a proved bound on sum_{j>=k} |t_j| whenever
    log2|x| <= l (inf where none holds).
    """

    point: Callable
    partial: Callable
    log2_tail: Callable[[float, int], float]
    c0: int = 1
    c1: int = 1

    def stop(self, log2_x: float, bits: int) -> tuple[int, float]:
        """The first N with |c1| * tail bound from N < 2^-bits; log2 of that."""
        for n in count(1):
            bound = math.log2(abs(self.c1)) + self.log2_tail(log2_x, n)
            if bound < -bits:
                return n, bound


# A_r(y) = sum_{m>=1} m^r y^m
_A = (
    lambda y: y / (1 - y),
    lambda y: y / (1 - y) ** 2,
    lambda y: y * (1 + y) / (1 - y) ** 3,
)


def _lambert(kind: DivisorKind, r: int, s: int, point, c0=1, c1=1) -> Route:
    """sum_d sgn(d) d^s A(x^d) = sum_n n^r sigma_{s-r}(n) x^n, signed per kind.

    sgn(d) = (-1)^(d-1) for TILDE and 1 otherwise; A = A_r, except
    A(y) = -A_r(-y) for HAT. |A(y)| <= A_r(|y|) <= C|y| for |y| <= |x| with
    C = A_r(|x|)/|x|, and for d >= k consecutive bounds C d^s |x|^d have
    ratio at most (1+1/k)^s |x|; summing that geometric series gives the
    tail bound C k^s |x|^k / (1 - (1+1/k)^s |x|).
    """
    a = _A[r]

    def partial(x, n):
        return _lambert_sum(kind, r, s, x, n)

    def log2_tail(log2_x, k):
        u = 2.0**log2_x
        ratio = (1 + 1 / k) ** s * u
        if ratio >= 1:
            return math.inf
        return math.log2(a(u) / u / (1 - ratio)) + s * math.log2(k) + k * log2_x

    return Route(point, partial, log2_tail, c0, c1)


def _lambert_sum(kind: DivisorKind, r: int, s: int, x, n: int):
    """The first n terms sgn(d) d^s A(x^d) of _lambert, in one fixed-point pass.

    Every quantity is an integer multiple of u = 2^-W, rounded down, with
    W = wp + (s+1) ceil(log2 N) + 8 for wp = mp.prec and N = n + 1: x, then
    x^d by repeated multiplication by x, then for y = +-x^d one division
    a = y/(1-y), A_0 = a, A_1 = a(1+a) and A_2 = A_1(1+2a). d^s and the
    signs are exact, and the integer sum is rounded once to wp bits.

    Rounding bound, for nu = 1/(1 - |x| - u) > 0 and 3 nu^2 u <= 1: Y u is
    within 2 nu u of x^d (each step adds at most 2u and scales the error by
    at most |x| + u); |da/dy| <= nu^2 puts a within 3 nu^3 u of its exact
    value; |1+a| <= nu, |1+2a| <= 2 nu and |A_1| <= nu^2 then put A_r within
    c_r nu^(r+3) ulps (units of u), c = (3, 10, 47). As sum_{d<=n} d^s <=
    N^(s+1) <= 2^((s+1) ceil(log2 N)), the integer sum is within
    c_r nu^(r+3) N^(s+1) ulps of the exact sum at x, which is
    c_r nu^(r+3) 2^-(wp+8): below 2^-wp while c_r nu^(r+3) < 256, as for
    every |x| <= e^-pi (nu < 1.05).
    """
    w = mp.prec + (s + 1) * n.bit_length() + 8
    one = 1 << w
    xw = to_fixed(mp.mpf(x)._mpf_, w)
    total, y = 0, one
    for d in range(1, n + 1):
        y = (y * xw) >> w
        v = -y if kind is HAT else y
        a = (v << w) // (one - v)
        big_a = a if r == 0 else (a * (one + a)) >> w
        if r == 2:
            big_a = (big_a * (one + 2 * a)) >> w
        t = d**s * big_a
        total += -t if kind is HAT or (kind is TILDE and d % 2 == 0) else t
    return mp.mpf((total, -w))


def _theta(u: int, v: int, point) -> Route:
    """Ramanujan's f(x^u, x^v) = sum_{k in Z} x^e(k), u, v >= 1, for the
    exponent e(k) = u k(k+1)/2 + v k(k-1)/2; the k = 0 term is c0 = 1.

    e(k) and e(-k) are each strictly increasing integers for k >= 1. The
    terms for k != 0 come in increasing order of e, both sides merged, so the
    exponents left from the k-th term e_k on are, on each side, distinct
    integers >= e_k: the tail bound is 2 |x|^e_k / (1 - |x|).
    """

    def expo(k):
        return u * k * (k + 1) // 2 + v * k * (k - 1) // 2

    merged = merge((expo(k) for k in count(1)), (expo(-k) for k in count(1)))
    known: list[int] = []  # merged's exponents so far: e_k is known[k - 1]

    def exponent(k):
        while len(known) < k:
            known.append(next(merged))
        return known[k - 1]

    def partial(x, n):
        return sum((x ** exponent(k) for k in range(1, n + 1)), mp.mpf(0))

    def log2_tail(log2_x, k):
        return 1 + exponent(k) * log2_x - math.log2(1 - 2.0**log2_x)

    return Route(point, partial, log2_tail)


# ---------------------------------------------------------------------------
# the special values


@dataclass(frozen=True)
class SpecialValue:
    id: str
    statement: str
    source: str
    route: Route
    closed: Callable  # () -> mpf, inside workprec
    zero_target: bool = False  # compare absolutely when the target is 0
    note: Optional[str] = None


def _x_neg_pi():
    return -mp.exp(-mp.pi)


def _radical_parts():
    rt2, rt3 = mp.sqrt(2), mp.sqrt(3)
    q14 = mp.root(3, 4)
    pref = mp.root(mp.pi, 4) / gamma_three_quarters()
    return rt2, rt3, q14, q14**3, pref


def _p(base, num, den):
    """base^(num/den) for base > 0, by an integer root rather than log and exp."""
    return mp.root(base, den) ** num


def _specials() -> dict[str, SpecialValue]:
    out: list[SpecialValue] = []

    def add(*fields, **named):
        out.append(SpecialValue(*fields, **named))

    # signed Eisenstein values at q = -e^{-pi}
    add(
        "hahn.P",
        "P~(-e^{-pi}) = 2/pi",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        _lambert(TILDE, 0, 1, _x_neg_pi, c1=8),
        lambda: 2 / mp.pi,
    )
    add(
        "hahn.E",
        "E~(-e^{-pi}) = 0",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        _lambert(HAT, 0, 1, _x_neg_pi, c1=24),
        lambda: mp.mpf(0),
        zero_target=True,
    )
    add(
        "hahn.Q",
        "Q~(-e^{-pi}) = pi^2 / Gamma(3/4)^8",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        _lambert(TILDE, 0, 3, _x_neg_pi, c1=-16),
        lambda: mp.pi**2 / gamma_three_quarters() ** 8,
    )
    add(
        "hahn.R",
        "R~(-e^{-pi}) = 0",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        _lambert(TILDE, 0, 5, _x_neg_pi, c1=8),
        lambda: mp.mpf(0),
        zero_target=True,
    )

    # classical Q at the companion points
    add(
        "classical.Q_2pi",
        "Q(e^{-2pi}) = 3 pi^2 / (4 Gamma(3/4)^8)",
        "Ramanujan; Berndt, Notebooks (values at e^{-2pi})",
        _lambert(PLAIN, 0, 3, lambda: mp.exp(-2 * mp.pi), c1=240),
        lambda: 3 * mp.pi**2 / (4 * gamma_three_quarters() ** 8),
    )
    add(
        "classical.Q_neg_pi",
        "Q(-e^{-pi}) = -3 pi^2 / Gamma(3/4)^8",
        "Ramanujan; Berndt, Notebooks (companion value at -e^{-pi})",
        _lambert(PLAIN, 0, 3, _x_neg_pi, c1=240),
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
            _lambert(TILDE, r_, s_, _x_neg_pi, c0=0),
            closed,
            note=note,
        )

    # psi values: psi(x) = sum_{k>=0} x^{k(k+1)/2} = f(x, x^3)
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
        _theta(1, 3, lambda: mp.exp(-3 * mp.pi)),
        psi3pi_closed,
    )
    add(
        "l2.psi3pi_neg",
        "psi(-e^{-3pi}) = 2^{-3/4} 3^{-1/2} e^{3pi/8} (2 sqrt3 - 3)^{1/4} pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        _theta(1, 3, lambda: -mp.exp(-3 * mp.pi)),
        psi3pi_neg_closed,
    )
    add(
        "l3.psi6pi",
        "psi(e^{-6pi}) = e^{3pi/4} 3^{-3/8} (sqrt3+1)^{-5/6} (1+sqrt3+sqrt2 3^{3/4})^{-2/3} pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        _theta(1, 3, lambda: mp.exp(-6 * mp.pi)),
        psi6pi_closed,
    )

    # eps values: eps(x) = sum_{k in Z} x^{k(3k+1)/2} = f(x, x^2)
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
        _theta(1, 2, lambda: mp.exp(-mp.pi)),
        eps_plus_closed,
    )
    add(
        "t6.eps_minus",
        "eps(-e^{-pi}) = 2^{-3/4} 3^{-1/2} e^{pi/24} (1+sqrt3) (2 sqrt3 - 3)^{1/4} pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        _theta(1, 2, lambda: -mp.exp(-mp.pi)),
        eps_minus_closed,
    )
    add(
        "t7.eps_2pi",
        "eps(e^{-2pi}) = e^{pi/12} (2+sqrt3+(sqrt2+sqrt6)/2 3^{3/4}) / (3^{3/8} (sqrt3+1)^{5/6} (1+sqrt3+sqrt2 3^{3/4})^{2/3}) pi^{1/4}/Gamma(3/4)",
        "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)",
        _theta(1, 2, lambda: mp.exp(-2 * mp.pi)),
        eps_2pi_closed,
    )

    # f(e^{-pi}, e^{-5pi}) = f(x, x^5) at x = e^{-pi}
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
        _theta(1, 5, lambda: mp.exp(-mp.pi)),
        f15_closed,
    )

    return {sv.id: sv for sv in out}


SPECIALS: dict[str, SpecialValue] = _specials()


def check_special(id_: str, precision: int = 256) -> dict:
    """Compare the defining sum with the closed form at `precision` bits.

    Passes when the relative error (absolute, for zero targets) is below
    2^-(precision-32); the sum is cut where its proved tail bound falls below
    2^-(precision+16) (see the module docstring). Returns a JSON-ready
    report. Precisions below MIN_PRECISION raise ValueError.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} bits, got {precision}")
    if id_ not in SPECIALS:
        known = ", ".join(sorted(SPECIALS))
        raise KeyError(f"unknown special value {id_!r}; known ids: {known}")
    sv = SPECIALS[id_]
    route = sv.route
    with mp.workprec(_GUARD_BITS):
        log2_x = float(mp.log(abs(route.point()), 2)) + _LOG2_SLACK
    n, log2_bound = route.stop(log2_x, precision + _STOP_MARGIN)
    with mp.workprec(math.ceil(-log2_bound) + _GUARD_BITS):
        partial = route.partial(route.point(), n - 1)
        got = route.c0 + route.c1 * partial
        want = sv.closed()
        abs_err = abs(got - want)
        rel_err = abs_err / abs(want) if want != 0 else abs_err
        err = abs_err if sv.zero_target else rel_err
        tol = mp.mpf(2) ** (-(precision - _PASS_MARGIN))
        report = {
            "id": id_,
            "precision_bits": precision,
            # a zero target's sum is its residual, +-abs_err: print it as such
            "series_value": mp.nstr(got, 8 if sv.zero_target else 30),
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
