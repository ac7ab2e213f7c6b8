"""Builders for every named q-series in scope.

Eisenstein series E_2k (P, Q, R and the higher weights), the signed-divisor
analogues (the script P, E, Q, R system of Hahn 2007, here hahnP/hahnE/hahnQ/
hahnR), the four weighted families on pentagonal and triangular exponents
(T_2n, F_n, psi_n, eps_n), Ramanujan theta functions f(a, b) at signed monomial
arguments, and the double Lambert sums Phi_{r,s} / Phi~_{r,s}.

Two shapes cover them. The families and f(a, b) are theta sums on quadratic
exponents, all placed by one kernel, _theta_sum. The rest are Lambert series
from series.lambert; Phi_{r,s} is one of them raised by the q d/dq
recurrence.

All builders take an explicit truncation order and return exact Series.
"""

from __future__ import annotations

import re
from itertools import count

from . import series as S
from .divisors import DivisorKind, boundary_value


def _unit_lambert(kind: DivisorKind, s: int, order: int) -> S.Series:
    """c (b + sum sigma_s(n) q^n) with b the boundary value and c = 1/b."""
    c = 1 / boundary_value(kind, s)
    return S.add(S.one(order), S.scale(c, S.lambert(kind, s, order)))


def eisenstein(k: int, order: int) -> S.Series:
    """E_2k = 1 - (4k/B_2k) sum sigma_{2k-1}(n) q^n.

    k=1,2,3 give P, Q, R with coefficients -24, +240, -504.
    """
    if k < 1:
        raise ValueError("eisenstein: k must be >= 1")
    return _unit_lambert(DivisorKind.PLAIN, 2 * k - 1, order)


# letter -> (kind, weight s); the scalar is 1/boundary_value(kind, s)
_HAHN_SPEC = {
    "P": (DivisorKind.TILDE, 1),
    "E": (DivisorKind.HAT, 1),
    "Q": (DivisorKind.TILDE, 3),
    "R": (DivisorKind.TILDE, 5),
}


def hahn(which: str, order: int) -> S.Series:
    """hahnP = sum 8 sigma~(n) q^n, hahnE = sum 24 sigma^(n) q^n,
    hahnQ = sum -16 sigma~_3(n) q^n, hahnR = sum 8 sigma~_5(n) q^n,
    each including its n = 0 boundary term (constant term 1)."""
    try:
        kind, s = _HAHN_SPEC[which]
    except KeyError:
        raise KeyError(f"hahn: which must be one of P, E, Q, R, not {which!r}") from None
    return _unit_lambert(kind, s, order)


def _theta_sum(expo, coeff, order: int, bilateral: bool) -> S.Series:
    """sum coeff(k) q^expo(k) over k >= 0, or over all k in Z when bilateral.

    expo(0) = 0 and expo is strictly increasing in |k| on each side, so the
    sum stops once neither k = m nor k = -m lands inside the window.
    Coefficients at colliding exponents add.
    """
    out = [0] * (order + 1)
    for m in count():
        alive = False
        for k in (m, -m) if bilateral and m else (m,):
            e = expo(k)
            if e <= order:
                out[e] += coeff(k)
                alive = True
        if not alive:
            return S.Series(tuple(out))


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _pentagonal(k: int) -> int:
    return k * (3 * k + 1) // 2


def _triangular(k: int) -> int:
    return k * (k + 1) // 2


# family -> (exponent, coefficient of q^exponent(k) at index i, bilateral)
_FAMILIES = {
    "T": (_pentagonal, lambda k, i: _sign(k) * (6 * k + 1) ** i, True),
    "eps": (_pentagonal, lambda k, i: (6 * k + 1) ** i, True),
    "F": (_triangular, lambda k, i: _sign(k) * (2 * k + 1) ** (i + 1), False),
    "psi": (_triangular, lambda k, i: (2 * k + 1) ** i, False),
}


def family(fam: str, index: int, order: int) -> S.Series:
    """The four weighted exponent-power families, for i = index.

    T:   sum_{k in Z} (-1)^k (6k+1)^i q^{k(3k+1)/2}, i even
         (T_0 is the pentagonal product (q;q)_inf)
    eps: sum_{k in Z} (6k+1)^i q^{k(3k+1)/2}
    F:   sum_{k>=0} (-1)^k (2k+1)^{i+1} q^{k(k+1)/2}
    psi: sum_{k>=0} (2k+1)^i q^{k(k+1)/2}
    """
    if index < 0:
        raise ValueError("family: index must be >= 0")
    try:
        expo, coeff, bilateral = _FAMILIES[fam]
    except KeyError:
        raise KeyError(f"family: unknown family {fam!r}") from None
    if fam == "T" and index % 2:
        raise ValueError("family: T takes an even index")
    return _theta_sum(expo, lambda k: coeff(k, index), order, bilateral)


def theta_f(sa: int, u: int, sb: int, v: int, order: int) -> S.Series:
    """Ramanujan's f(a, b) = sum_{k in Z} a^{k(k+1)/2} b^{k(k-1)/2} at the
    signed monomials a = sa*q^u, b = sb*q^v.

    Bilateral by definition; coefficients at colliding exponents add. u + v >= 1
    keeps the exponent quadratic in k so the sum truncates.
    """
    if sa not in (1, -1) or sb not in (1, -1):
        raise ValueError("theta_f: signs must be +1 or -1")
    if u < 1 or v < 1:
        raise ValueError("theta_f: u and v must be positive integers")
    return _theta_sum(
        lambda k: u * _triangular(k) + v * _triangular(k - 1),
        lambda k: sa ** _triangular(k) * sb ** _triangular(k - 1),
        order,
        True,
    )


def phi_series(variant: str, r: int, s: int, order: int) -> S.Series:
    """Double Lambert sum sum_{m,d>=1} sgn(d) m^r d^s q^{md} as a Series.

    plain: sgn = 1, coefficient of q^n is sum_{d|n} (n/d)^r d^s.
    tilde: sgn = (-1)^(d-1), so the alternating sign rides the index carrying
    the s-th power; then q d/dq Phi~_{r,s} = Phi~_{r+1,s+1} and Phi~_{0,s} is
    the sigma~_s Lambert series.

    Built by that recurrence, which holds for both variants: min(r, s)
    applications of q d/dq to the Lambert series of sigma_{|s-r|} in the
    right flavor (for tilde with s < r the sign lands on the codivisor, the
    HAT flavor). The literal double sum is the test oracle.
    """
    if variant not in ("plain", "tilde"):
        raise ValueError("phi_series: variant must be plain or tilde")
    if r < 0 or s < 0:
        raise ValueError("phi_series: r and s must be nonnegative")
    if variant == "plain":
        kind = DivisorKind.PLAIN
    else:
        kind = DivisorKind.TILDE if s >= r else DivisorKind.HAT
    out = S.lambert(kind, abs(s - r), order)
    for _ in range(min(r, s)):
        out = S.euler_op(out)
    return out


# named theta specializations


def varphi(order: int) -> S.Series:
    """phi(q) = f(q, q) = 1 + 2 sum q^{k^2}."""
    return theta_f(1, 1, 1, 1, order)


def psi0(order: int) -> S.Series:
    """psi(q) = sum_{k>=0} q^{k(k+1)/2}, the one-sided triangular sum.

    The bilateral f(q, q^3) equals this; the two are cross-checked in tests
    rather than conflated here.
    """
    return family("psi", 0, order)


def eps0(order: int) -> S.Series:
    """eps(q) = f(q, q^2) = sum_{k in Z} q^{k(3k+1)/2}, unsigned pentagonal."""
    return family("eps", 0, order)


def fneg(order: int) -> S.Series:
    """f(-q) = f(-q, -q^2) = (q;q)_inf, the signed pentagonal sum."""
    return theta_f(-1, 1, -1, 2, order)


def pochhammer(order: int) -> S.Series:
    """(q;q)_inf as the infinite product prod (1 - q^n)."""
    return S.product_expansion([(1, 1, 1)], order)


_THETA_NAME = re.compile(r"^theta_([pm])(\d+)_([pm])(\d+)$")
_PHI_NAME = re.compile(r"^phi(_tilde)?_(\d+)_(\d+)$")
_FAMILY_NAME = re.compile(r"^(T|F|psi|eps)(\d+)$")
_EIS_NAME = re.compile(r"^E(\d+)$")

NAME_PATTERNS = [
    "P, Q, R, E2, E4, ..., E14 (Eisenstein; P=E2, Q=E4, R=E6)",
    "hahnP, hahnE, hahnQ, hahnR (signed-divisor analogues)",
    "T<even>, F<n>, psi<n>, eps<n> (weighted families, e.g. T4, F2, psi6, eps3)",
    "varphi, fneg, poch (theta specializations: phi(q), f(-q), (q;q)_inf)",
    "theta_<s><u>_<s><v> with s in {p,m} (f at signed monomials, e.g. theta_p1_p5)",
    "phi_<r>_<s>, phi_tilde_<r>_<s> (double Lambert sums, e.g. phi_tilde_2_7)",
]


def series_by_name(name: str, order: int) -> S.Series:
    """Resolve a canonical series name (the CLI's grammar) to a Series."""
    fixed = {
        "P": lambda: eisenstein(1, order),
        "Q": lambda: eisenstein(2, order),
        "R": lambda: eisenstein(3, order),
        "varphi": lambda: varphi(order),
        "fneg": lambda: fneg(order),
        "poch": lambda: pochhammer(order),
    }
    if name in fixed:
        return fixed[name]()
    if name.startswith("hahn") and len(name) == 5:
        return hahn(name[4], order)
    m = _EIS_NAME.match(name)
    if m:
        w = int(m.group(1))
        if w < 2 or w % 2:
            raise KeyError(f"series name {name!r}: Eisenstein weight must be even >= 2")
        return eisenstein(w // 2, order)
    # a ValueError from family or theta_f (odd T index, zero theta exponent)
    # means the NAME is invalid
    try:
        m = _FAMILY_NAME.match(name)
        if m:
            return family(m.group(1), int(m.group(2)), order)
        m = _THETA_NAME.match(name)
        if m:
            sa = 1 if m.group(1) == "p" else -1
            sb = 1 if m.group(3) == "p" else -1
            return theta_f(sa, int(m.group(2)), sb, int(m.group(4)), order)
    except ValueError as e:
        raise KeyError(f"series name {name!r}: {e}") from None
    m = _PHI_NAME.match(name)
    if m:
        variant = "tilde" if m.group(1) else "plain"
        return phi_series(variant, int(m.group(2)), int(m.group(3)), order)
    raise KeyError(f"unknown series name {name!r}")
