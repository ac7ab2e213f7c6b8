"""Builders for every named q-series in scope.

Eisenstein series E_2k (P, Q, R and the higher weights), the signed-divisor
analogues (the script P, E, Q, R system of Hahn 2007, here hahnP/hahnE/hahnQ/
hahnR), the four weighted families on pentagonal and triangular exponents
(T_2n, F_n, psi_n, eps_n), Ramanujan theta functions f(a, b) at signed monomial
arguments, and the double Lambert sums Phi_{r,s} / Phi~_{r,s}.

All builders take an explicit truncation order and return exact Series.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import series as S
from .divisors import DivisorKind, bernoulli, divisor_sum_table


def eisenstein(k: int, order: int) -> S.Series:
    """E_2k = 1 - (4k/B_2k) sum sigma_{2k-1}(n) q^n.

    k=1,2,3 give P, Q, R with coefficients -24, +240, -504.
    """
    if k < 1:
        raise ValueError("eisenstein: k must be >= 1")
    c = Fraction(-4 * k) / bernoulli(2 * k)
    return S.add(S.one(order), S.scale(c, S.lambert(DivisorKind.PLAIN, 2 * k - 1, order)))


_HAHN_SPEC = {
    # letter -> (kind, weight s, scalar multiplier); constant term comes out 1
    # because the scalar times the boundary value is 1 in each case
    "P": (DivisorKind.TILDE, 1, 8),
    "E": (DivisorKind.HAT, 1, 24),
    "Q": (DivisorKind.TILDE, 3, -16),
    "R": (DivisorKind.TILDE, 5, 8),
}


def hahn(which: str, order: int) -> S.Series:
    """hahnP = sum 8 sigma~(n) q^n, hahnE = sum 24 sigma^(n) q^n,
    hahnQ = sum -16 sigma~_3(n) q^n, hahnR = sum 8 sigma~_5(n) q^n,
    each including its n = 0 boundary term (constant term 1)."""
    try:
        kind, s, c = _HAHN_SPEC[which]
    except KeyError:
        raise KeyError(f"hahn: which must be one of P, E, Q, R, not {which!r}") from None
    return S.add(S.one(order), S.scale(c, S.lambert(kind, s, order)))


def family(fam: str, index: int, order: int) -> S.Series:
    """The four weighted exponent-power families.

    T:   1 + sum_{k>=1} (-1)^k ((6k-1)^i q^{k(3k-1)/2} + (6k+1)^i q^{k(3k+1)/2}),
         i = index, even (T_0 is the pentagonal product (q;q)_inf)
    F:   sum_{k>=0} (-1)^k (2k+1)^{index+1} q^{k(k+1)/2}
    psi: sum_{k>=0} (2k+1)^{index} q^{k(k+1)/2}
    eps: sum_{k in Z} (6k+1)^{index} q^{k(3k+1)/2}
    """
    if index < 0:
        raise ValueError("family: index must be >= 0")
    out = [0] * (order + 1)
    if fam == "T":
        if index % 2:
            raise ValueError("family: T takes an even index")
        out[0] = 1
        k = 1
        while k * (3 * k - 1) // 2 <= order:
            sign = -1 if k % 2 else 1
            e1 = k * (3 * k - 1) // 2
            out[e1] += sign * (6 * k - 1) ** index
            e2 = k * (3 * k + 1) // 2
            if e2 <= order:
                out[e2] += sign * (6 * k + 1) ** index
            k += 1
    elif fam in ("F", "psi"):
        k = 0
        while k * (k + 1) // 2 <= order:
            e = k * (k + 1) // 2
            if fam == "F":
                out[e] += (-1 if k % 2 else 1) * (2 * k + 1) ** (index + 1)
            else:
                out[e] += (2 * k + 1) ** index
            k += 1
    elif fam == "eps":
        out[0] += 1  # k = 0 term
        m = 1
        while True:
            # exponents grow monotonically in both directions
            ep, em = m * (3 * m + 1) // 2, m * (3 * m - 1) // 2
            if em > order and ep > order:
                break
            if ep <= order:
                out[ep] += (6 * m + 1) ** index
            if em <= order:
                out[em] += (-6 * m + 1) ** index
            m += 1
    else:
        raise KeyError(f"family: unknown family {fam!r}")
    return S.Series(tuple(out))


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
    out = [0] * (order + 1)

    def put(k: int) -> bool:
        ta, tb = k * (k + 1) // 2, k * (k - 1) // 2
        e = u * ta + v * tb
        if e > order:
            return False
        out[e] += (sa**ta) * (sb**tb)
        return True

    put(0)
    m = 1
    while True:
        # exponent is strictly increasing in |k| on each side, so stop when
        # both directions have left the window
        alive = put(m)
        alive = put(-m) or alive
        if not alive:
            break
        m += 1
    return S.Series(tuple(out))


def phi_series(variant: str, r: int, s: int, order: int) -> S.Series:
    """Double Lambert sum sum_{m,d>=1} sgn(d) m^r d^s q^{md} as a Series.

    plain: sgn = 1, coefficient of q^n is sum_{d|n} (n/d)^r d^s.
    tilde: sgn = (-1)^(d-1), so the alternating sign rides the index carrying
    the s-th power; then q d/dq Phi~_{r,s} = Phi~_{r+1,s+1} and Phi~_{0,s} is
    the sigma~_s Lambert series.

    Generated from divisor-sum tables (coefficient of q^n is n^r sigma_{s-r}(n)
    in the right flavor); the literal double sum is the test oracle.
    """
    if variant not in ("plain", "tilde"):
        raise ValueError("phi_series: variant must be plain or tilde")
    if r < 0 or s < 0:
        raise ValueError("phi_series: r and s must be nonnegative")
    if s >= r:
        kind = DivisorKind.PLAIN if variant == "plain" else DivisorKind.TILDE
        table = divisor_sum_table(kind, s - r, order)
        coeffs = [0] + [n**r * table[n] for n in range(1, order + 1)]
    else:
        # swap roles of the two indices: the sign lands on the codivisor
        kind = DivisorKind.PLAIN if variant == "plain" else DivisorKind.HAT
        table = divisor_sum_table(kind, r - s, order)
        coeffs = [0] + [n**s * table[n] for n in range(1, order + 1)]
    return S.Series(tuple(coeffs))


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
