"""Arbitrary-precision checks of closed-form special values.

Each special value pairs two fully independent computations:

  series route:  the defining sum itself, c0 + c1 * sum_{k>=1} t_k at a point
                 x, evaluated from its terms (the first terms as one power
                 series in x with integer coefficients), never through the
                 polynomial identities;
  closed route:  the radical/pi/Gamma(3/4) closed form, with Gamma(3/4)
                 obtained from the arithmetic-geometric mean, not from a
                 library gamma function.

All arithmetic is on Python ints in fixed point: an int v "at scale 2^-w"
stands for v 2^-w, and an ulp is 2^-w. The pieces are pi by the Chudnovsky
series with binary splitting (twice a check, see _pi_once), exp by halving
and squaring, square roots from math.isqrt, n-th roots by Newton's method,
and the AGM (Brent, JACM 23, 1976).

Every defining sum is a weighted Lambert sum or a theta sum f(x^u, x^v), each
with a proved tail bound (_lambert, _theta). The first terms of either are one
power series in x with integer coefficients, summed by one kernel with one
proved rounding bound (_power_sum). check_special makes one pass: from log2|x|,
computed once at low precision, it picks the first index N at which |c1|
times the tail bound is below 2^-(precision+16), works at a scale 64 bits
below that bound, and sums terms 1..N-1 once. The reported error is thus the
genuine truncation residual: provably below 2^-(precision+16), far above
arithmetic noise, and shrinking as the requested precision grows. A zero
target's series value is that residual, printed with the 8 digits of abs_err.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import count, islice
from typing import Callable, Optional

from .divisors import GENERATORS, DivisorKind, boundary_value, lambert
from .record import Record

TILDE, HAT = DivisorKind.TILDE, DivisorKind.HAT

_GUARD_BITS = 64
_STOP_MARGIN = 16
# keeps the 64-bit log2|x| an upper bound through float tail arithmetic
_LOG2_SLACK = 2.0**-20
_PASS_MARGIN = 32
# below this the pass gate 2^-(precision - _PASS_MARGIN) accepts errors of
# 2^-32 and more, so a pass would say nothing about the closed form
MIN_PRECISION = 2 * _PASS_MARGIN
# closed forms are evaluated this many bits below the scale they return
_CLOSED_GUARD = 32
# pi is computed this far past the scale a check first needs (see _pi_once)
_PI_HEADROOM = 64
# values are printed from copies rounded to this many bits (see _nstr)
_PRINT_BITS = 256


# ---------------------------------------------------------------------------
# fixed-point primitives


def _pi(w: int) -> int:
    """pi at scale 2^-w, within 2 ulps: the Chudnovsky series (1988), about
    47 bits a term, summed by binary splitting."""

    def split(a, b):
        if b - a == 1:
            if a == 0:
                return 1, 1, 13591409
            p = -(6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            return p, a * a * a * 10939058860032000, p * (13591409 + 545140134 * a)
        m = (a + b) // 2
        p1, q1, t1 = split(a, m)
        p2, q2, t2 = split(m, b)
        return p1 * p2, q1 * q2, q2 * t1 + p1 * t2

    _, q, t = split(0, w // 47 + 2)
    return 426880 * math.isqrt(10005 << 2 * w) * q // t


def _exp(x: int, w: int) -> int:
    """e^(x 2^-w) at scale 2^-w, within 2 ulps.

    k halvings bring the argument below 2^-m, m = cbrt(w), so that the
    Taylor series needs about T = w/m terms; k squarings undo them. Smith's
    method sums the series as J ~ sqrt(T) interleaved series, the j-th
    holding the terms r^i/i! with i = j mod J and the factor r^j taken out,
    at one long product per J terms. Each squaring at most doubles the error
    carried, times e^x overall, so the series runs k + 32 bits (and 2 per
    unit of x > 0) below the result.
    """
    m = round(w ** (1 / 3))
    k = m + max(x.bit_length() - w, 0)
    g = w + k + 32 + 2 * max(x >> w, 0)
    r = abs(x) << (g - w - k)  # |x| 2^-k at scale 2^-g
    n = 2 * (math.isqrt(g // m) // 2 + 1)  # J, even: r^j's sign goes by j
    powers = [1 << g]
    for _ in range(n):
        powers.append(powers[-1] * r >> g)
    sums = [0] * n
    a, i = 1 << g, 0  # a = r^(i - i mod J) / i!
    while a:
        sums[i % n] += a
        i += 1
        a //= i
        if i % n == 0:
            a = a * powers[n] >> g
    y = sum((-s if x < 0 and j % 2 else s) * powers[j] for j, s in enumerate(sums)) >> g
    for _ in range(k):
        y = y * y >> g
    return y >> (g - w)


def _iroot(a: int, n: int) -> int:
    """floor(a^(1/n)) for an int a >= 0, by Newton's method from above,
    started from the root of a's leading half."""
    if n == 1 or a < 2:
        return a
    k = a.bit_length() // (2 * n)
    x = _iroot(a >> n * k, n) + 1 << k if k else 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _root(v: int, n: int, w: int) -> int:
    """(v 2^-w)^(1/n) at scale 2^-w, rounded down, for v >= 0: square roots
    for the factors 2 of n, then one odd root, all on the one int
    v 2^((n-1)w), as floor(f(floor(y))) = floor(f(y)) for these roots."""
    a = v << (n - 1) * w
    while n % 2 == 0:
        a, n = math.isqrt(a), n // 2
    return _iroot(a, n)


def _agm(a: int, b: int) -> int:
    """The arithmetic-geometric mean of a, b > 0 at their common scale,
    within 2 ulps: the steps run 16 bits further down, where the error each
    adds stays far below 2^16 of their ulps."""
    a, b = a << 16, b << 16
    while abs(a - b) > 1:
        a, b = (a + b) >> 1, math.isqrt(a * b)
    return a >> 16


def _atanh(t: int, w: int) -> int:
    """atanh(t 2^-w) at scale 2^-w for 0 <= t 2^-w <= 1/3, by its Taylor
    series, within one ulp a term."""
    t2 = t * t >> w
    total, p = 0, t
    for j in count(1, 2):
        if not p:
            return total
        total += p // j
        p = p * t2 >> w


def _log2(point: Callable[[int], int]) -> float:
    """log2|x| for x = point(w), 0 < |x| < 1, as the float nearest a 160-bit
    value computed from 128 or more significant bits of x: the 64-bit
    log2|x| that Route.stop reads.

    With x = m 2^e and 1 <= m < 2, log2|x| = e + ln(m) / ln(2), and
    ln(m) = 2 atanh((m - 1)/(m + 1)), ln(2) = 2 atanh(1/3). The point is
    asked for at 160 bits first, which gives 128 significant bits of every
    |x| >= 2^-32 (all the special values' points) in one call.
    """
    w = 160
    while (x := abs(point(w))).bit_length() < 128:
        w = w + 128 - x.bit_length() if x else 2 * w
    p = 160
    one = 1 << p
    b = x.bit_length() - 1
    m = x << p >> b
    ln_m = 2 * _atanh(((m - one) << p) // (m + one), p)
    return math.ldexp(float(((b - w) << p) + (ln_m << p) // _LN2_160), -p)


_LN2_160 = 2 * _atanh((1 << 160) // 3, 160)  # ln 2 at scale 2^-160, for _log2


def _pi_once() -> Callable[[int], int]:
    """pi(w) for one check: _pi at _PI_HEADROOM bits past the first scale
    above every earlier one, shifted down for each scale below it, within 2
    ulps as _pi is. A check asks first for log2|x|'s point, then for its sum's
    and last for its closed form's, at most 64 bits past the sum's scale: so
    it computes pi twice, once small for log2|x| and once for all the rest."""
    known = [-1, 0]  # the scale and pi at it

    def pi(w: int) -> int:
        if w > known[0]:
            known[:] = w + _PI_HEADROOM, _pi(w + _PI_HEADROOM)
        return known[1] >> known[0] - w

    return pi


def gamma_quarter(w: int, pi: Callable[[int], int] = _pi) -> int:
    """Gamma(1/4) at scale 2^-w, from Gamma(1/4)^2 = (2 pi)^{3/2} / agm(sqrt 2, 1)."""
    g = w + 16
    two_pi = pi(g) << 1
    agm = _agm(_root(2 << g, 2, g), 1 << g)
    return _root(two_pi * _root(two_pi, 2, g) // agm, 2, g) >> 16


def gamma_three_quarters(w: int, pi: Callable[[int], int] = _pi) -> int:
    """Gamma(3/4) at scale 2^-w, by reflection: Gamma(1/4) Gamma(3/4) = pi sqrt(2)."""
    g = w + 16
    return pi(g) * _root(2 << g, 2, g) // gamma_quarter(g, pi) >> 16


# ---------------------------------------------------------------------------
# printing: the reports' decimal strings


def _trim(man: int, exp: int, prec: int, up: bool = False) -> tuple[int, int]:
    """man 2^exp, man > 0, cut to prec bits: toward zero, or away from zero
    when up."""
    cut = man.bit_length() - prec
    if cut <= 0:
        return man, exp
    return (man >> cut) + (up and man & ((1 << cut) - 1) > 0), exp + cut


def _div(a: int, ea: int, b: int, eb: int, prec: int, up: bool = False) -> tuple[int, int]:
    """(a 2^ea) / (b 2^eb), a, b > 0, cut to prec bits as _trim does: the
    quotient keeps at least prec + 1 bits and a sticky bit for the remainder."""
    k = max(prec + b.bit_length() - a.bit_length() + 2, 0)
    q, rem = divmod(a << k, b)
    return _trim(2 * q + (rem > 0), ea - eb - k - 1, prec, up)


def _pow10(n: int, prec: int, up: bool) -> tuple[int, int]:
    """10^n cut to prec bits for n >= 334, as _digits' source cuts it:
    binary powering with every product cut to prec + 4 bitlen(n) + 4 bits,
    then to prec, all toward zero or all away from it."""
    wp = prec + 4 * n.bit_length() + 4
    man, exp, pm, pe = 5, 1, 1, 0
    while True:
        if n & 1:
            pm, pe = _trim(pm * man, pe + exp, wp, up)
            n -= 1
            if not n:
                return _trim(pm, pe, prec, up)
        man, exp = _trim(man * man, 2 * exp, wp, up)
        n //= 2


def _ln2_ln10(p: int) -> tuple[int, int]:
    """ln 2 and ln 10 cut to p bits toward zero: their mantissas, at scales
    2^-p and 2^-(p-2)."""
    w = p + 32
    one = 1 << w
    ln2 = 2 * _atanh(one // 3, w)
    ln10 = 3 * ln2 + 2 * _atanh(one // 9, w)
    return ln2 >> 32, ln10 >> 34


def _digits(man: int, exp: int, dps: int) -> tuple[str, int]:
    """The first decimal digits of man 2^exp < 2^3500, man > 0 odd, rounded
    down, and the decimal exponent of the first: bitprec = dps log2(10) + 10
    bits of the value in fixed point, times 10^fixdps.

    Below 2^-3500, the value is first divided by 10^b, with
    b = int(exp ln2 / ln10) from ln2 and ln10 cut to bitlen(exp) + 5 bits:
    10^b is 1 over 10^-b cut up to bitprec + 5 bits, and it and the quotient
    are cut to bitprec bits toward zero.
    """
    bitprec = int(dps * math.log(10, 2)) + 10
    e10 = 0
    if exp + man.bit_length() < -3500:
        l2, l10 = _ln2_ln10((-exp).bit_length() + 5)
        e10 = -(-exp * l2 // (4 * l10))
        ten = _div(1, 0, *_pow10(-e10, bitprec + 5, True), bitprec)
        man, exp = _div(man, exp, *ten, bitprec)
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10**fixdps >> fixprec)
    return digits, e10 + len(digits) - fixdps - 1


def _nstr(man: int, exp: int, n: int) -> str:
    """man 2^exp printed with n significant digits, as the reports have
    always printed their values.

    The value is rounded to the nearest 256-bit float (ties to even); its
    first n + 3 digits are taken rounded down (_digits) and cut to n, the
    n-th rounded half up; the digits are laid out in fixed notation for a
    decimal exponent between min(-n/3, -5) and n, else as d.ddd e+-x, with
    trailing zeros dropped. This is, step for step, the printing routine of
    the arbitrary-precision library the reports were first made with, which
    tests/test_numeric.py keeps as the oracle.
    """
    if not man:
        return "0.0"
    sign = "-" if man < 0 else ""
    man = abs(man)
    cut = man.bit_length() - _PRINT_BITS
    if cut > 0:
        rest = man & ((1 << cut) - 1)
        man, exp = man >> cut, exp + cut
        half = 1 << (cut - 1)
        man += rest > half or (rest == half and man & 1)
    zeros = (man & -man).bit_length() - 1
    digits, e10 = _digits(man >> zeros, exp + zeros, n + 3)
    if len(digits) > n and digits[n] in "56789":
        digits = str(int(digits[:n]) + 1)
        if len(digits) > n:  # 99...9 rounded up to 10...0
            digits, e10 = digits[:n], e10 + 1
    else:
        digits = digits[:n]
    split = 1
    if min(-(n // 3), -5) < e10 < n:
        if e10 < 0:
            digits = "0" * -e10 + digits
        else:
            split = e10 + 1
        e10 = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    return sign + digits + (f"e{e10:+d}" if e10 else "")


# ---------------------------------------------------------------------------
# the two term families


class Route(Record):
    """c0 + c1 * (t_1 + t_2 + ...) at x = point(w).

    point(w) is x at scale 2^-w (a special value's point also takes the
    check's pi source, see _pi_once). partial(point, n, wp) is
    t_1 + ... + t_n at x = point, at scale 2^-wp, within 2 ulps for the
    points here (see _lambert_sum and _theta). log2_tail(l, k) is log2 of a
    proved bound on sum_{j>=k} |t_j| whenever log2|x| <= l (inf where none
    holds).
    """

    __slots__ = _fields = ("point", "partial", "log2_tail", "c0", "c1")

    def __init__(
        self,
        point: Callable[[int], int],
        partial: Callable[[Callable[[int], int], int, int], int],
        log2_tail: Callable[[float, int], float],
        c0: int = 1,
        c1: int = 1,
    ):
        for name, value in zip(self._fields, (point, partial, log2_tail, c0, c1)):
            object.__setattr__(self, name, value)

    def stop(self, log2_x: float, bits: int) -> tuple[int, float]:
        """The first N with |c1| * tail bound from N < 2^-bits; log2 of that.

        Found by galloping N = 1, 2, 4, ... to the first power of two that
        meets the target, then bisecting below it, which is the first N
        because "meets the target" is monotone in N: once it holds, it holds
        for every larger N. Each log2_tail here is infinite or nonincreasing
        in k. The theta bound 1 + e_k log2|x| - log2(1 - |x|) falls as the
        exponents e_k rise. The Lambert bound is infinite while the ratio
        r_k = (1+1/k)^s |x| is at least 1; r_k falls with k, and once r_k < 1
        the bound's -log2(1 - r_k) falls, and s log2 k + k log2|x| changes by
        log2 r_k < 0 from k to k + 1. Near the target the bound falls by
        about -log2|x| per step, far more than its float rounding.
        """

        def bound(n):
            return math.log2(abs(self.c1)) + self.log2_tail(log2_x, n)

        hi = 1
        while not bound(hi) < -bits:
            hi *= 2
        lo = hi // 2  # misses the target, or is 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bound(mid) < -bits:
                hi = mid
            else:
                lo = mid
        return hi, bound(hi)


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
    tail bound C k^s |x|^k / (1 - (1+1/k)^s |x|). The partial sums are
    summed as power series in x with integer coefficients (_lambert_sum).
    """
    a = _A[r]

    def partial(point, n, wp):
        w = wp + (s + 1) * n.bit_length() + 8
        return _lambert_sum(kind, r, s, point(w), n, w) >> (w - wp)

    def log2_tail(log2_x, k):
        u = 2.0**log2_x
        ratio = (1 + 1 / k) ** s * u
        if ratio >= 1:
            return math.inf
        return math.log2(a(u) / u / (1 - ratio)) + s * math.log2(k) + k * log2_x

    return Route(point, partial, log2_tail, c0, c1)


def _unit_lambert(ring: str, letter: str, point) -> Route:
    """The generator 1 + c1 sum sigma_s(n) x^n of generators.generator, with
    (kind, s) = GENERATORS[ring, letter] and c1 = 1/boundary_value(kind, s),
    an integer for every generator."""
    kind, s = GENERATORS[ring, letter]
    return _lambert(kind, 0, s, point, c1=int(1 / boundary_value(kind, s)))


def _lambert_coefficients(kind: DivisorKind, r: int, s: int, n: int, m_max: int) -> list[int]:
    """[c_0, ..., c_M] for M = m_max, where sum_{d<=n} sgn(d) d^s A(x^d) of
    _lambert is sum_{m>=1} c_m x^m.

    c_m sums d^s (m/d)^r over the divisors d <= n of m, signed by (-1)^(d-1)
    for TILDE and by (-1)^(m/d-1) for HAT, since there
    A(y) = -A_r(-y) = sum_k (-1)^(k-1) k^r y^k. Over all divisors of m that is
    the q^m coefficient of divisors.lambert(kind, r, s, m_max); the divisors
    d > n are then taken out again.
    """
    c = list(lambert(kind, r, s, m_max).nums)
    for d in range(n + 1, m_max + 1):
        ds = -(d**s) if kind is TILDE and d % 2 == 0 else d**s
        for k in range(1, m_max // d + 1):
            c[d * k] -= -ds * k**r if kind is HAT and k % 2 == 0 else ds * k**r
    return c


def _lambert_sum(kind: DivisorKind, r: int, s: int, x: int, n: int, w: int) -> int:
    """The first n terms sgn(d) d^s A(x^d) of _lambert at x 2^-w, |x| < 2^w,
    at scale 2^-w and within 2^b + 1 ulps for b = (s+1) bitlen(n): the
    budget of the b + 8 guard bits that _lambert's partial adds to wp before
    it rounds the sum down to scale 2^-wp, which leave 2^-8 ulps of 2^-wp.

    The sum is sum_{m>=1} c_m x^m with the integer c_m of
    _lambert_coefficients, cut after x^M and summed by _power_sum within
    2^(b-1) + 1 ulps.

    The cut: |c_m| <= m^r sum_{d<=n} d^s <= m^r n^(s+1), and past k = M + 1
    consecutive bounds m^r |x|^m have ratio at most (1+1/k)^r |x|, so the
    terms past x^M sum to at most n^(s+1) k^r |x|^k / (1 - (1+1/k)^r |x|).
    M is the first for which that is at most 2^(b-1) ulps of 2^-w, with
    log2|x| rounded up as in check_special.
    """
    ax = abs(x)
    if not n or not ax:
        return 0
    b = (s + 1) * n.bit_length()
    log2_x = math.log2(ax) - w + _LOG2_SLACK
    if log2_x >= 0:
        raise ValueError("_lambert_sum needs log2|x| + 2^-20 < 0")
    log2_c = (s + 1) * math.log2(n) + w - b + 1  # the cut's target is 2^(b-1-w)

    def log2_cut(k):
        ratio = (1 + 1 / k) ** r * 2.0**log2_x
        if ratio >= 1:
            return math.inf
        return log2_c + r * math.log2(k) + k * log2_x - math.log2(1 - ratio)

    k = max(1, int(log2_c / -log2_x))  # no smaller k meets the target
    while not log2_cut(k) <= 0:
        k += 1
    return _power_sum(_lambert_coefficients(kind, r, s, n, k - 1), x, w, b)


def _power_sum(c: list[int], x: int, w: int, b: int) -> int:
    """sum_m c_m x^m for the ints c = [c_0, ..., c_M] at x 2^-w, at scale
    2^-w and within 2^(b-1) + 1 ulps, for |x| 2^-w <= 1 - 2^-(w-b+2).

    The sum runs at scale 2^-W, W = w - b + g, by rectangular splitting
    (Paterson-Stockmeyer, SIAM J. Comput. 2, 1973; Smith, ACM TOMS 15,
    1989): for J = isqrt(M) + 1, the powers p_j of x^j (j <= J) each come
    from the one before by one product with x, rounded down; block i is
    B_i = sum_{j<J} c_{iJ+j} p_j, exact products of a small int and a big
    one; and Horner's rule S_i = S_{i+1} G 2^-W + B_i, rounded down, with
    G = p_J, sums the K = M//J + 1 blocks. That is J + K full products,
    about 2 sqrt(M), and no division.

    Rounding, in ulps of 2^-W, for nu = 1/(1 - |x|) and rho = |x|^J: p_j is
    within e_j < nu of x^j (e_j <= |x| e_{j-1} + 1, e_0 = 0), so B_i is
    within nu alpha_i of its exact value, alpha_i = sum_{j<J} |c_{iJ+j}|. A
    Horner step adds its rounding (below 1), B_i's error, and e_J times
    |S_{i+1}| 2^-W <= sum_{l>i} alpha_l rho^(l-i-1) plus S_{i+1}'s own
    error; every later step scales what a step adds by x^J, and
    sum_i rho^i <= nu. So the error is at most
        E = 2 nu (1 + alpha_0 + sum_{i>=1} (i + rho) rho^(i-1) alpha_i),
    the 2 covering the errors' feedback through |S_{i+1}| while
    nu^2 <= 2^(W-1), which holds when nu <= 2^(w-b+2), as 2^g > 8 nu. E is
    evaluated in floats and g is its binary exponent plus 2, so that 2E is
    below 2^(g-1) with a factor 2 to spare for their rounding: S_0 is within
    2^(b-1) ulps of 2^-w of the sum, and bringing S_0 to scale 2^-w adds at
    most one more.
    """
    ax = abs(x)
    if ax << 2 > (1 << w + 2) - (1 << b):
        raise ValueError("_power_sum needs |x| 2^-w <= 1 - 2^-(w-b+2)")
    if not c:
        return 0
    nu = (1 << w) / ((1 << w) - ax)
    j = math.isqrt(len(c) - 1) + 1
    blocks = [c[i : i + j] for i in range(0, len(c), j)]
    alpha = [float(sum(map(abs, blk))) for blk in blocks]
    rho = (ax / (1 << w)) ** j
    e = 1 + alpha[0] + sum((i + rho) * rho ** (i - 1) * a for i, a in enumerate(alpha[1:], 1))
    big_w = w - b + math.frexp(2 * nu * e)[1] + 2
    powers = [1 << big_w]
    for _ in range(j):
        powers.append(powers[-1] * x >> w)
    total = 0
    for blk in reversed(blocks):
        total = (total * powers[j] >> big_w) + sum(map(operator.mul, blk, powers))
    return total << w - big_w if w >= big_w else total >> big_w - w


def _theta_exponents(u: int, v: int):
    """The exponents e(k), k != 0, of _theta(u, v) in increasing order.

    Side k >= 1 steps from e(k-1) to e(k) by u k + v (k-1), each step u + v
    more than the one before; side k <= -1 likewise with u and v swapped.
    """
    nxt, step = [u, v], [u, v]
    while True:
        side = 0 if nxt[0] <= nxt[1] else 1
        yield nxt[side]
        step[side] += u + v
        nxt[side] += step[side]


def _theta(u: int, v: int, point) -> Route:
    """Ramanujan's f(x^u, x^v) = sum_{k in Z} x^e(k), u, v >= 1, for the
    exponent e(k) = u k(k+1)/2 + v k(k-1)/2; the k = 0 term is c0 = 1.

    e(k) and e(-k) are each strictly increasing integers for k >= 1. The
    terms for k != 0 come in increasing order of e, both sides merged, so the
    exponents left from the k-th term e_k on are, on each side, distinct
    integers >= e_k: the tail bound is 2 |x|^e_k / (1 - |x|). The partial
    sum of the first n terms is the power series with coefficient c_e the
    number of e_k = e, k <= n, summed by _power_sum with b = 1 at 9 bits past
    wp: within 2 ulps there, below one ulp of 2^-wp before the final
    rounding down.
    """
    exponents = _theta_exponents(u, v)
    known: list[int] = []  # the exponents so far: e_k is known[k - 1]

    def first(n):
        """e_1, ..., e_n."""
        known.extend(islice(exponents, max(n - len(known), 0)))
        return known[:n]

    def partial(point, n, wp):
        es = first(n)
        c = [0] * (es[-1] + 1 if es else 0)
        for e in es:
            c[e] += 1
        return _power_sum(c, point(wp + 9), wp + 9, 1) >> 9

    def log2_tail(log2_x, k):
        return 1 + first(k)[-1] * log2_x - math.log2(1 - 2.0**log2_x)

    return Route(point, partial, log2_tail)


# ---------------------------------------------------------------------------
# the closed forms


# each base at scale 2^-w, given w and a pi(w) such as _pi, within 50 ulps
# (e^pi: pi's 2 ulps times e^pi), far inside _CLOSED_GUARD; the radicals as
# sums of k^(1/n)
_BASES: dict[str, Callable[[int, Callable[[int], int]], int]] = {
    "two": lambda w, pi: 2 << w,
    "three": lambda w, pi: 3 << w,
    "pi": lambda w, pi: pi(w),
    "gamma": gamma_three_quarters,  # Gamma(3/4)
    "e_pi": lambda w, pi: _exp(pi(w), w),
    # 1 + sqrt3 + sqrt2 3^(1/4)
    "a": lambda w, pi: (1 << w) + _root(3 << w, 2, w) + _root(12 << w, 4, w),
    # 2 sqrt3 - 3
    "b": lambda w, pi: _root(12 << w, 2, w) - (3 << w),
    # 1 + sqrt3 + sqrt2 3^(3/4)
    "c": lambda w, pi: (1 << w) + _root(3 << w, 2, w) + _root(108 << w, 4, w),
    # 2 + sqrt3 + (sqrt2 + sqrt6)/2 3^(3/4) = 2 + sqrt3 + (27/4)^(1/4) + (243/4)^(1/4)
    "d": lambda w, pi: (2 << w) + _root(3 << w, 2, w) + _root(27 << w - 2, 4, w)
    + _root(243 << w - 2, 4, w),
    "rt3p1": lambda w, pi: (1 << w) + _root(3 << w, 2, w),  # 1 + sqrt3
}


def _closed(coeff, **powers) -> Callable[..., int]:
    """coeff * prod base^power over the named _BASES, as a function of w
    (and of the pi source, _pi by default) returning the value at scale 2^-w.

    Each power n/d is the base's d-th root raised to |n|, multiplied into a
    numerator or a denominator, and the quotient is taken once. All of it
    runs _CLOSED_GUARD bits below the result: with bases of size 1/4 to 32
    and |n| <= 16, the products' errors stay far inside those bits.
    """
    coeff = Fraction(coeff)
    factors = [(_BASES[name], Fraction(p)) for name, p in powers.items()]

    def closed(w: int, pi: Callable[[int], int] = _pi) -> int:
        g = w + _CLOSED_GUARD
        num, den = coeff.numerator << g, coeff.denominator << g
        for base, p in factors:
            k = abs(p.numerator)
            f = _root(base(g, pi), p.denominator, g) ** k >> (k - 1) * g
            if p > 0:
                num = num * f >> g
            else:
                den = den * f >> g
        return (num << w) // den

    return closed


_PREF = {"pi": "1/4", "gamma": -1}  # pi^(1/4) / Gamma(3/4)


# ---------------------------------------------------------------------------
# the special values


class SpecialValue(Record):
    __slots__ = _fields = ("id", "statement", "source", "route", "closed", "zero_target", "note")

    def __init__(
        self,
        id: str,
        statement: str,
        source: str,
        route: Route,
        closed: Callable[..., int],  # w[, pi] -> the closed form at scale 2^-w
        zero_target: bool = False,  # compare absolutely when the target is 0
        note: Optional[str] = None,
    ):
        values = (id, statement, source, route, closed, zero_target, note)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


def _point(k: int, sign: int = 1) -> Callable[..., int]:
    """x = sign e^(-k pi) at scale 2^-w, as a function of w (and of the pi
    source, _pi by default)."""
    return lambda w, pi=_pi: sign * _exp(-k * pi(w), w)


def _specials() -> dict[str, SpecialValue]:
    out: list[SpecialValue] = []

    def add(*fields, **named):
        out.append(SpecialValue(*fields, **named))

    x_neg_pi = _point(1, -1)

    # signed Eisenstein values at q = -e^{-pi}
    add(
        "hahn.P",
        "P~(-e^{-pi}) = 2/pi",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        _unit_lambert("hahn", "P", x_neg_pi),
        _closed(2, pi=-1),
    )
    add(
        "hahn.E",
        "E~(-e^{-pi}) = 0",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        _unit_lambert("hahn", "E", x_neg_pi),
        _closed(0),
        zero_target=True,
    )
    add(
        "hahn.Q",
        "Q~(-e^{-pi}) = pi^2 / Gamma(3/4)^8",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        _unit_lambert("hahn", "Q", x_neg_pi),
        _closed(1, pi=2, gamma=-8),
    )
    add(
        "hahn.R",
        "R~(-e^{-pi}) = 0",
        "signed Eisenstein evaluation (cf. Hahn 2007)",
        _unit_lambert("hahn", "R", x_neg_pi),
        _closed(0),
        zero_target=True,
    )

    # classical Q at the companion points
    add(
        "classical.Q_2pi",
        "Q(e^{-2pi}) = 3 pi^2 / (4 Gamma(3/4)^8)",
        "Ramanujan; Berndt, Notebooks (values at e^{-2pi})",
        _unit_lambert("classical", "Q", _point(2)),
        _closed("3/4", pi=2, gamma=-8),
    )
    add(
        "classical.Q_neg_pi",
        "Q(-e^{-pi}) = -3 pi^2 / Gamma(3/4)^8",
        "Ramanujan; Berndt, Notebooks (companion value at -e^{-pi})",
        _unit_lambert("classical", "Q", x_neg_pi),
        _closed(-3, pi=2, gamma=-8),
        note=(
            "equals -4 Q(e^{-2pi}); printed chains sometimes end with the "
            "e^{-2pi} value itself, a transcription slip"
        ),
    )

    # weighted signed Lambert sums at q = -e^{-pi}
    quarter_over_pi = _closed("1/4", pi=-1)
    phi_cases = [
        ("ct5.phi01", 0, 1, "Phi~_{0,1}(-e^{-pi}) = 1/(4 pi) - 1/8",
         lambda w, pi=_pi: quarter_over_pi(w, pi) - (1 << w >> 3), None),
        ("ct5.phi05", 0, 5, "Phi~_{0,5}(-e^{-pi}) = -1/8", _closed("-1/8"), None),
        ("ct5.phi16", 1, 6, "Phi~_{1,6}(-e^{-pi}) = -pi^4 / (16 Gamma(3/4)^16)",
         _closed("-1/16", pi=4, gamma=-16), None),
        ("ct5.phi27", 2, 7, "Phi~_{2,7}(-e^{-pi}) = -7 pi^3 / (16 Gamma(3/4)^16)",
         _closed("-7/16", pi=3, gamma=-16), None),
        ("ct5b.phi09", 0, 9, "Phi~_{0,9}(-e^{-pi}) = -31/8", _closed("-31/8"), None),
        ("ct5b.phi013", 0, 13, "Phi~_{0,13}(-e^{-pi}) = -5461/8", _closed("-5461/8"),
         "the value is negative; a positive rendering seen in print is a slip"),
    ]
    for id_, r_, s_, stmt, closed, note in phi_cases:
        add(
            id_,
            stmt,
            "signed weighted Lambert sums at q = -e^{-pi}",
            _lambert(TILDE, r_, s_, x_neg_pi, c0=0),
            closed,
            note=note,
        )

    # psi values: psi(x) = sum_{k>=0} x^{k(k+1)/2} = f(x, x^3)
    theta_source = "theta evaluations in Gamma(3/4) radicals (Yi-Lee-Paek 2013 style)"
    add(
        "l2.psi3pi",
        "psi(e^{-3pi}) = 2^{-1/8} 3^{-3/8} e^{3pi/8} (1 + sqrt2 3^{1/4} + sqrt3)^{-1/2} pi^{1/4}/Gamma(3/4)",
        theta_source,
        _theta(1, 3, _point(3)),
        _closed(1, two="-1/8", three="-3/8", e_pi="3/8", a="-1/2", **_PREF),
    )
    add(
        "l2.psi3pi_neg",
        "psi(-e^{-3pi}) = 2^{-3/4} 3^{-1/2} e^{3pi/8} (2 sqrt3 - 3)^{1/4} pi^{1/4}/Gamma(3/4)",
        theta_source,
        _theta(1, 3, _point(3, -1)),
        _closed(1, two="-3/4", three="-1/2", e_pi="3/8", b="1/4", **_PREF),
    )
    add(
        "l3.psi6pi",
        "psi(e^{-6pi}) = e^{3pi/4} 3^{-3/8} (sqrt3+1)^{-5/6} (1+sqrt3+sqrt2 3^{3/4})^{-2/3} pi^{1/4}/Gamma(3/4)",
        theta_source,
        _theta(1, 3, _point(6)),
        _closed(1, e_pi="3/4", three="-3/8", rt3p1="-5/6", c="-2/3", **_PREF),
    )

    # eps values: eps(x) = sum_{k in Z} x^{k(3k+1)/2} = f(x, x^2)
    add(
        "t6.eps_plus",
        "eps(e^{-pi}) = 2^{-9/8} 3^{-3/8} e^{pi/24} (1+sqrt3+sqrt2 3^{3/4}) (1+sqrt3+sqrt2 3^{1/4})^{-1/2} pi^{1/4}/Gamma(3/4)",
        theta_source,
        _theta(1, 2, _point(1)),
        _closed(1, two="-9/8", three="-3/8", e_pi="1/24", c=1, a="-1/2", **_PREF),
    )
    add(
        "t6.eps_minus",
        "eps(-e^{-pi}) = 2^{-3/4} 3^{-1/2} e^{pi/24} (1+sqrt3) (2 sqrt3 - 3)^{1/4} pi^{1/4}/Gamma(3/4)",
        theta_source,
        _theta(1, 2, x_neg_pi),
        _closed(1, two="-3/4", three="-1/2", e_pi="1/24", rt3p1=1, b="1/4", **_PREF),
    )
    add(
        "t7.eps_2pi",
        "eps(e^{-2pi}) = e^{pi/12} (2+sqrt3+(sqrt2+sqrt6)/2 3^{3/4}) / (3^{3/8} (sqrt3+1)^{5/6} (1+sqrt3+sqrt2 3^{3/4})^{2/3}) pi^{1/4}/Gamma(3/4)",
        theta_source,
        _theta(1, 2, _point(2)),
        _closed(1, e_pi="1/12", d=1, three="-3/8", rt3p1="-5/6", c="-2/3", **_PREF),
    )

    # f(e^{-pi}, e^{-5pi}) = f(x, x^5) at x = e^{-pi}
    add(
        "t8.f15",
        "f(e^{-pi}, e^{-5pi}) = 2^{-5/4} 3^{-3/8} e^{pi/3} (sqrt3+1)^{5/6} (1+sqrt3+sqrt2 3^{3/4})^{5/3} / ((1+sqrt3+sqrt2 3^{1/4})(2+sqrt3+(sqrt2+sqrt6)/2 3^{3/4})) pi^{1/4}/Gamma(3/4)",
        theta_source,
        _theta(1, 5, _point(1)),
        _closed(1, two="-5/4", three="-3/8", e_pi="1/3", rt3p1="5/6", c="5/3", a=-1, d=-1,
                **_PREF),
    )

    return {sv.id: sv for sv in out}


SPECIALS: dict[str, SpecialValue] = _specials()


def check_special(id_: str, precision: int) -> dict:
    """Compare the defining sum with the closed form at `precision` bits.

    Both sides are ints at one scale 2^-wp, with wp 64 bits past the proved
    tail bound at which the sum is cut, itself below 2^-(precision+16) (see
    the module docstring). Passes when the relative error (absolute, for
    zero targets) is below 2^-(precision-32). Returns a JSON-ready report,
    its values printed by _nstr. Precisions below MIN_PRECISION raise
    ValueError.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} bits, got {precision}")
    if id_ not in SPECIALS:
        known = ", ".join(sorted(SPECIALS))
        raise KeyError(f"unknown special value {id_!r}; known ids: {known}")
    sv = SPECIALS[id_]
    route = sv.route
    pi = _pi_once()

    def point(w: int) -> int:
        return route.point(w, pi)

    log2_x = _log2(point) + _LOG2_SLACK
    n, log2_bound = route.stop(log2_x, precision + _STOP_MARGIN)
    wp = math.ceil(-log2_bound) + _GUARD_BITS
    got = (route.c0 << wp) + route.c1 * route.partial(point, n - 1, wp)
    want = sv.closed(wp, pi)
    abs_err = abs(got - want)
    rel_err = _div(abs_err, -wp, abs(want), -wp, 2 * _PRINT_BITS) if want else (abs_err, -wp)
    scale = 1 << wp if sv.zero_target else abs(want)
    report = {
        "id": id_,
        "precision_bits": precision,
        # a zero target's sum is its residual, +-abs_err: print it as such
        "series_value": _nstr(got, -wp, 8 if sv.zero_target else 30),
        "closed_form": _nstr(want, -wp, 30),
        "abs_err": _nstr(abs_err, -wp, 8),
        "rel_err": _nstr(*rel_err, 8),
        "status": "pass" if abs_err << (precision - _PASS_MARGIN) < scale else "fail",
    }
    if sv.note:
        report["note"] = sv.note
    return report


def check_all_specials(precision: int) -> list[dict]:
    return [check_special(id_, precision) for id_ in sorted(SPECIALS)]
