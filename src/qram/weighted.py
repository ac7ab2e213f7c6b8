"""Graded polynomial algebra in the Eisenstein generators, with derivations.

Two rings share one representation, the layout of series.Series: Python-int
numerators keyed by exponent tuples (i, j, k, l), over one positive common
denominator, in lowest terms. The algebra runs on the ints.

    classical: P^i Q^k R^l          (the j slot is padding, always 0)
    hahn:      P^i E^j Q^k R^l      (the signed-divisor generators; printed with
                                     script letters)

Weights are w(P) = w(E) = 2, w(Q) = 4, w(R) = 6, so a term's weight is
2i + 2j + 4k + 6l. The scaled Euler operator c*q*d/dq acts through
DerivationRules via the Leibniz rule and raises weight by exactly 2.

ratio_poly re-derives the family ratio polynomials (T_2n/T_0 and friends) by
the recurrence r_{n+1} = r_n*g + D(r_n); phi_poly re-derives the double
Lambert-sum tables from their degree-one base cases. In the hahn ring the
generators satisfy the relation R = E*Q, so results are put in a canonical
form that greedily rewrites E*Q pairs into R (matching how the source
identities are conventionally written); series evaluation provides the
representation-independent ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import generators as G
from . import series as S
from .divisors import DivisorKind, boundary_value

Exps = tuple[int, int, int, int]

_GEN_EXPS: dict[str, Exps] = {
    "P": (1, 0, 0, 0),
    "E": (0, 1, 0, 0),
    "Q": (0, 0, 1, 0),
    "R": (0, 0, 0, 1),
}
_WEIGHTS = (2, 2, 4, 6)


@dataclass(frozen=True)
class WeightedPoly:
    """nums[exps] / den is the coefficient of the monomial with exponents exps.

    Construction drops zero numerators and reduces to lowest terms, den > 0
    and gcd(den, *nums) == 1, so equal fields mean equal polynomials.
    """

    ring: str  # "classical" or "hahn"
    nums: Mapping[Exps, int] = field(default_factory=dict)
    den: int = 1

    def __post_init__(self):
        if self.ring not in ("classical", "hahn"):
            raise ValueError(f"unknown ring {self.ring!r}")
        if self.den == 0:
            raise ZeroDivisionError("WeightedPoly denominator is zero")
        nums = {e: c for e, c in self.nums.items() if c}
        if self.ring == "classical" and any(e[1] for e in nums):
            raise ValueError("classical ring has no second generator (j must be 0)")
        g = math.gcd(self.den, *nums.values()) * (1 if self.den > 0 else -1)
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", self.den // g)

    @property
    def terms(self) -> dict[Exps, Fraction]:
        """Read-only Fraction view, rebuilt on each access; the algebra uses nums/den."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    def __hash__(self):
        return hash((self.ring, frozenset(self.nums.items()), self.den))

    def is_zero(self) -> bool:
        return not self.nums

    def weights(self) -> set[int]:
        return {sum(w * e for w, e in zip(_WEIGHTS, exps)) for exps in self.nums}

    def homogeneous_weight(self) -> int | None:
        """The common weight of all terms, or None if inhomogeneous/zero."""
        ws = self.weights()
        return ws.pop() if len(ws) == 1 else None

    def __add__(self, other: "WeightedPoly") -> "WeightedPoly":
        self._check(other)
        den = math.lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        out = {e: c * ma for e, c in self.nums.items()}
        for e, c in other.nums.items():
            out[e] = out.get(e, 0) + c * mb
        return WeightedPoly(self.ring, out, den)

    def __sub__(self, other: "WeightedPoly") -> "WeightedPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "WeightedPoly":
        c = Fraction(c)
        nums = {e: c.numerator * v for e, v in self.nums.items()}
        return WeightedPoly(self.ring, nums, c.denominator * self.den)

    def __mul__(self, other: "WeightedPoly") -> "WeightedPoly":
        self._check(other)
        out: dict[Exps, int] = {}
        for (i, j, k, l), x in self.nums.items():
            for (i2, j2, k2, l2), y in other.nums.items():
                e = (i + i2, j + j2, k + k2, l + l2)
                out[e] = out.get(e, 0) + x * y
        return WeightedPoly(self.ring, out, self.den * other.den)

    def __pow__(self, n: int) -> "WeightedPoly":
        if n < 0:
            raise ValueError("negative power")
        out = constant(self.ring, 1)
        for _ in range(n):
            out = out * self
        return out

    def _check(self, other: "WeightedPoly") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), reverse=True)
        return {
            "ring": self.ring,
            "terms": [
                {"exps": list(e), "coeff": S.rational_str(c)} for e, c in items
            ],
        }

    def __repr__(self) -> str:
        return f"WeightedPoly({self.ring}, {pretty(self)!r})"


def from_terms(ring: str, terms: Mapping[Exps, int | Fraction]) -> WeightedPoly:
    """WeightedPoly from rational (int or Fraction) coefficients."""
    den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    return WeightedPoly(ring, {e: int(Fraction(c) * den) for e, c in terms.items()}, den)


def constant(ring: str, c) -> WeightedPoly:
    return from_terms(ring, {(0, 0, 0, 0): c})


def gen(ring: str, name: str) -> WeightedPoly:
    if ring == "classical" and name == "E":
        raise ValueError("classical ring generators are P, Q, R")
    return WeightedPoly(ring, {_GEN_EXPS[name]: 1})


@dataclass(frozen=True)
class DerivationRules:
    """Images of the generators under c * q * d/dq, plus the scale c.

    Each image must be weight-homogeneous of the generator's weight + 2; the
    constructor enforces this so a mistyped rule fails immediately.
    """

    ring: str
    scale: Fraction
    images: Mapping[str, WeightedPoly]

    def __post_init__(self):
        for name, img in self.images.items():
            want = _WEIGHTS["PEQR".index(name)] + 2
            got = img.homogeneous_weight()
            if not img.is_zero() and got != want:
                raise ValueError(
                    f"derivation image of {name} has weight {got}, expected {want}"
                )

    def rescaled(self, new_scale) -> "DerivationRules":
        new_scale = Fraction(new_scale)
        f = new_scale / self.scale
        return DerivationRules(
            self.ring, new_scale, {n: p.scale(f) for n, p in self.images.items()}
        )


# 12 q d/dq on the classical ring (Ramanujan's system, scale 12):
#   12qP' = P^2 - Q,  12qQ' = 4(PQ - R),  12qR' = 6(PR - Q^2)
CLASSICAL_RULES = DerivationRules(
    "classical",
    Fraction(12),
    {
        "P": WeightedPoly("classical", {(2, 0, 0, 0): 1, (0, 0, 1, 0): -1}),
        "Q": WeightedPoly("classical", {(1, 0, 1, 0): 4, (0, 0, 0, 1): -4}),
        "R": WeightedPoly("classical", {(1, 0, 0, 1): 6, (0, 0, 2, 0): -6}),
    },
)

# 4 q d/dq on the hahn ring (scale 4):
#   4qP' = P^2 - Q,  4qE' = 2(PE - Q),  4qQ' = 4(PQ - EQ),
#   4qR' = (1/2)(12PR - 4Q^2 - 8ER)     [note: NOT 6(PR - Q^2)]
HAHN_RULES = DerivationRules(
    "hahn",
    Fraction(4),
    {
        "P": WeightedPoly("hahn", {(2, 0, 0, 0): 1, (0, 0, 1, 0): -1}),
        "E": WeightedPoly("hahn", {(1, 1, 0, 0): 2, (0, 0, 1, 0): -2}),
        "Q": WeightedPoly("hahn", {(1, 0, 1, 0): 4, (0, 1, 1, 0): -4}),
        "R": WeightedPoly(
            "hahn",
            {(1, 0, 0, 1): 6, (0, 0, 2, 0): -2, (0, 1, 0, 1): -4},
        ),
    },
)


def derive(rules: DerivationRules, p: WeightedPoly) -> WeightedPoly:
    """Leibniz extension of the generator rules; equals scale * q d/dq of the
    corresponding series under eval_as_series. Every c * m * (image term) is
    added in place, over p.den times the images' common denominator."""
    if rules.ring != p.ring:
        raise ValueError(f"ring mismatch: rules are {rules.ring}, poly is {p.ring}")
    den = math.lcm(*(img.den for img in rules.images.values()))
    out: dict[Exps, int] = {}
    for exps, c in p.nums.items():
        for pos, name in enumerate("PEQR"):
            m = exps[pos]
            if m == 0 or name not in rules.images:
                continue
            image = rules.images[name]
            i, j, k, l = exps[:pos] + (m - 1,) + exps[pos + 1 :]
            cm = c * m * (den // image.den)
            for (di, dj, dk, dl), v in image.nums.items():
                e = (i + di, j + dj, k + dk, l + dl)
                out[e] = out.get(e, 0) + cm * v
    return WeightedPoly(p.ring, out, p.den * den)


def canonicalize(p: WeightedPoly) -> WeightedPoly:
    """Rewrite E^j Q^k factors into R^min(j,k) pairs (hahn relation R = EQ).

    Greedy: every E*Q pair becomes an R. Identity on the classical ring.
    """
    if p.ring != "hahn":
        return p
    out: dict[Exps, int] = {}
    for (i, j, k, l), c in p.nums.items():
        m = min(j, k)
        e = (i, j - m, k - m, l + m)
        out[e] = out.get(e, 0) + c
    return WeightedPoly("hahn", out, p.den)


# family -> (ring, derivation scale, logarithmic-derivative base g)
_FAMILY_SETUP = {
    "T": ("classical", 24, {(1, 0, 0, 0): 1}),
    "F": ("classical", 8, {(1, 0, 0, 0): 1}),
    "psi": ("hahn", 8, {(1, 0, 0, 0): 1}),
    "eps": ("hahn", 24, {(1, 0, 0, 0): 9, (0, 1, 0, 0): -8}),
}

_BASE_RULES = {"classical": CLASSICAL_RULES, "hahn": HAHN_RULES}


def family_rules(fam: str) -> DerivationRules:
    ring, c, _ = _FAMILY_SETUP[fam]
    return _BASE_RULES[ring].rescaled(c)


def ratio_poly(fam: str, n: int) -> WeightedPoly:
    """The ratio polynomial of index n for a family.

    Index meaning: T_{2n}/T_0, F_{2n}/F_0, psi_{2n}/psi_0, eps_{2n+1}/eps_1.

    Derivation: the family recurrence c*q*X_m' = X_{m+2} - X_m plus the base
    ratio X_2/X_0 = g turn into r_{n+1} = r_n*g + D(r_n) for the ratios
    r_n = X_{2n}/X_0, where D is the scaled derivation. Output is canonical
    (E*Q pairs rewritten to R in the hahn ring); weight-homogeneous of 2n.
    """
    if fam not in _FAMILY_SETUP:
        raise KeyError(f"ratio_poly: unknown family {fam!r}")
    if n < 0:
        raise ValueError("ratio_poly: n must be >= 0")
    ring, _, gspec = _FAMILY_SETUP[fam]
    g = WeightedPoly(ring, gspec)
    rules = family_rules(fam)
    r = constant(ring, 1)
    for _ in range(n):
        r = r * g + derive(rules, r)
    return canonicalize(r)


def phi_poly(variant: str, r: int, s: int) -> WeightedPoly:
    """Polynomial expression for Phi_{r,s} (plain ring) or Phi~_{r,s} (hahn).

    Supported when s >= r >= 0 and s - r in {1, 3, 5} (so a degree-one base
    case exists; r + s is then odd and the weight is the even number r+s+1).
    The base case is the generator X = P, Q, R of weight s - r + 1
    rearranged: X = (b + sum sigma_{s-r}(n) q^n)/b gives Phi_{0,s-r} =
    b X - b, with b = boundary_value of sigma_{s-r}, PLAIN for the
    classical ring and TILDE for the hahn ring. Computed as r applications
    of the weight-raising operator q d/dq, realized as (1/scale)*derive, to
    the base case.
    """
    if variant not in ("plain", "tilde") or r < 0 or s - r not in (1, 3, 5):
        raise ValueError(
            f"phi_poly: unsupported (variant, r, s) = ({variant}, {r}, {s}); "
            "need s >= r >= 0 with s - r in {1, 3, 5}"
        )
    ring = "classical" if variant == "plain" else "hahn"
    kind = DivisorKind.PLAIN if variant == "plain" else DivisorKind.TILDE
    b = boundary_value(kind, s - r)
    p = gen(ring, "PQR"[(s - r) // 2]).scale(b) + constant(ring, -b)
    rules = _BASE_RULES[ring]
    for _ in range(r):
        p = derive(rules, p).scale(Fraction(1) / rules.scale)
    return canonicalize(p)


# the classical generators expressed in the hahn ring, all with integer
# coefficients:  P = 3P~ - 2E~,  Q = 4E~^2 - 3Q~,  R = -8E~^3 + 9R~
_L1_IMAGES = {
    "P": WeightedPoly("hahn", {(1, 0, 0, 0): 3, (0, 1, 0, 0): -2}),
    "Q": WeightedPoly("hahn", {(0, 2, 0, 0): 4, (0, 0, 1, 0): -3}),
    "R": WeightedPoly("hahn", {(0, 3, 0, 0): -8, (0, 0, 0, 1): 9}),
}


def classical_to_hahn(p: WeightedPoly) -> WeightedPoly:
    """Substitute each classical generator by its hahn-ring expression.

    Takes a classical-ring polynomial and returns the equal hahn-ring one
    (the direction that rewrites P, Q, R in the signed-divisor generators).
    """
    if p.ring != "classical":
        raise ValueError("classical_to_hahn substitutes classical generators")
    out: dict[Exps, int] = {}
    for (i, _, k, l), c in p.nums.items():
        image = _L1_IMAGES["P"] ** i * _L1_IMAGES["Q"] ** k * _L1_IMAGES["R"] ** l
        for e, v in image.nums.items():  # image.den == 1: integer images
            out[e] = out.get(e, 0) + c * v
    return WeightedPoly("hahn", out, p.den)


def _generator_series(ring: str, order: int) -> dict[str, S.Series]:
    if ring == "classical":
        return {
            "P": G.eisenstein(1, order),
            "Q": G.eisenstein(2, order),
            "R": G.eisenstein(3, order),
        }
    return {name: G.hahn(name, order) for name in "PEQR"}


def eval_as_series(p: WeightedPoly, order: int) -> S.Series:
    """Substitute the generator q-expansions and expand to the given order.

    Each distinct monomial of degree >= 2 costs one S.mul, as its parent (last
    nonzero exponent lowered by one) times that generator; the terms are
    summed on the int numerators and divided by the denominator once.
    """
    gens = _generator_series(p.ring, order)
    table = {_GEN_EXPS[name]: g for name, g in gens.items()}
    table[(0, 0, 0, 0)] = S.one(order)

    def monomial(exps: Exps) -> S.Series:
        if exps not in table:
            pos = max(q for q, e in enumerate(exps) if e)
            parent = exps[:pos] + (exps[pos] - 1,) + exps[pos + 1 :]
            table[exps] = S.mul(monomial(parent), gens["PEQR"[pos]])
        return table[exps]

    total = S.zero(order)
    for exps, c in p.nums.items():
        total = S.add(total, S.scale(c, monomial(exps)))
    return S.scale(Fraction(1, p.den), total)


_LETTERS = {
    "classical": {"P": "P", "E": "?", "Q": "Q", "R": "R"},
    "hahn": {"P": "\U0001d4ab", "E": "ℰ", "Q": "\U0001d4ac", "R": "ℛ"},
}


def pretty(p: WeightedPoly, ascii_letters: bool = False) -> str:
    """Render like the classical tables: "15P^3 - 30PQ + 16R".

    hahn-ring generators print as script letters unless ascii_letters is set
    (then P~, E~, Q~, R~).
    """
    if p.is_zero():
        return "0"
    if ascii_letters and p.ring == "hahn":
        letters = {"P": "P~", "E": "E~", "Q": "Q~", "R": "R~"}
    else:
        letters = _LETTERS[p.ring]
    parts: list[str] = []
    for exps, c in sorted(p.terms.items(), reverse=True):
        mono = ""
        for name, e in zip("PEQR", exps):
            if e == 0:
                continue
            mono += letters[name] + (f"^{e}" if e > 1 else "")
        mag = S.rational_str(abs(c))
        if mono == "":
            body = mag
        elif mag == "1":
            body = mono
        elif c.denominator == 1:
            body = f"{mag}{mono}"
        else:
            body = f"({mag}){mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
