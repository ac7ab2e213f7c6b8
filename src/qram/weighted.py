"""Graded polynomial algebra in the Eisenstein generators, with derivations.

Two rings share one representation, a map from exponent tuples (i, j, k, l) to
Fraction coefficients:

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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import generators as G
from . import series as S

Exps = tuple[int, int, int, int]

_GEN_EXPS: dict[str, Exps] = {
    "P": (1, 0, 0, 0),
    "E": (0, 1, 0, 0),
    "Q": (0, 0, 1, 0),
    "R": (0, 0, 0, 1),
}
_WEIGHTS = (2, 2, 4, 6)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class WeightedPoly:
    ring: str  # "classical" or "hahn"
    terms: Mapping[Exps, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.ring not in ("classical", "hahn"):
            raise ValueError(f"unknown ring {self.ring!r}")
        clean = {}
        for exps, c in self.terms.items():
            c = _frac(c)
            if c == 0:
                continue  # no zero coefficients stored
            if self.ring == "classical" and exps[1] != 0:
                raise ValueError("classical ring has no second generator (j must be 0)")
            clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def weights(self) -> set[int]:
        return {sum(w * e for w, e in zip(_WEIGHTS, exps)) for exps in self.terms}

    def homogeneous_weight(self) -> int | None:
        """The common weight of all terms, or None if inhomogeneous/zero."""
        ws = self.weights()
        return ws.pop() if len(ws) == 1 else None

    def __add__(self, other: "WeightedPoly") -> "WeightedPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return WeightedPoly(self.ring, out)

    def __sub__(self, other: "WeightedPoly") -> "WeightedPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "WeightedPoly":
        c = _frac(c)
        return WeightedPoly(self.ring, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "WeightedPoly") -> "WeightedPoly":
        self._check(other)
        out: dict[Exps, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return WeightedPoly(self.ring, out)

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


def constant(ring: str, c) -> WeightedPoly:
    return WeightedPoly(ring, {(0, 0, 0, 0): _frac(c)})


def gen(ring: str, name: str) -> WeightedPoly:
    if ring == "classical" and name == "E":
        raise ValueError("classical ring generators are P, Q, R")
    return WeightedPoly(ring, {_GEN_EXPS[name]: Fraction(1)})


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
        new_scale = _frac(new_scale)
        f = new_scale / self.scale
        return DerivationRules(
            self.ring, new_scale, {n: p.scale(f) for n, p in self.images.items()}
        )


def _wp(ring: str, spec: dict[Exps, int | Fraction]) -> WeightedPoly:
    return WeightedPoly(ring, {e: _frac(c) for e, c in spec.items()})


# 12 q d/dq on the classical ring (Ramanujan's system, scale 12):
#   12qP' = P^2 - Q,  12qQ' = 4(PQ - R),  12qR' = 6(PR - Q^2)
CLASSICAL_RULES = DerivationRules(
    "classical",
    Fraction(12),
    {
        "P": _wp("classical", {(2, 0, 0, 0): 1, (0, 0, 1, 0): -1}),
        "Q": _wp("classical", {(1, 0, 1, 0): 4, (0, 0, 0, 1): -4}),
        "R": _wp("classical", {(1, 0, 0, 1): 6, (0, 0, 2, 0): -6}),
    },
)

# 4 q d/dq on the hahn ring (scale 4):
#   4qP' = P^2 - Q,  4qE' = 2(PE - Q),  4qQ' = 4(PQ - EQ),
#   4qR' = (1/2)(12PR - 4Q^2 - 8ER)     [note: NOT 6(PR - Q^2)]
HAHN_RULES = DerivationRules(
    "hahn",
    Fraction(4),
    {
        "P": _wp("hahn", {(2, 0, 0, 0): 1, (0, 0, 1, 0): -1}),
        "E": _wp("hahn", {(1, 1, 0, 0): 2, (0, 0, 1, 0): -2}),
        "Q": _wp("hahn", {(1, 0, 1, 0): 4, (0, 1, 1, 0): -4}),
        "R": _wp(
            "hahn",
            {(1, 0, 0, 1): 6, (0, 0, 2, 0): -2, (0, 1, 0, 1): -4},
        ),
    },
)


def derive(rules: DerivationRules, p: WeightedPoly) -> WeightedPoly:
    """Leibniz extension of the generator rules; equals scale * q d/dq of the
    corresponding series under eval_as_series."""
    if rules.ring != p.ring:
        raise ValueError(f"ring mismatch: rules are {rules.ring}, poly is {p.ring}")
    out = WeightedPoly(p.ring, {})
    for exps, c in p.terms.items():
        for pos, name in enumerate("PEQR"):
            m = exps[pos]
            if m == 0 or name not in rules.images:
                continue
            lowered = list(exps)
            lowered[pos] -= 1
            prefix = WeightedPoly(p.ring, {tuple(lowered): c * m})
            out = out + prefix * rules.images[name]
    return out


def canonicalize(p: WeightedPoly) -> WeightedPoly:
    """Rewrite E^j Q^k factors into R^min(j,k) pairs (hahn relation R = EQ).

    Greedy: every E*Q pair becomes an R. Identity on the classical ring.
    """
    if p.ring != "hahn":
        return p
    out: dict[Exps, Fraction] = {}
    for (i, j, k, l), c in p.terms.items():
        m = min(j, k)
        e = (i, j - m, k - m, l + m)
        out[e] = out.get(e, Fraction(0)) + c
    return WeightedPoly("hahn", out)


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
    g = _wp(ring, gspec)
    rules = family_rules(fam)
    r = constant(ring, 1)
    for _ in range(n):
        r = r * g + derive(rules, r)
    return canonicalize(r)


# degree-one base cases for the double Lambert sums: the generator series
# rearranged, e.g. Phi_{0,3} = (Q - 1)/240 because Q = 1 + 240 sum sigma_3 q^n
_PHI_BASES = {
    ("plain", 1): ("P", Fraction(-1, 24), Fraction(1, 24)),
    ("plain", 3): ("Q", Fraction(1, 240), Fraction(-1, 240)),
    ("plain", 5): ("R", Fraction(-1, 504), Fraction(1, 504)),
    ("tilde", 1): ("P", Fraction(1, 8), Fraction(-1, 8)),
    ("tilde", 3): ("Q", Fraction(-1, 16), Fraction(1, 16)),
    ("tilde", 5): ("R", Fraction(1, 8), Fraction(-1, 8)),
}


def phi_poly(variant: str, r: int, s: int) -> WeightedPoly:
    """Polynomial expression for Phi_{r,s} (plain ring) or Phi~_{r,s} (hahn).

    Supported when s >= r >= 0 and s - r in {1, 3, 5} (so a degree-one base
    case exists; r + s is then odd and the weight is the even number r+s+1).
    Computed as r applications of the weight-raising operator q d/dq, realized
    as (1/scale)*derive, to the base case.
    """
    key = (variant, s - r)
    if variant not in ("plain", "tilde") or r < 0 or key not in _PHI_BASES:
        raise ValueError(
            f"phi_poly: unsupported (variant, r, s) = ({variant}, {r}, {s}); "
            "need s >= r >= 0 with s - r in {1, 3, 5}"
        )
    ring = "classical" if variant == "plain" else "hahn"
    name, coeff, const = _PHI_BASES[key]
    p = gen(ring, name).scale(coeff) + constant(ring, const)
    rules = _BASE_RULES[ring]
    for _ in range(r):
        p = derive(rules, p).scale(Fraction(1) / rules.scale)
    return canonicalize(p)


# the classical generators expressed in the hahn ring:
#   P = 3P~ - 2E~,  Q = 4E~^2 - 3Q~,  R = -8E~^3 + 9R~
_L1_IMAGES = {
    "P": _wp("hahn", {(1, 0, 0, 0): 3, (0, 1, 0, 0): -2}),
    "Q": _wp("hahn", {(0, 2, 0, 0): 4, (0, 0, 1, 0): -3}),
    "R": _wp("hahn", {(0, 3, 0, 0): -8, (0, 0, 0, 1): 9}),
}


def classical_to_hahn(p: WeightedPoly) -> WeightedPoly:
    """Substitute each classical generator by its hahn-ring expression.

    Takes a classical-ring polynomial and returns the equal hahn-ring one
    (the direction that rewrites P, Q, R in the signed-divisor generators).
    """
    if p.ring != "classical":
        raise ValueError("classical_to_hahn substitutes classical generators")
    out = WeightedPoly("hahn", {})
    for (i, _, k, l), c in p.terms.items():
        term = constant("hahn", c)
        term = term * _L1_IMAGES["P"] ** i
        term = term * _L1_IMAGES["Q"] ** k
        term = term * _L1_IMAGES["R"] ** l
        out = out + term
    return out


def _generator_series(ring: str, order: int) -> dict[str, S.Series]:
    if ring == "classical":
        return {
            "P": G.eisenstein(1, order),
            "Q": G.eisenstein(2, order),
            "R": G.eisenstein(3, order),
        }
    return {name: G.hahn(name, order) for name in "PEQR"}


def eval_as_series(p: WeightedPoly, order: int) -> S.Series:
    """Substitute the generator q-expansions and expand to the given order."""
    gens = _generator_series(p.ring, order)
    # cache generator powers; exponents repeat heavily across terms
    powers: dict[tuple[str, int], S.Series] = {}

    def power(name: str, e: int) -> S.Series:
        key = (name, e)
        if key not in powers:
            if e == 1:
                powers[key] = gens[name]
            else:
                powers[key] = S.mul(power(name, e - 1), gens[name])
        return powers[key]

    total = S.zero(order)
    for exps, c in p.terms.items():
        term = S.one(order)
        for name, e in zip("PEQR", exps):
            if e:
                term = S.mul(term, power(name, e))
        total = S.add(total, S.scale(c, term))
    return total


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
