"""Registry of named identities and the engine that verifies them.

Three kinds of entry:

  series:       two builders produce exact Series to a requested order and are
                compared coefficientwise. Ratio identities are registered
                cross-multiplied (T_2 * 1 = P * T_0 form) so no division is
                ever needed; the one genuine quotient identity (lemma_lx) is
                pre-cross-multiplied too.
  convolution:  both sides are exact values per n, the convolutions
                evaluated by divisors.convolution_sequence (the brute-force
                divisors.convolution is its test oracle); identities over odd
                n skip even n entirely rather than asserting anything there,
                and a bound n_max with no n in the domain is rejected.
  numeric-ref:  delegates to numeric.check_special so a full verify run covers
                the special-value checks as well.

Every report is deterministic: sorted by id, exact values in the failure slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import generators as G
from . import series as S
from . import weighted as W
from .divisors import DivisorKind, convolution_sequence, divisor_sum, divisor_sum_table

PLAIN, TILDE, HAT = DivisorKind.PLAIN, DivisorKind.TILDE, DivisorKind.HAT


@dataclass(frozen=True)
class Identity:
    id: str
    kind: str  # "series" | "convolution" | "numeric-ref"
    statement: str
    source: str
    domain: str = "all n >= 0"
    # series kind: builders returning a Series of order >= the argument
    lhs: Optional[Callable[[int], S.Series]] = None
    rhs: Optional[Callable[[int], S.Series]] = None
    # convolution kind: exact value sequences for n = 0..n_max
    lhs_seq: Optional[Callable[[int], list]] = None
    rhs_seq: Optional[Callable[[int], list]] = None
    domain_pred: Callable[[int], bool] = lambda n: True


@dataclass(frozen=True)
class VerifyReport:
    id: str
    status: str  # "pass" | "fail"
    checked_up_to: int
    first_failure: Optional[dict] = None  # {"n": int, "lhs": str, "rhs": str}
    note: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "status": self.status,
            "checked_up_to": self.checked_up_to,
        }
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class RunConfig:
    """Orders for a full verification run."""

    order: int = 200
    n_max: int = 100
    precision: int = 256


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return S.rational_str(v)
    if isinstance(v, tuple):
        return "(" + ", ".join(_fmt(x) for x in v) + ")"
    return str(v)


# ---------------------------------------------------------------------------
# series-side building blocks


def _eis(k):
    return lambda n: G.eisenstein(k, n)


def _hahn(w):
    return lambda n: G.hahn(w, n)


def _subst(build: Callable[[int], S.Series], k: int, order: int) -> S.Series:
    """build(ceil(order/k)) re-expanded in q^k; order comes out >= order."""
    return S.substitute_power(build(-(-order // k)), k)


def _poly_series(poly: W.WeightedPoly) -> Callable[[int], S.Series]:
    return lambda n: W.eval_as_series(poly, n)


def _ratio_rhs(fam: str, idx: int, base_index: int) -> Callable[[int], S.Series]:
    def build(n: int) -> S.Series:
        return S.mul(
            W.eval_as_series(W.ratio_poly(fam, idx), n), G.family(fam, base_index, n)
        )

    return build


def _scaled_euler(build: Callable[[int], S.Series], c) -> Callable[[int], S.Series]:
    return lambda n: S.scale(c, S.euler_op(build(n)))


# ---------------------------------------------------------------------------
# convolution-side building blocks


def _sigma_seq(kind: DivisorKind, s: int) -> Callable[[int], list]:
    return lambda n_max: [divisor_sum(kind, s, n) for n in range(n_max + 1)]


def _conv_seq(terms, multiplier) -> Callable[[int], list]:
    mult = Fraction(multiplier)
    return lambda n_max: [mult * v for v in convolution_sequence(terms, n_max)]


def _combo_seq(a, b, ca, cb) -> Callable[[int], list]:
    """ca*a(n) + cb*b(n) entrywise."""
    ca, cb = Fraction(ca), Fraction(cb)
    return lambda n_max: [
        ca * x + cb * y for x, y in zip(a(n_max), b(n_max))
    ]


def _t12_rhs(n_max: int) -> list:
    quad = convolution_sequence([(HAT, 1)] * 4, n_max)
    pair = convolution_sequence([(HAT, 1), (TILDE, 5)], n_max)
    return [12 * (864 * a - b) for a, b in zip(quad, pair)]


def _cheng_williams_lhs(n_max: int) -> list:
    """sum_{m=1..n} sigma(4m-3) sigma(4(n-m)+3): the q^n coefficient of
    (sum_{m>=1} sigma(4m-3) q^m) (sum_{j>=0} sigma(4j+3) q^j)."""
    sigma = divisor_sum_table(PLAIN, 1, 4 * n_max + 3)
    first = S.from_coeffs([0] + sigma[1::4])
    second = S.from_coeffs(sigma[3::4])
    return list(S.mul(first, second).coeffs)


def _cheng_williams_rhs(n_max: int) -> list:
    out = [Fraction(0)]
    for n in range(1, n_max + 1):
        out.append(
            4 * divisor_sum(PLAIN, 3, n) - 4 * divisor_sum(PLAIN, 3, Fraction(n, 2))
        )
    return out


def _parity_reduction(kind: DivisorKind, two_power: bool):
    """sigma~_s(n) = sigma_s(n) - 2^{s+1} sigma_s(n/2) (two_power=True) or
    sigma^_s(n) = sigma_s(n) - 2 sigma_s(n/2), bundled over s in {1, 3, 5}."""
    weights = (1, 3, 5)

    zero_row = (Fraction(0),) * len(weights)  # n = 0 is outside the domain

    def lhs(n_max: int) -> list:
        return [zero_row] + [
            tuple(divisor_sum(kind, s, n) for s in weights)
            for n in range(1, n_max + 1)
        ]

    def rhs(n_max: int) -> list:
        out = [zero_row]
        for n in range(1, n_max + 1):
            row = []
            for s in weights:
                c = 2 ** (s + 1) if two_power else 2
                row.append(
                    divisor_sum(PLAIN, s, n)
                    - c * divisor_sum(PLAIN, s, Fraction(n, 2))
                )
            out.append(tuple(row))
        return out

    return lhs, rhs


# ---------------------------------------------------------------------------
# the registry itself


def _series_identities() -> list[Identity]:
    P, Q, R = _eis(1), _eis(2), _eis(3)
    hE, hQ, hR = _hahn("E"), _hahn("Q"), _hahn("R")
    ids: list[Identity] = []

    def serie(id_, statement, source, lhs, rhs):
        ids.append(
            Identity(id_, "series", statement, source, lhs=lhs, rhs=rhs)
        )

    def text(poly: W.WeightedPoly) -> str:
        return W.pretty(poly, ascii_letters=True)

    # the two differential systems, read off the rules derive() uses:
    # c q dX/dq = (image of X under the rules rescaled to c)
    ramanujan = "Ramanujan's differential system (1916)"
    signed = "Hahn (2007), signed differential system"
    for rules, name, c, source in (
        (W.CLASSICAL_RULES, "P", 12, ramanujan),
        (W.CLASSICAL_RULES, "Q", 3, ramanujan),
        (W.CLASSICAL_RULES, "R", 2, ramanujan),
        (W.HAHN_RULES, "P", 4, signed),
        (W.HAHN_RULES, "E", 2, signed),
        (W.HAHN_RULES, "Q", 1, signed),
        (W.HAHN_RULES, "R", 8, "derived from the signed system via R~ = E~Q~"),
    ):
        x = W.gen(rules.ring, name)
        image = rules.rescaled(c).images[name]
        serie(
            f"ode.{'h' if rules.ring == 'hahn' else ''}{name}",
            f"{'' if c == 1 else f'{c} '}q d{text(x)}/dq = {text(image)}",
            source,
            _scaled_euler(_poly_series(x), c),
            _poly_series(image),
        )
    serie(
        "hahn.R_eq_EQ",
        "R~ = E~ Q~",
        "Hahn (2007)",
        hR,
        lambda n: S.mul(hE(n), hQ(n)),
    )

    # classical generators in the signed ring
    for name in "PQR":
        x = W.gen("classical", name)
        image = W.classical_to_hahn(x)
        serie(
            f"lemma1.{name}",
            f"{name} = {text(image)}",
            "generator substitution lemma (cf. Hahn 2007)",
            _poly_series(x),
            _poly_series(image),
        )

    # family ratio tables, cross-multiplied: X_{2n} = ratio * X_0
    for n in range(1, 5):
        serie(
            f"t1.T{2*n}",
            f"T_{2*n} = ({W.pretty(W.ratio_poly('T', n))}) * T_0",
            "classical pentagonal table (Ramanujan; Berndt, Notebooks)",
            (lambda m, nn=n: G.family("T", 2 * nn, m)),
            _ratio_rhs("T", n, 0),
        )
    for n in range(1, 5):
        serie(
            f"t2.F{2*n}",
            f"F_{2*n} = ({W.pretty(W.ratio_poly('F', n))}) * F_0",
            "classical triangular table (Ramanujan; Berndt, Notebooks)",
            (lambda m, nn=n: G.family("F", 2 * nn, m)),
            _ratio_rhs("F", n, 0),
        )
    for n in range(1, 4):
        serie(
            f"t3.psi{2*n}",
            f"psi_{2*n} = ({text(W.ratio_poly('psi', n))}) * psi_0",
            "signed-ring analogue of the triangular table",
            (lambda m, nn=n: G.family("psi", 2 * nn, m)),
            _ratio_rhs("psi", n, 0),
        )
    for n in (1, 2):
        serie(
            f"t4.eps{2*n+1}",
            f"eps_{2*n+1} = ({text(W.ratio_poly('eps', n))}) * eps_1",
            "signed-ring analogue on unsigned pentagonal exponents",
            (lambda m, nn=n: G.family("eps", 2 * nn + 1, m)),
            _ratio_rhs("eps", n, 1),
        )

    # mixed-family corollaries
    def mixed_lhs(fam):
        def build(n):
            return S.scale(
                4,
                S.mul(
                    S.mul(G.family("psi", 0, n), G.family("eps", 1, n)),
                    G.family(fam, 2, n),
                ),
            )

        return build

    def mixed_rhs(fam):
        def build(n):
            inner = S.add(
                S.scale(3, S.mul(G.family("eps", 1, n), G.family("psi", 2, n))),
                S.mul(G.family("psi", 0, n), G.family("eps", 3, n)),
            )
            return S.mul(G.family(fam, 0, n), inner)

        return build

    for fam, key in (("T", "cor.mixed_T"), ("F", "cor.mixed_F")):
        serie(
            key,
            f"4 psi_0 eps_1 {fam}_2 = {fam}_0 (3 eps_1 psi_2 + psi_0 eps_3)",
            "mixed-family corollary of the four base ratios",
            mixed_lhs(fam),
            mixed_rhs(fam),
        )

    # Ramanujan's Phi table and its signed analogue, cleared of denominators
    phi_indices = ((1, 2), (1, 4), (1, 6), (2, 3), (2, 5), (2, 7))
    for variant, key, name, source, mults in (
        ("plain", "phi", "Phi", "Ramanujan (1916), Phi table",
         (288, 720, 1008, 1728, 1728, 1728)),
        ("tilde", "tr", "Phi~", "signed analogue of the Phi table",
         (32, 16, 16, 64, 64, 64)),
    ):
        for (r, s), mult in zip(phi_indices, mults):
            poly = W.phi_poly(variant, r, s).scale(mult)
            serie(
                f"{key}.{r}_{s}",
                f"{mult} {name}_{{{r},{s}}} = {text(poly)}",
                source,
                lambda n, v=variant, m=mult, rr=r, ss=s: S.scale(
                    m, G.phi_series(v, rr, ss, n)
                ),
                _poly_series(poly),
            )

    # higher Eisenstein weights as products
    serie("e8.square", "E_8 = Q^2", "classical Eisenstein relation", _eis(4),
          lambda n: S.mul(Q(n), Q(n)))
    serie("e10.QR", "E_10 = Q R", "classical Eisenstein relation", _eis(5),
          lambda n: S.mul(Q(n), R(n)))
    serie("e14.QQR", "E_14 = Q^2 R", "classical Eisenstein relation", _eis(7),
          lambda n: S.mul(S.mul(Q(n), Q(n)), R(n)))

    # product-vs-sum identities
    serie(
        "pentagonal",
        "T_0 = prod (1 - q^n) = sum (-1)^k q^{k(3k-1)/2}",
        "Euler's pentagonal number theorem",
        lambda n: G.family("T", 0, n),
        lambda n: S.product_expansion([(1, 1, 1)], n),
    )
    serie(
        "gauss_jacobi",
        "F_0 = prod (1 - q^n)^3 = sum (-1)^k (2k+1) q^{k(k+1)/2}",
        "Gauss-Jacobi identity",
        lambda n: G.family("F", 0, n),
        lambda n: S.product_expansion([(1, 1, 3)], n),
    )
    serie(
        "fact_f1",
        "eps_1 = phi(-q)^2 f(-q)",
        "Berndt, Ramanujan's Notebooks (theta product)",
        lambda n: G.family("eps", 1, n),
        lambda n: S.mul(
            S.mul(
                S.substitute_negate(G.varphi(n)), S.substitute_negate(G.varphi(n))
            ),
            G.fneg(n),
        ),
    )
    serie(
        "eps1.product",
        "eps_1 = prod (1 - q^n)^3 (1 - q^{2n-1})^2",
        "product form via phi(-q) = (q;q)_inf (q;q^2)_inf",
        lambda n: G.family("eps", 1, n),
        lambda n: S.product_expansion([(1, 1, 3), (1, 2, 2)], n),
    )

    # trisection of the triangular exponents
    serie(
        "prop_p2",
        "psi(q) = eps(q^3) + q psi(q^9)",
        "triangular-index trisection",
        lambda n: G.psi0(n),
        lambda n: S.add(_subst(G.eps0, 3, n), S.shift(_subst(G.psi0, 9, n), 1)),
    )
    serie(
        "prop_p2.neg",
        "psi(-q) = eps(-q^3) - q psi(-q^9)",
        "trisection with q -> -q",
        lambda n: S.substitute_negate(G.psi0(n)),
        lambda n: S.sub(
            S.substitute_negate(_subst(G.eps0, 3, n)),
            S.shift(S.substitute_negate(_subst(G.psi0, 9, n)), 1),
        ),
    )
    serie(
        "lemma_lx",
        "f(q, q^5) eps(q^2) = eps(q) psi(q^3)",
        "Berndt: f(a,ab^2) f(b,a^2b) = f(a,b) psi(ab), cross-multiplied",
        lambda n: S.mul(G.theta_f(1, 1, 1, 5, n), _subst(G.eps0, 2, n)),
        lambda n: S.mul(G.eps0(n), _subst(G.psi0, 3, n)),
    )

    # doubling relations feeding the convolution theorems
    serie(
        "cor1.q_lemma",
        "4 Q(q^2) + Q(q) = 5 E~(q)^2",
        "Berndt, q -> q^2 Eisenstein parametrization",
        lambda n: S.add(S.scale(4, _subst(Q, 2, n)), Q(n)),
        lambda n: S.scale(5, S.mul(G.hahn("E", n), G.hahn("E", n))),
    )
    serie(
        "cor1.r_lemma",
        "8 R(q^2) - R(q) = 7 E~(q)^3",
        "Berndt, q -> q^2 Eisenstein parametrization",
        lambda n: S.sub(S.scale(8, _subst(R, 2, n)), R(n)),
        lambda n: S.scale(
            7, S.mul(S.mul(G.hahn("E", n), G.hahn("E", n)), G.hahn("E", n))
        ),
    )
    serie(
        "t12.core",
        "E_8(q) - 16 E_8(q^2) = 15 E~^4 - 30 E~ R~",
        "derived: weight-8 doubling in the signed generators",
        lambda n: S.sub(_eis(4)(n), S.scale(16, _subst(_eis(4), 2, n))),
        _poly_series(W.WeightedPoly("hahn", {(0, 4, 0, 0): 15, (0, 1, 0, 1): -30})),
    )
    serie(
        "sigma.two_hat",
        "sigma(n) + sigma~(n) = 2 sigma^(n), as Lambert series",
        "parity identity on divisor sums",
        lambda n: S.add(S.lambert(PLAIN, 1, n), S.lambert(TILDE, 1, n)),
        lambda n: S.scale(2, S.lambert(HAT, 1, n)),
    )
    return ids


def _convolution_identities() -> list[Identity]:
    odd = lambda n: n % 2 == 1
    pos = lambda n: n >= 1
    every = lambda n: True
    ids = [
        Identity(
            "t9",
            "convolution",
            "sigma_7(n) = 120 sum_{i+j=n} sigma_3(i) sigma_3(j)",
            "classical (Glaisher; via E_8 = Q^2)",
            domain="all n >= 0",
            lhs_seq=_sigma_seq(PLAIN, 7),
            rhs_seq=_conv_seq([(PLAIN, 3), (PLAIN, 3)], 120),
            domain_pred=every,
        ),
        Identity(
            "t10",
            "convolution",
            "sigma~_5(n) = -48 sum_{i+j=n} sigma^(i) sigma~_3(j)",
            "from R~ = E~ Q~",
            domain="all n >= 0",
            lhs_seq=_sigma_seq(TILDE, 5),
            rhs_seq=_conv_seq([(HAT, 1), (TILDE, 3)], -48),
            domain_pred=every,
        ),
        Identity(
            "t11.a",
            "convolution",
            "5 sigma_3(n) - sigma~_3(n) = 48 sum_{i+j=n} sigma^(i) sigma^(j)",
            "from Q = 4E~^2 - 3Q~",
            domain="all n >= 0",
            lhs_seq=_combo_seq(_sigma_seq(PLAIN, 3), _sigma_seq(TILDE, 3), 5, -1),
            rhs_seq=_conv_seq([(HAT, 1)] * 2, 48),
            domain_pred=every,
        ),
        Identity(
            "t11.b",
            "convolution",
            "7 sigma_5(n) + sigma~_5(n) = 1536 sum_{i+j+k=n} sigma^ sigma^ sigma^",
            "from R = -8E~^3 + 9R~",
            domain="all n >= 0",
            lhs_seq=_combo_seq(_sigma_seq(PLAIN, 5), _sigma_seq(TILDE, 5), 7, 1),
            rhs_seq=_conv_seq([(HAT, 1)] * 3, 1536),
            domain_pred=every,
        ),
        Identity(
            "cor1.a",
            "convolution",
            "sigma_3(n) = 12 sum_{i+j=n} sigma^(i) sigma^(j), n odd",
            "odd-n specialization (sigma~_3 = sigma_3 for odd n)",
            domain="odd n >= 1",
            lhs_seq=_sigma_seq(PLAIN, 3),
            rhs_seq=_conv_seq([(HAT, 1)] * 2, 12),
            domain_pred=odd,
        ),
        Identity(
            "cor1.b",
            "convolution",
            "sigma_5(n) = 192 sum_{i+j+k=n} sigma^ sigma^ sigma^, n odd",
            "odd-n specialization (sigma~_5 = sigma_5 for odd n)",
            domain="odd n >= 1",
            lhs_seq=_sigma_seq(PLAIN, 5),
            rhs_seq=_conv_seq([(HAT, 1)] * 3, 192),
            domain_pred=odd,
        ),
        Identity(
            "t12",
            "convolution",
            "sigma_7(n) = 12 (864 sum_{i+j+k+l=n} sigma^^4 - sum_{i+j=n} sigma^ sigma~_5), n odd",
            "derived: E_8(q) - 16 E_8(q^2) = 15E~^4 - 30E~R~",
            domain="odd n >= 1",
            lhs_seq=_sigma_seq(PLAIN, 7),
            rhs_seq=_t12_rhs,
            domain_pred=odd,
        ),
        Identity(
            "cheng_williams",
            "convolution",
            "sum_{m=1..n} sigma(4m-3) sigma(4n-4m+3) = 4 sigma_3(n) - 4 sigma_3(n/2)",
            "Cheng-Williams (2004)",
            domain="n >= 1",
            lhs_seq=_cheng_williams_lhs,
            rhs_seq=_cheng_williams_rhs,
            domain_pred=pos,
        ),
    ]
    tl, tr_ = _parity_reduction(TILDE, True)
    hl, hr = _parity_reduction(HAT, False)
    ids.append(
        Identity(
            "remark.tilde",
            "convolution",
            "sigma~_s(n) = sigma_s(n) - 2^{s+1} sigma_s(n/2), s in {1,3,5}",
            "parity reduction formula",
            domain="n >= 1",
            lhs_seq=tl,
            rhs_seq=tr_,
            domain_pred=pos,
        )
    )
    ids.append(
        Identity(
            "remark.hat",
            "convolution",
            "sigma^_s(n) = sigma_s(n) - 2 sigma_s(n/2), s in {1,3,5}",
            "parity reduction formula",
            domain="n >= 1",
            lhs_seq=hl,
            rhs_seq=hr,
            domain_pred=pos,
        )
    )
    return ids


def _numeric_identities() -> list[Identity]:
    # closed forms live in numeric.SPECIALS, under the same ids; these
    # entries make a full verify run cover them
    from . import numeric

    out = []
    for sid, sv in numeric.SPECIALS.items():
        out.append(
            Identity(
                sid,
                "numeric-ref",
                sv.statement,
                sv.source,
                domain="point evaluation",
            )
        )
    return out


_REGISTRY: Optional[dict[str, Identity]] = None


def registry() -> list[Identity]:
    """All identities, in deterministic (sorted-by-id) order."""
    global _REGISTRY
    if _REGISTRY is None:
        entries = _series_identities() + _convolution_identities() + _numeric_identities()
        byid = {}
        for e in entries:
            if e.id in byid:
                raise RuntimeError(f"duplicate identity id {e.id}")
            byid[e.id] = e
        _REGISTRY = dict(sorted(byid.items()))
    return list(_REGISTRY.values())


def lookup(id_: str) -> Optional[Identity]:
    registry()
    assert _REGISTRY is not None
    return _REGISTRY.get(id_)


def verify_series(ident: Identity | str, order: int) -> VerifyReport:
    """Build both sides to the requested order and compare exactly.

    A side built below the requested order fails, with checked_up_to the
    order both sides reached.
    """
    ident = _resolve(ident, "series")
    lhs, rhs = ident.lhs(order), ident.rhs(order)
    built = min(order, lhs.order, rhs.order)
    short = [side for side, s in (("lhs", lhs), ("rhs", rhs)) if s.order < order]
    note = None
    if short:
        note = f"{' and '.join(short)} built below the requested order {order}"
    lhs, rhs = S.truncate(lhs, built), S.truncate(rhs, built)
    failure = None
    if lhs != rhs:
        n = next(n for n in range(built + 1) if lhs[n] != rhs[n])
        failure = {"n": n, "lhs": _fmt(lhs[n]), "rhs": _fmt(rhs[n])}
    status = "fail" if failure or note else "pass"
    return VerifyReport(ident.id, status, built, failure, note)


def verify_convolution(ident: Identity | str, n_max: int) -> VerifyReport:
    """Evaluate both exact sides for every n in the identity's domain.

    Raises ValueError when no n in 0..n_max lies in the domain, since a pass
    would then have compared nothing.
    """
    ident = _resolve(ident, "convolution")
    if not any(map(ident.domain_pred, range(n_max + 1))):
        raise ValueError(
            f"identity {ident.id}: no n in 0..{n_max} lies in its domain"
            f" ({ident.domain})"
        )
    lhs = ident.lhs_seq(n_max)
    rhs = ident.rhs_seq(n_max)
    for n in range(n_max + 1):
        if not ident.domain_pred(n):
            continue
        if lhs[n] != rhs[n]:
            return VerifyReport(
                ident.id, "fail", n_max, {"n": n, "lhs": _fmt(lhs[n]), "rhs": _fmt(rhs[n])}
            )
    return VerifyReport(ident.id, "pass", n_max)


def verify_numeric(ident: Identity | str, precision: int) -> VerifyReport:
    from . import numeric

    ident = _resolve(ident, "numeric-ref")
    return numeric_report(ident.id, numeric.check_special(ident.id, precision))


def numeric_report(id_: str, rep: dict) -> VerifyReport:
    """The registry report for one numeric.check_special result."""
    precision = rep["precision_bits"]
    failure = None
    if rep["status"] != "pass":
        failure = {"n": precision, "lhs": rep["series_value"], "rhs": rep["closed_form"]}
    return VerifyReport(id_, rep["status"], precision, failure, note=rep.get("note"))


def verify_one(
    ident: Identity | str, config: RunConfig = RunConfig()
) -> VerifyReport:
    ident = _resolve(ident, None)
    if ident.kind == "series":
        return verify_series(ident, config.order)
    if ident.kind == "convolution":
        return verify_convolution(ident, config.n_max)
    return verify_numeric(ident, config.precision)


def verify_all(
    order: int = 200, n_max: int = 100, precision: int = 256
) -> list[VerifyReport]:
    """Run every registered identity; reports come back sorted by id."""
    config = RunConfig(order, n_max, precision)
    return [verify_one(ident, config) for ident in registry()]


def _resolve(ident: Identity | str, want_kind: Optional[str]) -> Identity:
    if isinstance(ident, str):
        found = lookup(ident)
        if found is None:
            raise KeyError(f"unknown identity {ident!r}")
        ident = found
    if want_kind is not None and ident.kind != want_kind:
        raise ValueError(f"identity {ident.id} has kind {ident.kind}, not {want_kind}")
    return ident
