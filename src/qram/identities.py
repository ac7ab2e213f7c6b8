"""Registry of named identities and the engine that verifies them.

Three kinds of entry:

  series:       two builders produce exact Series to a requested order and are
                compared coefficientwise. Ratio identities are registered
                cross-multiplied (T_2 * 1 = P * T_0 form) so no division is
                ever needed; the one genuine quotient identity (lemma_lx) is
                pre-cross-multiplied too.
  convolution:  the same, with n_max as the order: each side is the Series
                sum_n v(n) q^n of its values, one side pointwise from
                divisor_sum and the other a product of Lambert series from
                divisors.convolution_sequence (the brute-force
                divisors.convolution is its test oracle). Coefficients
                outside the stated domain are zeroed before the compare, and
                a bound n_max with no n in the domain is rejected.
  numeric-ref:  delegates to numeric.check_special so a full verify run covers
                the special-value checks as well.

Every report is deterministic: sorted by id, exact values in the failure slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import generators as G
from . import series as S
from . import weighted as W
from .divisors import DivisorKind, convolution_sequence, divisor_sum, divisor_sum_table

PLAIN, TILDE, HAT = DivisorKind.PLAIN, DivisorKind.TILDE, DivisorKind.HAT

# a domain's text -> (first n, step) of the n it compares
_DOMAINS = {"all n >= 0": (0, 1), "n >= 1": (1, 1), "odd n >= 1": (1, 2)}

# a convolution entry bundling several weights has one Series per weight
Side = S.Series | tuple[S.Series, ...]


@dataclass(frozen=True)
class Identity:
    id: str
    kind: str  # "series" | "convolution" | "numeric-ref"
    statement: str
    source: str
    domain: str = "all n >= 0"
    # builders returning sides of order >= the argument (order or n_max)
    lhs: Optional[Callable[[int], Side]] = None
    rhs: Optional[Callable[[int], Side]] = None

    def __post_init__(self):
        if self.kind != "numeric-ref" and self.domain not in _DOMAINS:
            raise KeyError(f"identity {self.id}: unknown domain {self.domain!r}")


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
# convolution-side building blocks; each returns a Series of order n_max


def _sigma(kind: DivisorKind, s: int, n_max: int, first: int = 0) -> S.Series:
    """sum_{n >= first} sigma_s(n) q^n, pointwise from divisor_sum: the
    independent check of the sieve behind the other side."""
    return S.from_coeffs(
        [0] * first + [divisor_sum(kind, s, n) for n in range(first, n_max + 1)]
    )


def _cheng_williams_lhs(n_max: int) -> S.Series:
    """sum_{m=1..n} sigma(4m-3) sigma(4(n-m)+3): the q^n coefficient of
    (sum_{m>=1} sigma(4m-3) q^m) (sum_{j>=0} sigma(4j+3) q^j)."""
    sigma = divisor_sum_table(PLAIN, 1, 4 * n_max + 3)
    return S.mul(S.Series((0, *sigma[1::4])), S.Series(tuple(sigma[3::4])))


def _cheng_williams_rhs(n_max: int) -> S.Series:
    """4 sigma_3(n) - 4 sigma_3(n/2); the boundary terms cancel at n = 0."""
    s3 = _sigma(PLAIN, 3, n_max)
    return S.scale(4, S.sub(s3, S.substitute_power(s3, 2)))


def _parity_reduction(kind: DivisorKind, c: Callable[[int], int]):
    """The flavored sigma_s(n) = sigma_s(n) - c(s) sigma_s(n/2), bundled over
    s in {1, 3, 5}: the flavored side pointwise, the plain side sieved."""
    weights = (1, 3, 5)

    def reduced(s: int, n_max: int) -> S.Series:
        plain = S.lambert(PLAIN, s, n_max)
        return S.sub(plain, S.scale(c(s), S.substitute_power(plain, 2)))

    return (
        lambda n_max: tuple(_sigma(kind, s, n_max, first=1) for s in weights),
        lambda n_max: tuple(reduced(s, n_max) for s in weights),
    )


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
    ids: list[Identity] = []

    def conv(id_, statement, source, lhs, rhs, domain="all n >= 0"):
        ids.append(
            Identity(id_, "convolution", statement, source, domain, lhs, rhs)
        )

    def sigma(kind, s):
        return lambda n: _sigma(kind, s, n)

    def convolved(terms, c):
        return lambda n: S.scale(c, convolution_sequence(terms, n))

    hat = (HAT, 1)
    conv(
        "t9",
        "sigma_7(n) = 120 sum_{i+j=n} sigma_3(i) sigma_3(j)",
        "classical (Glaisher; via E_8 = Q^2)",
        sigma(PLAIN, 7),
        convolved([(PLAIN, 3)] * 2, 120),
    )
    conv(
        "t10",
        "sigma~_5(n) = -48 sum_{i+j=n} sigma^(i) sigma~_3(j)",
        "from R~ = E~ Q~",
        sigma(TILDE, 5),
        convolved([hat, (TILDE, 3)], -48),
    )
    conv(
        "t11.a",
        "5 sigma_3(n) - sigma~_3(n) = 48 sum_{i+j=n} sigma^(i) sigma^(j)",
        "from Q = 4E~^2 - 3Q~",
        lambda n: S.sub(S.scale(5, _sigma(PLAIN, 3, n)), _sigma(TILDE, 3, n)),
        convolved([hat] * 2, 48),
    )
    conv(
        "t11.b",
        "7 sigma_5(n) + sigma~_5(n) = 1536 sum_{i+j+k=n} sigma^ sigma^ sigma^",
        "from R = -8E~^3 + 9R~",
        lambda n: S.add(S.scale(7, _sigma(PLAIN, 5, n)), _sigma(TILDE, 5, n)),
        convolved([hat] * 3, 1536),
    )
    conv(
        "cor1.a",
        "sigma_3(n) = 12 sum_{i+j=n} sigma^(i) sigma^(j), n odd",
        "odd-n specialization (sigma~_3 = sigma_3 for odd n)",
        sigma(PLAIN, 3),
        convolved([hat] * 2, 12),
        "odd n >= 1",
    )
    conv(
        "cor1.b",
        "sigma_5(n) = 192 sum_{i+j+k=n} sigma^ sigma^ sigma^, n odd",
        "odd-n specialization (sigma~_5 = sigma_5 for odd n)",
        sigma(PLAIN, 5),
        convolved([hat] * 3, 192),
        "odd n >= 1",
    )
    conv(
        "t12",
        "sigma_7(n) = 12 (864 sum_{i+j+k+l=n} sigma^^4 - sum_{i+j=n} sigma^ sigma~_5), n odd",
        "derived: E_8(q) - 16 E_8(q^2) = 15E~^4 - 30E~R~",
        sigma(PLAIN, 7),
        lambda n: S.sub(
            convolved([hat] * 4, 12 * 864)(n), convolved([hat, (TILDE, 5)], 12)(n)
        ),
        "odd n >= 1",
    )
    conv(
        "cheng_williams",
        "sum_{m=1..n} sigma(4m-3) sigma(4n-4m+3) = 4 sigma_3(n) - 4 sigma_3(n/2)",
        "Cheng-Williams (2004)",
        _cheng_williams_lhs,
        _cheng_williams_rhs,
        "n >= 1",
    )
    conv(
        "remark.tilde",
        "sigma~_s(n) = sigma_s(n) - 2^{s+1} sigma_s(n/2), s in {1,3,5}",
        "parity reduction formula",
        *_parity_reduction(TILDE, lambda s: 2 ** (s + 1)),
        "n >= 1",
    )
    conv(
        "remark.hat",
        "sigma^_s(n) = sigma_s(n) - 2 sigma_s(n/2), s in {1,3,5}",
        "parity reduction formula",
        *_parity_reduction(HAT, lambda s: 2),
        "n >= 1",
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


def _compare(ident: Identity, order: int) -> VerifyReport:
    """Build both sides to order and compare them exactly on the domain.

    A side built below the requested order fails, with checked_up_to the
    order every side reached. Coefficients outside the domain are zeroed, so
    nothing is asserted there.
    """
    first, step = _DOMAINS[ident.domain]
    sides = {"lhs": ident.lhs(order), "rhs": ident.rhs(order)}
    parts = {k: v if isinstance(v, tuple) else (v,) for k, v in sides.items()}
    built = min(order, *(s.order for p in parts.values() for s in p))
    short = [k for k, p in parts.items() if min(s.order for s in p) < order]
    note = None
    if short:
        note = f"{' and '.join(short)} built below the requested order {order}"

    def on_domain(s: S.Series) -> S.Series:
        s = S.truncate(s, built)
        if (first, step) == (0, 1):
            return s
        nums = [0] * (built + 1)
        nums[first::step] = s.nums[first::step]
        return S.Series(tuple(nums), s.den)

    masked = {k: tuple(map(on_domain, p)) for k, p in parts.items()}
    failure = None
    if masked["lhs"] != masked["rhs"]:

        def at(k: str, n: int):
            values = tuple(s[n] for s in masked[k])
            return values if isinstance(sides[k], tuple) else values[0]

        n = next(n for n in range(built + 1) if at("lhs", n) != at("rhs", n))
        failure = {"n": n, "lhs": _fmt(at("lhs", n)), "rhs": _fmt(at("rhs", n))}
    status = "fail" if failure or note else "pass"
    return VerifyReport(ident.id, status, built, failure, note)


def verify_series(ident: Identity | str, order: int) -> VerifyReport:
    """Build both sides to the requested order and compare exactly.

    A side built below the requested order fails, with checked_up_to the
    order both sides reached.
    """
    return _compare(_resolve(ident, "series"), order)


def verify_convolution(ident: Identity | str, n_max: int) -> VerifyReport:
    """Compare both sides at every n = 0..n_max in the identity's domain.

    Raises ValueError when no n in 0..n_max lies in the domain, since a pass
    would then have compared nothing.
    """
    ident = _resolve(ident, "convolution")
    if _DOMAINS[ident.domain][0] > n_max:
        raise ValueError(
            f"identity {ident.id}: no n in 0..{n_max} lies in its domain"
            f" ({ident.domain})"
        )
    return _compare(ident, n_max)


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
