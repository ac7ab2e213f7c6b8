"""Registry of named identities and the engine that verifies them.

Three kinds of entry:

  series:       two builders produce exact Series to a requested order and are
                compared coefficientwise. Ratio identities are registered
                cross-multiplied (T_2 * 1 = P * T_0 form) so no division is
                ever needed; the one genuine quotient identity (lemma_lx) is
                pre-cross-multiplied too.
  convolution:  the same, with n_max as the order: each side is the Series
                sum_n v(n) q^n of its values, one side pointwise from a
                factorisation of each n and the other products of Lambert
                series from divisors.convolution_sequence (the brute-force
                divisors.convolution is its test oracle). Coefficients
                outside the stated domain are zeroed before the compare, and
                a bound n_max with no n in the domain is rejected.
  numeric-ref:  delegates to numeric.check_special so a full verify run covers
                the special-value checks as well.

Every report is deterministic: sorted by id, exact values in the failure slot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from . import generators as G
from . import series as S
from . import weighted as W
from . import numeric
from .divisors import (
    DivisorKind,
    boundary_value,
    convolution_sequence,
    divisor_sum_table,
    lambert,
    pointwise_tables,
)
from .record import Record

PLAIN, TILDE, HAT = DivisorKind.PLAIN, DivisorKind.TILDE, DivisorKind.HAT

# a domain's text -> (first n, step) of the n it compares
_DOMAINS = {"all n >= 0": (0, 1), "n >= 1": (1, 1), "odd n >= 1": (1, 2)}

# a convolution entry bundling several weights has one Series per weight
Side = S.Series | tuple[S.Series, ...]


class Identity(Record):
    __slots__ = _fields = ("id", "kind", "statement", "source", "domain", "lhs", "rhs")

    def __init__(
        self,
        id: str,
        kind: str,  # "series" | "convolution" | "numeric-ref"
        statement: str,
        source: str,
        domain: str = "all n >= 0",
        # builders returning sides of order >= the argument (order or n_max)
        lhs: Optional[Callable[[int], Side]] = None,
        rhs: Optional[Callable[[int], Side]] = None,
    ):
        if kind != "numeric-ref" and domain not in _DOMAINS:
            raise KeyError(f"identity {id}: unknown domain {domain!r}")
        for name, value in zip(self._fields, (id, kind, statement, source, domain, lhs, rhs)):
            object.__setattr__(self, name, value)


class VerifyReport(Record):
    __slots__ = _fields = ("id", "status", "checked_up_to", "first_failure", "note")

    def __init__(
        self,
        id: str,
        status: str,  # "pass" | "fail"
        checked_up_to: int,
        first_failure: Optional[dict] = None,  # {"n": int, "lhs": str, "rhs": str}
        note: Optional[str] = None,
    ):
        for name, value in zip(self._fields, (id, status, checked_up_to, first_failure, note)):
            object.__setattr__(self, name, value)

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


class RunConfig(Record):
    """Orders for a full verification run; the class attributes are the defaults.

    No __slots__ here: a slot would hide its class-level default.
    """

    _fields = ("order", "n_max", "precision")
    order = 200
    n_max = 100
    precision = 256

    def __init__(self, order: int = order, n_max: int = n_max, precision: int = precision):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "precision", precision)


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return S.rational_str(v)
    if isinstance(v, tuple):
        return "(" + ", ".join(_fmt(x) for x in v) + ")"
    return str(v)


# ---------------------------------------------------------------------------
# series-side building blocks


def _eis(k):
    if k <= 3:  # P, Q, R built as eval_as_series builds them
        return lambda n: G.generator("classical", "PQR"[k - 1], n)
    return lambda n: G.eisenstein(k, n)


def _subst(build: Callable[[int], S.Series], k: int, order: int) -> S.Series:
    """build(ceil(order/k)) re-expanded in q^k; order comes out >= order."""
    return S.substitute_power(build(-(-order // k)), k)


def _poly_series(poly: W.WeightedPoly) -> Callable[[int], S.Series]:
    return lambda n: W.eval_as_series(poly, n)


def _scaled_euler(build: Callable[[int], S.Series], c) -> Callable[[int], S.Series]:
    return lambda n: S.scale(c, S.euler_op(build(n)))


# ---------------------------------------------------------------------------
# convolution-side building blocks; each returns a Series of order n_max


def _sigmas(
    pairs: list[tuple[DivisorKind, int]], n_max: int, boundary: bool = True
) -> tuple[S.Series, ...]:
    """sum_{n >= 1} sigma_s(n) q^n for each (kind, s) of pairs, with the
    boundary value as its constant term if boundary is set: divisor sums from
    a factorisation of each n (divisors.pointwise_tables), the independent
    check of the sieve behind the other side."""
    out = []
    for (kind, s), table in zip(pairs, pointwise_tables(pairs, n_max)):
        b = boundary_value(kind, s) if boundary else Fraction(0)
        num, den = b.numerator, b.denominator
        out.append(S.Series((num, *(den * x for x in table[1:])), den))
    return tuple(out)


def _cheng_williams_lhs(n_max: int) -> S.Series:
    """sum_{m=1..n} sigma(4m-3) sigma(4(n-m)+3): the q^n coefficient of
    (sum_{m>=1} sigma(4m-3) q^m) (sum_{j>=0} sigma(4j+3) q^j)."""
    sigma = divisor_sum_table(PLAIN, 1, 4 * n_max + 3)
    return S.mul(S.Series((0, *sigma[1::4])), S.Series(tuple(sigma[3::4])))


def _cheng_williams_rhs(n_max: int) -> S.Series:
    """4 sigma_3(n) - 4 sigma_3(n/2); the boundary terms cancel at n = 0."""
    (s3,) = _sigmas([(PLAIN, 3)], n_max)
    return S.scale(4, S.sub(s3, S.substitute_power(s3, 2)))


def _parity_reduction(kind: DivisorKind, c: Callable[[int], int]):
    """The flavored sigma_s(n) = sigma_s(n) - c(s) sigma_s(n/2), bundled over
    s in {1, 3, 5}: the flavored side pointwise, the plain side sieved."""
    weights = (1, 3, 5)

    def reduced(s: int, n_max: int) -> S.Series:
        plain = lambert(PLAIN, 0, s, n_max)
        return S.sub(plain, S.scale(c(s), S.substitute_power(plain, 2)))

    return (
        lambda n_max: _sigmas([(kind, s) for s in weights], n_max, boundary=False),
        lambda n_max: tuple(reduced(s, n_max) for s in weights),
    )


# ---------------------------------------------------------------------------
# the registry itself


def _series_identities() -> list[Identity]:
    Q, R = _eis(2), _eis(3)
    # the same generators as polynomials, for sides built by eval_as_series
    cQ, cR = W.gen("classical", "Q"), W.gen("classical", "R")
    hE, hQ = W.gen("hahn", "E"), W.gen("hahn", "Q")
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
        lambda n: G.generator("hahn", "R", n),
        _poly_series(hE * hQ),  # not canonicalized: that would give R~
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

    # family ratio tables, cross-multiplied: X_{2n+b} = ratio * X_b, with the
    # base member b = 1 for eps and 0 otherwise
    for prefix, fam, top, source in (
        ("t1", "T", 4, "classical pentagonal table (Ramanujan; Berndt, Notebooks)"),
        ("t2", "F", 4, "classical triangular table (Ramanujan; Berndt, Notebooks)"),
        ("t3", "psi", 3, "signed-ring analogue of the triangular table"),
        ("t4", "eps", 2, "signed-ring analogue on unsigned pentagonal exponents"),
    ):
        b = 1 if fam == "eps" else 0
        for n, ratio in enumerate(W.ratio_polys(fam, top)[1:], 1):
            serie(
                f"{prefix}.{fam}{2*n+b}",
                f"{fam}_{2*n+b} = ({text(ratio)}) * {fam}_{b}",
                source,
                lambda m, f=fam, i=2 * n + b: G.family(f, i, m),
                lambda m, f=fam, r=ratio, b=b: S.mul(
                    W.eval_as_series(r, m), G.family(f, b, m)
                ),
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
    for variant, key, name, source in (
        ("plain", "phi", "Phi", "Ramanujan (1916), Phi table"),
        ("tilde", "tr", "Phi~", "signed analogue of the Phi table"),
    ):
        for r, s in phi_indices:
            phi = W.phi_poly(variant, r, s)
            mult, poly = phi.den, phi.scale(phi.den)
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
          _poly_series(cQ**2))
    serie("e10.QR", "E_10 = Q R", "classical Eisenstein relation", _eis(5),
          _poly_series(cQ * cR))
    serie("e14.QQR", "E_14 = Q^2 R", "classical Eisenstein relation", _eis(7),
          _poly_series(cQ**2 * cR))

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

    def phi_neg_squared_f(n):
        phi_neg = S.substitute_negate(G.varphi(n))
        return S.mul(S.mul(phi_neg, phi_neg), G.fneg(n))

    serie(
        "fact_f1",
        "eps_1 = phi(-q)^2 f(-q)",
        "Berndt, Ramanujan's Notebooks (theta product)",
        lambda n: G.family("eps", 1, n),
        phi_neg_squared_f,
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
        _poly_series((hE**2).scale(5)),
    )
    serie(
        "cor1.r_lemma",
        "8 R(q^2) - R(q) = 7 E~(q)^3",
        "Berndt, q -> q^2 Eisenstein parametrization",
        lambda n: S.sub(S.scale(8, _subst(R, 2, n)), R(n)),
        _poly_series((hE**3).scale(7)),
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
        lambda n: S.add(lambert(PLAIN, 0, 1, n), lambert(TILDE, 0, 1, n)),
        lambda n: S.scale(2, lambert(HAT, 0, 1, n)),
    )
    return ids


def _convolution_identities() -> list[Identity]:
    ids: list[Identity] = []

    def conv(id_, statement, source, lhs, rhs, domain="all n >= 0"):
        ids.append(
            Identity(id_, "convolution", statement, source, domain, lhs, rhs)
        )

    def sigma(kind, s):
        return lambda n: _sigmas([(kind, s)], n)[0]

    def mixed(a, b, s):
        # a sigma_s(n) + b sigma~_s(n), both from one factorisation of each n
        def build(n):
            plain, tilde = _sigmas([(PLAIN, s), (TILDE, s)], n)
            return S.add(S.scale(a, plain), S.scale(b, tilde))

        return build

    def convolved(terms, c):
        return lambda n: convolution_sequence({tuple(terms): c}, n)

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
        mixed(5, -1, 3),
        convolved([hat] * 2, 48),
    )
    conv(
        "t11.b",
        "7 sigma_5(n) + sigma~_5(n) = 1536 sum_{i+j+k=n} sigma^ sigma^ sigma^",
        "from R = -8E~^3 + 9R~",
        mixed(7, 1, 5),
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
        lambda n: convolution_sequence({(hat,) * 4: 12 * 864, (hat, (TILDE, 5)): -12}, n),
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


def _by_id() -> dict[str, Identity]:
    """The registry by id, sorted, built on first use."""
    global _REGISTRY
    if _REGISTRY is None:
        entries = _series_identities() + _convolution_identities() + _numeric_identities()
        byid = {}
        for e in entries:
            if e.id in byid:
                raise RuntimeError(f"duplicate identity id {e.id}")
            byid[e.id] = e
        _REGISTRY = dict(sorted(byid.items()))
    return _REGISTRY


def registry() -> list[Identity]:
    """All identities, in deterministic (sorted-by-id) order."""
    return list(_by_id().values())


def lookup(id_: str) -> Optional[Identity]:
    return _by_id().get(id_)


def _compare(ident: Identity, order: int) -> VerifyReport:
    """Build both sides to order and compare them exactly on the domain.

    A side built below the requested order fails, with checked_up_to the
    order every side reached. Coefficients outside the domain are zeroed, so
    nothing is asserted there. Raises ValueError when no n in 0..order lies
    in the domain, since a pass would then have compared nothing.
    """
    first, step = _DOMAINS[ident.domain]
    if first > order:
        raise ValueError(
            f"identity {ident.id}: no n in 0..{order} lies in its domain"
            f" ({ident.domain})"
        )
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
    return _compare(_resolve(ident, "series"), order)


def verify_convolution(ident: Identity | str, n_max: int) -> VerifyReport:
    return _compare(_resolve(ident, "convolution"), n_max)


def verify_numeric(ident: Identity | str, precision: int) -> VerifyReport:
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


def verify_all(config: RunConfig = RunConfig()) -> list[VerifyReport]:
    """Run every registered identity; reports come back sorted by id."""
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
