"""Acceptance gate: eight go/no-go checks, one ACCEPTANCE line each.

Each test computes its verdict first, prints "ACCEPTANCE <k> PASS" or
"ACCEPTANCE <k> FAIL", and only then asserts, so the verdict line is always
visible in captured output even when a criterion fails.
"""

import random
import time
from fractions import Fraction

import mpmath as mp

from qram import series as S
from qram.divisors import DivisorKind, convolution, divisor_sum, divisor_sum_table
from qram.generators import eisenstein, family, hahn, phi_series
from qram.identities import (
    Identity,
    lookup,
    registry,
    verify_convolution,
    verify_series,
)
from qram.numeric import SPECIALS, check_special
from qram.weighted import (
    CLASSICAL_RULES,
    HAHN_RULES,
    canonicalize,
    derive,
    eval_as_series,
    from_terms,
    gen,
    phi_poly,
    ratio_poly,
)

PLAIN, TILDE, HAT = DivisorKind.PLAIN, DivisorKind.TILDE, DivisorKind.HAT


def _verdict(k: int, failures: list, capsys) -> None:
    ok = not failures
    with capsys.disabled():  # verdict line must survive pytest's capture
        print(f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {k}: " + "; ".join(map(str, failures[:8]))


def _wp(ring, spec):
    return from_terms(ring, spec)


# exps tuples are (i, j, k, l) for P^i E^j Q^k R^l; E is the signed ring only
RATIO_TABLE = {
    ("T", 1): _wp("classical", {(1, 0, 0, 0): 1}),
    ("T", 2): _wp("classical", {(2, 0, 0, 0): 3, (0, 0, 1, 0): -2}),
    ("T", 3): _wp(
        "classical", {(3, 0, 0, 0): 15, (1, 0, 1, 0): -30, (0, 0, 0, 1): 16}
    ),
    ("T", 4): _wp(
        "classical",
        {(4, 0, 0, 0): 105, (2, 0, 1, 0): -420, (1, 0, 0, 1): 448, (0, 0, 2, 0): -132},
    ),
    ("F", 1): _wp("classical", {(1, 0, 0, 0): 1}),
    ("F", 2): _wp(
        "classical", {(2, 0, 0, 0): Fraction(5, 3), (0, 0, 1, 0): Fraction(-2, 3)}
    ),
    ("F", 3): _wp(
        "classical",
        {
            (3, 0, 0, 0): Fraction(35, 9),
            (1, 0, 1, 0): Fraction(-14, 3),
            (0, 0, 0, 1): Fraction(16, 9),
        },
    ),
    ("F", 4): _wp(
        "classical",
        {
            (4, 0, 0, 0): Fraction(35, 3),
            (2, 0, 1, 0): -28,
            (1, 0, 0, 1): Fraction(64, 3),
            (0, 0, 2, 0): -4,
        },
    ),
    ("psi", 1): _wp("hahn", {(1, 0, 0, 0): 1}),
    ("psi", 2): _wp("hahn", {(2, 0, 0, 0): 3, (0, 0, 1, 0): -2}),
    ("psi", 3): _wp("hahn", {(3, 0, 0, 0): 15, (1, 0, 1, 0): -30, (0, 0, 0, 1): 16}),
    ("eps", 1): _wp("hahn", {(1, 0, 0, 0): 9, (0, 1, 0, 0): -8}),
    ("eps", 2): _wp(
        "hahn",
        {(2, 0, 0, 0): 135, (1, 1, 0, 0): -240, (0, 2, 0, 0): 64, (0, 0, 1, 0): 42},
    ),
}

# multiplier * Phi_{r,s} = polynomial
PHI_TABLE = {
    ("plain", 1, 2): (288, _wp("classical", {(0, 0, 1, 0): 1, (2, 0, 0, 0): -1})),
    ("plain", 1, 4): (720, _wp("classical", {(1, 0, 1, 0): 1, (0, 0, 0, 1): -1})),
    ("plain", 1, 6): (1008, _wp("classical", {(0, 0, 2, 0): 1, (1, 0, 0, 1): -1})),
    ("plain", 2, 3): (
        1728,
        _wp("classical", {(1, 0, 1, 0): 3, (0, 0, 0, 1): -2, (3, 0, 0, 0): -1}),
    ),
    ("plain", 2, 5): (
        1728,
        _wp("classical", {(2, 0, 1, 0): 1, (1, 0, 0, 1): -2, (0, 0, 2, 0): 1}),
    ),
    ("plain", 2, 7): (
        1728,
        _wp("classical", {(1, 0, 2, 0): 2, (2, 0, 0, 1): -1, (0, 0, 1, 1): -1}),
    ),
    ("tilde", 1, 2): (32, _wp("hahn", {(2, 0, 0, 0): 1, (0, 0, 1, 0): -1})),
    ("tilde", 1, 4): (16, _wp("hahn", {(1, 0, 1, 0): -1, (0, 0, 0, 1): 1})),
    ("tilde", 1, 6): (
        16,
        _wp("hahn", {(1, 0, 0, 1): 3, (0, 0, 2, 0): -1, (0, 1, 0, 1): -2}),
    ),
    ("tilde", 2, 3): (
        64,
        _wp("hahn", {(3, 0, 0, 0): 1, (1, 0, 1, 0): -3, (0, 0, 0, 1): 2}),
    ),
    ("tilde", 2, 5): (
        64,
        _wp(
            "hahn",
            {(2, 0, 1, 0): -5, (0, 0, 2, 0): -1, (1, 0, 0, 1): 10, (0, 1, 0, 1): -4},
        ),
    ),
    ("tilde", 2, 7): (
        64,
        _wp(
            "hahn",
            {
                (2, 0, 0, 1): 21,
                (0, 0, 1, 1): 13,
                (1, 0, 2, 0): -14,
                (1, 1, 0, 1): -28,
                (0, 2, 0, 1): 8,
            },
        ),
    ),
}

# (family, ratio index) -> (base member index, target member index)
def _family_span(fam: str, n: int) -> tuple[int, int]:
    if fam == "eps":
        return 1, 2 * n + 1
    return 0, 2 * n


def test_acceptance_1_polynomial_tables(capsys):
    t0 = time.time()
    failures = []
    for (fam, n), want in RATIO_TABLE.items():
        got = canonicalize(ratio_poly(fam, n))
        if got != want:
            failures.append(f"ratio {fam}[{n}]")
    for (variant, r, s), (mult, want) in PHI_TABLE.items():
        got = phi_poly(variant, r, s).scale(mult)
        if got != want:
            failures.append(f"phi {variant}[{r},{s}]")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        failures.append(f"table derivation took {elapsed:.2f}s, budget 1s")
    _verdict(1, failures, capsys)


def test_acceptance_2_series_suite_order_200(capsys):
    must_cover = {
        "prop_p2", "fact_f1", "eps1.product", "lemma_lx", "t12.core",
        "cor1.q_lemma", "cor1.r_lemma", "e8.square", "e10.QR", "e14.QQR",
        "cor.mixed_T", "cor.mixed_F",
    }
    entries = [e for e in registry() if e.kind == "series"]
    missing = must_cover - {e.id for e in entries}
    failures = [f"missing id {m}" for m in sorted(missing)]
    for e in entries:
        rep = verify_series(e, 200)
        if rep.status != "pass":
            failures.append(f"{e.id} first failure {rep.first_failure}")
    _verdict(2, failures, capsys)


def test_acceptance_3_convolution_suite(capsys):
    failures = []
    for id_ in ("t9", "t10", "t11.a", "t11.b"):
        rep = verify_convolution(id_, 100)
        if rep.status != "pass":
            failures.append(f"{id_}: {rep.first_failure}")
    for id_ in ("cor1.a", "cor1.b", "t12"):
        rep = verify_convolution(id_, 99)
        if rep.status != "pass":
            failures.append(f"{id_}: {rep.first_failure}")

    # worked examples, bit-exact
    t10_rhs = lookup("t10").rhs(4)[4]
    if t10_rhs != -1055 or divisor_sum(TILDE, 5, 4) != -1055:
        failures.append(f"t10 example gave {t10_rhs}")
    cor_a = lookup("cor1.a").rhs(5)[5]
    if cor_a != 126 or divisor_sum(PLAIN, 3, 5) != 126:
        failures.append(f"cor1.a example gave {cor_a}")
    cor_b = lookup("cor1.b").rhs(3)[3]
    if cor_b != 244 or divisor_sum(PLAIN, 5, 3) != 244:
        failures.append(f"cor1.b example gave {cor_b}")
    quad = convolution([(HAT, 1)] * 4, 3)
    pair = convolution([(HAT, 1), (TILDE, 5)], 3)
    if quad != Fraction(163, 864):
        failures.append(f"t12 quadruple sum {quad}")
    if pair != Fraction(-58, 3):
        failures.append(f"t12 pair sum {pair}")
    final = 12 * (864 * quad - pair)
    if final != 2188 or divisor_sum(PLAIN, 7, 3) != 2188:
        failures.append(f"t12 example gave {final}")
    _verdict(3, failures, capsys)


def test_acceptance_4_dual_path_order_100(capsys):
    failures = []
    for (fam, n), poly in RATIO_TABLE.items():
        base_i, target_i = _family_span(fam, n)
        lhs = S.mul(eval_as_series(poly, 100), family(fam, base_i, 100))
        if lhs != family(fam, target_i, 100):
            failures.append(f"ratio {fam}[{n}]")
    for (variant, r, s), (mult, poly) in PHI_TABLE.items():
        lhs = S.scale(mult, phi_series(variant, r, s, 100))
        if lhs != eval_as_series(poly, 100):
            failures.append(f"phi {variant}[{r},{s}]")
    _verdict(4, failures, capsys)


def test_acceptance_5_special_values_256_bits(capsys):
    tol = mp.mpf(2) ** -224
    failures = []
    for id_ in sorted(SPECIALS):
        rep = check_special(id_, 256)
        err_key = "abs_err" if SPECIALS[id_].zero_target else "rel_err"
        err = mp.mpf(rep[err_key])
        if rep["status"] != "pass" or not err < tol:
            failures.append(f"{id_} {err_key}={rep[err_key]}")
    _verdict(5, failures, capsys)


def test_acceptance_6_general_claims_to_weight_24(capsys):
    failures = []
    for fam in ("T", "F", "psi", "eps"):
        for n in range(1, 13):
            poly = ratio_poly(fam, n)
            if poly.homogeneous_weight() != 2 * n:
                failures.append(f"{fam}[{n}] not weight {2 * n}")
                continue
            base_i, target_i = _family_span(fam, n)
            lhs = S.mul(eval_as_series(poly, 60), family(fam, base_i, 60))
            if lhs != family(fam, target_i, 60):
                failures.append(f"{fam}[{n}] series mismatch")
    _verdict(6, failures, capsys)


def test_acceptance_7_property_suites(capsys):
    failures = []
    rnd = random.Random(20260819)

    def rand_series(order=10, unit=False):
        coeffs = [
            Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(order + 1)
        ]
        if unit and coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        return S.from_coeffs(coeffs)

    # derivation Leibniz rule, both rings
    samples = {
        "classical": [
            gen("classical", "P"),
            gen("classical", "Q"),
            gen("classical", "R"),
            ratio_poly("T", 2),
            ratio_poly("F", 3),
        ],
        "hahn": [
            gen("hahn", "P"),
            gen("hahn", "E"),
            gen("hahn", "Q"),
            gen("hahn", "R"),
            ratio_poly("eps", 2),
        ],
    }
    for ring, polys in samples.items():
        rules = CLASSICAL_RULES if ring == "classical" else HAHN_RULES
        for p in polys:
            for q in polys:
                if derive(rules, p * q) != derive(rules, p) * q + p * derive(rules, q):
                    failures.append(f"Leibniz {ring}")

    # ring axioms and division round trips on random series
    for _ in range(30):
        a, b, c = rand_series(), rand_series(), rand_series()
        u = rand_series(unit=True)
        if S.add(S.add(a, b), c) != S.add(a, S.add(b, c)):
            failures.append("add associativity")
        if S.mul(a, b) != S.mul(b, a):
            failures.append("mul commutativity")
        if S.mul(S.mul(a, b), c) != S.mul(a, S.mul(b, c)):
            failures.append("mul associativity")
        if S.mul(a, S.add(b, c)) != S.add(S.mul(a, b), S.mul(a, c)):
            failures.append("distributivity")
        if S.div(S.mul(a, u), u) != a:
            failures.append("div/mul round trip")
        k = rnd.randint(1, 4)
        if S.substitute_power(S.mul(a, b), k) != S.mul(
            S.substitute_power(a, k), S.substitute_power(b, k)
        ):
            failures.append("substitute_power homomorphism")

    # signed divisor-sum reductions up to ten thousand
    limit = 10_000
    for s in (1, 3, 5):
        plain = divisor_sum_table(PLAIN, s, limit)
        tilde = divisor_sum_table(TILDE, s, limit)
        hat = divisor_sum_table(HAT, s, limit)
        for n in range(1, limit + 1):
            half = plain[n // 2] if n % 2 == 0 else 0
            if tilde[n] != plain[n] - 2 ** (s + 1) * half:
                failures.append(f"tilde reduction s={s} n={n}")
                break
            if hat[n] != plain[n] - 2 * half:
                failures.append(f"hat reduction s={s} n={n}")
                break

    # product-vs-sum equalities at order 500
    if family("T", 0, 500) != S.product_expansion([(1, 1, 1)], 500):
        failures.append("pentagonal order 500")
    if family("F", 0, 500) != S.product_expansion([(1, 1, 3)], 500):
        failures.append("cube order 500")
    _verdict(7, failures, capsys)


def test_acceptance_8_negative_controls(capsys):
    failures = []

    base = lookup("ode.Q")

    def bad_rhs(order: int) -> S.Series:
        s = base.rhs(order)
        coeffs = list(s.coeffs)
        coeffs[13] += 1
        return S.from_coeffs(coeffs)

    broken = Identity(
        id="ode.Q.broken", kind="series", statement=base.statement,
        source="negative control", domain=base.domain, lhs=base.lhs, rhs=bad_rhs,
    )
    rep = verify_series(broken, 40)
    if rep.status != "fail" or rep.first_failure["n"] != 13:
        failures.append(f"series corruption not located: {rep}")

    conv = lookup("t9")
    broken_conv = Identity(
        id="t9.broken", kind="convolution", statement=conv.statement,
        source="negative control", domain=conv.domain,
        lhs=conv.lhs,
        rhs=lambda m: S.add(conv.rhs(m), S.monomial(1, 9, m)),
    )
    rep = verify_convolution(broken_conv, 20)
    if rep.status != "fail" or rep.first_failure["n"] != 9:
        failures.append(f"convolution corruption not located: {rep}")

    for id_ in sorted(SPECIALS):
        lo = check_special(id_, 128)
        hi = check_special(id_, 256)
        if not mp.mpf(hi["abs_err"]) < mp.mpf(lo["abs_err"]):
            failures.append(f"{id_} abs err not reduced")
        if not mp.mpf(hi["rel_err"]) < mp.mpf(lo["rel_err"]):
            failures.append(f"{id_} rel err not reduced")
    _verdict(8, failures, capsys)
