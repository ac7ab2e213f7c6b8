"""Identity registry and the three verification drivers."""

from fractions import Fraction

import pytest

from qram import generators as G
from qram import series as S
from qram.divisors import DivisorKind, divisor_sum
from qram.generators import eisenstein, generator
from qram.numeric import SPECIALS
from qram.identities import (
    Identity,
    RunConfig,
    VerifyReport,
    lookup,
    registry,
    verify_all,
    verify_convolution,
    verify_numeric,
    verify_one,
    verify_series,
)


def test_registry_shape():
    entries = registry()
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    assert ids == sorted(ids)
    kinds = {}
    for e in entries:
        kinds[e.kind] = kinds.get(e.kind, 0) + 1
    assert kinds == {"series": 52, "convolution": 10, "numeric-ref": 19}


def test_registry_entries_are_described():
    for e in registry():
        assert e.statement.strip()
        assert e.source.strip()
        assert (e.kind == "numeric-ref") == (e.id in SPECIALS)


def test_full_exact_sweep_at_reduced_orders():
    # every series and convolution entry, smaller bounds for speed
    reports = [
        verify_one(e, RunConfig(order=60, n_max=40))
        for e in registry()
        if e.kind != "numeric-ref"
    ]
    assert all(r.status == "pass" for r in reports)
    assert len(reports) == 62


def test_series_driver_reports_bounds():
    rep = verify_series("ode.Q", 30)
    assert rep == VerifyReport("ode.Q", "pass", 30)
    assert rep.first_failure is None


def test_short_builder_fails_with_the_order_built():
    # both sides built to order 0 only; zero padding would make "P = Q" pass
    short = Identity(
        id="short",
        kind="series",
        statement="P = Q",
        source="negative control",
        lhs=lambda n: eisenstein(1, 0),
        rhs=lambda n: eisenstein(2, 0),
    )
    rep = verify_series(short, 200)
    assert rep.status == "fail"
    assert rep.checked_up_to == 0
    assert rep.first_failure is None
    assert rep.note == "lhs and rhs built below the requested order 200"
    # a disagreement inside the built range is still located
    one_short = Identity(
        id="one_short",
        kind="series",
        statement="P = Q",
        source="negative control",
        lhs=lambda n: eisenstein(1, n),
        rhs=lambda n: eisenstein(2, n - 1),
    )
    rep = verify_series(one_short, 10)
    assert (rep.status, rep.checked_up_to, rep.first_failure["n"]) == ("fail", 9, 1)
    assert rep.note == "rhs built below the requested order 10"


def test_convolution_driver_respects_domain():
    rep = verify_convolution("cor1.a", 25)
    assert rep.status == "pass"
    ident = lookup("cor1.a")
    assert ident.domain == "odd n >= 1"
    # odd-n identities are false off their domain; driver must not probe there
    lhs, rhs = ident.lhs(8), ident.rhs(8)
    assert lhs[3] == rhs[3]
    assert lhs[4] != rhs[4]


@pytest.mark.parametrize(
    "id_, domain",
    [
        ("cor1.a", "odd n >= 1"),
        ("cor1.b", "odd n >= 1"),
        ("t12", "odd n >= 1"),
        ("cheng_williams", "n >= 1"),
        ("remark.tilde", "n >= 1"),
        ("remark.hat", "n >= 1"),
    ],
)
def test_convolution_bound_outside_domain_is_rejected(id_, domain):
    # at n_max = 0 nothing in these domains is compared, so no pass is owed
    with pytest.raises(ValueError) as exc:
        verify_convolution(id_, 0)
    assert f"{id_}: no n in 0..0 lies in its domain ({domain})" in str(exc.value)
    assert verify_convolution(id_, 1).status == "pass"


def test_convolution_bound_zero_inside_domain_passes():
    rep = verify_convolution("t9", 0)
    assert (rep.status, rep.checked_up_to) == ("pass", 0)


def test_corrupted_identity_is_located():
    base = lookup("ode.Q")

    def bad_rhs(order: int) -> S.Series:
        s = base.rhs(order)
        coeffs = list(s.coeffs)
        coeffs[7] += Fraction(1, 3)
        return S.from_coeffs(coeffs)

    broken = Identity(
        id="ode.Q.broken",
        kind="series",
        statement=base.statement,
        source="negative control",
        domain=base.domain,
        lhs=base.lhs,
        rhs=bad_rhs,
    )
    rep = verify_series(broken, 40)
    assert rep.status == "fail"
    assert rep.first_failure["n"] == 7
    assert rep.first_failure["lhs"] != rep.first_failure["rhs"]


def test_single_corruption_fails_exactly_once():
    series_ids = [e for e in registry() if e.kind == "series"]
    target = "t1.T4"

    def run(e):
        if e.id != target:
            return verify_series(e, 40)
        wrong = Identity(
            id=e.id,
            kind="series",
            statement=e.statement,
            source=e.source,
            domain=e.domain,
            lhs=e.lhs,
            rhs=lambda order: S.add(e.rhs(order), S.shift(S.one(order - 5), 5)),
        )
        return verify_series(wrong, 40)

    reports = [run(e) for e in series_ids]
    failed = [r for r in reports if r.status == "fail"]
    assert len(failed) == 1
    assert failed[0].id == target
    assert failed[0].first_failure["n"] == 5


def test_convolution_corruption_located():
    base = lookup("t9")
    wrong = Identity(
        id=base.id,
        kind="convolution",
        statement=base.statement,
        source=base.source,
        domain=base.domain,
        lhs=base.lhs,
        rhs=lambda n_max: S.add(base.rhs(n_max), S.monomial(1, 9, n_max)),
    )
    rep = verify_convolution(wrong, 20)
    assert rep.status == "fail" and rep.first_failure["n"] == 9


def _bumped(build, n, delta, component=None):
    """build with delta added at q^n, to one component of a bundled side."""

    def bad(n_max):
        side = build(n_max)
        if component is None:
            return S.add(side, S.monomial(delta, n, n_max))
        parts = list(side)
        parts[component] = S.add(parts[component], S.monomial(delta, n, n_max))
        return tuple(parts)

    return bad


def _rebuilt(base, **changes):
    """base with some fields changed, rebuilt through Identity(...) so its
    construction-time checks run."""
    fields = {
        "id": base.id, "kind": base.kind, "statement": base.statement,
        "source": base.source, "domain": base.domain, "lhs": base.lhs, "rhs": base.rhs,
    }
    return Identity(**{**fields, **changes})


# first_failure of a corrupted convolution entry, rendered as before the
# convolution sides became Series
@pytest.mark.parametrize(
    "id_, side, n, delta, component, failure",
    [
        ("remark.tilde", "rhs", 6, Fraction(1, 3), 1,
         {"n": 6, "lhs": "(-4, -196, -7564)", "rhs": "(-4, -587/3, -7564)"}),
        ("remark.hat", "lhs", 5, 2, 0,
         {"n": 5, "lhs": "(8, 126, 3126)", "rhs": "(6, 126, 3126)"}),
        ("t9", "rhs", 9, 1, None, {"n": 9, "lhs": "4785157", "rhs": "4785158"}),
        ("cor1.a", "rhs", 7, Fraction(1, 5), None,
         {"n": 7, "lhs": "344", "rhs": "1721/5"}),
        ("t11.b", "rhs", 0, 1, None, {"n": 0, "lhs": "1/9", "rhs": "10/9"}),
        ("t12", "rhs", 11, Fraction(-3, 7), None,
         {"n": 11, "lhs": "19487172", "rhs": "136410201/7"}),
        ("cheng_williams", "lhs", 4, 1, None, {"n": 4, "lhs": "257", "rhs": "256"}),
    ],
)
def test_convolution_failure_rendering(id_, side, n, delta, component, failure):
    base = lookup(id_)
    bad = _rebuilt(base, **{side: _bumped(getattr(base, side), n, delta, component)})
    rep = verify_convolution(bad, 30)
    assert (rep.status, rep.checked_up_to, rep.note) == ("fail", 30, None)
    assert rep.first_failure == failure


def test_unknown_domain_is_rejected_at_construction():
    base = lookup("t9")
    with pytest.raises(KeyError, match="unknown domain 'even n >= 0'"):
        _rebuilt(base, domain="even n >= 0")


def _doubling(c, sign, letter, k):
    """c (sign * side + k * X), X the hahn generator letter: the scalar map from
    a lemma1 side."""
    return lambda side, n: S.scale(
        c, S.add(S.scale(sign, side), S.scale(k, generator("hahn", letter, n)))
    )


# each convolution entry derived from a series entry: its parent, and the
# linear map that takes the parent's sides to the entry's sides
DERIVED = {
    "t9": ("e8.square", lambda side, n: S.scale(Fraction(1, 480), side)),
    "t10": ("hahn.R_eq_EQ", lambda side, n: S.scale(Fraction(1, 8), side)),
    "t11.a": ("lemma1.Q", _doubling(Fraction(1, 48), 1, "Q", 3)),
    "cor1.a": ("lemma1.Q", _doubling(Fraction(1, 48 * 4), 1, "Q", 3)),
    "t11.b": ("lemma1.R", _doubling(Fraction(1, 72), -1, "R", 9)),
    "cor1.b": ("lemma1.R", _doubling(Fraction(1, 72 * 8), -1, "R", 9)),
    "t12": ("t12.core", lambda side, n: S.scale(Fraction(1, 480), side)),
}


@pytest.mark.parametrize("id_", sorted(DERIVED))
def test_derived_convolution_entry_is_parent_coefficients(id_):
    order = 60
    parent_id, to_entry = DERIVED[id_]
    entry, parent = lookup(id_), lookup(parent_id)
    assert (entry.kind, parent.kind) == ("convolution", "series")
    ns = {"all n >= 0": range(order + 1), "odd n >= 1": range(1, order + 1, 2)}[
        entry.domain
    ]
    for side in ("lhs", "rhs"):
        got = getattr(entry, side)(order)
        want = to_entry(getattr(parent, side)(order), order)
        assert [got[n] for n in ns] == [want[n] for n in ns], (id_, side)


def test_unknown_and_mismatched_lookups():
    assert lookup("no.such.identity") is None
    with pytest.raises(KeyError):
        verify_series("no.such.identity", 10)
    with pytest.raises(ValueError):
        verify_series("t9", 10)  # convolution entry, wrong driver
    with pytest.raises(ValueError):
        verify_convolution("ode.Q", 10)


def test_numeric_driver_passthrough():
    rep = verify_numeric("ct5b.phi09", 128)
    assert rep.status == "pass"
    assert rep.checked_up_to == 128
    with pytest.raises(ValueError):
        verify_numeric("t9", 128)


def test_report_json_round_trip():
    rep = verify_series("lemma1.P", 25)
    blob = rep.to_json()
    assert blob["id"] == "lemma1.P"
    assert blob["status"] == "pass"
    assert blob["checked_up_to"] == 25
    assert "first_failure" not in blob  # only present on failure
    failed = VerifyReport("x", "fail", 9, {"n": 2, "lhs": "0", "rhs": "1"})
    assert failed.to_json()["first_failure"]["n"] == 2


def test_verify_all_sorted_and_green():
    reports = verify_all(RunConfig(40, 30, 128))
    assert [r.id for r in reports] == sorted(r.id for r in reports)
    bad = [r.id for r in reports if r.status != "pass"]
    assert bad == []
    assert len(reports) == 81


def test_odd_n_consistency_between_suites():
    # on odd n the signed divisor sums collapse onto the plain ones, so the
    # all-n identity 5*sigma_3 - sigma~_3 = 48*conv implies the odd-n one
    for n in range(1, 100, 2):
        plain = divisor_sum(DivisorKind.PLAIN, 3, n)
        assert divisor_sum(DivisorKind.TILDE, 3, n) == plain
        assert divisor_sum(DivisorKind.HAT, 3, n) == plain


def test_statements_render_ratio_polys():
    assert "3P^2 - 2Q" in lookup("t1.T4").statement
    assert "135" in lookup("t4.eps5").statement
    assert "E" in lookup("t4.eps3").statement


def test_ode_identities_pin_the_scales():
    # 12 q dP/dq = P^2 - Q etc.; direct spot check of one coefficient
    p = eisenstein(1, 10)
    lhs = S.scale(12, S.euler_op(p))
    rhs = S.sub(S.mul(p, p), eisenstein(2, 10))
    assert lhs == rhs


@pytest.fixture
def builds(monkeypatch):
    """Every generator build, as (name, args), that no other build made."""
    log, depth = [], [0]
    for name, fn in list(vars(G).items()):
        if name.startswith("_") or getattr(fn, "__module__", None) != G.__name__:
            continue

        def record(*args, _name=name, _build=fn):
            if not depth[0]:
                log.append((_name, args))
            depth[0] += 1
            try:
                return _build(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(G, name, record)
    return log


def test_no_side_builds_a_generator_twice(builds):
    repeated = {}
    for e in registry():
        if e.kind == "numeric-ref":
            continue
        for side in ("lhs", "rhs"):
            builds.clear()
            getattr(e, side)(30)
            twice = {b for b in builds if builds.count(b) > 1}
            if twice:
                repeated[f"{e.id}.{side}"] = sorted(twice)
    assert repeated == {}


def test_r_eq_eq_multiplies_e_and_q(builds):
    lookup("hahn.R_eq_EQ").rhs(30)
    assert sorted(builds) == [("generator", ("hahn", "E", 30)), ("generator", ("hahn", "Q", 30))]
