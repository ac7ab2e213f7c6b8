"""Correctness oracle: decides whether one item's output is right.

An item fails on a nonzero exit code, a status other than "pass", a
``checked_up_to`` (``precision_bits`` for eval, ``order`` for series) other
than the one requested, or ``coeffs`` / ``terms`` that differ from the
reference. Outputs are compared as parsed values, so a JSON field added
later does not count as a failure. References for ``expand`` and ``derive``
are digests recorded once by record_reference.py;
``product_expansion`` results are compared with an integer schoolbook
product computed here.
"""

from __future__ import annotations

import copy
import hashlib
import json
from fractions import Fraction


def schoolbook_product(factors, order: int) -> list[int]:
    """Coefficients of prod over (a, b, e) of prod_n (1 - q^(a+bn))^e to q^order.

    Multiplies by (1 - q^m) for e > 0 and by 1/(1 - q^m) = 1 + q^m + q^2m + ...
    for e < 0, one factor at a time, on plain integers.
    """
    c = [1] + [0] * order
    for a, b, e in factors:
        for m in range(a, order + 1, b):
            for _ in range(abs(e)):
                if e > 0:
                    for i in range(order, m - 1, -1):
                        c[i] -= c[i - m]
                else:
                    for i in range(m, order + 1):
                        c[i] += c[i - m]
    return c


def _rationals(strings) -> list[str]:
    return [str(Fraction(s)) for s in strings]


def canonical(item_type: str, payload) -> list:
    """The compared value of an expand or derive output, independent of layout."""
    if item_type == "expand":
        return _rationals(payload["coeffs"])
    return sorted([list(t["exps"]), str(Fraction(t["coeff"]))] for t in payload["terms"])


def digest(item_type: str, payload) -> str:
    blob = json.dumps(canonical(item_type, payload), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check(item: dict, exit_code: int, stdout: str, reference: dict) -> str | None:
    """None if the output is right, else the reason it is wrong."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
        return _check_payload(item, payload, reference)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"


def _check_payload(item, payload, reference) -> str | None:
    kind = item["type"]
    if kind == "verify":
        if not isinstance(payload, list) or len(payload) != 1:
            return "expected exactly one report"
        payload = payload[0]
        if payload["id"] != item["id"]:
            return f"report for {payload['id']!r}"
    if kind in ("verify", "eval"):
        if payload["status"] != "pass":
            return f"status {payload['status']!r}"
        field = "checked_up_to" if kind == "verify" else "precision_bits"
        if payload[field] != item["checked_up_to"]:
            return f"{field} {payload[field]} != {item['checked_up_to']}"
        return None
    if kind == "expand":
        if payload["name"] != item["id"]:
            return f"name {payload['name']!r}"
    if kind == "derive":
        if payload["family"] != item["id"] or payload["index"] != item["index"]:
            return "wrong family or index"
    if kind in ("expand", "product"):
        if payload["order"] != item["checked_up_to"] or len(payload["coeffs"]) != item["checked_up_to"] + 1:
            return f"order {payload['order']} != {item['checked_up_to']}"
    if kind == "product":
        want = schoolbook_product(item["factors"], item["order"])
        got = [Fraction(s) for s in payload["coeffs"]]
        if got != want:
            n = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            return f"coefficient of q^{n} is {got[n]}, schoolbook gives {want[n]}"
        return None
    if digest(kind, payload) != reference["digests"][item["key"]]:
        return f"{'coeffs' if kind == 'expand' else 'terms'} differ from the reference"
    return None


def corruptions(item: dict, stdout: str):
    """Deliberately wrong versions of a right output, as (what, exit, stdout)."""
    yield "nonzero exit", 1, stdout
    payload = json.loads(stdout)
    report = payload[0] if item["type"] == "verify" else payload

    def edited(change):
        bad = copy.deepcopy(payload)
        change(bad[0] if item["type"] == "verify" else bad)
        return json.dumps(bad)

    if "status" in report:
        yield "status fail", 0, edited(lambda r: r.update(status="fail"))
    for field in ("checked_up_to", "precision_bits", "order"):
        if field in report:
            yield f"{field} off by one", 0, edited(lambda r: r.update({field: r[field] - 1}))
    if "coeffs" in report:
        def bump(r):
            r["coeffs"][-1] = str(Fraction(r["coeffs"][-1]) + 1)
        yield "last coefficient + 1", 0, edited(bump)
    if "terms" in report:
        def bump_term(r):
            r["terms"][0]["coeff"] = str(Fraction(r["terms"][0]["coeff"]) + 1)
        yield "first term coefficient + 1", 0, edited(bump_term)


def self_check(items, outputs, reference) -> list[str]:
    """Problems with the checker itself, tried on outputs it accepted.

    Every corruption of an accepted output must be flagged, and the same
    output with an extra JSON field must still be accepted.
    """
    problems = []
    seen = set()
    for item in items:
        exit_code, stdout = outputs[item["key"]]
        if item["type"] in seen or check(item, exit_code, stdout, reference) is not None:
            continue
        seen.add(item["type"])
        for what, code, bad in corruptions(item, stdout):
            if check(item, code, bad, reference) is None:
                problems.append(f"{item['key']}: {what} not flagged")
        payload = json.loads(stdout)
        (payload[0] if item["type"] == "verify" else payload)["added_field"] = 1
        if check(item, 0, json.dumps(payload), reference) is not None:
            problems.append(f"{item['key']}: an added JSON field was flagged")
    return problems
