"""Tests of the benchmark's correctness oracle; they need no qram.

    python3 -m pytest perfbench/test_oracle.py
"""

import json

import oracle
import workloads


def test_schoolbook_product_known_sequences():
    # Euler's pentagonal theorem, the partition numbers, Jacobi's cube
    assert oracle.schoolbook_product([(1, 1, 1)], 12) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    assert oracle.schoolbook_product([(1, 1, -1)], 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert oracle.schoolbook_product([(1, 1, 3)], 10) == [1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9]
    # Euler: parts into odd parts 1/(q;q^2) = distinct parts (q^2;q^2)/(q;q)
    distinct = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
    assert oracle.schoolbook_product([(1, 2, -1)], 10) == distinct
    assert oracle.schoolbook_product([(2, 2, 1), (1, 1, -1)], 10) == distinct


def _right_outputs():
    """One item of each type with a right output, and references for them."""
    verify = workloads._verify("t9", "convolution")
    ev = workloads._eval("hahn.P")
    expand = workloads._expand("poch")
    derive = workloads._derive("T", 1)
    product = workloads._product("(q;q)", [(1, 1, 1)], 1000)
    pent = oracle.schoolbook_product([(1, 1, 1)], 1000)
    order = workloads.EXPAND_ORDER
    expand_payload = {"name": "poch", "order": order, "coeffs": [str(c) for c in pent[: order + 1]]}
    derive_payload = {
        "family": "T", "index": 1, "pretty": "P", "ring": "classical",
        "terms": [{"exps": [1, 0, 0, 0], "coeff": "1"}],
    }
    outputs = {
        verify["key"]: [{"id": "t9", "status": "pass", "checked_up_to": 100}],
        ev["key"]: {"id": "hahn.P", "status": "pass", "precision_bits": workloads.EVAL_PRECISION},
        expand["key"]: expand_payload,
        derive["key"]: derive_payload,
        product["key"]: {"order": 1000, "coeffs": [str(c) for c in pent]},
    }
    reference = {
        "digests": {
            expand["key"]: oracle.digest("expand", expand_payload),
            derive["key"]: oracle.digest("derive", derive_payload),
        }
    }
    items = [verify, ev, expand, derive, product]
    return items, {k: (0, json.dumps(v)) for k, v in outputs.items()}, reference


def test_right_outputs_pass_and_checker_flags_corruptions():
    items, outputs, reference = _right_outputs()
    for item in items:
        assert oracle.check(item, *outputs[item["key"]], reference) is None, item["key"]
    assert oracle.self_check(items, outputs, reference) == []


def test_wrong_outputs_are_flagged():
    items, outputs, reference = _right_outputs()
    verify, ev, expand, derive, product = items
    assert oracle.check(verify, 0, "Traceback (most recent call last):", reference)
    assert oracle.check(verify, 0, "[]", reference)
    wrong_id = json.dumps([{"id": "t10", "status": "pass", "checked_up_to": 100}])
    assert oracle.check(verify, 0, wrong_id, reference)
    low_precision = json.dumps({"id": "hahn.P", "status": "pass", "precision_bits": 256})
    assert oracle.check(ev, 0, low_precision, reference)
    extra_term = json.loads(outputs[derive["key"]][1])
    extra_term["terms"].append({"exps": [0, 0, 1, 0], "coeff": "0"})
    assert oracle.check(derive, 0, json.dumps(extra_term), reference)
    short = json.loads(outputs[product["key"]][1])
    short["coeffs"] = short["coeffs"][:-1]
    assert oracle.check(product, 0, json.dumps(short), reference)


def test_layout_changes_are_not_failures():
    items, outputs, reference = _right_outputs()
    expand = items[2]
    payload = json.loads(outputs[expand["key"]][1])
    payload["coeffs"] = [f"{c}/1" for c in payload["coeffs"]]
    payload["extra"] = {"added": True}
    assert oracle.check(expand, 0, json.dumps(payload, indent=4), reference) is None
