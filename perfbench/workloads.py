"""The benchmark's two workloads, as fixed item lists permuted by the seed.

An item is one CLI call (``argv``) or one library ``product_expansion`` call
(``factors``, ``order``). Its ``type`` tells the oracle how to check the
output. The registry ids and special-value ids come from ``reference.json``,
recorded once by ``record_reference.py``, so that an entry added to the registry
later does not change the work a workload does.

registry_default  ``verify --identity ID --order 70 --format json`` for every
                  registry entry (nmax 100 and 256 bits, the defaults): the
                  work of ``qram verify --all --order 70``, about half of it
                  dense ``series.mul`` over Fraction.
deep_products     two item sets that make almost no dense ``series.mul``, so
                  that it is the control for a kernel change:
                  ``convolve --nmax 200`` for the convolution entries and
                  ``eval --precision 1024`` for the special values (pointwise
                  divisor sums, the convolution folds and mpmath); and
                  ``expand --order 300`` for one name per series grammar,
                  ``derive`` for the four families at n = 0..12 and library
                  ``product_expansion`` calls (sparse factor sweeps and
                  ``div``, generators and sieves at 1.5x the default order,
                  large JSON rendering, the symbolic weighted algebra).

The sizes are a third to a fifth of the natural ones (the CLI's default
order 200 for verify; nmax 1000, 4096 bits and order 1000 for deep_products),
so that one pass over either workload takes 2-3.5 s: a 60-s run then times
every item 15 times or more, which its per-item minimum needs to repeat from
run to run (see run.py).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

WORKLOADS = ("registry_default", "deep_products")

VERIFY_ORDER = 70
# checked_up_to of verify --identity --order 70, by registry kind
VERIFY_CHECKED = {"series": VERIFY_ORDER, "convolution": 100, "numeric-ref": 256}

CONVOLVE_NMAX = 200
EVAL_PRECISION = 1024

# one name per grammar line of generators.NAME_PATTERNS
EXPAND_NAMES = ("E8", "hahnQ", "T4", "poch", "theta_p1_p5", "phi_tilde_2_7")
EXPAND_ORDER = 300

DERIVE_FAMILIES = ("T", "F", "psi", "eps")
DERIVE_INDICES = range(13)  # the weights up to 24 of full_report's scan

# (label, factors (a, b, e) meaning prod_n (1 - q^(a+bn))^e, order)
FIXED_PRODUCTS = (
    ("(q;q)^3", [(1, 1, 3)], 150),
    ("(q;q)^-24", [(1, 1, -24)], 50),
    ("(q;q)^3 (q;q^2)^2", [(1, 1, 3), (1, 2, 2)], 120),
    ("(q;q^2)^-1 (q^2;q^4)", [(1, 2, -1), (2, 4, 1)], 150),
)

# Seed-drawn eta quotients: one list per shape below, each factor (a, b, e)
# with the b and e given and a drawn from 1..b-1 with gcd(a, b) = 1. The
# shapes fix the cost of each list (a shared factor of a and b would make the
# product sparse), so the seed moves the inputs but not the size of the work.
DRAWN_SHAPES = (((3, 2), (4, -1)), ((5, -1), (3, 1)), ((4, 1), (5, 2)))
DRAWN_ORDER = 120


def load_reference() -> dict:
    with REFERENCE.open() as f:
        return json.load(f)


def _verify(ident: str, kind: str) -> dict:
    return {
        "key": f"verify:{ident}",
        "type": "verify",
        "argv": [
            "verify", "--identity", ident, "--order", str(VERIFY_ORDER),
            "--format", "json",
        ],
        "id": ident,
        "checked_up_to": VERIFY_CHECKED[kind],
    }


def _convolve(ident: str) -> dict:
    return {
        "key": f"convolve:{ident}",
        "type": "verify",
        "argv": [
            "convolve", "--identity", ident, "--nmax", str(CONVOLVE_NMAX),
            "--format", "json",
        ],
        "id": ident,
        "checked_up_to": CONVOLVE_NMAX,
    }


def _eval(value: str) -> dict:
    return {
        "key": f"eval:{value}",
        "type": "eval",
        "argv": [
            "eval", "--value", value, "--precision", str(EVAL_PRECISION),
            "--format", "json",
        ],
        "id": value,
        "checked_up_to": EVAL_PRECISION,
    }


def _expand(name: str) -> dict:
    return {
        "key": f"expand:{name}",
        "type": "expand",
        "argv": [
            "expand", "--series", name, "--order", str(EXPAND_ORDER),
            "--format", "json",
        ],
        "id": name,
        "checked_up_to": EXPAND_ORDER,
    }


def _derive(fam: str, n: int) -> dict:
    return {
        "key": f"derive:{fam}:{n}",
        "type": "derive",
        "argv": ["derive", "--family", fam, "--index", str(n), "--format", "json"],
        "id": fam,
        "index": n,
    }


def _product(label: str, factors, order: int) -> dict:
    return {
        "key": f"product:{label}@{order}",
        "type": "product",
        "factors": [list(f) for f in factors],
        "order": order,
        "checked_up_to": order,
    }


def draw_products(rng: random.Random) -> list[dict]:
    out = []
    for shape in DRAWN_SHAPES:
        factors = []
        for b, e in shape:
            a = rng.choice([a for a in range(1, b) if math.gcd(a, b) == 1])
            factors.append((a, b, e))
        label = " ".join(f"(q^{a};q^{b})^{e}" for a, b, e in factors)
        out.append(_product(label, factors, DRAWN_ORDER))
    return out


def build(workload: str, seed: int, reference: dict) -> list[dict]:
    """The workload's items in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "registry_default":
        items = [_verify(i, k) for i, k in reference["registry"].items()]
    elif workload == "deep_products":
        items = [_convolve(i) for i in reference["convolution_ids"]]
        items += [_eval(v) for v in reference["special_ids"]]
        items += [_expand(n) for n in EXPAND_NAMES]
        items += [_derive(f, n) for f in DERIVE_FAMILIES for n in DERIVE_INDICES]
        items += [_product(*p) for p in FIXED_PRODUCTS]
        items += draw_products(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(items)
    return items
