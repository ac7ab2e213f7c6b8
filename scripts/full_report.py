"""Run the whole verification battery and print a one-page report.

Covers the three registry kinds (exact series identities, divisor-sum
convolutions, closed-form special values) plus a structural scan of the
derived ratio polynomials: weight homogeneity and which denominators show
up in the coefficients. The scan is how the general-weight claims were
spot checked while the tables in the identity registry were being frozen.

    python3 scripts/full_report.py
    python3 scripts/full_report.py --order 400 --precision 512
    python3 scripts/full_report.py --json-out report.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qram import identities as I
from qram import numeric as N
from qram import weighted as W


def _at_least(minimum: int):
    """argparse type for an integer bound >= minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def structural_scan(max_weight: int) -> dict:
    """Homogeneity and coefficient-denominator survey of ratio_poly."""
    out = {}
    for fam in W.FAMILY_SETUP:
        rows = []
        denoms = set()
        for n in range(0, max_weight // 2 + 1):
            poly = W.ratio_poly(fam, n)
            rows.append(
                {
                    "index": n,
                    "weight": poly.homogeneous_weight(),
                    "monomials": len(poly.terms),
                }
            )
            denoms |= {c.denominator for c in poly.terms.values()}
        out[fam] = {
            "homogeneous": all(r["weight"] == 2 * r["index"] for r in rows),
            "denominators_seen": sorted(denoms),
            "rows": rows,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--order", type=_at_least(0), default=I.RunConfig.order,
        help="series truncation order",
    )
    ap.add_argument(
        "--nmax", type=_at_least(0), default=I.RunConfig.n_max, help="convolution bound"
    )
    ap.add_argument(
        "--precision", type=_at_least(N.MIN_PRECISION), default=I.RunConfig.precision,
        help="bits for special values",
    )
    ap.add_argument("--max-weight", type=int, default=24, help="structural scan bound")
    ap.add_argument("--json-out", type=Path, help="also write the full report as JSON")
    args = ap.parse_args(argv)

    t0 = time.time()
    # each special value is evaluated once and feeds both its numeric-ref
    # registry row and the special-value summary below
    specials = N.check_all_specials(args.precision)
    by_special = {r["id"]: r for r in specials}
    config = I.RunConfig(args.order, args.nmax, args.precision)
    try:
        reports = [
            I.numeric_report(e.id, by_special[e.id])
            if e.kind == "numeric-ref"
            else I.verify_one(e, config)
            for e in I.registry()
        ]
    except ValueError as exc:  # a bound that leaves nothing to compare
        print(exc, file=sys.stderr)
        return 2
    by_kind = {}
    for rep in reports:
        kind = I.lookup(rep.id).kind
        by_kind.setdefault(kind, []).append(rep)

    print(f"registry: {len(reports)} entries "
          f"(order={args.order}, nmax={args.nmax}, precision={args.precision})")
    for kind in ("series", "convolution", "numeric-ref"):
        group = by_kind.get(kind, [])
        npass = sum(1 for r in group if r.status == "pass")
        print(f"  {kind:12s} {npass}/{len(group)} pass")
        for r in group:
            if r.status != "pass":
                print(f"    FAIL {r.id}: {r.first_failure}")

    worst = max(specials, key=lambda r: float(r["rel_err"]))
    print(f"special values: {sum(1 for r in specials if r['status'] == 'pass')}"
          f"/{len(specials)} pass, worst rel err {worst['rel_err']} ({worst['id']})")

    scan = structural_scan(args.max_weight)
    for fam, data in scan.items():
        mark = "ok" if data["homogeneous"] else "BROKEN"
        print(f"ratio polynomials {fam:4s} weight grading {mark}, "
              f"denominators {data['denominators_seen']}")

    elapsed = time.time() - t0
    total_fail = sum(1 for r in reports if r.status != "pass") + sum(
        1 for r in specials if r["status"] != "pass"
    )
    print(f"done in {elapsed:.1f}s, {total_fail} failures")

    if args.json_out:
        blob = {
            "config": {
                "order": args.order,
                "nmax": args.nmax,
                "precision": args.precision,
            },
            "registry": [r.to_json() for r in reports],
            "special_values": specials,
            "structural_scan": scan,
            "elapsed_seconds": round(elapsed, 2),
        }
        args.json_out.write_text(json.dumps(blob, sort_keys=True, indent=2))
        print(f"wrote {args.json_out}")

    return 0 if total_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
