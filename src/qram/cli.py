"""Command-line front end.

Verbs: expand a named series, verify identities (one or the whole registry),
run convolution checks, evaluate closed-form special values, derive ratio
polynomials, and list the valid names. Output is text by default or JSON with
--format json; JSON is byte-stable (sorted keys, canonical rationals, reports
ordered by id). Exit status: 0 all checks passed, 1 some check failed,
2 usage error or unknown name.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import generators as G
from . import identities as I
from . import numeric as N
from . import series as S
from . import weighted as W

_FAMILIES = ("T", "F", "psi", "eps")


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


_PLURALS = {"identity": "identities", "family": "families"}


def _unknown(kind: str, name: str, valid: list[str]) -> int:
    plural = _PLURALS.get(kind, kind + "s")
    print(f"unknown {kind} {name!r}; valid {plural}:", file=sys.stderr)
    for v in valid:
        print(f"  {v}", file=sys.stderr)
    return 2


def _print_reports(reports: list[I.VerifyReport], fmt: str, footer: bool) -> None:
    if fmt == "json":
        print(_dumps([r.to_json() for r in reports]))
        return
    for r in reports:
        ident = I.lookup(r.id)
        mark = "pass" if r.status == "pass" else "FAIL"
        line = f"{mark}  {r.id:18s} checked to {r.checked_up_to}"
        if ident is not None:
            line += f" | {ident.statement} [{ident.source}]"
        print(line)
        if r.first_failure is not None:
            f = r.first_failure
            print(f"      first failure at n={f['n']}: lhs={f['lhs']} rhs={f['rhs']}")
        if r.note:
            print(f"      note: {r.note}")
    if footer:
        npass = sum(1 for r in reports if r.status == "pass")
        total = len(I.registry())
        print(
            f"{len(reports)}/{total} registry entries checked: "
            f"{npass} pass, {len(reports) - npass} fail"
        )


def _cmd_expand(args) -> int:
    try:
        ser = S.truncate(G.series_by_name(args.series, args.order), args.order)
    except KeyError:
        return _unknown("series name", args.series, G.NAME_PATTERNS)
    if args.format == "json":
        print(_dumps({"name": args.series, **ser.to_json()}))
    else:
        coeffs = " ".join(S.rational_str(c) for c in ser.coeffs)
        print(f"{args.series} order {ser.order}: {coeffs}")
    return 0


def _verify_like(args, config: I.RunConfig, restrict_kind=None) -> int:
    if args.all:
        idents = I.registry()
        if restrict_kind is not None:
            idents = [e for e in idents if e.kind == restrict_kind]
        footer = restrict_kind is None
    else:
        if not args.identity:
            print("need --identity ID or --all", file=sys.stderr)
            return 2
        ident = I.lookup(args.identity)
        if ident is None or (
            restrict_kind is not None and ident.kind != restrict_kind
        ):
            valid = [
                e.id
                for e in I.registry()
                if restrict_kind is None or e.kind == restrict_kind
            ]
            return _unknown("identity", args.identity, valid)
        idents = [ident]
        footer = False
    try:
        reports = [I.verify_one(e, config) for e in idents]
    except ValueError as exc:  # a bound that leaves nothing to compare
        print(exc, file=sys.stderr)
        return 2
    _print_reports(reports, args.format, footer)
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_verify(args) -> int:
    return _verify_like(args, I.RunConfig(args.order, args.nmax, args.precision))


def _cmd_convolve(args) -> int:
    return _verify_like(args, I.RunConfig(n_max=args.nmax), "convolution")


def _cmd_eval(args) -> int:
    try:
        report = N.check_special(args.value, args.precision)
    except KeyError:
        return _unknown("special value", args.value, sorted(N.SPECIALS))
    if args.format == "json":
        print(_dumps(report))
    else:
        sv = N.SPECIALS[args.value]
        print(f"{report['status']}  {args.value}  [{sv.statement}]")
        print(
            f"      at {report['precision_bits']} bits: "
            f"series={report['series_value']}"
        )
        print(f"      closed form  {report['closed_form']}")
        print(f"      abs err {report['abs_err']}, rel err {report['rel_err']}")
        if "note" in report:
            print(f"      note: {report['note']}")
    return 0 if report["status"] == "pass" else 1


def _cmd_derive(args) -> int:
    if args.family not in _FAMILIES:
        return _unknown("family", args.family, list(_FAMILIES))
    if args.index < 0:
        print("--index must be >= 0", file=sys.stderr)
        return 2
    poly = W.ratio_poly(args.family, args.index)
    if args.format == "json":
        payload = {
            "family": args.family,
            "index": args.index,
            "pretty": W.pretty(poly, ascii_letters=True),
            **poly.to_json(),
        }
        print(_dumps(payload))
    else:
        print(W.pretty(poly))
    return 0


def _cmd_list(args) -> int:
    if args.format == "json":
        payload = {
            "series_names": G.NAME_PATTERNS,
            "special_values": sorted(N.SPECIALS),
            "identities": [
                {
                    "id": e.id,
                    "kind": e.kind,
                    "domain": e.domain,
                    "statement": e.statement,
                    "source": e.source,
                }
                for e in I.registry()
            ],
        }
        print(_dumps(payload))
        return 0
    print("series names (for expand --series):")
    for p in G.NAME_PATTERNS:
        print(f"  {p}")
    print("\nidentities (for verify/convolve --identity):")
    for e in I.registry():
        print(f"  {e.id:18s} [{e.kind}] {e.statement}")
    print("\nspecial values (for eval --value): same ids as the numeric-ref entries")
    return 0


def _at_least(minimum: int):
    """argparse type for an integer bound >= minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qram",
        description="exact q-series engine: expand, verify, convolve, eval, derive, list",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, order=False, nmax=False, precision=False):
        if order:
            p.add_argument(
                "--order", type=_at_least(0), default=200, help="series order N"
            )
        if nmax:
            p.add_argument(
                "--nmax", type=_at_least(0), default=100, help="convolution bound"
            )
        if precision:
            p.add_argument(
                "--precision", type=_at_least(N.MIN_PRECISION), default=256,
                help="precision in bits",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("expand", help="print a named series to a given order")
    p.add_argument("--series", required=True, help="canonical series name, e.g. T4")
    common(p, order=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", help="verify identities from the registry")
    p.add_argument("--identity", help="a registry id, e.g. ode.P")
    p.add_argument("--all", action="store_true", help="run the whole registry")
    common(p, order=True, nmax=True, precision=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convolve", help="run divisor-sum convolution checks")
    p.add_argument("--identity", help="a convolution id, e.g. t9")
    p.add_argument("--all", action="store_true", help="all convolution identities")
    common(p, nmax=True)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("eval", help="check a closed-form special value")
    p.add_argument("--value", required=True, help="special value id, e.g. ct5.phi16")
    common(p, precision=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("derive", help="derive a family ratio polynomial")
    p.add_argument("--family", required=True, help="T, F, psi or eps")
    p.add_argument("--index", required=True, type=int, help="ratio index n")
    common(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("list", help="list series names and identity ids")
    common(p)
    p.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
