"""Command-line front end.

Verbs: expand a named series, verify identities (one or the whole registry),
run convolution checks, evaluate closed-form special values, derive ratio
polynomials, and list the valid names. Output is text by default or JSON with
--format json; JSON is byte-stable (sorted keys, canonical rationals, reports
ordered by id) and is written by _dumps, which lays out json.dumps's indent-2
form itself, since json's C encoder runs only without indent. Exit status: 0
all checks passed, 1 some check failed, 2 usage error, unknown name or an
unprintable expansion, 141 stdout closed by its reader (128 + SIGPIPE, as the
shell reports it).

Options take --opt value, --opt=value or any unique prefix of the name; -h or
--help prints help and exits 0, and a usage error prints a usage line and
"qram VERB: error: ..." to stderr and exits 2. The tables _OPTIONS and _VERBS
drive the parser: argparse's set-up cost more than most commands.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import generators as G
from . import identities as I
from . import numeric as N
from . import series as S
from . import weighted as W


def _dumps(payload, indent: str = "\n") -> str:
    """json.dumps(payload, sort_keys=True, indent=2), for the types qram emits.

    json encodes in C only without indent, so this writer lays out non-empty
    dicts (str keys) and lists itself, quotes strs with json's C string
    encoder and writes ints; anything else goes to json.dumps.
    """
    kind = type(payload)
    if kind is str:
        return encode_basestring_ascii(payload)
    if kind is int:
        return str(payload)
    if payload and (kind is dict or kind is list):
        inner = indent + "  "
        if kind is dict:
            items = [
                f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                for k, v in sorted(payload.items())
            ]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        items = [_dumps(v, inner) for v in payload]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(payload)


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
    except ValueError as exc:  # an index past G.MAX_NAME_INDEX, nothing built
        print(exc, file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            text = _dumps({"name": args.series, **ser.to_json()})
        else:
            text = f"{args.series} order {ser.order}: {' '.join(ser.coeff_strs())}"
    except ValueError as exc:
        if "int_max_str_digits" not in str(exc):  # only int's str-conversion limit
            raise
        print(f"cannot print {args.series}: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


def _verify_like(args, config: I.RunConfig, restrict_kind=None) -> int:
    if bool(args.all) == bool(args.identity):
        print("need --identity ID or --all, not both", file=sys.stderr)
        return 2
    if args.all:
        idents = [e for e in I.registry() if restrict_kind in (None, e.kind)]
    else:
        ident = I.lookup(args.identity)
        if ident is None or restrict_kind not in (None, ident.kind):
            valid = [e.id for e in I.registry() if restrict_kind in (None, e.kind)]
            return _unknown("identity", args.identity, valid)
        idents = [ident]
    try:
        reports = [I.verify_one(e, config) for e in idents]
    except ValueError as exc:  # a bound that leaves nothing to compare
        print(exc, file=sys.stderr)
        return 2
    _print_reports(reports, args.format, footer=args.all and restrict_kind is None)
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
    if args.family not in W.FAMILY_SETUP:
        return _unknown("family", args.family, list(W.FAMILY_SETUP))
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


# name: (kind, default, help); a kind is str, int, bool (a flag), an int
# minimum (an integer bound) or a tuple of choices
_OPTIONS = {
    "series": (str, None, "canonical series name, e.g. T4"),
    "identity": (str, None, "a registry id, e.g. ode.P (for convolve, e.g. t9)"),
    "all": (bool, False, "every registry entry (for convolve, every convolution)"),
    "value": (str, None, "special value id, e.g. ct5.phi16"),
    "family": (str, None, "T, F, psi or eps"),
    "index": (int, None, "ratio index n"),
    "order": (0, I.RunConfig.order, "series order N"),
    "nmax": (0, I.RunConfig.n_max, "convolution bound"),
    "precision": (N.MIN_PRECISION, I.RunConfig.precision, "precision in bits"),
    "format": (("text", "json"), "text", "text or json"),
}

# verb: (handler, help, options); an option ending in "!" is required
_VERBS = {
    "expand": (_cmd_expand, "print a named series to a given order", "series! order format"),
    "verify": (_cmd_verify, "verify identities", "identity all order nmax precision format"),
    "convolve": (_cmd_convolve, "run divisor-sum convolution checks", "identity all nmax format"),
    "eval": (_cmd_eval, "check a closed-form special value", "value! precision format"),
    "derive": (_cmd_derive, "derive a family ratio polynomial", "family! index! format"),
    "list": (_cmd_list, "list series names and identity ids", "format"),
}


def _options(verb: str) -> dict[str, bool]:
    return {n.rstrip("!"): n.endswith("!") for n in _VERBS[verb][2].split()}


def _synopsis(name: str) -> str:
    return f"--{name}" if _OPTIONS[name][0] is bool else f"--{name} {name.upper()}"


def _usage(verb) -> str:
    if verb is None:
        return "usage: qram [-h] {" + ",".join(_VERBS) + "} ..."
    parts = [_synopsis(n) if req else f"[{_synopsis(n)}]" for n, req in _options(verb).items()]
    return f"usage: qram {verb} [-h] " + " ".join(parts)


def _exit_with_help(verb):
    rows = [("-h, --help", "show this help message and exit")]
    if verb is None:
        about = "exact q-series engine; run qram VERB -h for a verb's options"
        rows += [(v, h) for v, (_, h, _) in _VERBS.items()]
    else:
        about = _VERBS[verb][1]
        rows += [(_synopsis(n), _OPTIONS[n][2]) for n in _options(verb)]
    width = max(len(a) for a, _ in rows)
    lines = [_usage(verb), "", about, "", *(f"  {a:{width}}  {b}" for a, b in rows)]
    print("\n".join(lines), flush=True)  # a closed stdout raises here, inside main
    raise SystemExit(0)


def _fail(verb, message: str):
    """Report a usage error as argparse does, with exit status 2."""
    prog = "qram" if verb is None else f"qram {verb}"
    print(_usage(verb), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _value(verb, name: str, text: str):
    kind = _OPTIONS[name][0]
    if kind is str or (isinstance(kind, tuple) and text in kind):
        return text
    if isinstance(kind, tuple):
        _fail(verb, f"argument --{name}: invalid choice: {text!r} (choose from {', '.join(kind)})")
    try:
        value = int(text)
    except ValueError:
        _fail(verb, f"argument --{name}: invalid integer value: {text!r}")
    if kind is not int and value < kind:
        _fail(verb, f"argument --{name}: must be >= {kind}, got {value}")
    return value


def _parse(argv: list[str]):
    """argv as (handler, namespace of the verb's options), by argparse's rules."""
    if not argv:
        _fail(None, "the following arguments are required: verb")
    verb, rest = argv[0], argv[1:]
    if verb == "-h" or (len(verb) > 2 and "--help".startswith(verb)):
        _exit_with_help(None)
    if verb not in _VERBS:
        _fail(None, f"argument verb: invalid choice: {verb!r} (choose from {', '.join(_VERBS)})")
    opts = _options(verb)
    args = SimpleNamespace(**{n: _OPTIONS[n][1] for n in opts})
    extras, i = [], 0
    while i < len(rest):
        token, i = rest[i], i + 1
        key, eq, text = token.partition("=")
        names = [n for n in (*opts, "help") if len(key) > 2 and f"--{n}".startswith(key)]
        if key[2:] in names:
            names = [key[2:]]
        if token == "-h" or names == ["help"]:
            _exit_with_help(verb)
        if len(names) != 1:
            if names:
                _fail(verb, f"ambiguous option: {key} could match --{', --'.join(names)}")
            extras.append(token)
            continue
        name = names[0]
        if _OPTIONS[name][0] is bool:
            if eq:
                _fail(verb, f"argument --{name}: ignored explicit argument {text!r}")
            text = True
        elif not eq:
            # as argparse: a negative number or a lone "-" is a value, not an option
            nxt = rest[i] if i < len(rest) else "--"
            if nxt.startswith("-") and nxt != "-" and not nxt[1:].isdigit():
                _fail(verb, f"argument --{name}: expected one argument")
            text, i = rest[i], i + 1
        setattr(args, name, text if text is True else _value(verb, name, text))
    missing = [f"--{n}" for n, req in opts.items() if req and getattr(args, n) is None]
    if missing:
        _fail(verb, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(verb, "unrecognized arguments: " + " ".join(extras))
    return _VERBS[verb][0], args


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        status = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (qram list | head -1): exit as the shell
        # reports a SIGPIPE death. As the program, also point stdout at
        # devnull so the flush at exit cannot raise again; an in-process
        # caller's stdout is its own.
        if argv is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
