"""Print one line per CLI command: the sha256 of its stdout, its exit code,
and the command.

The commands cover every verb the outputs are pinned for: verify --all and
convolve --all, list, expand of one name per series grammar line, derive for
the four families and eval of every special value up to 16384 bits. Two
checkouts print the same lines exactly when these outputs are byte-identical:

    python3 scripts/output_digest.py > after.txt
    python3 scripts/output_digest.py --src ../parent/src > before.txt
    diff before.txt after.txt

Each command runs in this process through qram.cli.main, imported from --src
(the src directory next to this script by default).
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

FORMATS = (["--format", "text"], ["--format", "json"])
# one name per grammar line of generators.NAME_PATTERNS
EXPAND_NAMES = ("E8", "hahnQ", "T4", "poch", "theta_p1_p5", "phi_tilde_2_7")
EVAL_BITS = (64, 256, 1024, 4096, 16384)


def commands(special_ids) -> list[list[str]]:
    out = []
    for bounds in ([], ["--order", "70"]):
        out += [["verify", "--all", *bounds, *fmt] for fmt in FORMATS]
    out += [["convolve", "--all", "--nmax", "300", *fmt] for fmt in FORMATS]
    out += [["list", *fmt] for fmt in FORMATS]
    for name in EXPAND_NAMES:
        for order in (0, 300):
            out += [["expand", "--series", name, "--order", str(order), *fmt] for fmt in FORMATS]
    for fam in ("T", "F", "psi", "eps"):
        for n in range(13):
            out += [["derive", "--family", fam, "--index", str(n), *fmt] for fmt in FORMATS]
    for bits in EVAL_BITS:
        for id_ in sorted(special_ids):
            out += [["eval", "--value", id_, "--precision", str(bits), *fmt] for fmt in FORMATS]
    return out


def digest_line(main, argv: list[str]) -> str:
    """"sha256 exit-code command" for one run of main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{hashlib.sha256(out.getvalue().encode()).hexdigest()} {code} {' '.join(argv)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="directory holding the qram package (default: this checkout's src)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from qram.cli import main as qram_main
    from qram.numeric import SPECIALS

    for command in commands(SPECIALS):
        print(digest_line(qram_main, command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
