"""Record reference.json from the qram in ../src.

Run once, on the commit the references should come from:

    python3 perfbench/record_reference.py

It freezes the item lists (registry ids and kinds, convolution ids, special
value ids) and stores a digest of every expand and derive output of
deep_products. Later commits are checked against these references, so run it
again only to change what the benchmark expects.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import oracle
import workloads
from run import git_revision

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import qram
    from qram import cli, identities, numeric

    registry = {e.id: e.kind for e in identities.registry()}
    ref = {
        "recorded_from": f"qram {qram.__version__} at revision {git_revision(ROOT)}",
        "registry": registry,
        "convolution_ids": [i for i, kind in registry.items() if kind == "convolution"],
        "special_ids": sorted(numeric.SPECIALS),
        "digests": {},
    }
    for item in workloads.build("deep_products", 0, ref):
        if item["type"] not in ("expand", "derive"):
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(item["argv"])
        if code != 0:
            raise SystemExit(f"{item['key']} exited with {code}")
        ref["digests"][item["key"]] = oracle.digest(item["type"], json.loads(out.getvalue()))
    ref["digests"] = dict(sorted(ref["digests"].items()))
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE} ({len(ref['digests'])} digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
