"""perfbench's per-layer metrics still see the layers they name.

perfbench/tracer.py wraps qram's public functions by name, so a refactor that
renames or bypasses one would silently zero its metric. This runs three CLI
commands under the tracer, in a subprocess so the wrappers stay out of this
test session, and checks that each metric the commands exercise is nonzero:
cheng_williams is there for series.mul, which its left side calls and the
packed convolution products do not. It reads perfbench/ and writes nothing
there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import qram.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    assert qram.cli.main(["verify", "--identity", "e8.square", "--order", "20"]) == 0
    assert qram.cli.main(["convolve", "--identity", "t9", "--nmax", "20"]) == 0
    assert qram.cli.main(["convolve", "--identity", "cheng_williams", "--nmax", "20"]) == 0
print(json.dumps(tracer.layer_metrics(0)))
"""

EXERCISED = (
    "series.mul.calls",
    "weighted.eval_as_series.calls",
    "generators.build.calls",
    "identities.verify_series.s",
    "identities.verify_convolution.s",
    "divisors.convolution_sequence.self_s",
)


def test_tracer_metrics_see_their_layers():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout)
    assert {m: metrics[m] for m in EXERCISED if not metrics[m] > 0} == {}
