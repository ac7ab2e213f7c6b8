"""Outside-in benchmark of qram: one workload, one seed, one run.

    python3 perfbench/run.py --workload registry_default --seed 1 --seconds 60 --trace 0

Drives qram only through its public functions (``qram.cli.main`` and
``qram.series.product_expansion``), from a fresh interpreter per pass that
runs each item in a fork of itself taken right after setup (see child.py), one
process at a time. A run repeats whole passes over the workload's items until
``--seconds`` is spent, checks every output with oracle.py, and prints one
line per metric followed by a last line of JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced passes. An item's
latency is the fastest of its passes: the machines this runs on change speed
by up to 2x over seconds to minutes, and the fastest of ten or more timings
repeats from run to run far better than their median does. ``wall_s`` is the
sum of those latencies, the time of one pass over the whole list without
process start-up; ``item_p50_ms`` and ``item_tail_ms`` are Harrell-Davis
estimates of their percentiles. ``setup_s`` is the median of the passes'
setup times.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracer.py) and the tracing overhead; the
outputs of both kinds of pass must be equal. The run's details, with the seed
and the diagnostic metadata, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.mul.max_coeff_bits": "bits",
    "series.div.calls": "count",
    "series.div.self_s": "s",
    "series.product_expansion.self_s": "s",
    "series.linear.self_s": "s",
    "series.subst.self_s": "s",
    "weighted.eval_as_series.calls": "count",
    "weighted.eval_as_series.self_s": "s",
    "weighted.eval_as_series.mul_calls": "count",
    "weighted.algebra.self_s": "s",
    "generators.build.calls": "count",
    "generators.build.distinct": "count",
    "generators.build.useful_ratio": "ratio",
    "generators.build.self_s": "s",
    "divisors.divisor_sum.calls": "count",
    "divisors.divisor_sum.self_s": "s",
    "divisors.convolution_sequence.self_s": "s",
    "divisors.table.calls": "count",
    "divisors.table.entries": "count",
    "divisors.table.self_s": "s",
    "numeric.check_special.calls": "count",
    "numeric.check_special.self_s": "s",
    "identities.verify_series.s": "s",
    "identities.verify_convolution.s": "s",
    "identities.verify_numeric.s": "s",
    "identities.verify.self_s": "s",
    "identities.side.self_s": "s",
    "identities.slowest_entry_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def run_child(items, trace: bool, spans_out: Path | None = None) -> dict:
    job = {
        "src": str(SRC),
        "items": items,
        "trace": trace,
        "spans_out": str(spans_out) if spans_out else None,
    }
    # its own process group, so that a timeout also stops the item it forked
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"a pass took longer than {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not stdout.strip():
        raise ChildFailed(f"child exited with {proc.returncode}:\n{stderr[-3000:]}")
    return json.loads(stdout.splitlines()[-1])


def fraction_kernel() -> float:
    """Seconds for a fixed dense Fraction product, the shape of qram's hot loop.

    Recorded before and after a run to tell machine drift from code change;
    never used to rescale a metric.
    """
    a = [Fraction((-1) ** k * (k + 1), k + 2) for k in range(200)]
    t0 = time.perf_counter()
    out = [Fraction(0)] * 200
    for i, x in enumerate(a):
        for j in range(200 - i):
            out[i + j] += x * a[j]
    return time.perf_counter() - t0


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_revision(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_quantile(n: int) -> tuple[float, int]:
    """The highest quantile of n values that leaves 10 beyond it, and its percentile."""
    q = (n - 10) / n
    return q, math.floor(100 * q)


def harrell_davis(values, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile of values.

    A mean of all the order statistics, each weighted by the mass that a
    Beta((n+1)q, (n+1)(1-q)) density puts on its share of [0, 1], so that the
    estimate does not rest on the single item that happens to hold rank qn.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule on each order statistic's interval

    def density(x):
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [
        sum(density((i + (j + 0.5) / steps) / n) for j in range(steps)) for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes, n_items) -> dict:
    fastest = {}
    for p in passes:
        for r in p["items"]:
            fastest[r["key"]] = min(fastest.get(r["key"], math.inf), r["latency_s"])
    latencies = list(fastest.values())
    q_tail, _ = tail_quantile(n_items)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": sum(latencies),
        "item_p50_ms": 1000 * harrell_davis(latencies, 0.5),
        "item_tail_ms": 1000 * harrell_davis(latencies, q_tail),
        "peak_rss_mb": statistics.median(
            max(r["peak_rss_kb"] for r in p["items"]) for p in passes
        ) / 1024,
    }


def per_layer(traced, untraced) -> dict:
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in LAYER_UNITS
        if name != "trace.overhead_frac"
    }
    # fastest pass of each kind, as for the end-to-end latencies
    out["trace.overhead_frac"] = (
        min(p["wall_s"] for p in traced) / min(p["wall_s"] for p in untraced) - 1
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qram" / "__init__.py").is_file():
        print(f"no qram package under {SRC}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    items = workloads.build(args.workload, args.seed, reference)
    by_key = {item["key"]: item for item in items}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "loadavg_start": loadavg(),
        "fraction_kernel_s_before": fraction_kernel(),
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = OUT / f"{stem}-spans.json"
    try:
        run_child([], False)  # writes bytecode caches; not timed
        start = time.perf_counter()
        passes = []  # (traced, result)
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.perf_counter()
            passes.append((traced, run_child(items, traced, spans_out if traced else None)))
            took = time.perf_counter() - t0
            enough = len(passes) >= 1 + args.trace
            if enough and time.perf_counter() + took > start + args.seconds:
                break
    except ChildFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    meta["fraction_kernel_s_after"] = fraction_kernel()
    meta["loadavg_end"] = loadavg()
    meta["mpmath"] = passes[0][1]["mpmath"]

    # correctness: every item of every pass, the checker itself, and equal
    # outputs across passes (traced and untraced alike)
    attempted = failed = 0
    failures = []
    first = {r["key"]: (r["exit"], r["stdout"]) for r in passes[0][1]["items"]}
    mismatched = set()
    for _, p in passes:
        for r in p["items"]:
            attempted += 1
            why = oracle.check(by_key[r["key"]], r["exit"], r["stdout"], reference)
            if why is not None:
                failed += 1
                failures.append(f"{r['key']}: {why}")
            if (r["exit"], r["stdout"]) != first[r["key"]]:
                mismatched.add(r["key"])
    problems = oracle.self_check(items, first, reference)
    problems += [f"{k}: output differs between passes" for k in sorted(mismatched)]
    correct = failed == 0 and not problems

    untraced = [p for t, p in passes if not t]
    n = len(items)
    if args.trace:
        metrics = per_layer([p for t, p in passes if t], untraced)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(untraced, n)
        units = END_TO_END_UNITS

    _, pct = tail_quantile(n)
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
        f"{len(passes) - len(untraced)} traced passes of {n} items; "
        f"item_tail_ms is p{pct}"
    )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} ({failed} of {attempted} items)")
    for line in failures[:20] + problems:
        print(f"  FAIL {line}")
    print(
        f"  python {meta['python']}, mpmath {meta['mpmath']}, nproc {meta['nproc']}, "
        f"revision {meta['git_revision'][:12]}, fraction kernel "
        f"{meta['fraction_kernel_s_before']:.3f} s before, "
        f"{meta['fraction_kernel_s_after']:.3f} s after, "
        f"loadavg {meta['loadavg_start']} -> {meta['loadavg_end']}"
    )

    record = {
        "meta": meta,
        "tail_percentile": pct,
        "fail_frac": failed / attempted,
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "passes": [
            {
                "traced": t,
                "setup_s": p["setup_s"],
                "wall_s": p["wall_s"],
                "latency_s": {r["key"]: r["latency_s"] for r in p["items"]},
                "peak_rss_kb": {r["key"]: r["peak_rss_kb"] for r in p["items"]},
                **({"layers": p["layers"]} if t else {}),
            }
            for t, p in passes
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
