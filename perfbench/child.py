"""One pass of a workload, in a fresh interpreter.

Reads a job from stdin as JSON:

    {"src": <dir holding the qram package>, "items": [...] (may be empty),
     "trace": false | true, "spans_out": <path or null>}

imports qram, builds the registry and the special values (timed as setup),
runs each item in a forked copy of the process as it stands after setup, and
prints one JSON line with the setup time, the pass's wall time, each item's
latency, exit code, output and peak RSS and, for a traced pass, the per-layer
metrics.

Fresh processes matter: qram keeps lru caches and module-level registries
that a warm process would reuse, and a CLI user, who runs one command per
process, never has them. Forking after setup gives every item that state, so
an item's latency no longer depends on which items ran before it in the pass.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_cli(cli, argv) -> int:
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1
    return 0 if code is None else code


def _run_item(qram, item) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        if "argv" in item:
            code = _run_cli(qram.cli, item["argv"])
        else:
            try:
                factors = [tuple(f) for f in item["factors"]]
                result = qram.series.product_expansion(factors, item["order"])
                code = 0
            except Exception:
                traceback.print_exc()
                code = 1
        latency = time.perf_counter() - t0
        if result is not None:
            print(json.dumps(result.to_json(), sort_keys=True))
    return code, out.getvalue(), err.getvalue(), latency


def _run_forked(qram, item, tracer) -> dict:
    """Run one item in a forked copy of this process and return its record."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            if tracer is not None:
                tracer.reset()
            code, out, err, latency = _run_item(qram, item)
            record = {
                "key": item["key"], "exit": code, "stdout": out, "stderr": err,
                "latency_s": latency,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
            if tracer is not None:
                record["trace"] = tracer.export()
            with os.fdopen(w, "w") as f:
                f.write(json.dumps(record))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"the process running {item['key']} ended with status {status}")
    record = json.loads(data)
    if tracer is not None:
        tracer.absorb(record.pop("trace"))
    return record


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    tracer = None

    t0 = time.perf_counter()
    import qram
    import qram.cli
    import qram.series

    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    registry = qram.identities.registry()
    len(qram.numeric.SPECIALS)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.wrap_sides(registry)

    sys.stdout.flush()  # nothing buffered may be written twice by the forks
    w0 = time.perf_counter()
    items = [_run_forked(qram, item, tracer) for item in job["items"]]
    wall_s = time.perf_counter() - w0

    import mpmath

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "items": items,
    }
    if tracer is not None:
        cli_bytes = sum(
            len(r["stdout"].encode())
            for r, item in zip(items, job["items"]) if "argv" in item
        )
        result["layers"] = tracer.layer_metrics(cli_bytes)
        if job.get("spans_out"):
            tracer.write_spans(job["spans_out"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
