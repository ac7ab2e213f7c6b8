"""Per-layer tracing of qram from the outside, by wrapping its public functions.

Every public function of the layer modules is replaced by a wrapper at each
place it is bound: its own module, the modules that import it by name
(``generators`` and ``series`` import ``divisor_sum_table``, ``identities``
imports ``divisor_sum`` and ``convolution_sequence``) and the ``qram``
package. A call becomes a span (id, parent, name, start, end) kept in memory;
its self time is its duration minus the time of the wrapped calls it made.
Functions called too often for a span each are aggregated into counters.
The wrappers add time of their own; ``trace.overhead_frac`` reports it.

Each item runs in a forked copy of the traced process (see child.py): the copy
starts from ``reset()``, sends ``export()`` back, and the parent ``absorb()``s
it, so the parent ends up holding setup and every item's spans and counters.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("divisors", "series", "generators", "weighted", "identities", "numeric", "cli")

# Formatting helpers stay unwrapped, so their time counts as the rendering
# time of whoever calls them (cli.main for the CLI's JSON output).
UNWRAPPED = {"series.rational_str", "series.to_text", "weighted.pretty"}

# Called about a million times by deep_products: counters, not spans.
COUNTED = {"divisors.divisor_sum"}

LINEAR = ("add", "sub", "neg", "scale", "euler_op", "truncate")
SUBST = ("substitute_power", "substitute_negate", "shift")
ALGEBRA = ("ratio_poly", "phi_poly", "derive", "canonicalize")
SIDES = ("lhs", "rhs", "lhs_seq", "rhs_seq")
VERIFY = ("verify_series", "verify_convolution", "verify_numeric", "verify_one", "verify_all")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield name, obj


def _coeff_bits(series) -> int:
    best = 0
    for c in series.coeffs:
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.max_incl_s: dict[str, float] = defaultdict(float)
        self.mul_bits = 0
        self.mul_in_eval = 0
        self.table_entries = 0
        self.gen_args: set = set()
        # frame: [span id, name, time spent in wrapped callees]
        self._stack: list[list] = [[None, None, 0.0]]

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack, spans = self._stack, self.spans
        calls, self_s, incl_s, max_incl_s = self.calls, self.self_s, self.incl_s, self.max_incl_s
        perf = time.perf_counter
        inspect = self._inspector(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)  # reserve the id in call order
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[sid] = (sid, parent[0], name, t0, t1)
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[2]
                incl_s[name] += dur
                if dur > max_incl_s[name]:
                    max_incl_s[name] = dur
                parent[2] += dur
            if inspect is not None:
                # inspection counts as tracer time, not as the caller's self time
                t2 = perf()
                inspect(args, kwargs, result, parent[1])
                parent[2] += perf() - t2
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        stack = self._stack
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [None, name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[2]
                incl_s[name] += dur
                stack[-1][2] += dur

        return wrapper

    def _inspector(self, name):
        if name == "series.mul":
            def inspect(args, kwargs, result, parent_name):
                self.mul_bits = max(self.mul_bits, _coeff_bits(result))
                if parent_name == "weighted.eval_as_series":
                    self.mul_in_eval += 1
            return inspect
        if name == "divisors.divisor_sum_table":
            def inspect(args, kwargs, result, parent_name):
                self.table_entries += len(result) - 1
            return inspect
        if name.startswith("generators."):
            def inspect(args, kwargs, result, parent_name):
                self.gen_args.add(repr((name, args, tuple(sorted(kwargs.items())))))
            return inspect
        return None

    def install(self) -> None:
        """Wrap every public layer function wherever a qram module binds it."""
        import qram  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qram.{layer}"]
            for fname, fn in _public_functions(module):
                name = f"{layer}.{fname}"
                if name in UNWRAPPED:
                    continue
                make = self._counter_wrapper if name in COUNTED else self._span_wrapper
                wrappers[id(fn)] = make(name, fn)
        originals = set(wrappers)  # ids stay valid: each wrapper holds its fn
        for module in self._qram_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attr, wrappers[id(value)])
        stale = [
            f"{module.__name__}.{attr}"
            for module in self._qram_modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]
        if stale:
            raise RuntimeError(f"unwrapped originals still bound: {stale}")

    def wrap_sides(self, registry) -> None:
        """Span each registry entry's side callables as ``identities.side``.

        They are private closures, so without this their work (the pointwise
        loops of the convolution sides, say) would count as self time of the
        verify functions.
        """
        for ident in registry:
            for field in SIDES:
                fn = getattr(ident, field, None)
                if callable(fn):
                    # Identity is a frozen dataclass; the registry shares it
                    object.__setattr__(ident, field, self._span_wrapper("identities.side", fn))

    @staticmethod
    def _qram_modules():
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "qram" or n.startswith("qram."))
        ]

    # -- forked items -----------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far; the wrappers hold these objects."""
        for d in (self.calls, self.self_s, self.incl_s, self.max_incl_s):
            d.clear()
        self.spans.clear()
        self.gen_args.clear()
        self._stack[:] = [[None, None, 0.0]]
        self.mul_bits = self.mul_in_eval = self.table_entries = 0

    def export(self) -> dict:
        """What was recorded since the last reset, as JSON-ready data."""
        return {
            "spans": self.spans,
            "calls": self.calls,
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "max_incl_s": self.max_incl_s,
            "gen_args": sorted(self.gen_args),
            "mul_bits": self.mul_bits,
            "mul_in_eval": self.mul_in_eval,
            "table_entries": self.table_entries,
        }

    def absorb(self, state: dict) -> None:
        """Add another process's ``export()``; its span ids follow ours."""
        base = len(self.spans)
        for sid, parent, name, t0, t1 in state["spans"]:
            self.spans.append(
                (sid + base, None if parent is None else parent + base, name, t0, t1)
            )
        for field in ("calls", "self_s", "incl_s"):
            mine = getattr(self, field)
            for name, v in state[field].items():
                mine[name] += v
        for name, v in state["max_incl_s"].items():
            self.max_incl_s[name] = max(self.max_incl_s[name], v)
        self.gen_args.update(state["gen_args"])
        self.mul_bits = max(self.mul_bits, state["mul_bits"])
        self.mul_in_eval += state["mul_in_eval"]
        self.table_entries += state["table_entries"]

    # -- results ----------------------------------------------------------

    def _sum_self(self, layer, names) -> float:
        return sum(self.self_s.get(f"{layer}.{n}", 0.0) for n in names)

    def layer_metrics(self, stdout_bytes: int) -> dict:
        gen_names = [n for n in self.calls if n.startswith("generators.")]
        gen_calls = sum(self.calls[n] for n in gen_names)
        return {
            "series.mul.calls": self.calls.get("series.mul", 0),
            "series.mul.self_s": self.self_s.get("series.mul", 0.0),
            "series.mul.max_coeff_bits": self.mul_bits,
            "series.div.calls": self.calls.get("series.div", 0),
            "series.div.self_s": self.self_s.get("series.div", 0.0),
            "series.product_expansion.self_s": self.self_s.get("series.product_expansion", 0.0),
            "series.linear.self_s": self._sum_self("series", LINEAR),
            "series.subst.self_s": self._sum_self("series", SUBST),
            "weighted.eval_as_series.calls": self.calls.get("weighted.eval_as_series", 0),
            "weighted.eval_as_series.self_s": self.self_s.get("weighted.eval_as_series", 0.0),
            "weighted.eval_as_series.mul_calls": self.mul_in_eval,
            "weighted.algebra.self_s": self._sum_self("weighted", ALGEBRA),
            "generators.build.calls": gen_calls,
            "generators.build.distinct": len(self.gen_args),
            "generators.build.useful_ratio": len(self.gen_args) / gen_calls if gen_calls else 1.0,
            "generators.build.self_s": sum(self.self_s[n] for n in gen_names),
            "divisors.divisor_sum.calls": self.calls.get("divisors.divisor_sum", 0),
            "divisors.divisor_sum.self_s": self.self_s.get("divisors.divisor_sum", 0.0),
            "divisors.convolution_sequence.self_s": self.self_s.get("divisors.convolution_sequence", 0.0),
            "divisors.table.calls": self.calls.get("divisors.divisor_sum_table", 0),
            "divisors.table.entries": self.table_entries,
            "divisors.table.self_s": self.self_s.get("divisors.divisor_sum_table", 0.0),
            "numeric.check_special.calls": self.calls.get("numeric.check_special", 0),
            "numeric.check_special.self_s": self.self_s.get("numeric.check_special", 0.0),
            "identities.verify_series.s": self.incl_s.get("identities.verify_series", 0.0),
            "identities.verify_convolution.s": self.incl_s.get("identities.verify_convolution", 0.0),
            "identities.verify_numeric.s": self.incl_s.get("identities.verify_numeric", 0.0),
            "identities.verify.self_s": self._sum_self("identities", VERIFY),
            "identities.side.self_s": self.self_s.get("identities.side", 0.0),
            "identities.slowest_entry_s": self.max_incl_s.get("identities.verify_one", 0.0),
            "cli.main.self_s": self.self_s.get("cli.main", 0.0),
            "cli.stdout_bytes": stdout_bytes,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                    "counters": {
                        n: {"calls": self.calls[n], "self_s": self.self_s[n]}
                        for n in sorted(COUNTED) if n in self.calls
                    },
                },
                f,
                separators=(",", ":"),
            )
