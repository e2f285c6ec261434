"""Span tracing around the package's public functions, for the traced run only.

``Tracer.install`` replaces each listed function at every ``softbayes``
module attribute that holds it, re-imports such as ``updates.state_transform``
included, and ``core.State.__post_init__`` for State construction.  Nothing in
the package itself changes.  Spans are kept in memory as columns (name, start,
end, parent span, op id) and written out as gzipped CSV when the run ends.

A span's self time is its duration minus the whole time its child spans took,
the children's own bookkeeping included, so tracer cost lands in no layer's
self time.  ``result_bits`` is measured after a kernel op's span has ended.
"""

from __future__ import annotations

import csv
import gzip
import sys
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

TARGETS = {
    "netspec": ("tokenize", "parse", "compile_network", "check_expr", "evaluate"),
    "core": (
        "State", "make_state", "make_channel", "state_transform",
        "predicate_transform", "validity", "condition", "compose",
        "product_state", "marginal", "render_state", "render_predicate",
        "render_channel",
    ),
    "updates": (
        "dagger", "pearl_update", "jeffrey_update", "blend_update", "atc_update",
        "nec_update", "pearl_report", "jeffrey_report", "atc_report",
        "nec_report", "blend_report",
    ),
    "oracle": ("joint_of", "oracle_pearl", "oracle_jeffrey", "oracle_dagger_row"),
    "sampling": ("random_state", "random_channel", "random_predicate"),
    "cli": ("main",),
}

# Ops whose results are exact numbers; their result size is reported.
KERNEL_OPS = frozenset({
    "core.state_transform", "core.predicate_transform", "core.validity",
    "core.condition", "core.compose", "core.product_state", "core.marginal",
    "updates.dagger", "updates.pearl_update", "updates.jeffrey_update",
    "updates.blend_update", "updates.atc_update", "updates.nec_update",
})

IMPORT_MODULES = ("core", "updates", "netspec", "cli", "oracle", "sampling", "errors")


def function_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric of the traced run, as (name, unit)."""
    names = []
    for fn in function_names():
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms")]
        if fn in KERNEL_OPS:
            names.append((f"{fn}.result_bits", "bits"))
    names += [
        ("netspec.tokenize.tokens", "count"),
        ("netspec.shared_subexpr_share", "ratio"),
        ("input.n", "elements"),
        ("import.softbayes_ms", "ms"),
    ]
    names += [(f"import.{m}_ms", "ms") for m in IMPORT_MODULES]
    names += [("trace.overhead_share", "ratio"), ("trace.toplevel_share", "ratio")]
    return names


def result_bits(value) -> int:
    """Numerator plus denominator bit-lengths over every number in a result."""
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    weights = getattr(value, "weights", None) or getattr(value, "values", None)
    if weights is not None:
        return sum(result_bits(w) for w in weights.values())
    return sum(result_bits(row) for row in value.rows.values())  # a Channel


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.start, self.end, self.outer = array("d"), array("d"), array("d")
        self.bits: Counter = Counter()
        self.tokens = 0
        self.stack: list[int] = []
        self.op_id = -1  # spans are recorded only while an op runs
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, label: str, fn):
        name_id = len(self.labels)
        self.labels.append(label)
        wants_bits = label in KERNEL_OPS
        is_tokenize = label == "netspec.tokenize"
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            entered = perf_counter()
            span = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.outer.append(0.0)
            tracer.stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.start[span] = start
                tracer.end[span] = end
            if wants_bits:
                tracer.bits[label] += result_bits(result)
            elif is_tokenize:
                tracer.tokens += len(result[0])
            tracer.outer[span] = perf_counter() - entered
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every softbayes module attribute holding it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "softbayes" or n.startswith("softbayes.")]
        for module_name, fns in TARGETS.items():
            module = sys.modules[f"softbayes.{module_name}"]
            for fn_name in fns:
                label = f"{module_name}.{fn_name}"
                if fn_name == "State":
                    owner, attr = module.State, "__post_init__"
                    self._patch(owner, attr, self.wrap(label, owner.__post_init__))
                    continue
                original = getattr(module, fn_name)
                wrapper = self.wrap(label, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def summary(self, loop_s: float) -> dict[str, float]:
        """calls, self_ms and mean result_bits per function, plus the share
        of the traced loop time covered by top-level spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.outer[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        top = 0.0
        for i in range(n):
            label = self.labels[self.name[i]]
            duration = self.end[i] - self.start[i]
            calls[label] += 1
            self_s[label] += duration - child[i]
            if self.parent[i] < 0:
                top += duration
        out = {}
        for label in function_names():
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_ms"] = self_s[label] * 1000
            if label in KERNEL_OPS:
                out[f"{label}.result_bits"] = (
                    self.bits[label] / calls[label] if calls[label] else 0
                )
        out["netspec.tokenize.tokens"] = self.tokens
        out["trace.toplevel_share"] = top / loop_s if loop_s else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "op", "parent", "name", "start_us", "end_us"])
            for i in range(len(self.start)):
                out.writerow([
                    i, self.op[i], self.parent[i], self.labels[self.name[i]],
                    round(self.start[i] * 1e6, 1), round(self.end[i] * 1e6, 1),
                ])
