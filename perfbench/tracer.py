"""
Spans and counters around the layers of ``minuscule``, installed from outside.

Public entry points of each module are wrapped in spans (name, start, end,
parent, operation id).  Hot per-call methods get counters only.  Wrapping
replaces every reference to a function across the ``minuscule`` modules, so
calls made through ``from .x import f`` bindings are seen too.  ``uninstall``
puts the originals back.

Spans stay in memory; ``write_spans`` writes them out once the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# metric name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "dynkin.lookups": ("count", "lower", "ops_per_s, latency_tail_ms on classify"),
    "poset.iso.calls": ("count", "lower", "latency_tail_ms, ops_per_s on classify"),
    "poset.iso.self_s": ("s", "lower", "latency_tail_ms, ops_per_s on classify"),
    "poset.construct.calls": ("count", "lower", "ops_per_s on construct; latency_p50_ms on classify"),
    "poset.construct.self_s": ("s", "lower", "ops_per_s on construct; latency_p50_ms on classify"),
    "poset.construct.elements": ("count", "lower", "ops_per_s on construct; latency_p50_ms on classify"),
    "axioms.check.calls": ("count", "lower", "latency_p50_ms on classify; the construct mix"),
    "axioms.check.self_s": ("s", "lower", "latency_p50_ms on classify; the construct mix"),
    "axioms.witnesses": ("count", "lower", "latency_p50_ms on classify; the construct mix"),
    "catalog.build.calls": ("count", "lower", "ops_per_s on classify"),
    "catalog.build.self_s": ("s", "lower", "ops_per_s on classify"),
    "classify.components": ("count", "higher", "ops_per_s on classify"),
    "classify.self_s": ("s", "lower", "ops_per_s on classify"),
    "classify.builds_per_component": ("ratio", "lower", "ops_per_s on classify"),
    "heapwindow.verify.calls": ("count", "lower", "latency_p50_ms on classify"),
    "heapwindow.verify.self_s": ("s", "lower", "latency_p50_ms on classify"),
    "extension.assessments": ("count", "lower", "ops_per_s on construct"),
    "extension.stages": ("count", "lower", "ops_per_s on construct"),
    "extension.self_s": ("s", "lower", "ops_per_s on construct"),
    "representation.splits": ("count", "lower", "ops_per_s, latency_tail_ms, peak_rss_mb on construct"),
    "representation.splits.self_s": ("s", "lower", "ops_per_s, latency_tail_ms on construct"),
    "representation.operators.self_s": ("s", "lower", "ops_per_s, latency_tail_ms on construct"),
    "representation.relations.self_s": ("s", "lower", "ops_per_s, latency_tail_ms on construct"),
    "representation.relation_checks": ("count", "lower", "ops_per_s, latency_tail_ms on construct"),
    "representation.matmuls": ("count", "lower", "ops_per_s, latency_tail_ms on construct"),
    "coroots.positive_coroots.calls": ("count", "lower", "latency_tail_ms, ops_per_s on construct"),
    "coroots.reflections": ("count", "lower", "latency_tail_ms, ops_per_s on construct"),
    "coroots.psi.self_s": ("s", "lower", "latency_tail_ms, ops_per_s on construct"),
    "cli.load.self_s": ("s", "lower", "latency_p50_ms on classify; export ops on construct"),
    "cli.emit.self_s": ("s", "lower", "latency_p50_ms on classify; export ops on construct"),
    "cli.bytes_out": ("bytes", "lower", "latency_p50_ms on classify; export ops on construct"),
    "trace.overhead_s": ("s", "lower", "none: tracing cost, traced minus untraced wall time"),
}

DYNKIN_LOOKUPS = ("theta", "adjacent", "distant", "degree", "neighbors")


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def counter(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "minuscule" or name.startswith("minuscule.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        # the package re-exports the function classify under its module's name
        (axioms, catalog, classify, cli, coroots, dynkin, extension, heapwindow, poset,
         representation) = (importlib.import_module(f"minuscule.{m}") for m in (
            "axioms", "catalog", "classify", "cli", "coroots", "dynkin", "extension",
            "heapwindow", "poset", "representation"))

        def spans(module, attr, name, after=None):
            original = getattr(module, attr)
            self._replace_everywhere(original, self.span(original, name, after))

        def method_span(cls, attr, name, after=None):
            self._set(cls, attr, self.span(getattr(cls, attr), name, after))

        for attr in DYNKIN_LOOKUPS:
            self._set(dynkin.DynkinDiagram, attr,
                      self.counter(getattr(dynkin.DynkinDiagram, attr), f"dynkin.{attr}"))
        self._set(coroots.CorootSystem, "reflect",
                  self.counter(coroots.CorootSystem.reflect, "coroots.reflections"))
        self._set(representation.IntMatrix, "__matmul__",
                  self.counter(representation.IntMatrix.__matmul__, "representation.matmuls"))

        def add(key, measure):
            def after(counts, args, result):
                counts[key] += measure(args, result)
            return after

        method_span(poset.ColoredPoset, "__init__", "poset.construct",
                    add("poset.construct.elements", lambda a, r: len(a[0].elements)))
        spans(poset, "colored_isomorphism", "poset.iso")
        spans(axioms, "check", "axioms.check",
              add("axioms.witnesses", lambda a, r: len(r.witnesses)))
        spans(catalog, "build", "catalog.build")
        spans(classify, "classify", "classify",
              add("classify.components", lambda a, r: len(r.components)))
        spans(heapwindow, "verify_window", "heapwindow.verify")

        def extension_counts(counts, args, outcome):
            counts["extension.assessments"] += outcome.assessments
            counts["extension.stages"] += len(outcome.trace)

        spans(extension, "run_extension", "extension", extension_counts)
        spans(representation, "splits", "representation.splits",
              add("representation.splits", lambda a, r: len(r)))
        spans(representation, "build_operators", "representation.operators")
        spans(representation, "verify_relations", "representation.relations",
              add("representation.relation_checks", lambda a, r: len(r.checks)))
        method_span(coroots.CorootSystem, "positive_coroots", "coroots.positive_coroots")
        spans(coroots, "psi", "coroots.psi")
        spans(cli, "_load_json", "cli.load")
        spans(cli, "_load_poset", "cli.load")
        spans(cli, "_emit", "cli.emit")
        spans(cli, "run", "cli.run")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, bytes_out: int, overhead_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value from one traced pass."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    builds_in_classify = 0
    spans = tracer.spans
    for (name, _, _, parent, _), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own
        if name == "catalog.build":
            while parent >= 0 and spans[parent][0] != "classify":
                parent = spans[parent][3]
            builds_in_classify += parent >= 0
    c = tracer.counts
    components = c["classify.components"]
    out: dict[str, float] = {
        "dynkin.lookups": sum(c[f"dynkin.{a}"] for a in DYNKIN_LOOKUPS),
        "classify.builds_per_component": builds_in_classify / components if components else 0.0,
        "cli.bytes_out": bytes_out,
        "trace.overhead_s": overhead_s,
    }
    for metric in LAYER_METRICS:
        if metric in out:
            continue
        head, _, tail = metric.rpartition(".")
        if tail == "calls":
            out[metric] = calls[head]
        elif tail == "self_s":
            out[metric] = self_s[head]
        else:
            out[metric] = c[metric]
    return {metric: out[metric] for metric in LAYER_METRICS}
