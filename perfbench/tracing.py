"""Outside-in tracing of one serrant CLI run.

``install`` replaces, from outside, the names each serrant module imports
from another (``serrant.pipeline.align``, ``serrant.base.span_head``, ...)
with wrappers that record a span per call: id, parent id, name, start and
end.  Spans stay in memory and are written out when the run ends; no file
of the program changes.  ``summarize`` turns a span file into the
per-layer metrics: self time (span time minus its direct children),
calls, and the counts taken at the same boundaries.

Worker processes of ``--jobs`` are not traced: a fork turns recording off
in the child, so the pool shows up as ``pipeline.parallel.pool_s``.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path

ROOT = "cli"

# (importing module, imported name, span name).  A name imported by several
# modules is wrapped in each, under one span name.
SITES = (
    ("serrant.cli", "run", "pipeline"),
    ("serrant.cli", "classify_corpus_parallel", "pipeline.parallel"),
    ("serrant.cli", "emit_m2", "m2.emit_m2"),
    ("serrant.cli", "type_distribution", "report"),
    ("serrant.cli", "emit_report", "report"),
    ("serrant.pipeline", "read_parallel", "m2.read_parallel"),
    ("serrant.pipeline", "parse_m2", "m2.parse_m2"),
    ("serrant.pipeline", "apply_edits", "m2.apply_edits"),
    ("serrant.pipeline", "parse_conllu", "ud.parse_conllu"),
    ("serrant.pipeline", "attach", "ud.attach"),
    ("serrant.pipeline", "fallback_annotate", "ud.fallback_annotate"),
    ("serrant.pipeline", "align", "alignment.align"),
    ("serrant.pipeline", "merge", "alignment.merge"),
    ("serrant.pipeline", "classify_base", "base.classify_base"),
    ("serrant.pipeline", "classify_sercl", "sercl.classify_sercl"),
    ("serrant.pipeline", "build_context", "combine.build_context"),
    ("serrant.pipeline", "combine", "combine.combine"),
    ("serrant.base", "span_head", "ud.span_head"),
    ("serrant.sercl", "span_head", "ud.span_head"),
    ("serrant.combine", "span_head", "ud.span_head"),
)

# spans the parallel path runs in the parent before it hands work to the pool
INGESTION = frozenset(
    {"m2.read_parallel", "ud.parse_conllu", "ud.attach", "ud.fallback_annotate"}
)

# name -> unit, in report order; BENCHMARK.json lists the same names
PER_LAYER = {
    "alignment.align.self_s": "s",
    "alignment.align.calls": "count",
    "alignment.align.cells": "count",
    "alignment.align.core_cells": "count",
    "alignment.align.call_p50_ms": "ms",
    "alignment.align.call_p99_ms": "ms",
    "alignment.merge.self_s": "s",
    "ud.parse_conllu.self_s": "s",
    "ud.parse_conllu.tokens": "count",
    "ud.attach.self_s": "s",
    "ud.span_head.calls": "count",
    "ud.span_head.self_s": "s",
    "ud.span_head.calls_per_edit": "1/edit",
    "base.classify_base.self_s": "s",
    "sercl.classify_sercl.self_s": "s",
    "combine.build_context.self_s": "s",
    "combine.combine.self_s": "s",
    "m2.parse_m2.self_s": "s",
    "m2.apply_edits.self_s": "s",
    "m2.apply_edits.calls": "count",
    "ud.fallback_annotate.self_s": "s",
    "ud.fallback_annotate.calls": "count",
    "m2.read_parallel.self_s": "s",
    "m2.emit_m2.self_s": "s",
    "report.self_s": "s",
    "cli.self_s": "s",
    "pipeline.self_s": "s",
    "pipeline.parallel.pool_s": "s",
    "trace.overhead_s": "s",
}


def _align_cells(counts: dict[str, int], args: tuple, result) -> None:
    src, trg = args[0], args[1]
    n, m = len(src), len(trg)
    counts["alignment.align.cells"] += (n + 1) * (m + 1)
    prefix = 0
    while prefix < min(n, m) and src[prefix] == trg[prefix]:
        prefix += 1
    suffix = 0
    while suffix < min(n, m) - prefix and src[n - 1 - suffix] == trg[m - 1 - suffix]:
        suffix += 1
    counts["alignment.align.core_cells"] += (n - prefix - suffix + 1) * (m - prefix - suffix + 1)


def _conllu_tokens(counts: dict[str, int], args: tuple, result) -> None:
    counts["ud.parse_conllu.tokens"] += sum(len(sentence) for sentence in result)


COUNTERS = {"alignment.align": _align_cells, "ud.parse_conllu": _conllu_tokens}


class Tracer:
    """Records spans of wrapped calls in memory, in the process that made it.

    Spans go into a flat integer array rather than a list of tuples: the
    array adds no objects for the garbage collector to scan, which kept
    the tracing overhead down on runs that hold 200 MB of live objects.
    """

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.spans = array("q")  # span id, parent id, name index, start ns, end ns
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.recording = True
        self._stack = [0]
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.recording = False

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        record, stack, ids, clock = self.spans.extend, self._stack, self._ids, time.perf_counter_ns
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((span_id, parent, code, start, end))
            if counter is not None:
                counter(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every site in :data:`SITES`; sites a module no longer has are listed in ``missing``."""
        for module_name, attribute, span_name in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attribute, None)
            if callable(fn):
                setattr(module, attribute, self.wrap(span_name, fn))
            else:
                self.missing.append(f"{module_name}.{attribute}")

    def write(self, path: Path) -> None:
        """Write ``counts`` as a header line, then one span per line."""
        counts = " ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        lines = [f"# run {self.run_id} {counts}"]
        spans = self.spans
        for i in range(0, len(spans), 5):
            span_id, parent, code, start, end = spans[i : i + 5]
            lines.append(f"{span_id}\t{parent}\t{self.names[code]}\t{start}\t{end}\t{self.run_id}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_spans(path: Path) -> tuple[list[tuple[int, int, str, int, int]], dict[str, int]]:
    lines = path.read_text(encoding="utf-8").rstrip("\n").split("\n")
    counts = {}
    for item in lines[0].split()[3:]:
        key, value = item.split("=")
        counts[key] = int(value)
    spans = []
    for line in lines[1:]:
        span_id, parent, name, start, end, _ = line.split("\t")
        spans.append((int(span_id), int(parent), name, int(start), int(end)))
    return spans, counts


def summarize(
    spans: list[tuple[int, int, str, int, int]], counts: dict[str, int], untraced_s: float
) -> tuple[dict[str, float], float]:
    """Per-layer metrics from one traced run, and the traced run's total time.

    ``untraced_s`` is the median time of the untraced runs of the same
    inputs; the traced time minus it is ``trace.overhead_s``.  The self
    times plus ``pipeline.parallel.pool_s`` partition the traced time, so
    they account for the untraced time to within ``trace.overhead_s``.
    """
    duration = {s[0]: s[4] - s[3] for s in spans}
    child_time: dict[int, int] = defaultdict(int)
    ingestion_time: dict[int, int] = defaultdict(int)
    names = {s[0]: s[2] for s in spans}
    for span_id, parent, name, _, _ in spans:
        if parent:
            child_time[parent] += duration[span_id]
            if name in INGESTION:
                ingestion_time[parent] += duration[span_id]
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    align_ns = []
    pool_ns = 0
    for span_id, _, name, _, _ in spans:
        self_ns[name] += duration[span_id] - child_time[span_id]
        calls[name] += 1
        if name == "alignment.align":
            align_ns.append(duration[span_id])
        elif name == "pipeline.parallel":
            pool_ns += duration[span_id] - ingestion_time[span_id]
    total_s = sum(duration[s] for s, n in names.items() if n == ROOT) / 1e9

    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            metrics[name] = self_ns[layer] / 1e9
        elif stat == "calls":
            metrics[name] = calls[layer]
    metrics["alignment.align.cells"] = counts.get("alignment.align.cells", 0)
    metrics["alignment.align.core_cells"] = counts.get("alignment.align.core_cells", 0)
    metrics["alignment.align.call_p50_ms"] = _quantile(align_ns, 0.50) / 1e6
    metrics["alignment.align.call_p99_ms"] = _quantile(align_ns, 0.99) / 1e6
    metrics["ud.parse_conllu.tokens"] = counts.get("ud.parse_conllu.tokens", 0)
    edits = calls["combine.combine"]
    metrics["ud.span_head.calls_per_edit"] = calls["ud.span_head"] / edits if edits else 0.0
    metrics["pipeline.parallel.pool_s"] = pool_ns / 1e9
    metrics["trace.overhead_s"] = total_s - untraced_s
    return metrics, total_s


def _quantile(values: list[int], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
