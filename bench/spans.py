"""Span tracing around the program's public layer functions.

`Tracer.install` replaces each target function in every loaded `ssiarch`
module that holds a reference to it, so the wrapper runs wherever its
callers look it up (for example `ssiarch.cli.emit_json` and
`ssiarch.sim.parse_records`); the program's source is not touched. Each
call records a span (name, start, end, parent span, op id) in memory, and
counters record the work done at the same boundary. `summarize` turns
spans into self times (a span's duration minus the time its child spans
cover) and lists each op's root spans."""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _length(result, args) -> dict[str, int]:
    return {"out_bytes": len(result)}


def _records(result, args) -> dict[str, int]:
    return {"records": len(result)}


def _tokens(result, args) -> dict[str, int]:
    return {"tokens": len(result), "bytes": len(args[0])}


def _resolve_findings(result, args) -> dict[str, int]:
    return {"findings": len(result.findings)}


def _findings(result, args) -> dict[str, int]:
    return {"findings": len(result)}


def _edges(result, args) -> dict[str, int]:
    return {"edges": len(result.edges)}


#: (module, function, span name, counter). Every span also counts calls.
TARGETS = (
    ("ssiarch.cli", "run", "cli.run", None),
    ("ssiarch.kb", "builtin_kb", "kb.builtin_kb", None),
    ("ssiarch.extension", "load_extension", "extension.load_extension", None),
    ("ssiarch.extension", "merge", "extension.merge", None),
    ("ssiarch.extension", "parse_records", "extension.parse_records", _records),
    ("ssiarch.dsl", "tokenize", "dsl.tokenize", _tokens),
    ("ssiarch.dsl", "parse", "dsl.parse", None),
    ("ssiarch.dsl", "resolve", "dsl.resolve", _resolve_findings),
    ("ssiarch.analysis", "check_claims", "analysis.check_claims", _findings),
    ("ssiarch.analysis", "derive_dependencies", "analysis.derive_dependencies", None),
    ("ssiarch.analysis", "diff_dependencies", "analysis.diff_dependencies", None),
    ("ssiarch.analysis", "coverage", "analysis.coverage", None),
    ("ssiarch.analysis", "responsibility_stats", "analysis.responsibility_stats", None),
    ("ssiarch.graph", "build_graph", "graph.build_graph", _edges),
    ("ssiarch.graph", "to_dot", "graph.to_dot", _length),
    ("ssiarch.graph", "to_tsv", "graph.to_tsv", _length),
    ("ssiarch.sim", "load_scenarios", "sim.load_scenarios", None),
    ("ssiarch.sim", "run_scenario", "sim.run_scenario", None),
    ("ssiarch.sim", "check_trace", "sim.check_trace", _findings),
    ("ssiarch.report", "emit_json", "report.emit_json", _length),
    ("ssiarch.report", "emit_markdown", "report.emit_markdown", _length),
    ("ssiarch.report", "emit_human", "report.emit_human", _length),
)

SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS)


class Tracer:
    """Records spans and per-op counts while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            op_counts = counts[self.op]
            op_counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(result, args).items():
                    op_counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original, counter)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("ssiarch"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def summarize(spans) -> tuple[dict[str, int], dict[int, list[str]]]:
    """Self time in ns per span name, and per op the names of its root
    spans (those without a parent)."""
    child = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    roots: dict[int, list[str]] = defaultdict(list)
    for i, (name, start, end, parent, op) in enumerate(spans):
        self_ns[name] += end - start - child[i]
        if parent < 0:
            roots[op].append(name)
    return self_ns, roots
