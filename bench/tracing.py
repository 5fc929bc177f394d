"""Spans around the calls each ``gexpand`` module makes across module
boundaries, recorded from outside the package.

``Tracer.install`` replaces the imported names listed in TARGETS with
timing wrappers and ``uninstall`` restores them.  Spans stay in memory
as (run, id, parent, name, start, end, items) tuples, where ``items``
is the length of a list result; ``layer_metrics`` derives per-layer
times, self times and counts for one run from them.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

# (module, imported name, span name).  Spans are named after the module
# that implements the called function.
TARGETS = [
    ("gexpand.cli", "parse_operation_file", "algebra.parse"),
    ("gexpand.cli", "parse_rtg", "grammar.parse_rtg"),
    ("gexpand.cli", "parse_definitions", "substitution.parse"),
    ("gexpand.cli", "n_best_trees", "grammar.n_best"),
    ("gexpand.cli", "evaluate_corpus", "evaluator.corpus"),
    ("gexpand.cli", "instantiate_all", "substitution.instantiate"),
    ("gexpand.cli", "emit_gv", "gvio.emit"),
    ("gexpand.evaluator", "apply_expansion_all", "algebra.apply_all"),
    ("gexpand.evaluator", "apply_expansion", "algebra.apply"),
    ("gexpand.evaluator", "canonical_key", "graphs.canonical_key"),
    ("gexpand.evaluator", "disjoint_union", "graphs.union"),
    ("gexpand.algebra", "canonical_key", "graphs.canonical_key"),
    ("gexpand.gvio", "canonical_order", "graphs.canonical_order"),
    ("gexpand.substitution", "canonical_order", "graphs.canonical_order"),
]

FIELDS = ["run", "id", "parent", "name", "start", "end", "items"]

# Results kept from the last run, for counters computed after it.
CAPTURE = {"grammar.n_best", "evaluator.corpus"}


# Per-layer metric -> (kind, span).  "s" is total span time, "self_s"
# that time minus the time of child spans, "calls" the number of spans
# and "items" the summed length of their list results.
SPAN_METRICS = {
    "cli.main_s": ("s", "cli.main"),
    "cli.self_s": ("self_s", "cli.main"),
    "grammar.parse_rtg_s": ("s", "grammar.parse_rtg"),
    "grammar.n_best_s": ("s", "grammar.n_best"),
    "algebra.parse_s": ("s", "algebra.parse"),
    "algebra.apply_all_calls": ("calls", "algebra.apply_all"),
    "algebra.apply_all_self_s": ("self_s", "algebra.apply_all"),
    "algebra.apply_all_results": ("items", "algebra.apply_all"),
    "algebra.apply_calls": ("calls", "algebra.apply"),
    "algebra.apply_s": ("s", "algebra.apply"),
    "evaluator.corpus_s": ("s", "evaluator.corpus"),
    "evaluator.self_s": ("self_s", "evaluator.corpus"),
    "graphs.canonical_key_calls": ("calls", "graphs.canonical_key"),
    "graphs.canonical_key_s": ("s", "graphs.canonical_key"),
    "graphs.canonical_order_calls": ("calls", "graphs.canonical_order"),
    "graphs.canonical_order_s": ("s", "graphs.canonical_order"),
    "graphs.union_calls": ("calls", "graphs.union"),
    "graphs.union_s": ("s", "graphs.union"),
    "substitution.parse_s": ("s", "substitution.parse"),
    "substitution.instantiate_s": ("s", "substitution.instantiate"),
    "substitution.instances": ("items", "substitution.instantiate"),
    "gvio.emit_calls": ("calls", "gvio.emit"),
    "gvio.emit_self_s": ("self_s", "gvio.emit"),
}


def expected_spans(mode: str, has_defs: bool) -> set:
    """Spans a run of the CLI in this configuration must record.  When
    one of them records nothing, its metrics are reported absent."""
    spans = {"cli.main", "algebra.parse", "grammar.parse_rtg",
             "grammar.n_best", "evaluator.corpus", "gvio.emit",
             "graphs.canonical_order", "graphs.union"}
    spans |= ({"algebra.apply_all", "graphs.canonical_key"}
              if mode == "enumerate" else {"algebra.apply"})
    if has_defs:
        spans |= {"substitution.parse", "substitution.instantiate"}
    return spans


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.captured: Dict[str, object] = {}
        self.missing: set = set()
        self.run = 0
        self._stack: List[int] = []
        self._next = 0
        self._saved: List[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        capture = name in CAPTURE

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            items = len(result) if isinstance(result, list) else None
            spans.append((self.run, sid, parent, name, start, end, items))
            if capture:
                self.captured[name] = result
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """JSON lines: the field names, then one array per span."""
        with path.open("w") as f:
            f.write(json.dumps(FIELDS) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_metrics(spans: List[tuple], absent: set) -> Dict[str, float]:
    """Per-layer times and counts of one run's spans.

    A span's self time is its duration minus that of its child spans
    (children never overlap: the run is single-threaded).  A metric is
    left out when a span it is derived from is in ``absent``.
    """
    dur: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    items: Dict[str, int] = defaultdict(int)
    child: Dict[str, float] = defaultdict(float)
    name_of = {s[1]: s[3] for s in spans}
    for _run, _sid, parent, name, start, end, n in spans:
        dur[name] += end - start
        calls[name] += 1
        items[name] += n or 0
        if parent is not None:
            child[name_of[parent]] += end - start

    kinds = {"s": dur, "calls": calls, "items": items,
             "self_s": {n: dur[n] - child[n] for n in dur}}
    values = {
        metric: kinds[kind].get(span, 0)
        for metric, (kind, span) in SPAN_METRICS.items()
        if span not in absent
    }
    if "substitution.instantiate" not in absent:
        values["substitution.fanout"] = _ratio(
            items["substitution.instantiate"], calls["substitution.instantiate"])
    if "cli.main" not in absent:
        values["trace.coverage"] = _ratio(child["cli.main"], dur["cli.main"])
    return values


def absent_spans(spans: List[tuple], missing: set, expected: set) -> set:
    """Spans whose metrics cannot be reported: the wrapped name no longer
    exists, or the run should have called it and did not."""
    seen = {s[3] for s in spans}
    return set(missing) | {name for name in expected if name not in seen}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
