"""In-memory spans around splicefan's public functions, for the traced run.

A Tracer wraps chosen functions in every splicefan module namespace that
holds them. Each call records a span (name, start, end, parent span) in a
list; nothing is written until the run ends. Per-name totals give calls,
inclusive milliseconds and self milliseconds (the span minus the time its
wrapped child spans cover).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, on_result=None, on_error=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error:
                    self.counts[on_error] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result:
                on_result(self.counts, result)
            return result

        return traced

    def install(self, module_name, fn_name, span_name, on_result=None, on_error=None):
        """Replace ``module.fn`` by its traced form wherever a splicefan
        module (or the package itself) holds the same function object."""
        original = getattr(sys.modules[module_name], fn_name)
        traced = self.wrap(span_name, original, on_result, on_error)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "splicefan" or mod_name.startswith("splicefan."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def totals(spans, group=lambda name: name):
    """Per group: calls, inclusive ms and self ms.

    Inclusive time counts only spans whose parent is outside the group, so
    nested calls inside one group are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        key = group(name)
        entry = out.setdefault(key, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += 1000 * (end - start - child_time[i])
        if parent < 0 or group(spans[parent][0]) != key:
            entry["ms"] += 1000 * (end - start)
    return out


def write_jsonl(path, phases):
    """phases: list of (phase name, spans); one JSON object per span."""
    with open(path, "w", encoding="utf-8") as handle:
        for phase, spans in phases:
            for i, (name, start, end, parent) in enumerate(spans):
                handle.write(json.dumps({
                    "phase": phase, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
