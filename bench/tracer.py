"""Spans recorded from the benchmark's side, around the library's public callables.

The tracer replaces each traced callable at every name a caller looks it up
by (module globals and class attributes), records one span per call with its
parent, and restores the originals on ``uninstall``. Self time is a span's
duration minus the durations of the traced spans directly inside it. A
callable missing from the library is skipped, so the benchmark still runs
after a refactor removes a layer; its counts then read 0.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

PACKAGE = "slicemetrics"
MODULES = ("table", "metrics", "compute", "frames", "sqlgen", "dsl", "cli")


def _cells(table) -> int:
    return table.row_count * len(table.column_names)


# (module, callable, span, counter) for functions, looked up by identity.
FUNCTIONS = (
    ("table", "read_csv", "table.read_csv", lambda a, r: {"cells": _cells(r)}),
    ("table", "group_rows", "table.group_rows", lambda a, r: {"groups_out": len(r)}),
    ("table", "resample_with_replacement", "table.resample_with_replacement", None),
    ("compute", "compute_on", "compute.compute_on", None),
    ("compute", "eval_leaf", "compute.eval_leaf", None),
    ("compute", "eval_composite", "compute.eval_composite", None),
    ("sqlgen", "to_sql", "sqlgen.to_sql", lambda a, r: {"sql_bytes": len(r.render())}),
    ("dsl", "parse", "dsl.parse", None),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, span, counter) for methods; the counter sees self first.
METHODS = (
    ("table", "Table", "take", "table.Table.take",
     lambda a, r: {"cells_copied": len(a[1]) * len(a[0].column_names)}),
    ("table", "Table", "fingerprint", "table.Table.fingerprint", None),
    ("frames", "ResultFrame", "__post_init__", "frames.ResultFrame",
     lambda a, r: {"created": 1, "rows": len(a[0].rows)}),
    ("frames", "ResultFrame", "to_csv", "frames.render", None),
    ("frames", "ResultFrame", "to_text", "frames.render", None),
)


class Tracer:
    """Per-process span recorder; install it only around the traced rounds."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float] | None] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.contexts: list = []
        self.recording = False
        self.origin = time.perf_counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> list:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][1] if self._stack else -1
        frame = [name_id, len(self.spans), parent, time.perf_counter(), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        name_id, index, parent, start, children = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        name = self.names[name_id]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        self.spans[index] = (name_id, parent, start - self.origin, duration)

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def count(self, name: str, amount: float = 1):
        if self.recording:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def paused(self):
        """Run harness work (checks, clean-up) inside a traced round unrecorded."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if counter is not None:
                started = time.perf_counter()
                try:
                    counts = counter(args, result)
                except (AttributeError, TypeError):  # the library changed shape
                    counts = {}
                for key, amount in counts.items():
                    tracer.count(f"{name}.{key}", amount)
                if tracer._stack:  # counting is tracer work, not the caller's
                    tracer._stack[-1][4] += time.perf_counter() - started
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced callable at each name the library binds it to."""
        package = importlib.import_module(PACKAGE)
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        everywhere = [package, *mods.values()]
        for mod_name, attr, name, counter in FUNCTIONS:
            fn = getattr(mods[mod_name], attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name, counter)
            for mod in everywhere:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        for mod_name, cls_name, attr, name, counter in METHODS:
            cls = getattr(mods[mod_name], cls_name, None)
            if cls is not None and attr in cls.__dict__:
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, counter))
        metric = getattr(mods["metrics"], "Metric", None)
        for cls in _subclasses(metric) if metric is not None else ():
            if "serialize" in cls.__dict__:
                self._patch(cls, "serialize", self._wrap(cls.__dict__["serialize"],
                                                         "metrics.serialize", None))
        # The CLI builds its own evaluation context; keep each one for the
        # cache counters.
        context_cls = getattr(mods["cli"], "EvalContext", None)
        if context_cls is not None:
            def recording_context(*args, **kwargs):
                ctx = context_cls(*args, **kwargs)
                self.contexts.append(ctx)
                return ctx

            self._patch(mods["cli"], "EvalContext", recording_context)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "span_fields": ["name", "parent", "start_s", "duration_s"],
            "spans": [span for span in self.spans if span is not None],
        }


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(s for s in _subclasses(sub) if s not in seen)
    return seen
