"""In-memory spans around the calls into each ``ddnnf`` module.

:meth:`Tracer.install` replaces the public functions of ``parsing``, ``preprocess``,
``engine`` and ``cli`` by wrappers that record one span per call: name,
start, end, parent span and request id, plus a few counts read from the
arguments and the result.  Spans stay in memory until :meth:`Tracer.dump`.
Nothing in the program changes; an untraced run never imports this module.
"""

from __future__ import annotations

import json
import sys
import time

# Set-up stages; their spans should account for the traced set-up time.
STAGES = (
    "parsing.parse_c2d",
    "parsing.parse_d4",
    "preprocess.smooth",
    "preprocess.link_parents",
    "preprocess.index_literals",
    "preprocess.compute_core_dead",
    "preprocess.compute_baseline",
)


def _records(args, result):
    return {"records": len(result.nodes)}


def _nodes(args, result):
    return {"nodes": len(result.nodes)}


def _omitted(args, result):
    return {"omitted": len(result.omitted)}


def _core_dead(args, result):
    core, dead = result
    return {"core": len(core), "dead": len(dead)}


def _query(args, result):
    return {
        "strategy": result.strategy,
        "visited": result.nodes_visited,
        "marked": result.nodes_marked,
        "nodes": len(args[0].nodes),
    }


def _handle(args, result):
    response = result[0]
    return {"digits": len(response) if response.isdigit() else 0}


# (module, attribute, span name, counts read after the call)
TARGETS = (
    ("ddnnf.parsing", "parse_c2d", "parsing.parse_c2d", _records),
    ("ddnnf.parsing", "parse_d4", "parsing.parse_d4", _records),
    ("ddnnf.parsing", "toposort", "parsing.toposort", None),
    ("ddnnf.preprocess", "toposort", "parsing.toposort", None),
    ("ddnnf.preprocess", "smooth", "preprocess.smooth", _nodes),
    ("ddnnf.preprocess", "link_parents", "preprocess.link_parents", None),
    ("ddnnf.preprocess", "index_literals", "preprocess.index_literals", _omitted),
    ("ddnnf.preprocess", "compute_core_dead", "preprocess.compute_core_dead", _core_dead),
    ("ddnnf.preprocess", "compute_baseline", "preprocess.compute_baseline", None),
    ("ddnnf.engine", "query", "engine.query", _query),
    ("ddnnf.engine", "mark_ancestors", "engine.mark_ancestors", None),
    ("ddnnf.engine", "count_all_features", "engine.count_all_features", None),
    ("ddnnf.cli", "run_stream", "cli.run_stream", None),
)


class Tracer:
    """Collects spans as ``[name, start, end, parent, request, counts]``.

    With a ``period``, requests (``StreamSession.handle`` calls) alternate
    between traced and untraced passes of ``period`` lines, so that one
    process prices its own tracing; see :meth:`traced`.
    """

    def __init__(self, period: int | None = None):
        self.spans: list[list] = []
        self.request = 0
        self.period = period
        self.enabled = False
        self._open: list[int] = []
        self._targets: list[tuple[object, str, object, object]] = []

    def wrap(self, name: str, fn, counts=None):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.request, None]
            spans.append(span)
            open_spans.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def traced(self, request: int) -> bool:
        """Request 1 is the set-up's first line; script line k is request
        k + 2 and is traced in even passes of ``period`` lines."""
        return self.period is None or request < 2 or (request - 2) // self.period % 2 == 0

    def install(self) -> None:
        """Wrap every target and turn tracing on; ``ddnnf`` must be importable."""
        import ddnnf.cli  # noqa: F401  (loads every module below)

        for module_name, attr, name, counts in TARGETS:
            module = sys.modules[module_name]
            fn = getattr(module, attr)
            self._targets.append((module, attr, fn, self.wrap(name, fn, counts)))
        self.enable(True)

        session = sys.modules["ddnnf.cli"].StreamSession
        plain = session.handle
        traced = self.wrap("cli.handle", plain, _handle)

        def handle(*args):
            self.request += 1
            on = self.traced(self.request)
            if on != self.enabled:
                self.enable(on)
            return (traced if on else plain)(*args)

        session.handle = handle
        self._targets.append((session, "handle", plain, handle))

    def enable(self, on: bool) -> None:
        """Point every target at its wrapper (on) or its original (off)."""
        for owner, attr, plain, wrapper in self._targets:
            if attr != "handle":
                setattr(owner, attr, wrapper if on else plain)
        self.enabled = on

    def uninstall(self) -> None:
        for owner, attr, plain, _ in reversed(self._targets):
            setattr(owner, attr, plain)
        self._targets.clear()
        self.enabled = False

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
