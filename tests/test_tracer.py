"""The benchmark's tracer wraps ``ddnnf`` functions by name; a rename or a
deleted function must fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

from ddnnf import parse_c2d, preprocess
from ddnnf.cli import StreamSession

from helpers import random_c2d_text

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = _load_tracing()
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.TARGETS
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, name, _ in tracing.TARGETS:
            wrapper = getattr(sys.modules[module], attr)
            assert wrapper.__wrapped__ is originals[module, attr], name
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn


def test_every_session_line_is_one_query_span():
    # a line that starts from the kept values is still one engine.query span
    # with the circuit as its first argument, as the per-layer view reads it
    # core {2, 8}, dead {1, 3}: "-2" and "1" are shortcuts, and so is "4 -5 2",
    # which adds only a core literal to the line before it
    d = preprocess(parse_c2d(random_c2d_text(48, 12, tree_budget=400)))
    lines = ["4", "4 -5", "4 -5 6", "4 -5 6 7 9 -10", "4 -5", "4 -5 2"]
    lines += ["11", "11 -11", "-2", "1", "-4 12"]
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        session = StreamSession(d)
        for line in lines:
            session.handle("count v " + line)
    finally:
        tracer.uninstall()
    spans = [span for span in tracer.spans if span[0] == "engine.query"]
    assert len(spans) == len(lines)
    assert {span[5]["strategy"] for span in spans} == {
        "shortcut", "partial", "full", "contradiction"
    }
    assert all(span[5]["nodes"] == len(d.nodes) for span in spans)
