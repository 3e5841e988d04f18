"""The benchmark's tracer wraps ``ddnnf`` functions by name; a rename or a
deleted function must fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
