"""The benchmark's traced run wraps program functions by their module
binding; a binding that no longer resolves silently drops its layer from
the per-layer breakdown."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_resolves():
    tracer = load_tracer()
    targets = [target for bindings, _ in tracer.SPANS.values() for target in bindings]
    assert targets
    assert [t for t in targets if tracer._resolve(t) is None] == []
