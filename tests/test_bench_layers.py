"""The benchmark's tracer wraps dfao's layer functions by name; a layer
renamed or removed in the program must fail here, not only show up in a
benchmark run's list of missing layers."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = _tracing()
    assert tracing.LAYERS
    with tracing.traced(tracing.Tracer()) as missing:
        assert missing == []
