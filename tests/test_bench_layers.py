"""The benchmark's tracer wraps dfao's layer functions by name; a layer
renamed or removed in the program must fail here, not only show up in a
benchmark run's list of missing layers."""

import importlib.util
import json
from pathlib import Path

import dfao.cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_analyze_enters_every_build_layer(capsys):
    """A layer that the program stops calling through its traced name
    would read zero in the benchmark without being reported missing."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.traced(tracer) as missing:
        code = dfao.cli.main(["analyze", "--json", str(ROOT / "corpus" / "baum_sweet.aut")])
    assert missing == []
    assert code == 0
    assert json.loads(capsys.readouterr().out)["opacity"] == {"num": 1, "den": 4}
    entered = {span[0] for span in tracer.spans}
    assert {
        "autfile.parse_raw",
        "automaton.validate",
        "automaton.normalize_zero",
        "minimize.moore",
        "minimize.quotient_canon",
    } <= entered
