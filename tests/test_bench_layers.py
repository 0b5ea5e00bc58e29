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


def test_traced_commands_enter_every_layer(capsys):
    """A layer that the program stops calling through its traced name
    would read zero in the benchmark without being reported missing.
    Between them, these three commands call every traced layer."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    baum_sweet = str(ROOT / "corpus" / "baum_sweet.aut")
    with tracing.traced(tracer) as missing:
        assert dfao.cli.main(["analyze", "--json", "--oracle", baum_sweet]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["opacity"] == obj["oracle"]["value"] == {"num": 1, "den": 4}
        assert dfao.cli.main(["corpus", "--json"]) == 0
        assert dfao.cli.main(["generate", baum_sweet, "-n", "50"]) == 0
    assert missing == []
    assert {layer[2] for layer in tracing.LAYERS} <= {span[0] for span in tracer.spans}
