"""The benchmark's tracer names walkport functions by string; keep them real."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"walkport.{layer}.{name}"
        for layer, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"walkport.{layer}"), name, None))
    ]
    assert missing == []
