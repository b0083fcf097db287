"""The benchmark's tracer names walkport functions by string; keep them real."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from walkport import cli, equivalence

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_exists():
    missing = [
        f"walkport.{layer}.{name}"
        for layer, names in load_tracer().LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"walkport.{layer}"), name, None))
    ]
    assert missing == []


def test_importing_the_cli_loads_every_traced_module():
    # Tracer.install looks each layer up in sys.modules, so a module the CLI
    # imported lazily would have all its spans listed as absent.
    code = "import sys, walkport.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(TRACER.parents[1] / "src")}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert {f"walkport.{layer}" for layer in load_tracer().LAYERS} <= set(loaded)


def test_equiv_cycle_line_reaches_project(tmp_path, monkeypatch):
    # The benchmark's traced-call check asserts a measure.project span.
    calls = []
    project = equivalence.project
    monkeypatch.setattr(equivalence, "project", lambda *a: calls.append(a) or project(*a))
    argv = ["equiv", "cycle-line", "--count", "1", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(calls) >= 1
