"""Tests of the benchmark itself: its checks bite, tracing changes no output,
and its counts repeat.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from walkport import cli  # noqa: E402

LINE_ARGV = ["run", "line1q", "--count", "6", "--seed", "5"]


def call(argv, out: Path):
    rc = cli.main([*argv, "--out", str(out)])
    return rc, json.loads(out.read_text())


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_corrupt_table_control_counts_as_failure(tmp_path):
    rc, report = call(LINE_ARGV, tmp_path / "good.json")
    assert rc == 0 and checks.problems(LINE_ARGV, rc, report) == []
    control = [*LINE_ARGV, "--corrupt-table", "20"]
    rc, report = call(control, tmp_path / "bad.json")
    assert rc == 1 and report["ok"] is False
    found = checks.problems(control, rc, report)
    assert "exit code 1" in found and "report ok is False" in found
    assert any("below fidelity" in p for p in found)


def test_recheck_bites_even_when_report_claims_ok(tmp_path):
    rc, report = call(LINE_ARGV, tmp_path / "good.json")
    low = json.loads(json.dumps(report))
    branch = next(b for b in low["payloads"][0]["branches"] if not b["vacuous"])
    branch["fidelity"] = 1.0 - 1e-6
    assert any("below fidelity" in p for p in checks.problems(LINE_ARGV, rc, low))
    short = json.loads(json.dumps(report))
    short["payloads"][1]["branches"].pop()
    found = checks.problems(LINE_ARGV, rc, short)
    assert any("35 branches, expected 36" in p for p in found)
    assert any("sum p - 1" in p for p in found)


def test_traced_call_writes_identical_report(tmp_path):
    argv = ["equiv", "cycle-line", "--count", "4", "--seed", "9"]
    call(argv, tmp_path / "plain.json")
    trace = tracer.Tracer()
    trace.install()
    try:
        call(argv, tmp_path / "traced.json")
    finally:
        trace.remove()
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    names = {span[0] for span in trace.spans}
    assert {"cli.main", "cli.emit", "equivalence.check_cycle_line_equivalence"} <= names
    # project is reached through the name equivalence imported from measure.
    assert "measure.project" in names


def test_repeated_argv_gives_identical_reports(tmp_path):
    for argv in (LINE_ARGV, ["equiv", "cycle-line", "--count", "3", "--seed", "2"]):
        call(argv, tmp_path / "a.json")
        call(argv, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_install_rebinds_every_binding_and_remove_restores():
    import walkport
    from walkport import equivalence, hilbert, measure

    original = measure.enumerate_branches
    init = hilbert.SparseState.__init__
    run_walks = walkport.protocols.run_walks
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = measure.enumerate_branches
        assert traced is not original
        assert equivalence.enumerate_branches is traced
        assert walkport.enumerate_branches is traced
        assert cli.run_walks is measure.run_walks is walkport.protocols.run_walks
        assert cli.run_walks is not run_walks
        assert hilbert.SparseState.__init__ is not init
        assert trace.absent == []
    finally:
        trace.remove()
    assert measure.enumerate_branches is original
    assert equivalence.enumerate_branches is original
    assert walkport.enumerate_branches is original
    assert cli.run_walks is run_walks and measure.run_walks is run_walks
    assert hilbert.SparseState.__init__ is init


def test_missing_name_is_reported_absent(monkeypatch):
    layers = dict(tracer.LAYERS)
    layers["hilbert"] = (*layers["hilbert"], "no_such_function")
    monkeypatch.setattr(tracer, "LAYERS", layers)
    trace = tracer.Tracer()
    trace.install()
    trace.remove()
    assert trace.absent == ["hilbert.no_such_function"]


def test_tail_has_ten_samples_beyond():
    percentile, value = bench.tail([float(x) for x in range(20, 0, -1)])
    assert (percentile, value) == (50.0, 10.0)
    assert bench.tail([float(x) for x in range(11)]) == (100 / 11, 0.0)
    with pytest.raises(bench.BenchError):
        bench.tail([1.0] * 10)


def test_payload_counts():
    assert workloads.payloads(["run", "single2q", "--count", "2", "--seed", "1"]) == 2
    assert workloads.payloads(["equiv", "two-qubit", "--count", "1", "--seed", "1"]) == 2
    assert workloads.payloads(["oracle-check", "--count", "1", "--seed", "1"]) == 4
    assert workloads.payloads(["oracle-check", "line1q", "--count", "3"]) == 3
    assert workloads.payloads(["tables", "line1q"]) == 0


def test_check_child_flags_repeat_mismatch_and_uncaught_control(tmp_path):
    (tmp_path / "0.json").write_text('{"ok": true}')
    (tmp_path / "1.json").write_text('{"ok": true} ')
    (tmp_path / "2.json").write_text('{"ok": true}')
    record = {"records": [
        {"argv": ["tables", "x"], "phase": "timed", "rc": 0, "report": "0.json"},
        {"argv": ["tables", "x"], "phase": "repeat", "rc": 0, "report": "1.json"},
        {"argv": ["tables", "x"], "phase": "control", "rc": 0, "report": "2.json"},
    ]}
    calls, fatal = bench.check_child(record, tmp_path)
    assert len(calls) == 2
    assert "repeated argv gave a different report" in calls[1]["problems"]
    assert len(fatal) == 1 and "was not caught" in fatal[0]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracer.METRICS
    )
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-1q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_per_payload_counts_repeat_and_layers_are_hit_as_designed():
    first, second = traced_run("sweep-1q", 1), traced_run("sweep-1q", 2)
    per_payload = [
        name for name in first
        if name.endswith("_per_payload") and not name.startswith("cli.emit.bytes")
    ]
    assert first["hilbert.SparseState.calls_per_payload"] > 0
    assert first["measure.project.calls_per_payload"] > 0
    assert {n: first[n] for n in per_payload} == {n: second[n] for n in per_payload}
    assert all(first[f"{n}.calls"] == 0 for n in tracer.SPAN_NAMES if n.startswith("oracle."))

    oracle = traced_run("oracle-xval", 1)
    assert oracle["oracle.dense_run.calls"] > 0 and oracle["setup.oracle.step_matrix.calls"] > 0
    assert all(
        oracle[f"{n}.calls"] == 0
        for n in tracer.SPAN_NAMES
        if n.startswith(("measure.", "equivalence."))
    )
