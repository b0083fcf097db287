"""Benchmark of walkport's CLI verbs, one workload per invocation.

    python3 perfbench/run.py --workload sweep-2q --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Each workload runs in fresh child
processes (``child.py``) as a single-client closed loop over
``walkport.cli.main``.  This process re-checks every report the children
wrote, then prints the metrics by name with their units; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: median set-up time over
several fresh processes, payloads verified per second, per-call median and
tail latency, and the peak resident memory of the measuring process.  Call
times are scaled to a nominal machine speed by the calibration described
in ``child.py``; the raw wall-clock figures are printed beside them.
``--trace 1`` reports the per-layer metrics of ``tracer.METRICS`` from a
run whose second half is traced, with the tracing overhead.  The spans of
the last traced run are left in ``.perfbench_work/``.

Exit status: 0 when every output checked correct, 1 when a check failed,
2 when the benchmark could not run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import problems  # noqa: E402
from tracer import METRICS as PER_LAYER  # noqa: E402
from workloads import LOAD, WORKLOADS, payloads  # noqa: E402

WORKDIR = ROOT / ".perfbench_work"
# Every invocation must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("payloads_per_s", "1/s"),
    ("call_p50_s", "s"),
    ("call_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    Of n sorted samples, the one at 0-based rank n - 11 has exactly ten
    above it; it sits at percentile 100 * (n - 10) / n.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} calls are too few for a tail percentile")
    return 100.0 * (n - 10) / n, ordered[n - 11]


def call_timings(call_s: list[float], timed: list[dict]) -> dict:
    percentile, tail_s = tail(call_s)
    return {
        "payloads_per_s": sum(payloads(c["argv"]) for c in timed) / sum(call_s),
        "call_p50_s": statistics.median(call_s),
        "call_tail_s": tail_s,
        "tail_percentile": percentile,
    }


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def spawn(
    workload: str, seed: int, seconds: float, mode: str, tag: str, deadline: float
) -> tuple[dict, Path]:
    """Run one child process to completion and return its record."""
    workdir = WORKDIR / f"{workload}-{seed}-{os.getpid()}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--mode", mode,
        "--workdir", str(workdir),
    ]
    if mode == "trace":
        cmd += ["--spans", str(WORKDIR / f"spans-{workload}.jsonl")]
    env = {k: v for k, v in os.environ.items() if k != "WALKPORT_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {workload} overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = (ROOT / "src" / "walkport" / "cli.py").resolve()
    if Path(record["walkport"]).resolve() != expected:
        raise BenchError(f"child imported walkport from {record['walkport']}")
    return record, workdir


def check_child(record: dict, workdir: Path) -> tuple[list[dict], list[str]]:
    """Check every report of one child; return its calls and any fatal problems."""
    fatal = []
    first_bytes = None
    for call in record["records"]:
        path = workdir / call["report"]
        raw = path.read_bytes() if path.is_file() else None
        try:
            report = json.loads(raw) if raw is not None else None
        except ValueError:
            report = None
        call["problems"] = problems(call["argv"], call["rc"], report)
        if "error" in call:
            call["problems"].append(call["error"])
        if first_bytes is None and call["phase"] in ("timed", "untraced"):
            first_bytes = raw
        if call["phase"] == "repeat" and raw != first_bytes:
            call["problems"].append("repeated argv gave a different report")
        if call["phase"] == "control":
            if call["rc"] != 1 or report is None or report.get("ok") is not False:
                fatal.append(f"control call {call['argv']} was not caught: rc {call['rc']}")
        elif call["phase"] == "warmup" and call["problems"]:
            fatal.append(f"warm-up {call['argv']} failed: {call['problems']}")
    return [c for c in record["records"] if c["phase"] != "control"], fatal


def run(args) -> tuple[dict, list[str], dict]:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    mode = "trace" if args.trace else "measure"
    children = []
    if not args.trace:
        for i in range(workload.setup_runs - 1):
            children.append(
                spawn(workload.name, args.seed, args.seconds, "setup", f"s{i}", deadline)
            )
    children.append(spawn(workload.name, args.seed, args.seconds, mode, "m", deadline))

    calls, fatal = [], []
    for record, workdir in children:
        c, f = check_child(record, workdir)
        calls += c
        fatal += f
        shutil.rmtree(workdir, ignore_errors=True)
    main_record = children[-1][0]
    timed = [c for c in calls if c["phase"] in ("timed", "traced")]
    if not timed:
        fatal.append("no timed calls ran")
    failed = len(calls) if fatal else sum(1 for c in calls if c["problems"])
    result = {"correct": not fatal and failed == 0, "attempted": len(calls), "failed": failed}

    info = {
        "workload": workload.name,
        "why": workload.why,
        "calls": [list(t) for t in workload.rotation],
        "warmup": [list(t) for t in workload.warmup],
        "load": LOAD,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {**machine(), **main_record["versions"]},
        "fail_frac": failed / len(calls),
    }
    if fatal:
        result["metrics"] = {}
        return result, fatal + [p for c in calls for p in c["problems"]][:10], info

    if args.trace:
        layers = main_record["layers"]
        result["metrics"] = {
            name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER
        }
        info["absent"] = main_record["absent"]
        info["trace_overhead"] = layers["trace.overhead"]
    else:
        setups = [record["setup_s"] for record, _ in children]
        values = call_timings([c["s"] * c["scale"] for c in timed], timed)
        values.update(setup_s=statistics.median(setups), peak_rss_mb=main_record["peak_rss_mb"])
        result["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
        }
        info.update(
            setup_runs_s=setups,
            timed_calls=len(timed),
            call_tail_percentile=values["tail_percentile"],
            slowdown_vs_nominal=statistics.median(1 / c["scale"] for c in timed),
            wall_clock=call_timings([c["s"] for c in timed], timed),
        )
    notes = [p for c in calls for p in c["problems"]][:10]
    return result, notes, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "walkport" / "cli.py").is_file():
        print(f"error: no walkport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        result, notes, info = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(f"# {json.dumps(info, sort_keys=True)}")
    print(
        f"  {'fail_frac':<46} {info['fail_frac']:.6g} ratio "
        f"({result['failed']}/{result['attempted']} calls)"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<46} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
