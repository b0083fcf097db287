"""One workload in a fresh process: set-up, then a closed loop over the CLI.

Every call goes through ``walkport.cli.main(argv)`` with ``--out`` set to a
file of its own under ``--workdir``; the parent process checks those
reports after this process has exited.  The last line of standard output
is one JSON object with the per-call records and, in trace mode, the
per-layer metrics.

Modes:
  setup    import walkport and make the warm-up calls, then stop.
  measure  set-up, then whole rotations of the workload's calls until
           ``--seconds`` of call time have passed.
  trace    set-up and an untraced loop for half the time, then a traced
           loop of whole rotations for the other half, under ``Tracer``.
Both measuring modes end with a repeat of the first timed argv (its report
must be byte-identical) and the workload's control call (it must fail).

Calibration: on hosts that share cores with other tenants, pure-Python
work runs up to 1.7x slower for seconds at a time.  A fixed kernel of dict
and complex arithmetic, the kind of work walkport's sparse states do, is
timed before the first call and after every call, outside the timed
interval.  Each record's ``scale`` is NOMINAL_S over the mean kernel time
on either side of the call, so ``s * scale`` is the call's time at a fixed
nominal speed: the speed at which the kernel takes NOMINAL_S.  Set-up is
one long interval with no kernel timings inside it and is left raw.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, aggregate, layer_metrics  # noqa: E402
from workloads import WORKLOADS, call_seeds, payloads, with_seed  # noqa: E402

# A tail percentile needs at least ten samples beyond it.
MIN_CALLS = 11

NOMINAL_S = 1e-3


def _kernel() -> int:
    acc: dict[tuple[int, int, int], complex] = {}
    for i in range(40):
        for j in range(40):
            key = (i, j, i ^ j)
            acc[key] = acc.get(key, 0j) + complex(i, j) * 0.5
    return len(acc)


def kernel_s() -> float:
    """Best of three timings of the calibration kernel."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Loop:
    """A single client: each call starts when the previous one returns."""

    def __init__(self, workdir: Path, tracer: Tracer | None) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.records: list[dict] = []
        self.cli = None
        self.last_kernel_s = kernel_s()

    def call(self, argv: list[str], phase: str) -> dict:
        index = len(self.records)
        report = f"{index:05d}.json"
        full = [*argv, "--out", str(self.workdir / report)]
        if self.tracer is not None:
            self.tracer.call = index
        error = None
        start = time.perf_counter()
        try:
            rc = self.cli.main(full)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed call, not a crashed benchmark
            rc = -1
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        before, self.last_kernel_s = self.last_kernel_s, kernel_s()
        scale = NOMINAL_S / ((before + self.last_kernel_s) / 2)
        record = {
            "argv": argv, "phase": phase, "rc": rc, "s": seconds, "scale": scale, "report": report
        }
        if error:
            record["error"] = error
        self.records.append(record)
        return record

    def rotations(self, workload, seeds, seconds: float, phase: str, min_calls: int) -> float:
        """Whole rotations until ``seconds`` of call time and ``min_calls`` calls."""
        spent, calls = 0.0, 0
        while spent < seconds or calls < min_calls:
            for template in workload.rotation:
                record = self.call(with_seed(template, next(seeds)), phase)
                spent += record["s"]
                calls += 1
        return spent


def payloads_per_s(records: list[dict]) -> float:
    """Payloads verified per second of call time at nominal speed."""
    return sum(payloads(r["argv"]) for r in records) / sum(r["s"] * r["scale"] for r in records)


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file the trace mode writes its spans to")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    seeds = call_seeds(args.seed)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.mode == "trace" else None
    loop = Loop(workdir, tracer)
    out: dict = {}

    start = time.perf_counter()
    loop.cli = importlib.import_module("walkport.cli")
    import_s = time.perf_counter() - start
    if tracer is not None:
        tracer.install()
    warm = [loop.call(with_seed(t, next(seeds)), "warmup") for t in workload.warmup]
    out["setup_s"] = import_s + sum(r["s"] for r in warm)
    out["walkport"] = loop.cli.__file__
    out["versions"] = versions()
    if tracer is not None:
        tracer.remove()

    if args.mode != "setup" and all(r["rc"] == 0 for r in warm):
        if tracer is None:
            loop.rotations(workload, seeds, args.seconds, "timed", MIN_CALLS)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            first_untraced = len(loop.records)
            loop.rotations(workload, seeds, args.seconds / 2, "untraced", 1)
            first_traced = len(loop.records)
            tracer.install()
            traced_s = loop.rotations(workload, seeds, args.seconds / 2, "traced", 1)
            tracer.remove()
            out["layers"] = layer_metrics(
                timed=aggregate(tracer.spans, set(range(first_traced, len(loop.records)))),
                setup=aggregate(tracer.spans, set(range(len(warm)))),
                call_s=traced_s,
                traced_pps=payloads_per_s(loop.records[first_traced:]),
                untraced_pps=payloads_per_s(loop.records[first_untraced:first_traced]),
                payloads=sum(payloads(r["argv"]) for r in loop.records[first_traced:]),
            )
            out["absent"] = tracer.absent
            if args.spans:
                calls = {
                    i: {"phase": r["phase"], "argv": r["argv"]} for i, r in enumerate(loop.records)
                }
                tracer.write(args.spans, calls)
        first = next(r for r in loop.records if r["phase"] in ("timed", "untraced"))
        loop.call(first["argv"], "repeat")
        if workload.control is not None:
            loop.call(with_seed(workload.control, next(seeds)), "control")

    out["records"] = loop.records
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
