"""Per-layer spans around walkport's public functions, from outside the package.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds every
module attribute across ``walkport.*`` that holds the original function
object, so names imported into other modules (``from .measure import
enumerate_branches`` and the like) are traced too.  ``hilbert.SparseState``
is traced through its ``__init__``.  ``Tracer.remove`` restores every binding.
A name the package no longer has is listed in ``Tracer.absent`` instead of
failing.

Spans stay in memory as ``(name, start, end, parent, call, counts)`` tuples,
where ``parent`` is the index of the enclosing span (-1 for none) and
``call`` the id of the CLI call that caused it.  Self time and every count
below are derived from them after the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

LAYERS = {
    "hilbert": ("SparseState", "apply_coin_gate"),
    "walkops": ("apply_walk_step", "apply_conditioned_shift"),
    "protocols": ("get_protocol", "build_initial", "run_walks"),
    "measure": (
        "synthesize_table",
        "compare_tables",
        "enumerate_branches",
        "branch_finals",
        "project",
        "apply_pauli_string",
        "dense_on_targets",
    ),
    "oracle": (
        "step_matrix",
        "cached_step_matrix",
        "dense_run",
        "sparsify",
        "unitarity_defect",
    ),
    "equivalence": (
        "check_two_qubit_equivalence",
        "phase_aligned_delta",
        "check_cycle_line_equivalence",
    ),
    "cli": ("main", "emit", "dyadic"),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# Probability at or below which measure.project returns the zero state.
ZERO_PROB = 1e-24


def _matvec_bytes(matrix) -> int:
    """Bytes one CSR mat-vec reads and writes, computed from array sizes."""
    vector = matrix.shape[0] * 16
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes + 2 * vector


def _emitted_bytes(args) -> int:
    out = getattr(args, "out", None)
    return os.path.getsize(out) if out and os.path.isfile(out) else 0


# Counts recorded on a span: (count names, fn(args, kwargs, result) -> values).
COUNTS = {
    "hilbert.SparseState": (("terms",), lambda a, k, r: (len(a[0]),)),
    "walkops.apply_walk_step": (("terms_out",), lambda a, k, r: (len(r),)),
    "measure.enumerate_branches": (
        ("branches", "vacuous"),
        lambda a, k, r: (len(r), sum(b.vacuous for b in r)),
    ),
    "measure.project": (
        ("terms_in", "zero"),
        lambda a, k, r: (len(a[0]), int(r[0] <= ZERO_PROB)),
    ),
    "oracle.step_matrix": (("nnz",), lambda a, k, r: (r.nnz,)),
    "oracle.cached_step_matrix": (("bytes",), lambda a, k, r: (_matvec_bytes(r),)),
    "cli.emit": (("bytes",), lambda a, k, r: (_emitted_bytes(a[1]),)),
}

# Counts reported as totals and per payload: (span, count, unit).
COUNTED = (
    ("hilbert.SparseState", "terms", "count"),
    ("walkops.apply_walk_step", "terms_out", "count"),
    ("measure.enumerate_branches", "branches", "count"),
    ("measure.project", "terms_in", "count"),
    ("oracle.dense_run", "bytes_computed", "bytes"),
    ("cli.emit", "bytes", "bytes"),
)

# Spans whose work happens mostly during set-up (table synthesis, the
# oracle's step-matrix builds), also reported for the warm-up calls.
SETUP_SPANS = (
    "hilbert.SparseState",
    "measure.synthesize_table",
    "measure.compare_tables",
    "measure.enumerate_branches",
    "oracle.step_matrix",
    "oracle.unitarity_defect",
)


def _metric_specs() -> tuple[tuple[str, str, str], ...]:
    out = []
    for name in SPAN_NAMES:
        out += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.calls_per_payload", "count/payload", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    for name, key, unit in COUNTED:
        out += [
            (f"{name}.{key}", unit, "lower"),
            (f"{name}.{key}_per_payload", f"{unit}/payload", "lower"),
        ]
    out += [
        ("measure.project.zero_frac", "ratio", "lower"),
        ("measure.vacuous_frac", "ratio", "lower"),
        ("oracle.cached_step_matrix.hit_frac", "ratio", "higher"),
    ]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for name in SETUP_SPANS:
        out += [(f"setup.{name}.calls", "count", "lower"), (f"setup.{name}.self_s", "s", "lower")]
    out += [
        ("setup.oracle.step_matrix.nnz", "count", "lower"),
        ("setup.oracle.cached_step_matrix.hit_frac", "ratio", "higher"),
    ]
    out += [(f"setup.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("trace.call_s", "s", "lower"),
        ("trace.payloads_per_s", "1/s", "higher"),
        ("trace.untraced_payloads_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return tuple(out)


# Every per-layer metric a traced run reports: (name, unit, better).
METRICS = _metric_specs()


class Tracer:
    """Collects spans while installed; install and remove may alternate."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.call = -1
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = COUNTS.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.call, None)
            if hook is not None:
                spans[sid] = (name, start, end, parent, tracer.call, hook(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "walkport" or key.startswith("walkport."))
        ]
        absent = []
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"walkport.{layer}")
            for attr in names:
                name = f"{layer}.{attr}"
                original = getattr(module, attr, None)
                if isinstance(original, type) and "__init__" in vars(original):
                    init = vars(original)["__init__"]
                    self._patches.append((original, "__init__", init))
                    original.__init__ = self._wrap(name, init)
                elif callable(original) and not isinstance(original, type):
                    traced = self._wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patches.append((mod, key, value))
                                setattr(mod, key, traced)
                else:
                    absent.append(name)
        self.absent = absent

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str, calls: dict) -> None:
        """Spans as JSON lines after a header naming each call and its phase."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"calls": calls, "absent": self.absent}) + "\n")
            for name, start, end, parent, call, counts in self.spans:
                fh.write(
                    json.dumps(
                        [name, round(start - t0, 9), round(end - t0, 9), parent, call, counts]
                    )
                    + "\n"
                )


def aggregate(spans: list[tuple], calls: set[int]) -> dict[str, dict]:
    """Per span name: calls, self time and summed counts over the given calls."""
    child_s = [0.0] * len(spans)
    built = set()
    dense_bytes: dict[int, int] = {}
    for name, start, end, parent, call, counts in spans:
        if parent < 0:
            continue
        child_s[parent] += end - start
        if name == "oracle.step_matrix":
            built.add(parent)
        if name == "oracle.cached_step_matrix" and spans[parent][0] == "oracle.dense_run":
            dense_bytes[parent] = dense_bytes.get(parent, 0) + counts[0]
    stats: dict[str, dict] = {}
    for sid, (name, start, end, parent, call, counts) in enumerate(spans):
        if call not in calls:
            continue
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_s[sid]
        if counts is not None:
            for key, value in zip(COUNTS[name][0], counts):
                entry[key] = entry.get(key, 0) + value
        if name == "oracle.cached_step_matrix":
            entry["hits"] = entry.get("hits", 0) + (sid not in built)
        if name == "oracle.dense_run":
            entry["bytes_computed"] = entry.get("bytes_computed", 0) + dense_bytes.get(sid, 0)
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    timed: dict[str, dict],
    setup: dict[str, dict],
    payloads: int,
    call_s: float,
    traced_pps: float,
    untraced_pps: float,
) -> dict[str, float]:
    """Values for every name in ``METRICS``; spans never entered read 0.

    Span times and ``call_s`` are raw seconds; the payload rates are at the
    benchmark's nominal speed, like the end-to-end metrics.
    """

    def get(stats, name, key):
        return stats.get(name, {}).get(key, 0)

    def layer_self_s(stats, layer):
        return sum(get(stats, n, "self_s") for n in SPAN_NAMES if n.startswith(layer + "."))

    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = get(timed, name, "calls")
        values[f"{name}.calls_per_payload"] = _ratio(get(timed, name, "calls"), payloads)
        values[f"{name}.self_s"] = get(timed, name, "self_s")
    for name, key, _ in COUNTED:
        values[f"{name}.{key}"] = get(timed, name, key)
        values[f"{name}.{key}_per_payload"] = _ratio(get(timed, name, key), payloads)
    values["measure.project.zero_frac"] = _ratio(
        get(timed, "measure.project", "zero"), get(timed, "measure.project", "calls")
    )
    values["measure.vacuous_frac"] = _ratio(
        get(timed, "measure.enumerate_branches", "vacuous"),
        get(timed, "measure.enumerate_branches", "branches"),
    )
    values["oracle.cached_step_matrix.hit_frac"] = _ratio(
        get(timed, "oracle.cached_step_matrix", "hits"),
        get(timed, "oracle.cached_step_matrix", "calls"),
    )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self_s(timed, layer)
    for name in SETUP_SPANS:
        values[f"setup.{name}.calls"] = get(setup, name, "calls")
        values[f"setup.{name}.self_s"] = get(setup, name, "self_s")
    values["setup.oracle.step_matrix.nnz"] = get(setup, "oracle.step_matrix", "nnz")
    values["setup.oracle.cached_step_matrix.hit_frac"] = _ratio(
        get(setup, "oracle.cached_step_matrix", "hits"),
        get(setup, "oracle.cached_step_matrix", "calls"),
    )
    for layer in LAYERS:
        values[f"setup.{layer}.self_s"] = layer_self_s(setup, layer)
    values["trace.call_s"] = call_s
    values["trace.payloads_per_s"] = traced_pps
    values["trace.untraced_payloads_per_s"] = untraced_pps
    values["trace.overhead"] = _ratio(untraced_pps, traced_pps)
    return values
