"""Batch command-line interface.

Verbs: ``run`` enumerates and verifies every measurement branch of one
protocol, ``equiv`` runs the cross-protocol equivalence checks, ``tables``
emits synthesized correction tables next to the bundled reference ones
with disagreements flagged, and ``oracle-check`` cross-validates the
walk program against the oracle's literal step matrices.  It runs the
program and the oracle once per chunk of payloads (``measure.chunk_slices``)
and compares their amplitudes as arrays (``oracle.payload_deltas``), with no
state built.

Exit status: 0 on verified success, 1 on verification failure, 2 on a
configuration error or a failed write.  Reports are JSON written by
``json.dumps``, with a top-level ``schema`` field, and byte-identical for
identical configurations.  A ``run`` payload's branch list, the same for
every payload of a spec, is filled into a per-key-tuple template instead.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from . import equivalence, measure, oracle
from .errors import MappingIncomplete, NoPauliCorrection, WalkportError
# run_walks stays bound here for the benchmark tracer's rebinding test
# (perfbench/tests/test_perfbench.py::test_install_rebinds_every_binding_and_remove_restores).
from .protocols import (  # noqa: F401
    DEFAULT_BOUND,
    PROTOCOL_IDS,
    Payload,
    PositionFamily,
    get_protocol,
    run_walks,
    seeded_payloads,
    stack_payloads,
    walk_program,
)

SCHEMA = 1
DEFAULT_TOL = 1e-9
SEED_ENV = "WALKPORT_SEED"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def parse_amplitudes(text: str) -> np.ndarray:
    """Comma-separated amplitudes, each ``re`` or ``re:im``."""
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            if ":" in token:
                re_part, im_part = token.split(":", 1)
                values.append(complex(float(re_part), float(im_part)))
            else:
                values.append(complex(float(token), 0.0))
        except ValueError:
            raise ConfigError(f"cannot parse amplitude {token!r}") from None
        if not cmath.isfinite(values[-1]):
            raise ConfigError(f"amplitude {token!r} is not finite")
    return np.array(values, dtype=complex)


DYADIC_TOL = 1e-9
DYADIC_DENOM = 1 << 20


def dyadic(p: float) -> str | None:
    """Nearest small dyadic rational (denominator at most 2**20) as a string, if within 1e-9.

    Every such rational lies on the 2**-20 grid, whose spacing (9.5e-7) far
    exceeds the tolerance, so the nearest grid point is the only candidate.
    """
    num = round(p * DYADIC_DENOM)
    if abs(p - num / DYADIC_DENOM) <= DYADIC_TOL:
        return str(Fraction(num, DYADIC_DENOM))
    return None


def payload_norm(vec: np.ndarray) -> float:
    """The 2-norm, without overflow or underflow warnings.

    ``np.linalg.norm`` sums squares, which overflow above about 1e154 and
    lose everything below about 1e-154; ``math.hypot`` scales and covers
    those norms.
    """
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(vec))
    if 1e-150 < norm < 1e150:
        return norm
    return math.hypot(*vec.real.tolist(), *vec.imag.tolist())


def explicit_payload(args, qubits: int) -> tuple[Payload, list[str]]:
    warnings = []
    vectors = {}
    for name in ("alice", "bob"):
        vec = parse_amplitudes(getattr(args, name))
        if len(vec) != 2**qubits:
            raise ConfigError(
                f"--{name} needs {2 ** qubits} amplitudes for this protocol"
            )
        norm = payload_norm(vec)
        if abs(norm - 1.0) > 1e-8:
            raise ConfigError(f"--{name} has norm {norm!r}, not within 1e-8 of 1")
        if abs(norm - 1.0) > 1e-10:
            warnings.append(f"{name} payload renormalized from norm {norm!r}")
            vec = vec / norm
        vectors[name] = vec
    return Payload(vectors["alice"], vectors["bob"]), warnings


def resolve_seed_count(args, default_count: int) -> tuple[int, int]:
    """``--seed`` (else ``WALKPORT_SEED``, else 0) and ``--count``, validated."""
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get(SEED_ENV)
        if env is not None:
            try:
                seed, source = int(env), SEED_ENV
            except ValueError:
                raise ConfigError(f"{SEED_ENV}={env!r} is not an integer") from None
    if seed is None:
        seed = 0
    if seed < 0:
        raise ConfigError(f"{source} must be non-negative, got {seed}")
    count = args.count if args.count is not None else default_count
    if count < 1:
        raise ConfigError(f"--count must be positive, got {count}")
    return seed, count


def resolve_payloads(args, qubits: int) -> tuple[list[Payload], dict, list[str]]:
    if (args.alice is None) != (args.bob is None):
        raise ConfigError("--alice and --bob must be given together")
    if args.alice is not None:
        if args.seed is not None or args.count is not None:
            raise ConfigError("--seed and --count do not apply to --alice/--bob payloads")
        payload, warnings = explicit_payload(args, qubits)
        return [payload], {"source": "explicit"}, warnings
    seed, count = resolve_seed_count(args, default_count=1)
    return (
        seeded_payloads(seed, count, qubits),
        {"source": "seeded", "seed": seed, "count": count},
        [],
    )


def payload_descriptor(payload: Payload) -> dict:
    return {
        "alice": [[z.real, z.imag] for z in payload.alice],
        "bob": [[z.real, z.imag] for z in payload.bob],
    }


def write_text(path: str | Path | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout if ``path`` is None."""
    where = "standard output" if path is None else repr(str(path))
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {where}: {exc.strerror}") from None


SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
BOOL_TEXT = {True: "true", False: "false"}


class FloatTexts(dict):
    """Each float's JSON text as json.dumps writes it, built on its first lookup."""

    def __missing__(self, x: float) -> str:
        text = float.__repr__(x)
        text = SPECIAL_FLOATS.get(text, text)
        if x:  # 0.0 and -0.0 would share a key, not a text
            self[x] = text
        return text


def report_text(obj) -> str:
    """Every JSON report's text."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@functools.cache
def branch_template(keys: tuple[tuple[str, str], ...], depth: int | None) -> str:
    """``json.dumps`` of a ``run`` payload's branch list at ``depth``, as a %-template.

    Positions and coins are written in; each branch leaves four slots, in key
    order: fidelity, probability, probability_dyadic and vacuous.  Keyed on
    the keys, not a spec, so specs that differ only in ``--bound`` share it.
    No string of a ``run`` report equals a slot's "\\x00" or a placeholder of
    ``emit``: positions and coins are outcome names, ``corrupted_family``
    names a family of the table, and the warnings are walkport's own.
    """
    slot = "\x00"
    slots = dict.fromkeys(("fidelity", "probability", "probability_dyadic", "vacuous"), slot)
    rows = [{"position": p, "coin": c, **slots} for p, c in keys]
    if depth is None:  # on one line, as table-text writes it
        text = json.dumps(rows, sort_keys=True)
    else:
        # JSON strings hold no raw newline, so every newline is indentation.
        text = json.dumps(rows, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
    return text.replace("%", "%%").replace(json.dumps(slot), "%s")


def emit(report: dict, args, blocks: Sequence[str] = ()) -> None:
    """Write ``report``, with ``blocks[i]`` in place of its placeholder string "\\x00<i>"."""
    if getattr(args, "format", "json") == "table-text":
        text = render_text(report)
    else:
        text = report_text(report)
    # One pass, by index: table-text leaves out the blocks of payloads past the 50th.
    text = re.sub(r'"\\u0000(\d+)"', lambda m: blocks[int(m[1])], text)
    write_text(getattr(args, "out", None), text)


def render_text(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in sorted(report.items()):
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(render_text(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: [{len(value)} entries]")
            for item in value[:50]:
                lines.append(f"{indent}  {json.dumps(item, sort_keys=True)}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if not indent else "")


def protocol_spec(args):
    """The spec for ``args.protocol``; sets ``args.bound`` to the default if not given."""
    if args.bound is None:
        args.bound = DEFAULT_BOUND
    elif args.protocol == "cycle1q":
        raise ConfigError("--bound does not apply to cycle1q: its walkers live on a 4-cycle")
    elif args.bound < 1:
        raise ConfigError(f"--bound must be positive, got {args.bound}")
    return get_protocol(args.protocol, bound=args.bound)


def protocol_table(args, spec):
    table = measure.synthesized_table(spec)
    if args.corrupt_table is not None:
        table = measure.corrupt_table(table, args.corrupt_table, spec.target_coins)
    return table


def cmd_run(args) -> int:
    tol = args.tol
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"--tol must be positive and finite, got {tol}")
    if tol >= 1:
        # From tol = 1 up, 1 - tol <= 0 and every fidelity would pass.
        raise ConfigError(f"--tol must be below 1, got {tol}")
    spec = protocol_spec(args)
    payloads, source, warnings = resolve_payloads(args, spec.qubits)
    table = protocol_table(args, spec)
    # Report, payloads, payload, branches: table-text writes each payload on one line.
    depth = None if args.format == "table-text" else 3
    float_text = FloatTexts().__getitem__
    # Thousands of branches share a few tens of probabilities.
    dyadics: dict[float, str] = {}
    keys = measure.branch_maps(spec).keys
    payload_reports, blocks = [], []
    ok = True
    scored = measure.scored_payloads(spec, payloads, table)
    for index, (probabilities, fidelities, vacuous, _) in enumerate(scored):
        probs = probabilities.tolist()
        fids = fidelities.tolist()
        vacs = vacuous.tolist()
        for p in set(probs) - dyadics.keys():
            dyadics[p] = json.dumps(dyadic(p))
        prob_sum = sum(probs)
        fid_ok = bool((vacuous | (fidelities >= 1.0 - tol)).all())
        sum_ok = abs(prob_sum - 1.0) <= tol
        ok = ok and fid_ok and sum_ok
        slots = [""] * (4 * len(probs))  # in branch_template's order
        slots[0::4] = map(float_text, fids)
        slots[1::4] = map(float_text, probs)
        slots[2::4] = map(dyadics.__getitem__, probs)
        slots[3::4] = map(BOOL_TEXT.__getitem__, vacs)
        blocks.append(branch_template(keys, depth) % tuple(slots))
        payload_reports.append(
            {
                "payload": index,
                "probability_sum": prob_sum,
                "fidelities_ok": fid_ok,
                "branches": f"\x00{index}",  # emit splices blocks[index] in here
            }
        )
    report = {
        "schema": SCHEMA,
        "command": "run",
        "protocol": spec.id,
        "payload_source": source,
        "payload_values": [payload_descriptor(p) for p in payloads]
        if source["source"] == "explicit"
        else None,
        "tolerance": tol,
        "bound": args.bound,
        "warnings": warnings,
        "corrupted_family": getattr(args, "corrupt_table", None),
        "payloads": payload_reports,
        "ok": ok,
    }
    emit(report, args, blocks)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_equiv(args) -> int:
    seed, count = resolve_seed_count(args, default_count=25)
    kwargs = {}
    if args.claim == "two-qubit":
        payloads = seeded_payloads(seed, count, 2)
        if args.corrupt_table is not None:
            twostep = get_protocol("twostep2q")
            if args.corrupt_table in {f.name for f in twostep.position_families}:
                kwargs["twostep_table"] = protocol_table(args, twostep)
            else:
                kwargs["single_table"] = protocol_table(args, get_protocol("single2q"))
        core = equivalence.check_two_qubit_equivalence(payloads, **kwargs)
    elif args.claim == "cycle-line":
        payloads = seeded_payloads(seed, count, 1)
        if args.corrupt_table is not None:
            kwargs["cycle_table"] = protocol_table(args, get_protocol("cycle1q"))
        core = equivalence.check_cycle_line_equivalence(payloads, **kwargs)
    else:
        raise ConfigError(f"unknown claim {args.claim!r}")
    report = {
        "schema": SCHEMA,
        "command": "equiv",
        "claim": args.claim,
        "seed": seed,
        "count": len(payloads),
        "corrupted_family": args.corrupt_table,
        **core,
    }
    emit(report, args)
    return EXIT_OK if core["ok"] else EXIT_VERIFY


def parse_family_selection(text: str, available: list[str]) -> list[str]:
    """Family selections like 'P3', 'P1..P15', or 'P1,P4', without repeats."""
    names: list[str] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            if lo not in available or hi not in available:
                raise ConfigError(f"unknown family range {part!r}")
            i, j = available.index(lo), available.index(hi)
            if i > j:
                raise ConfigError(f"empty family range {part!r}")
            names.extend(available[i : j + 1])
        elif part:
            if part not in available:
                raise ConfigError(f"unknown family {part!r}")
            names.append(part)
    if not names:
        raise ConfigError(f"no families selected by {text!r}")
    return list(dict.fromkeys(names))  # each family once, in first-seen order


def cmd_tables(args) -> int:
    out = args.out
    to_directory = bool(out) and Path(out).is_dir()  # Path("") is "."
    if to_directory and args.format == "table-text":
        raise ConfigError("--format table-text cannot be written to a directory --out")
    spec = protocol_spec(args)
    available = [f.name for f in spec.position_families]
    selected = (
        parse_family_selection(args.families, available)
        if args.families is not None
        else available
    )
    synth = measure.synthesized_table(spec)
    reference = measure.bundled_table(spec.id)
    comparison = measure.compare_tables(spec, reference)
    family_tables = {}
    for name in selected:
        keys = [k for k in sorted(synth.rows) if PositionFamily.family_of(k[0]) == name]
        family_tables[name] = measure.CorrectionTable(
            spec.id, {k: synth.rows[k] for k in keys}
        ).to_json_dict()
    report = {
        "schema": SCHEMA,
        "command": "tables",
        "protocol": spec.id,
        "families": selected,
        "synthesized": family_tables,
        "reference": reference.to_json_dict(),
        "comparison": comparison,
        "ok": True,
    }
    if to_directory:
        base = Path(out)
        for name, data in family_tables.items():
            path = base / f"{spec.id}_{name}.json"
            write_text(path, report_text(data))
        summary = dict(report)
        summary["synthesized"] = sorted(family_tables)
        write_text(base / f"{spec.id}_tables_report.json", report_text(summary))
    else:
        emit(report, args)
    return EXIT_OK


ORACLE_TOL = 1e-10


def cmd_oracle_check(args) -> int:
    ids = (args.protocol,) if args.protocol else PROTOCOL_IDS
    seed, count = resolve_seed_count(args, default_count=5)
    checks = []
    ok = True
    for pid in ids:
        spec = get_protocol(pid)
        ospec = oracle.oracle_spec(pid)
        defects = [oracle.cached_unitarity_defect(ospec, k) for k in range(4)]
        program = walk_program(spec)
        payloads = seeded_payloads(seed, count, spec.qubits)
        max_delta = 0.0
        for chunk in measure.chunk_slices(count, len(program.labels[-1])):
            alice, bob = stack_payloads(spec, payloads[chunk])
            re, im = program.run(alice, bob)[-1]
            deltas = oracle.payload_deltas(program, ospec, alice, bob, re, im)
            max_delta = max(max_delta, float(deltas.max()))
        protocol_ok = max(defects) < ORACLE_TOL and max_delta < ORACLE_TOL
        ok = ok and protocol_ok
        checks.append(
            {
                "protocol": pid,
                "unitarity_defects": defects,
                "max_state_delta": max_delta,
                "payloads": count,
                "ok": protocol_ok,
            }
        )
    report = {
        "schema": SCHEMA,
        "command": "oracle-check",
        "seed": seed,
        "tolerance": ORACLE_TOL,
        "checks": checks,
        "ok": ok,
    }
    emit(report, args)
    return EXIT_OK if ok else EXIT_VERIFY


# Built once per process; the parser binds the cmd_* functions when it is first built.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkport",
        description="Simulate and verify bidirectional quantum-walk teleportation protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each verb registers only the flags it honours.
    def protocol(p):
        p.add_argument("protocol", nargs="?", choices=PROTOCOL_IDS)
        p.add_argument("--protocol", dest="protocol_flag", choices=PROTOCOL_IDS)

    def seed_count(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--count", type=int)

    def bound(p):
        p.add_argument("--bound", type=int)

    def output(p):
        p.add_argument("--out")
        p.add_argument("--format", choices=("json", "table-text"), default="json")

    p_run = sub.add_parser("run", help="enumerate and verify every branch")
    protocol(p_run)
    seed_count(p_run)
    bound(p_run)
    p_run.add_argument("--tol", type=float, default=DEFAULT_TOL)
    output(p_run)
    p_run.add_argument("--alice", help="payload amplitudes, e.g. '1,0' or '0.6:0,0:0.8'")
    p_run.add_argument("--bob")
    p_run.add_argument("--corrupt-table", help="family name to corrupt (failure injection)")
    p_run.set_defaults(func=cmd_run)

    p_equiv = sub.add_parser("equiv", help="run a cross-protocol equivalence check")
    p_equiv.add_argument("claim", choices=("two-qubit", "cycle-line"))
    seed_count(p_equiv)
    output(p_equiv)
    p_equiv.add_argument("--corrupt-table")
    p_equiv.set_defaults(func=cmd_equiv)

    p_tables = sub.add_parser("tables", help="emit synthesized and reference tables")
    protocol(p_tables)
    bound(p_tables)
    output(p_tables)
    p_tables.add_argument("--families", help="e.g. 'P3', 'P1..P15', 'Q2,Q5'")
    p_tables.set_defaults(func=cmd_tables)

    p_oracle = sub.add_parser(
        "oracle-check", help="cross-validate against the literal-matrix oracle"
    )
    protocol(p_oracle)
    seed_count(p_oracle)
    output(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flag = getattr(args, "protocol_flag", None)
    if args.command in ("run", "tables") and not (args.protocol or flag):
        parser.error(f"{args.command} needs a protocol")
    try:
        if flag:
            if args.protocol not in (None, flag):
                raise ConfigError(f"protocol {args.protocol} contradicts --protocol {flag}")
            args.protocol = flag
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WalkportError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        # A branch that no Pauli string corrects, or branch maps that do not
        # pair two protocols' outcomes, is a failed protocol claim.
        failed = isinstance(exc, (NoPauliCorrection, MappingIncomplete))
        return EXIT_VERIFY if failed else EXIT_CONFIG
    except MemoryError:
        print("error: out of memory; try a smaller --count", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    code = main()
    # A failed stdout write leaves its text buffered: the flush at exit goes to devnull.
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
