"""Negative controls on the walk engine: ``oracle-check`` catches a broken walk program.

The oracle builds its step matrices from the spec, so a spec mutant moves
both sides alike (test_spec_mutations.py).  These mutants leave the spec
and its oracle alone and break only the compiled walk program that
``oracle-check`` runs: one walker's shift lands one site further on
negative values, or one gate is compiled with its columns swapped, so it
reads its coin flipped.  Each must make ``oracle-check`` exit 1.

A transposed gate is an equivalent mutant: every gate of the four
protocols is the Hadamard, its own transpose, so it compiles to the same
program.  ``cycle1q`` has no gate.
"""

import json

import numpy as np
import pytest

from walkport import cli, walkops
from walkport.protocols import get_protocol, initial_blocks, walk_program


def compiled(spec, steps):
    return walkops.compile_walk(spec.layout, initial_blocks(spec), steps)


def shift_off_by_one_on_negatives(spec, monkeypatch):
    walker = spec.layout.registers[0].name
    shift_value = walkops.shift_value

    def mutant(register, value, step):
        moved = shift_value(register, value, step)
        return moved - 1 if register.name == walker and value + step < 0 else moved

    with monkeypatch.context() as patch:
        patch.setattr(walkops, "shift_value", mutant)
        return compiled(spec, spec.steps)


def with_first_gate(spec, change):
    k = next(k for k, step in enumerate(spec.steps) if step.gates)
    (register, gate), *rest = spec.steps[k].gates
    step = walkops.WalkStep(((register, change(gate)), *rest), spec.steps[k].shifts)
    return spec.steps[:k] + (step,) + spec.steps[k + 1 :]


def gate_columns_swapped(spec, monkeypatch):
    return compiled(spec, with_first_gate(spec, lambda gate: gate[:, ::-1]))


@pytest.mark.parametrize(
    "mutant, pid",
    [
        (shift_off_by_one_on_negatives, "line1q"),
        (shift_off_by_one_on_negatives, "cycle1q"),
        (shift_off_by_one_on_negatives, "single2q"),
        (shift_off_by_one_on_negatives, "twostep2q"),
        (gate_columns_swapped, "line1q"),
        (gate_columns_swapped, "single2q"),
        (gate_columns_swapped, "twostep2q"),
    ],
)
def test_engine_mutant_fails_oracle_check(mutant, pid, monkeypatch, tmp_path):
    spec = get_protocol(pid)
    program = mutant(spec, monkeypatch)
    monkeypatch.setattr(cli, "walk_program", lambda s: program if s is spec else walk_program(s))
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle-check", pid, "--out", str(out)]) == cli.EXIT_VERIFY
    (check,) = json.loads(out.read_text())["checks"]
    assert check["max_state_delta"] > cli.ORACLE_TOL and not check["ok"]


@pytest.mark.parametrize("pid", ["line1q", "single2q", "twostep2q"])
def test_transposed_gate_is_an_equivalent_mutant(pid):
    spec = get_protocol(pid)
    program = walk_program(spec)
    mutant = compiled(spec, with_first_gate(spec, lambda gate: gate.T))
    assert mutant.labels == program.labels
    for ops, mutant_ops in zip(program.steps, mutant.steps):
        for op, mutant_op in zip(ops, mutant_ops, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(vars(op).values(), vars(mutant_op).values()))
