"""Negative controls on the protocol specs themselves.

Each mutation changes one field of a built-in spec by one step: the first
Hadamard becomes the identity, one jump of the first shift rule moves by
one, or the last measurement family loses half of its members.  Table
synthesis must then find a branch that no Pauli string corrects.  A
mutation applies only where the spec has the feature it changes:
``cycle1q`` has no Hadamard and only single-member families.

Flipping one family's sign pattern is not a spec mutation: the signs are
derived from the sorted members (``PositionFamily.signs``), not stored.
"""

import dataclasses

import pytest

from walkport import measure
from walkport.errors import NoPauliCorrection
from walkport.hilbert import IDENTITY_2
from walkport.protocols import PROTOCOL_IDS, get_protocol


def first_hadamard_to_identity(spec):
    k = next((k for k, step in enumerate(spec.steps) if step.gates), None)
    if k is None:
        return None
    (register, _), *rest = spec.steps[k].gates
    step = dataclasses.replace(spec.steps[k], gates=((register, IDENTITY_2), *rest))
    return dataclasses.replace(spec, steps=spec.steps[:k] + (step,) + spec.steps[k + 1 :])


def first_jump_off_by_one(spec):
    first, *rest = spec.steps[0].shifts
    outcome = min(first.rule)
    moved = {1: 2, 2: 1, -1: -2, -2: -1}[first.rule[outcome]]
    shift = dataclasses.replace(first, rule={**first.rule, outcome: moved})
    step = dataclasses.replace(spec.steps[0], shifts=(shift, *rest))
    return dataclasses.replace(spec, steps=(step,) + spec.steps[1:])


def last_family_halved(spec):
    *rest, last = spec.position_families
    if len(last.members) == 1:
        return None
    half = dataclasses.replace(last, members=last.members[: len(last.members) // 2])
    return dataclasses.replace(spec, position_families=(*rest, half))


MUTATIONS = (first_hadamard_to_identity, first_jump_off_by_one, last_family_halved)

CASES = [
    (pid, mutate)
    for pid in PROTOCOL_IDS
    for mutate in MUTATIONS
    if mutate(get_protocol(pid)) is not None
]


def test_every_mutation_applies_where_the_spec_has_its_feature():
    applied = {(pid, mutate.__name__) for pid, mutate in CASES}
    expected = {(pid, m.__name__) for pid in PROTOCOL_IDS for m in MUTATIONS} - {
        ("cycle1q", "first_hadamard_to_identity"),
        ("cycle1q", "last_family_halved"),
    }
    assert applied == expected


@pytest.mark.parametrize(
    "pid, mutate", CASES, ids=[f"{pid}-{mutate.__name__}" for pid, mutate in CASES]
)
def test_single_point_spec_mutation_flips_the_verdict(pid, mutate):
    with pytest.raises(NoPauliCorrection):
        measure.synthesize_table(mutate(get_protocol(pid)))
