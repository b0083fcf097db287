"""Negative controls on the protocol specs themselves.

Each mutation changes one field of a built-in spec by one step: the first
Hadamard becomes the identity, one jump of the first shift rule moves by
one, or the last measurement family loses half of its members.  Table
synthesis must then find a branch that no Pauli string corrects.  A
mutation applies only where the spec has the feature it changes:
``cycle1q`` has no Hadamard and only single-member families.

Flipping one family's sign pattern is not a spec mutation: the signs are
derived from the sorted members (``PositionFamily.signs``), not stored.

The exhaustive gate below generates every single-point mutant of each kind
and requires each to be caught, or to compile to the spec's own maps.
"""

import collections
import dataclasses
import functools
import itertools

import pytest

from walkport import measure
from walkport.errors import NoPauliCorrection
from walkport.hilbert import HADAMARD, IDENTITY_2, PAULI_X, PAULI_Z
from walkport.protocols import PROTOCOL_IDS, get_protocol
from walkport.walkops import STEP_SIZES


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


def with_step(spec, k, **changes):
    step = dataclasses.replace(spec.steps[k], **changes)
    return dataclasses.replace(spec, steps=spec.steps[:k] + (step,) + spec.steps[k + 1 :])


def shift_rule_mutants(spec):
    """Each shift-rule entry set to each other step size."""
    for k, step in enumerate(spec.steps):
        for s, shift in enumerate(step.shifts):
            for outcome, size in shift.rule.items():
                for other in set(STEP_SIZES) - {size}:
                    moved = dataclasses.replace(shift, rule={**shift.rule, outcome: other})
                    shifts = step.shifts[:s] + (moved,) + step.shifts[s + 1 :]
                    yield with_step(spec, k, shifts=shifts)


def hadamard_mutants(spec):
    """Each Hadamard made I, X or Z, or one added on a coin of a step without gates."""
    for k, step in enumerate(spec.steps):
        if not step.gates:
            for coin in (c for shift in step.shifts for c in shift.coins):
                yield with_step(spec, k, gates=((coin, HADAMARD),))
        for g, (register, _) in enumerate(step.gates):
            for gate in (IDENTITY_2, PAULI_X, PAULI_Z):
                gates = step.gates[:g] + ((register, gate),) + step.gates[g + 1 :]
                yield with_step(spec, k, gates=gates)


def swapped(items, i, j):
    items = list(items)
    items[i], items[j] = items[j], items[i]
    return tuple(items)


def step_swap_mutants(spec):
    """Two walk steps swapped."""
    for i, j in itertools.combinations(range(len(spec.steps)), 2):
        yield dataclasses.replace(spec, steps=swapped(spec.steps, i, j))


def target_swap_mutants(spec):
    """Two target coins swapped."""
    for i, j in itertools.combinations(range(len(spec.target_coins)), 2):
        yield dataclasses.replace(spec, target_coins=swapped(spec.target_coins, i, j))


def member_trade_mutants(spec):
    """The first members of two families of equal size traded.

    Families of one member are left out: trading between them only renames them.
    """
    families = spec.position_families
    for i, j in itertools.combinations(range(len(families)), 2):
        a, b = families[i], families[j]
        if len(a.members) == len(b.members) > 1:
            (x, *xs), (y, *ys) = a.members, b.members
            traded = list(families)
            traded[i] = dataclasses.replace(a, members=tuple(sorted((y, *xs))))
            traded[j] = dataclasses.replace(b, members=tuple(sorted((x, *ys))))
            yield dataclasses.replace(spec, position_families=tuple(traded))


def plus_coin_mutants(spec):
    """One output coin no longer started in |+> (``cycle1q`` only)."""
    for coin in spec.plus_coins:
        yield dataclasses.replace(spec, plus_coins=tuple(c for c in spec.plus_coins if c != coin))


MUTANT_KINDS = (
    shift_rule_mutants,
    hadamard_mutants,
    step_swap_mutants,
    target_swap_mutants,
    member_trade_mutants,
    plus_coin_mutants,
)


def same_maps(a, b) -> bool:
    arrays = ("indptr", "indices", "data")
    return a.keys == b.keys and all(
        getattr(a.matrix, f).shape == getattr(b.matrix, f).shape
        and (getattr(a.matrix, f) == getattr(b.matrix, f)).all()
        for f in arrays
    )


def last_walk_map(walk_map):
    """``walk_map`` remembering only its last result, shared by specs with the same walk.

    Mutants built by ``dataclasses.replace`` share the spec's unchanged fields,
    so the mutants that keep the spec's walk steps share its walk map.
    """
    last = {}

    def shared(spec):
        key = (spec.layout, spec.steps, spec.alice_coins, spec.bob_coins, spec.plus_coins)
        if key not in last:
            last.clear()
            last[key] = walk_map(spec)
        return last[key]

    return shared


def test_every_single_point_mutant_is_caught_or_compiles_to_the_spec_maps(monkeypatch):
    spec_maps = {pid: measure.branch_maps(get_protocol(pid)) for pid in PROTOCOL_IDS}
    # The per-spec caches would keep all 283 mutants' maps: keep only the
    # last, which synthesize_table compiles and the equality check reuses.
    monkeypatch.setattr(measure, "walk_map", last_walk_map(measure.walk_map.__wrapped__))
    monkeypatch.setattr(
        measure, "branch_maps", functools.lru_cache(maxsize=1)(measure.compile_branch_maps)
    )
    # Families are compared by value, so mutants with equal families share projectors.
    monkeypatch.setattr(measure, "position_projectors", functools.cache(measure.position_projectors))
    verdicts = collections.Counter()
    for pid in PROTOCOL_IDS:
        for kind in MUTANT_KINDS:
            for n, mutant in enumerate(kind(get_protocol(pid))):
                try:
                    measure.synthesize_table(mutant)
                except NoPauliCorrection:
                    verdicts[kind.__name__, "killed"] += 1
                    continue
                assert same_maps(measure.branch_maps(mutant), spec_maps[pid]), (pid, kind.__name__, n)
                verdicts[kind.__name__, "equivalent"] += 1
    # Measured when the gate was written; a new mutant class changes a count.
    assert verdicts == {
        ("shift_rule_mutants", "killed"): 144,
        ("hadamard_mutants", "killed"): 44,
        ("step_swap_mutants", "equivalent"): 24,
        ("target_swap_mutants", "killed"): 14,
        ("member_trade_mutants", "killed"): 55,
        ("plus_coin_mutants", "killed"): 2,
    }
