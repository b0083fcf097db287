"""Coin-conditioned shift operators and the composed walk steps built from them.

A conditioned shift reads one or two control coins and moves a position
register by a signed step size.  A walk step is an optional list of coin
gates followed by one or more conditioned shifts applied jointly; shifts
inside a step act on distinct position registers, so their order is
immaterial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InvalidDefinition, OutOfBounds, WrongRegisterKind
from .hilbert import COIN, CYCLE, LATTICE, Label, Register, SparseState, apply_coin_gate

STEP_SIZES = (-2, -1, 1, 2)


def two_coin_shift_rule() -> dict[tuple[int, int], int]:
    """Jump size per two-coin outcome: 00 -> +2, 01 -> +1, 10 -> -1, 11 -> -2."""
    return {(0, 0): 2, (0, 1): 1, (1, 0): -1, (1, 1): -2}


def single_coin_shift_rule() -> dict[tuple[int], int]:
    """Jump size per one-coin outcome: 0 -> +1, 1 -> -1."""
    return {(0,): 1, (1,): -1}


def shift_value(register: Register, value: int, step: int) -> int:
    """Move a position value by ``step`` within its register."""
    if register.kind == LATTICE:
        moved = value + step
        if abs(moved) > register.size:
            raise OutOfBounds(
                f"shift {step:+d} from {value} exits [-{register.size}, {register.size}] "
                f"on register {register.name!r}"
            )
        return moved
    if register.kind == CYCLE:
        return (value + step) % register.size
    raise WrongRegisterKind(f"register {register.name!r} is not a position register")


@dataclass(frozen=True)
class ConditionedShift:
    """Shift one position register by an amount chosen by its control coins."""

    position: str
    coins: tuple[str, ...]
    rule: Mapping[tuple[int, ...], int] = field(default_factory=single_coin_shift_rule)

    def __post_init__(self) -> None:
        outcomes = set(itertools.product((0, 1), repeat=len(self.coins)))
        if set(self.rule) != outcomes:
            raise InvalidDefinition(
                f"rule for {self.position!r} must cover every outcome of {self.coins}"
            )
        for step in self.rule.values():
            if step not in STEP_SIZES:
                raise InvalidDefinition(f"unsupported step size {step}")


def apply_conditioned_shift(state: SparseState, cs: ConditionedShift) -> SparseState:
    layout = state.layout
    pos = layout.index(cs.position)
    reg = layout.registers[pos]
    if reg.kind == COIN:
        raise WrongRegisterKind(f"register {cs.position!r} is not a position register")
    coin_idx = layout.subset(cs.coins)
    amps: dict[Label, complex] = {}
    for label, amp in state.amps.items():
        step = cs.rule[tuple(label[i] for i in coin_idx)]
        moved = shift_value(reg, label[pos], step)
        new_label = label[:pos] + (moved,) + label[pos + 1 :]
        amps[new_label] = amps.get(new_label, 0.0 + 0.0j) + amp
    return SparseState._derived(layout, amps, state.tol)


@dataclass(frozen=True, eq=False)
class WalkStep:
    """Optional coin gates, then conditioned shifts, as one unitary step."""

    gates: tuple[tuple[str, np.ndarray], ...] = ()
    shifts: tuple[ConditionedShift, ...] = ()

    def __post_init__(self) -> None:
        positions = [s.position for s in self.shifts]
        if len(set(positions)) != len(positions):
            raise InvalidDefinition("shifts within a step must target distinct registers")


def apply_walk_step(state: SparseState, step: WalkStep) -> SparseState:
    for register, gate in step.gates:
        state = apply_coin_gate(state, register, gate)
    for cs in step.shifts:
        state = apply_conditioned_shift(state, cs)
    return state
