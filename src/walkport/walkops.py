"""Coin-conditioned shift operators and the composed walk steps built from them.

A conditioned shift reads one or two control coins and moves a position
register by a signed step size.  A walk step is an optional list of coin
gates followed by one or more conditioned shifts applied jointly; shifts
inside a step act on distinct position registers, so their order is
immaterial.

``compile_walk`` turns an initial product state and the steps into a
``WalkProgram``, which the verbs run.  The step functions on sparse states
(``apply_coin_gate``, ``apply_conditioned_shift``, ``apply_walk_step``) are
the reference that the tests require it to equal bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidDefinition, OutOfBounds, WrongRegisterKind
from .hilbert import (
    COIN,
    CYCLE,
    LATTICE,
    Label,
    Register,
    RegisterLayout,
    SparseState,
    apply_coin_gate,
    below_prune_tol,
    check_unitary,
    coin_index,
    read_only,
)

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


def position_index(layout: RegisterLayout, register: str) -> int:
    """The layout index of a position register; WrongRegisterKind for a coin."""
    pos = layout.index(register)
    if layout.registers[pos].kind == COIN:
        raise WrongRegisterKind(f"register {register!r} is not a position register")
    return pos


def apply_conditioned_shift(state: SparseState, cs: ConditionedShift) -> SparseState:
    layout = state.layout
    pos = position_index(layout, cs.position)
    reg = layout.registers[pos]
    coin_idx = layout.subset(cs.coins)
    amps: dict[Label, complex] = {}
    for label, amp in state.amps.items():
        step = cs.rule[tuple(label[i] for i in coin_idx)]
        moved = shift_value(reg, label[pos], step)
        new_label = label[:pos] + (moved,) + label[pos + 1 :]
        amps[new_label] = amps.get(new_label, 0.0 + 0.0j) + amp
    return SparseState._derived(layout, amps)


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


# ---------------------------------------------------------------------------
# The compiled walk program


@dataclass(frozen=True, eq=False)
class GateOp:
    """One coin gate: output ``o`` is ``(0.0 + p0) + p1``, ``pk = g[k, o] · amp[src[k, o]]``.

    ``gr`` and ``gi`` hold the real and imaginary parts of ``g``.  An output
    reached from one source repeats it with a zero entry, which adds a signed
    zero and so changes no bit.
    """

    src: np.ndarray
    gr: np.ndarray
    gi: np.ndarray


@dataclass(frozen=True, eq=False)
class ShiftOp:
    """One conditioned shift: a relabelling, so no amplitude moves.

    ``exits`` are the indices the shift would move off the lattice, each with
    its ``OutOfBounds`` message; ``keep`` indexes the rest, None when none exit.
    Labels keep the dict engine's insertion order for a state with every term
    present.  A missing term moves another only where a gate output has two
    sources; each gate of the four protocols acts on a coin that is 0 in every
    term, so the first exiting term is the one the dict engine names.
    """

    exits: np.ndarray
    messages: tuple[str, ...]
    keep: np.ndarray | None


@dataclass(frozen=True, eq=False)
class WalkProgram:
    """A walk compiled once and run on stacked payloads, bit for bit the dict engine.

    ``blocks`` are the initial state's factors in layout order, one
    ``(source, column)`` each: ``column`` indexes payload ``source``
    (``"alice"`` or ``"bob"``) per initial label, or holds the constant factor
    per label when ``source`` is None.  ``labels[k]`` are the labels after the
    initial state (k = 0) and after step k, whose ops are ``steps[k - 1]``.

    Amplitudes are separate real and imaginary arrays.  Every complex product
    is written out with float ufuncs, because numpy's vector complex multiply
    differs in the last bit from the scalar products the dict engine takes,
    and terms are pruned by ``below_prune_tol``, which rounds ``|z|`` as the
    dict engine's ``abs`` does.  A pruned term and an exact zero then add the
    same, so the dict order of the sums does not matter.
    """

    layout: RegisterLayout
    blocks: tuple[tuple[str | None, np.ndarray], ...]
    steps: tuple[tuple[GateOp | ShiftOp, ...], ...]
    labels: tuple[tuple[Label, ...], ...]

    def run(self, alice: np.ndarray, bob: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The ``(n, len(labels[k]))`` real and imaginary amplitudes of ``(n, d)`` payloads.

        One pair per stage; a pruned term is zero.  A shift that would move a
        nonzero term off the lattice raises OutOfBounds for the first payload
        that does so, as the dict engine walking the payloads one by one does.
        """
        payload = {"alice": (alice.real, alice.imag), "bob": (bob.real, bob.imag)}
        re = np.ones((len(alice), len(self.labels[0])))
        im = np.zeros_like(re)
        for source, column in self.blocks:
            wr, wi = (column, 0.0) if source is None else (x[:, column] for x in payload[source])
            re, im = re * wr - im * wi, re * wi + im * wr
        stages = [_pruned(re, im)]
        re, im = stages[0]
        for ops in self.steps:
            for op in ops:
                if isinstance(op, GateOp):
                    ar, ai = re[:, op.src], im[:, op.src]
                    pr = op.gr * ar - op.gi * ai
                    pi = op.gr * ai + op.gi * ar
                    re, im = _pruned((0.0 + pr[:, 0]) + pr[:, 1], (0.0 + pi[:, 0]) + pi[:, 1])
                    continue
                # The dict engine adds each shifted term to 0.0, turning -0.0 into 0.0.
                re, im = 0.0 + re, 0.0 + im
                if op.keep is None:
                    continue
                hit = (re[:, op.exits] != 0.0) | (im[:, op.exits] != 0.0)
                if hit.any():
                    if len(re) > 1:  # the first payload that exits raises, row by row
                        for k in range(len(re)):
                            self.run(alice[k : k + 1], bob[k : k + 1])
                    raise OutOfBounds(op.messages[hit[0].argmax()])
                re, im = re[:, op.keep], im[:, op.keep]
            stages.append((re, im))
        return stages

    def state(self, stage: int, re: np.ndarray, im: np.ndarray) -> SparseState:
        """One row of a stage's amplitudes as a state."""
        kept = np.flatnonzero((re != 0.0) | (im != 0.0))
        labels = self.labels[stage]
        terms = zip(kept.tolist(), re[kept].tolist(), im[kept].tolist())
        return SparseState._derived(self.layout, {labels[k]: complex(r, i) for k, r, i in terms})


def _pruned(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    small = below_prune_tol(re, im)
    return np.where(small, 0.0, re), np.where(small, 0.0, im)


def compile_walk(
    layout: RegisterLayout,
    blocks: Sequence[tuple[Sequence[Label], str | Sequence[float]]],
    steps: Sequence[WalkStep],
) -> WalkProgram:
    """Compile the initial product state and the steps into a ``WalkProgram``.

    ``blocks`` are ``(parts, weights)`` in layout order, as
    ``protocols.initial_blocks`` gives them: each part extends a label, and a
    block's weights are constants or the name of a payload vector.  Every
    check the step functions make is made here, once: ``NotUnitary``,
    ``WrongRegisterKind`` and ``UnknownRegister`` raise from the compile.
    """
    combos = np.array(list(itertools.product(*(range(len(parts)) for parts, _ in blocks))))
    labels = [sum((blocks[b][0][k] for b, k in enumerate(combo)), ()) for combo in combos.tolist()]
    program_blocks = tuple(
        (weights, combos[:, b]) if isinstance(weights, str) else (None, np.array(weights)[combos[:, b]])
        for b, (_, weights) in enumerate(blocks)
    )
    stages, program_steps = [tuple(labels)], []
    for step in steps:
        ops: list[GateOp | ShiftOp] = []
        for register, gate in step.gates:
            c = coin_index(layout, register)
            check_unitary(gate)
            gate = np.asarray(gate, dtype=complex)
            sources: dict[Label, list[tuple[int, complex]]] = {}
            for i, label in enumerate(labels):
                for u in (0, 1):
                    if gate[u, label[c]] != 0.0:
                        out = label[:c] + (u,) + label[c + 1 :]
                        sources.setdefault(out, []).append((i, gate[u, label[c]]))
            pairs = [src if len(src) == 2 else src + [(src[0][0], 0j)] for src in sources.values()]
            src = np.array([[i for i, _ in pair] for pair in pairs]).T
            g = np.array([[w for _, w in pair] for pair in pairs]).T
            ops.append(GateOp(src, g.real.copy(), g.imag.copy()))
            labels = list(sources)
        for cs in step.shifts:
            pos = position_index(layout, cs.position)
            reg = layout.registers[pos]
            coins = layout.subset(cs.coins)
            moved, exits, messages = [], [], []
            for i, label in enumerate(labels):
                try:
                    value = shift_value(reg, label[pos], cs.rule[tuple(label[k] for k in coins)])
                except OutOfBounds as exc:
                    exits.append(i)
                    messages.append(str(exc))
                    continue
                moved.append(label[:pos] + (value,) + label[pos + 1 :])
            keep = np.setdiff1d(np.arange(len(labels)), exits) if exits else None
            ops.append(ShiftOp(np.array(exits, dtype=int), tuple(messages), keep))
            labels = moved
        program_steps.append(tuple(ops))
        stages.append(tuple(labels))
    arrays = [c for _, c in program_blocks] + [
        a for ops in program_steps for op in ops for a in vars(op).values() if isinstance(a, np.ndarray)
    ]
    read_only(*arrays)
    return WalkProgram(layout, program_blocks, tuple(program_steps), tuple(stages))
