"""Sparse state vectors over tensor products of heterogeneous finite registers.

A register is a bounded signed lattice, a cyclic lattice, or a two-level
coin.  A state stores only its nonzero amplitudes, keyed by a tuple of one
integer per register in layout order, so a serialized state reads like the
ket string it represents.  States are values: every operation returns a new
state and never mutates its inputs, which makes them safe to share across
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    EmptyState,
    InvalidDefinition,
    InvalidLabel,
    NonFiniteAmplitude,
    NotUnitary,
    UnknownRegister,
    WrongRegisterKind,
)

PRUNE_TOL = 1e-12
GATE_TOL = 1e-12

LATTICE = "lattice"
CYCLE = "cycle"
COIN = "coin"

Label = tuple[int, ...]

SQRT1_2 = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=complex)


@dataclass(frozen=True)
class Register:
    """One tensor factor of the composite space.

    ``size`` is the half-width for a lattice (admitting values in
    [-size, size]), the modulus for a cycle (values in [0, size)), and
    unused for coins (values 0 or 1).
    """

    name: str
    kind: str
    size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (LATTICE, CYCLE, COIN):
            raise InvalidDefinition(f"unknown register kind {self.kind!r}")
        if self.kind in (LATTICE, CYCLE) and self.size < 1:
            raise InvalidDefinition(f"register {self.name!r} needs a positive size")

    @property
    def role(self) -> str:
        return "coin" if self.kind == COIN else "position"

    @property
    def dim(self) -> int:
        if self.kind == LATTICE:
            return 2 * self.size + 1
        if self.kind == CYCLE:
            return self.size
        return 2

    def admits(self, value: int) -> bool:
        if self.kind == LATTICE:
            return -self.size <= value <= self.size
        if self.kind == CYCLE:
            return 0 <= value < self.size
        return value in (0, 1)


def lattice(name: str, bound: int) -> Register:
    return Register(name, LATTICE, bound)


def cycle(name: str, modulus: int) -> Register:
    return Register(name, CYCLE, modulus)


def coin(name: str) -> Register:
    return Register(name, COIN)


class RegisterLayout:
    """Ordered register list fixing label order and serialization order."""

    def __init__(self, registers: Iterable[Register]):
        self.registers = tuple(registers)
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise InvalidDefinition("duplicate register names in layout")
        self._index = {r.name: i for i, r in enumerate(self.registers)}

    def __len__(self) -> int:
        return len(self.registers)

    def __iter__(self) -> Iterator[Register]:
        return iter(self.registers)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __hash__(self) -> int:
        return hash(self.registers)

    def __repr__(self) -> str:
        return f"RegisterLayout({', '.join(r.name for r in self.registers)})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownRegister(f"no register named {name!r}") from None

    def register(self, name: str) -> Register:
        return self.registers[self.index(name)]

    def validate_label(self, label: Iterable[int]) -> Label:
        label = tuple(int(v) for v in label)
        if len(label) != len(self.registers):
            raise InvalidLabel(
                f"label {label} has {len(label)} entries, layout has {len(self.registers)}"
            )
        for reg, value in zip(self.registers, label):
            if not reg.admits(value):
                raise InvalidLabel(f"value {value} outside range of register {reg.name!r}")
        return label

    def subset(self, names: Iterable[str]) -> tuple[int, ...]:
        """Indices of the named registers, in the order given."""
        return tuple(self.index(n) for n in names)

    def without(self, names: Iterable[str]) -> "RegisterLayout":
        drop = set(names)
        for n in drop:
            self.index(n)
        return RegisterLayout(r for r in self.registers if r.name not in drop)

    def descriptor(self) -> list[dict]:
        return [{"name": r.name, "kind": r.kind, "size": r.size} for r in self.registers]


class SparseState:
    """Immutable sparse wavefunction: a map from basis labels to amplitudes.

    Entries below ``PRUNE_TOL``, the one prune tolerance, are dropped at
    construction; all labels are range-checked and all amplitudes checked
    finite, so a state that exists is a valid one.
    """

    __slots__ = ("layout", "_amps")

    def __init__(self, layout: RegisterLayout, amps: Mapping[Label, complex]):
        self._fill(layout, amps, validate=True)

    @classmethod
    def _derived(cls, layout: RegisterLayout, amps: Mapping[Label, complex]) -> "SparseState":
        """A state whose labels an engine operation derived from valid labels.

        Prunes and checks amplitudes like the constructor, but skips
        ``validate_label``: the operation already kept every label in range.
        """
        state = cls.__new__(cls)
        state._fill(layout, amps, validate=False)
        return state

    def _fill(self, layout: RegisterLayout, amps: Mapping[Label, complex], validate: bool) -> None:
        kept: dict[Label, complex] = {}
        for label, amp in amps.items():
            amp = complex(amp)
            if abs(amp) < PRUNE_TOL:
                continue
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise NonFiniteAmplitude(f"non-finite amplitude at {label}")
            kept[layout.validate_label(label) if validate else label] = amp
        self.layout = layout
        self._amps = kept

    @property
    def amps(self) -> Mapping[Label, complex]:
        return MappingProxyType(self._amps)

    def __len__(self) -> int:
        return len(self._amps)

    def __repr__(self) -> str:
        return f"SparseState({len(self._amps)} terms on {self.layout!r})"

    def amplitude(self, label: Iterable[int]) -> complex:
        return self._amps.get(tuple(label), 0.0 + 0.0j)

    def terms(self) -> list[tuple[Label, complex]]:
        """Entries sorted by label, the canonical iteration order."""
        return sorted(self._amps.items())

    def norm2(self) -> float:
        return sum((a * a.conjugate()).real for a in self._amps.values())

    def max_delta(self, other: "SparseState") -> float:
        keys = self._amps.keys() | other._amps.keys()
        return max((abs(self.amplitude(k) - other.amplitude(k)) for k in keys), default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "layout": self.layout.descriptor(),
            "amps": [
                {"label": list(label), "re": amp.real, "im": amp.imag}
                for label, amp in self.terms()
            ],
        }


def superpose(layout: RegisterLayout, terms: Iterable[tuple[Iterable[int], complex]]) -> SparseState:
    """Weighted sum of basis vectors; duplicate labels merge additively."""
    amps: dict[Label, complex] = {}
    count = 0
    for label, amp in terms:
        key = layout.validate_label(label)
        amps[key] = amps.get(key, 0.0 + 0.0j) + complex(amp)
        count += 1
    if count == 0:
        raise EmptyState("superpose needs at least one term")
    return SparseState(layout, amps)


def below_prune_tol(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Where ``|re + i·im|`` is below ``PRUNE_TOL``: the one array prune.

    ``np.hypot`` rounds as Python's ``abs`` of a complex does, which
    ``SparseState`` prunes with; ``np.abs`` of a complex array can differ in
    the last bit.
    """
    return np.hypot(re, im) < PRUNE_TOL


def read_only(*arrays: np.ndarray) -> None:
    """Flag arrays that a per-process cache shares with every caller as read-only."""
    for array in arrays:
        array.setflags(write=False)


def check_unitary(gate: np.ndarray) -> None:
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2, 2):
        raise NotUnitary(f"expected a 2x2 matrix, got shape {gate.shape}")
    defect = np.abs(gate.conj().T @ gate - np.eye(2)).max()
    if defect > GATE_TOL:
        raise NotUnitary(f"matrix fails unitarity by {defect:.3e}")


def coin_index(layout: RegisterLayout, register: str) -> int:
    """The layout index of a coin register; WrongRegisterKind for any other register."""
    idx = layout.index(register)
    if layout.registers[idx].kind != COIN:
        raise WrongRegisterKind(f"register {register!r} is not a coin")
    return idx


def apply_coin_gate(state: SparseState, register: str, gate: np.ndarray) -> SparseState:
    """Apply a 2x2 unitary to one coin register."""
    idx = coin_index(state.layout, register)
    check_unitary(gate)
    gate = np.asarray(gate, dtype=complex)
    amps: dict[Label, complex] = {}
    for label, amp in state._amps.items():
        v = label[idx]
        for u in (0, 1):
            w = gate[u, v]
            if w == 0.0:
                continue
            new_label = label[:idx] + (u,) + label[idx + 1 :]
            amps[new_label] = amps.get(new_label, 0.0 + 0.0j) + w * amp
    return SparseState._derived(state.layout, amps)
