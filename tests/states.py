"""Builders, decoders, comparisons and dense forms of sparse states, and the
gate constants, that only the tests need."""

import math
from typing import Iterable, Mapping

import numpy as np

from walkport.hilbert import Label, Register, RegisterLayout, SparseState
from walkport.oracle import check_dim, value_index

NORM_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def basis_state(layout: RegisterLayout, label: Iterable[int]) -> SparseState:
    """The single basis vector |label>; the constructor validates the label."""
    return SparseState(layout, {tuple(label): 1.0})


def layout_from_descriptor(desc: Iterable[Mapping]) -> RegisterLayout:
    """Inverse of ``RegisterLayout.descriptor``."""
    return RegisterLayout(Register(d["name"], d["kind"], int(d.get("size", 0))) for d in desc)


def state_from_json_dict(data: Mapping) -> SparseState:
    """Inverse of ``SparseState.to_json_dict``."""
    amps = {
        tuple(entry["label"]): complex(entry["re"], entry["im"]) for entry in data["amps"]
    }
    return SparseState(layout_from_descriptor(data["layout"]), amps)


def is_normalized(state: SparseState, tol: float = NORM_TOL) -> bool:
    return abs(state.norm2() - 1.0) < tol


def normalized(state: SparseState) -> SparseState:
    """The state scaled to unit norm; the caller keeps it nonzero."""
    scale = 1.0 / math.sqrt(state.norm2())
    return SparseState(state.layout, {l: scale * a for l, a in state.amps.items()})


def allclose(x: SparseState, y: SparseState, tol: float = NORM_TOL) -> bool:
    return x.layout == y.layout and x.max_delta(y) <= tol


def label_to_index(layout: RegisterLayout, label: Label) -> int:
    """Mixed-radix flat index of a label, first register most significant."""
    idx = 0
    for reg, value in zip(layout.registers, label):
        idx = idx * reg.dim + value_index(reg, value)
    return idx


def densify(state: SparseState) -> np.ndarray:
    vec = np.zeros(check_dim(state.layout), dtype=complex)
    for label, amp in state.amps.items():
        vec[label_to_index(state.layout, label)] = amp
    return vec
