"""Comparisons and dense forms of sparse states that only the tests need."""

import math

import numpy as np

from walkport.hilbert import Label, RegisterLayout, SparseState
from walkport.oracle import check_dim, value_index

NORM_TOL = 1e-10


def is_normalized(state: SparseState, tol: float = NORM_TOL) -> bool:
    return abs(state.norm2() - 1.0) < tol


def normalized(state: SparseState) -> SparseState:
    """The state scaled to unit norm; the caller keeps it nonzero."""
    scale = 1.0 / math.sqrt(state.norm2())
    return SparseState(state.layout, {l: scale * a for l, a in state.amps.items()}, state.tol)


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
