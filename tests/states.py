"""Comparisons of sparse states that only the tests need."""

import math

from walkport.hilbert import SparseState

NORM_TOL = 1e-10


def is_normalized(state: SparseState, tol: float = NORM_TOL) -> bool:
    return abs(state.norm2() - 1.0) < tol


def normalized(state: SparseState) -> SparseState:
    """The state scaled to unit norm; the caller keeps it nonzero."""
    scale = 1.0 / math.sqrt(state.norm2())
    return SparseState(state.layout, {l: scale * a for l, a in state.amps.items()}, state.tol)


def allclose(x: SparseState, y: SparseState, tol: float = NORM_TOL) -> bool:
    return x.layout == y.layout and x.max_delta(y) <= tol
