"""Independent ground truth for the sparse engine, from literal step matrices.

Each walk step becomes a literal operator matrix on the truncated space,
assembled with scipy.sparse Kronecker products of per-register factors and
checked for unitarity as a matrix.  A state is indexed by a mixed-radix
encoding of its basis label.  ``dense_run`` applies the matrices to the
state's support only: it keeps the sorted flat indices of the nonzero
amplitudes and their values, and each step gathers the matrix columns of
those indices.  Its cost follows the support (at most 256 terms here), not
the dimension of the space.

The truncation is derived from the spec, not tabulated: a lattice walker's
reach is the sum, over the steps, of the largest |jump| among the shift
rules that move it, and the oracle rebuilds the protocol with the largest
reach as its half-width.  Truncated lattices are embedded cyclically: the
shift factor is the cyclic permutation of the 2B+1 lattice values, which
keeps every step matrix exactly unitary.  The embedding is faithful by
construction: a walker can reach the truncation edge only on its last
move, so no shift ever wraps.  A spec without a lattice register (the
4-cycle) is used as it is.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.sparse as sp

from .errors import DimensionOverflow
from .hilbert import COIN, LATTICE, PRUNE_TOL, Register, RegisterLayout, SparseState
from .protocols import Payload, ProtocolSpec, get_protocol
from .walkops import WalkStep

DIM_CAP = 1 << 26


def layout_dim(layout: RegisterLayout) -> int:
    dim = 1
    for reg in layout:
        dim *= reg.dim
    return dim


def check_dim(layout: RegisterLayout) -> int:
    dim = layout_dim(layout)
    if dim > DIM_CAP:
        raise DimensionOverflow(f"dense dimension {dim} exceeds cap {DIM_CAP}")
    return dim


def value_index(reg: Register, value: int) -> int:
    """Position of a register value along its dense axis."""
    return value + reg.size if reg.kind == LATTICE else value


def support_state(
    layout: RegisterLayout, indices: np.ndarray, values: np.ndarray, tol: float
) -> SparseState:
    """The state with ``values`` at the flat ``indices`` and zero elsewhere.

    One mixed-radix ``unravel_index`` over all indices gives the dense axis
    positions, first register most significant; lattice values are offset.
    It rejects any index outside the space, so every label is in range and
    is not validated again term by term.
    """
    positions = np.unravel_index(indices, [reg.dim for reg in layout])
    offsets = [value_index(reg, 0) for reg in layout]
    labels = (np.stack(positions, axis=1) - offsets).tolist()
    return SparseState._derived(layout, dict(zip(map(tuple, labels), values.tolist())), tol)


def sparsify(vec: np.ndarray, layout: RegisterLayout, tol: float = 1e-12) -> SparseState:
    indices = np.flatnonzero(np.abs(vec) >= tol)
    return support_state(layout, indices, vec[indices], tol)


def reach(spec: ProtocolSpec) -> int | None:
    """The farthest any lattice walker of ``spec`` gets from the origin.

    A walker's reach is the sum, over the steps, of the largest |jump|
    among the shift rules that move it.  None when no register is a lattice.
    """

    def largest_jump(step: WalkStep, position: str) -> int:
        jumps = [abs(j) for cs in step.shifts if cs.position == position for j in cs.rule.values()]
        return max(jumps, default=0)

    lattices = [reg.name for reg in spec.layout if reg.kind == LATTICE]
    return max((sum(largest_jump(step, name) for step in spec.steps) for name in lattices), default=None)


def oracle_spec(protocol_id: str) -> ProtocolSpec:
    """The protocol rebuilt on the truncation its shift rules prove sufficient."""
    spec = get_protocol(protocol_id)
    bound = reach(spec)
    return spec if bound is None else get_protocol(protocol_id, bound)


def shift_factor(reg: Register, step: int) -> sp.csc_matrix:
    """Cyclic permutation moving a position register by ``step``."""
    n = reg.dim
    rows = [(i + step) % n for i in range(n)]
    return sp.csc_matrix(
        (np.ones(n), (rows, np.arange(n))), shape=(n, n), dtype=complex
    )


def coin_projector_factor(value: int) -> sp.csc_matrix:
    mat = np.zeros((2, 2), dtype=complex)
    mat[value, value] = 1.0
    return sp.csc_matrix(mat)


def _kron_chain(factors: list[sp.spmatrix | int]) -> sp.csc_matrix:
    """Kronecker product of ``factors``, where an int ``n`` is the n x n identity.

    Each run of identities becomes one identity of the product dimension, so
    a term costs one kron per run instead of one per register.
    """
    matrices: list[sp.spmatrix] = []
    for is_identity, run in itertools.groupby(factors, key=lambda f: isinstance(f, int)):
        if is_identity:
            matrices.append(sp.identity(math.prod(run), dtype=complex, format="csc"))
        else:
            matrices.extend(run)
    out = matrices[0]
    for factor in matrices[1:]:
        out = sp.kron(out, factor, format="csc")
    return out.tocsc()


def step_matrix(spec: ProtocolSpec, step_index: int) -> sp.csc_matrix:
    """The literal operator matrix of one walk step on the truncated space."""
    check_dim(spec.layout)
    step = spec.steps[step_index]
    matrix: sp.csc_matrix | None = None
    for register, gate in step.gates:
        factors = [
            sp.csc_matrix(np.asarray(gate, dtype=complex))
            if reg.name == register
            else reg.dim
            for reg in spec.layout
        ]
        term = _kron_chain(factors)
        matrix = term if matrix is None else term @ matrix
    for cs in step.shifts:
        total: sp.csc_matrix | None = None
        for outcome in itertools.product((0, 1), repeat=len(cs.coins)):
            step_size = cs.rule[outcome]
            factors = []
            for reg in spec.layout:
                if reg.name == cs.position:
                    factors.append(shift_factor(reg, step_size))
                elif reg.name in cs.coins:
                    factors.append(
                        coin_projector_factor(outcome[cs.coins.index(reg.name)])
                    )
                else:
                    factors.append(reg.dim)
            term = _kron_chain(factors)
            total = term if total is None else total + term
        matrix = total if matrix is None else total @ matrix
    assert matrix is not None
    return matrix.tocsc()


def unitarity_defect(matrix: sp.spmatrix) -> float:
    """max |U^dagger U - I|, computed sparsely."""
    dim = matrix.shape[0]
    deviation = (matrix.getH() @ matrix - sp.identity(dim, dtype=complex)).tocoo()
    return float(np.abs(deviation.data).max()) if deviation.nnz else 0.0


def initial_support(spec: ProtocolSpec, payload: Payload) -> tuple[np.ndarray, np.ndarray]:
    """Sorted flat indices of the initial state's nonzero amplitudes, and the amplitudes.

    The initial product state is the left-to-right Kronecker product of one
    factor per register (one per payload vector for each party's input
    coins), taken over each factor's nonzero entries only.
    """
    factors: list[np.ndarray] = []
    consumed: set[str] = set()
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for reg in spec.layout:
        if reg.name in consumed:
            continue
        if reg.name in (spec.alice_coins[0], spec.bob_coins[0]):
            alice_side = reg.name == spec.alice_coins[0]
            factors.append(np.asarray(payload.alice if alice_side else payload.bob))
            consumed.update(spec.alice_coins if alice_side else spec.bob_coins)
        elif reg.name in spec.plus_coins:
            factors.append(plus)
        elif reg.kind == COIN:
            factors.append(np.array([1.0, 0.0], dtype=complex))
        else:
            vec = np.zeros(reg.dim, dtype=complex)
            vec[value_index(reg, 0)] = 1.0
            factors.append(vec)
    first, *rest = factors
    indices = np.flatnonzero(first)
    values = first[indices]
    for factor in rest:
        nonzero = np.flatnonzero(factor)
        indices = (indices[:, None] * len(factor) + nonzero).ravel()
        values = (values[:, None] * factor[nonzero]).ravel()
    return indices, values


def apply_to_support(
    matrix: sp.csc_matrix, indices: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``matrix @ x`` for the x that holds ``values`` at the sorted ``indices``.

    Gathers the matrix columns at ``indices`` and sums each output row over
    them in ascending column order, starting from zero, so the cost follows
    the support, not the dimension.  That is the order of a CSR mat-vec
    over the whole space; with real matrix entries, as every step matrix
    has, the products round the same too, so the amplitudes are
    bitwise-equal to it.  Returns the sorted output rows and their
    amplitudes, exact zeros included.
    """
    columns = matrix[:, indices]
    products = columns.data * np.repeat(values, np.diff(columns.indptr))
    rows, slots = np.unique(columns.indices, return_inverse=True)
    out = np.zeros(len(rows), dtype=complex)
    np.add.at(out, slots, products)
    return rows, out


@functools.cache
def cached_step_matrix(spec: ProtocolSpec, step_index: int) -> sp.csc_matrix:
    """``step_matrix``, built once per spec object and step."""
    return step_matrix(spec, step_index)


@functools.cache
def cached_unitarity_defect(spec: ProtocolSpec, step_index: int) -> float:
    """``unitarity_defect`` of the cached step matrix, computed once per spec and step."""
    return unitarity_defect(cached_step_matrix(spec, step_index))


def dense_run(spec: ProtocolSpec, payload: Payload) -> SparseState:
    """Pre-measurement state from the literal step matrices, evolved on its support."""
    indices, values = initial_support(spec, payload)
    for k in range(len(spec.steps)):
        indices, values = apply_to_support(cached_step_matrix(spec, k), indices, values)
    keep = np.abs(values) >= PRUNE_TOL
    return support_state(spec.layout, indices[keep], values[keep], PRUNE_TOL)
