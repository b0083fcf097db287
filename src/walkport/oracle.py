"""Independent ground truth for the sparse engine, from literal step matrices.

Each walk step becomes a literal operator matrix on the truncated space,
assembled with scipy.sparse Kronecker products of per-register factors and
checked for unitarity as a matrix.  A state is indexed by a mixed-radix
encoding of its basis label.  ``dense_support`` applies the matrices to the
state's support only: it keeps the sorted flat indices of the nonzero
amplitudes and their values, and each step gathers the matrix columns of
those indices.  Its cost follows the support (at most 256 terms here), not
the dimension of the space.  ``dense_run`` returns that support as a state.

``state_delta`` compares the support with the walk program's final
amplitudes as arrays: ``label_indices`` maps each program label to its flat
index once per program, and the delta is the max of ``np.hypot`` over both
supports, the float ``SparseState.max_delta`` of the two states gives.

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

from .errors import DimensionOverflow, NonFiniteAmplitude
from .hilbert import COIN, LATTICE, Register, RegisterLayout, SparseState, below_prune_tol, read_only
from .protocols import Payload, ProtocolSpec, get_protocol
from .walkops import WalkProgram, WalkStep

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


def support_state(layout: RegisterLayout, indices: np.ndarray, values: np.ndarray) -> SparseState:
    """The state with ``values`` at the flat ``indices`` and zero elsewhere.

    One mixed-radix ``unravel_index`` over all indices gives the dense axis
    positions, first register most significant; lattice values are offset.
    It rejects any index outside the space, so every label is in range and
    is not validated again term by term.
    """
    positions = np.unravel_index(indices, [reg.dim for reg in layout])
    offsets = [value_index(reg, 0) for reg in layout]
    labels = (np.stack(positions, axis=1) - offsets).tolist()
    return SparseState._derived(layout, dict(zip(map(tuple, labels), values.tolist())))


def sparsify(vec: np.ndarray, layout: RegisterLayout) -> SparseState:
    indices = np.flatnonzero(~below_prune_tol(vec.real, vec.imag))
    return support_state(layout, indices, vec[indices])


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


def gather_columns(matrix: sp.csc_matrix, indices: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row indices, data and column lengths of ``matrix[:, indices]``.

    Sliced straight from the CSC arrays, in scipy's order, with no matrix built.
    """
    starts = matrix.indptr[indices]
    counts = matrix.indptr[indices + 1] - starts
    ends = np.cumsum(counts)
    positions = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
    return matrix.indices[positions], matrix.data[positions], counts


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
    column_rows, data, counts = gather_columns(matrix, indices)
    products = data * np.repeat(values, counts)
    rows, slots = np.unique(column_rows, return_inverse=True)
    out = np.zeros(len(rows), dtype=complex)
    np.add.at(out, slots, products)
    return rows, out


@functools.cache
def cached_step_matrix(spec: ProtocolSpec, step_index: int) -> sp.csc_matrix:
    """``step_matrix``, built once per spec object and step; read only."""
    matrix = step_matrix(spec, step_index)
    read_only(matrix.data, matrix.indices, matrix.indptr)
    return matrix


@functools.cache
def cached_unitarity_defect(spec: ProtocolSpec, step_index: int) -> float:
    """``unitarity_defect`` of the cached step matrix, computed once per spec and step."""
    return unitarity_defect(cached_step_matrix(spec, step_index))


def dense_support(spec: ProtocolSpec, payload: Payload) -> tuple[np.ndarray, np.ndarray]:
    """Pre-measurement state from the literal step matrices, evolved on its support.

    Returns the sorted flat indices of its terms and their amplitudes, pruned
    by ``below_prune_tol``.
    """
    indices, values = initial_support(spec, payload)
    for k in range(len(spec.steps)):
        indices, values = apply_to_support(cached_step_matrix(spec, k), indices, values)
    keep = ~below_prune_tol(values.real, values.imag)
    return indices[keep], values[keep]


def dense_run(spec: ProtocolSpec, payload: Payload) -> SparseState:
    """``dense_support`` as a state."""
    return support_state(spec.layout, *dense_support(spec, payload))


@functools.cache
def label_indices(program: WalkProgram, ospec: ProtocolSpec) -> np.ndarray:
    """The flat index in ``ospec``'s space of each final label of ``program``.

    The inverse of ``support_state``'s ``unravel_index``: one mixed-radix
    ``ravel_multi_index`` of the labels' dense axis positions.  A label
    outside the truncated space maps to -1.  Built once per program and
    spec object; read only.
    """
    dims = [reg.dim for reg in ospec.layout]
    labels = np.array(program.labels[-1])
    positions = labels + [value_index(reg, 0) for reg in ospec.layout]
    inside = ((positions >= 0) & (positions < dims)).all(axis=1)
    flat = np.full(len(labels), -1)
    flat[inside] = np.ravel_multi_index(tuple(positions[inside].T), dims)
    read_only(flat)
    return flat


def state_delta(
    program: WalkProgram, ospec: ProtocolSpec, payload: Payload, re: np.ndarray, im: np.ndarray
) -> float:
    """``dense_run(ospec, payload).max_delta(state)``, on arrays, with no state built.

    ``re`` and ``im`` are the payload's final amplitudes from ``program``,
    one per label, and ``state`` is ``program.state(-1, re, im)``.  Each
    label is paired with the oracle's term at its flat index
    (``label_indices``), or with 0.0 where the oracle has no term there or
    the label is outside the space; an oracle term that no label pairs with
    counts at its own |amplitude|.  ``np.hypot`` rounds as the states'
    complex ``abs`` does, so the max is the same float.  A non-finite
    amplitude on either side makes it non-finite and raises
    NonFiniteAmplitude, as building either state would.
    """
    indices, values = dense_support(ospec, payload)
    flat = label_indices(program, ospec)
    slots = np.searchsorted(indices, flat)
    paired = slots < len(indices)  # a slot past the last index pairs with nothing
    paired[paired] = indices[slots[paired]] == flat[paired]
    matched = slots[paired]
    oracle_at = np.zeros(len(flat), dtype=complex)
    oracle_at[paired] = values[matched]
    unpaired = np.ones(len(indices), dtype=bool)
    unpaired[matched] = False
    delta = np.maximum(
        np.hypot(oracle_at.real - re, oracle_at.imag - im).max(initial=0.0),
        np.hypot(values.real[unpaired], values.imag[unpaired]).max(initial=0.0),
    )
    if not np.isfinite(delta):
        raise NonFiniteAmplitude(f"non-finite amplitude in {ospec.id}'s final state")
    return float(delta)
