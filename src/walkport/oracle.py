"""Independent ground truth for the sparse engine, from literal step matrices.

Each walk step becomes a literal operator matrix on the truncated space,
assembled with scipy.sparse Kronecker products of per-register factors and
checked for unitarity as a matrix.  A state is indexed by a mixed-radix
encoding of its basis label.  ``step_reach`` restricts the matrices, once
per spec, to the walk's reach: the flat indices any payload's amplitudes
can occupy before and after each step (at most 256 here, not the dimension
of the space).  ``dense_values`` evolves a chunk of payloads there with four
sparse products, and ``payload_deltas`` compares the result with the walk
program's final amplitudes as arrays, paired once per program through
``label_slots``.  ``dense_support`` and ``dense_run`` are a chunk of one.

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
from .hilbert import LATTICE, Register, RegisterLayout, SparseState, below_prune_tol, read_only
from .protocols import Payload, ProtocolSpec, get_protocol, stack_payloads
from .walkops import WalkProgram, WalkStep

DIM_CAP = 1 << 26


def layout_dim(layout: RegisterLayout) -> int:
    return math.prod(reg.dim for reg in layout)


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
    rows = (np.arange(n) + step) % n
    return sp.csc_matrix((np.ones(n), (rows, np.arange(n))), shape=(n, n), dtype=complex)


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


def initial_values(
    spec: ProtocolSpec, alice: np.ndarray, bob: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The initial product state of ``(n, d)`` stacked payloads, on the flat indices it can occupy.

    The left-to-right Kronecker product of one factor per register (one per
    payload vector for each party's input coins), taken over every payload
    component and each other factor's nonzero entries, so the sorted indices
    do not depend on the payloads.  Returns them and the ``(n, len)`` amplitudes.
    """
    indices, values = np.zeros(1, dtype=np.intp), None
    consumed: set[str] = set()
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for reg in spec.layout:
        if reg.name in consumed:
            continue
        if reg.name in (spec.alice_coins[0], spec.bob_coins[0]):
            alice_side = reg.name == spec.alice_coins[0]
            consumed.update(spec.alice_coins if alice_side else spec.bob_coins)
            entries = alice if alice_side else bob
            size, positions = entries.shape[1], np.arange(entries.shape[1])
        else:
            one_hot = np.eye(reg.dim, dtype=complex)[value_index(reg, 0)]
            factor = plus if reg.name in spec.plus_coins else one_hot
            size, positions = reg.dim, np.flatnonzero(factor)
            entries = factor[None, positions]
        indices = (indices[:, None] * size + positions).ravel()
        product = entries if values is None else values[:, :, None] * entries[:, None, :]
        values = product.reshape(len(product), -1)
    return indices, values


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


@functools.cache
def step_reach(spec: ProtocolSpec) -> tuple[tuple[np.ndarray, ...], tuple[sp.csr_matrix, ...]]:
    """The walk's reach before and after each step, and each step matrix restricted to it.

    ``reaches[0]`` are ``initial_values``'s indices and ``reaches[k + 1]`` the
    rows that step k's matrix stores in its columns at ``reaches[k]``.
    ``matrices[k]`` is that matrix's block of rows ``reaches[k + 1]`` and
    columns ``reaches[k]``, as CSR with sorted indices: a product with it sums
    each row's terms in the order a CSR mat-vec over the whole space does,
    minus the terms that multiply exact zeros, so the amplitudes are
    bitwise-equal to that evolution's.  Built once per spec object; read only.
    """
    ones = np.ones((1, 1 << spec.qubits))
    reaches, matrices = [initial_values(spec, ones, ones)[0]], []
    for k in range(len(spec.steps)):
        columns = cached_step_matrix(spec, k)[:, reaches[-1]]
        indices, rows = np.unique(columns.indices, return_inverse=True)
        shape = (len(indices), len(columns.indptr) - 1)
        matrix = sp.csc_matrix((columns.data, rows, columns.indptr), shape=shape).tocsr()
        matrix.sort_indices()
        reaches.append(indices)
        matrices.append(matrix)
    read_only(*reaches, *(getattr(m, f) for m in matrices for f in ("data", "indices", "indptr")))
    return tuple(reaches), tuple(matrices)


def dense_values(spec: ProtocolSpec, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Final amplitudes of ``(n, d)`` payloads on ``reaches[-1]``, 0 where ``below_prune_tol`` prunes."""
    values = initial_values(spec, alice, bob)[1].T
    for matrix in step_reach(spec)[1]:
        values = matrix @ values
    return np.where(below_prune_tol(values.real, values.imag), 0.0, values)


def dense_support(spec: ProtocolSpec, payload: Payload) -> tuple[np.ndarray, np.ndarray]:
    """One payload's ``dense_values``: the sorted flat indices of its terms and their amplitudes."""
    values = dense_values(spec, *stack_payloads(spec, [payload]))[:, 0]
    keep = np.flatnonzero(values)
    return step_reach(spec)[0][-1][keep], values[keep]


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


@functools.cache
def label_slots(program: WalkProgram, ospec: ProtocolSpec) -> np.ndarray:
    """The rows of ``ospec``'s final reach that ``payload_deltas`` compares, in order.

    One per final label of ``program``, the row at its flat index
    (``label_indices``) or, where the reach has none, the row past its end,
    which reads 0; then each row that no label pairs with.  Cached; read only.
    """
    final = step_reach(ospec)[0][-1]
    flat = label_indices(program, ospec)
    slots = np.searchsorted(final, flat)
    slots[final[np.minimum(slots, len(final) - 1)] != flat] = len(final)
    slots = np.concatenate([slots, np.setdiff1d(np.arange(len(final)), slots)])
    read_only(slots)
    return slots


def payload_deltas(
    program: WalkProgram,
    ospec: ProtocolSpec,
    alice: np.ndarray,
    bob: np.ndarray,
    re: np.ndarray,
    im: np.ndarray,
) -> np.ndarray:
    """Each payload's ``dense_run(ospec, payload).max_delta(state)``, with no state built.

    ``re`` and ``im`` are the ``(n, len(labels))`` final amplitudes of the
    ``(n, d)`` payloads from ``program``, and ``state`` is
    ``program.state(-1, re[i], im[i])``.  Each label is compared with the
    oracle's pruned term at its ``label_slots`` row, which reads 0.0 where
    the oracle has none, and each oracle term that no label pairs with counts
    at its own |amplitude|.  ``np.hypot`` rounds as the states' complex
    ``abs`` does, so each max is the same float.  A non-finite amplitude on
    either side raises NonFiniteAmplitude, as building either state would.
    """
    values = dense_values(ospec, alice, bob)
    diff = np.vstack([values, np.zeros(values.shape[1])])[label_slots(program, ospec)].T
    diff.real[:, : re.shape[1]] -= re
    diff.imag[:, : im.shape[1]] -= im
    deltas = np.hypot(diff.real, diff.imag).max(axis=1)
    if not np.isfinite(deltas).all():
        raise NonFiniteAmplitude(f"non-finite amplitude in {ospec.id}'s final state")
    return deltas
