"""Projective measurement, branch enumeration, and Pauli correction tables.

A measurement plan is the spec's position families, each measured as
sign-pattern superpositions over its members, crossed with sign-basis
outcomes on the measured coins.  For every branch we compute the
probability, apply the correction table's Pauli string to the residual on
the target coins, and score the result against the expected swapped
payloads.

Every step from the payloads to a branch residual is linear, so each
branch compiles, once, to a small matrix of ``alice ⊗ bob``.  The walk
program runs the basis payloads once per spec into a dense walk map
(``walk_map``), and one sparse product of the measurement weights with its
nonzero entries gives every branch (``compile_branch_maps``).  A call's
payloads are verified as one stack, one sparse mat-mat per bounded chunk
(``score_branches``).  ``project`` and ``branch_finals`` measure one state
branch by branch, weighing each outcome by the same ``walsh`` row; they
remain as the reference the compiled maps are tested against.  Correction
tables are read off the maps' stored entries, one per row, in one
vectorised pass: a branch is correctable exactly when its map is a Pauli
string times the swap, which proves fidelity one for every payload.  The
synthesized tables are the source of truth.  Reference tables bundled
under ``data/`` are compared against them row by row and any disagreement
is reported, not silently adopted.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

from .errors import (
    MissingCorrection,
    NoPauliCorrection,
    UnknownPauliOp,
    UnknownRegister,
)
from .hilbert import Label, RegisterLayout, SparseState, read_only
from .protocols import (
    Payload,
    PositionFamily,
    ProtocolSpec,
    bits_to_index,
    run_walks,
    stack_payloads,
    walk_program,
)

VACUOUS_TOL = 1e-14
RENORM_TOL_SQ = 1e-24
PAULI_TOL = 1e-10

# Indexed by x + 2z for one coin's masks.
PAULI_OPS = ("I", "X", "Z", "ZX")


def walsh(n: int) -> np.ndarray:
    """The ``n × n`` Sylvester sign matrix: entry ``(r, k)`` is ``(-1)^popcount(r & k)``.

    Row ``r`` holds outcome ``r``'s signs over a family's sorted members and
    over the measured coins' basis indices, and ``Z^r``'s signs over the
    target coins' basis indices.  ``n`` is a power of two.
    """
    idx = np.arange(n)
    return np.where(np.bitwise_count(idx[:, None] & idx) & 1, -1, 1)


def coin_outcome_name(spec: ProtocolSpec, r: int) -> str:
    """Coin outcome ``r``: '+' or '-' per measured coin, the first coin most significant."""
    chars = format(r, f"0{len(spec.measured_coins)}b").replace("0", "+").replace("1", "-")
    q = spec.qubits
    return chars[:q] + "," + chars[q:] if q > 1 else chars


def project(
    state: SparseState, registers: Sequence[str], weights: Mapping[Label, complex]
) -> tuple[float, SparseState]:
    """Measure one outcome on ``registers``.

    ``weights`` maps each basis label of ``registers`` to the outcome's
    amplitude.  Returns the outcome probability and the renormalized
    post-measurement state on the remaining registers (the zero state when
    the probability is numerically zero).
    """
    indices = state.layout.subset(registers)
    keep = [i for i in range(len(state.layout)) if i not in indices]
    rest_layout = state.layout.without(registers)
    amps: dict[Label, complex] = {}
    for label, amp in state.amps.items():
        w = weights.get(tuple(label[i] for i in indices))
        if w is None:
            continue
        rest = tuple(label[i] for i in keep)
        amps[rest] = amps.get(rest, 0.0 + 0.0j) + w.conjugate() * amp
    prob = sum((a * a.conjugate()).real for a in amps.values())
    if prob <= RENORM_TOL_SQ:
        return prob, SparseState(rest_layout, {})
    scale = 1.0 / math.sqrt(prob)
    return prob, SparseState(rest_layout, {l: a * scale for l, a in amps.items()})


# ---------------------------------------------------------------------------
# Correction tables


@dataclass(frozen=True, eq=False)
class CorrectionTable:
    """(position outcome, coin outcome) -> Pauli string on the target coins.

    A row lists (register, op) pairs with op in {X, Z, ZX}; identity rows
    are empty lists.  Rows apply right to left, matching how composed
    corrections are written.  The rows are copied into a read-only mapping,
    so the permutations cached on the table always match them.
    """

    protocol: str
    rows: Mapping[tuple[str, str], tuple[tuple[str, str], ...]]
    _permutations: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", MappingProxyType(dict(self.rows)))

    def get(self, position: str, coin: str) -> tuple[tuple[str, str], ...]:
        try:
            return self.rows[(position, coin)]
        except KeyError:
            raise MissingCorrection(
                f"no correction for outcome ({position!r}, {coin!r}) in {self.protocol}"
            ) from None

    def signed_permutations(
        self, keys: tuple[tuple[str, str], ...], layout: RegisterLayout
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows for ``keys`` as ``corrected[b] = sign[b] * residual[b][src[b]]``.

        Row ``sign * Z^z X^x`` (``pauli_masks``) moves entry ``i ^ x`` to
        ``i`` with sign ``sign * (-1)^popcount(i & z)``.  Cached on the table.
        """
        cache_key = (keys, layout)
        if cache_key not in self._permutations:
            masks = [pauli_masks(self.get(*key), layout.names) for key in keys]
            x, z, s = (np.array(column) for column in zip(*masks))
            idx = np.arange(1 << len(layout))
            src, sign = idx ^ x[:, None], (walsh(len(idx))[z] * s[:, None]).astype(float)
            read_only(src, sign)
            self._permutations[cache_key] = (src, sign)
        return self._permutations[cache_key]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "protocol": self.protocol,
            "rows": [
                {
                    "position": pos,
                    "coin": coin,
                    "pauli": [{"reg": r, "op": o} for r, o in ops],
                }
                for (pos, coin), ops in sorted(self.rows.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CorrectionTable":
        rows = {
            (row["position"], row["coin"]): tuple(
                (p["reg"], p["op"]) for p in row["pauli"]
            )
            for row in data["rows"]
        }
        return cls(data["protocol"], rows)


def apply_pauli_string(
    state: SparseState, ops: Iterable[tuple[str, str]]
) -> SparseState:
    """Apply listed (register, op) pairs right to left; op in {X, Z, ZX}."""
    amps = dict(state.amps)
    for reg, op in reversed(list(ops)):
        idx = state.layout.index(reg)
        out: dict[Label, complex] = {}
        for label, amp in amps.items():
            bit = label[idx]
            if op == "X":
                label = label[:idx] + (1 - bit,) + label[idx + 1 :]
            elif op == "Z":
                amp = -amp if bit else amp
            elif op == "ZX":
                label = label[:idx] + (1 - bit,) + label[idx + 1 :]
                amp = -amp if 1 - bit else amp
            elif op != "I":
                raise UnknownPauliOp(f"unknown Pauli op {op!r}")
            out[label] = amp
        amps = out
    return SparseState(state.layout, amps)


@functools.cache
def pauli_masks(
    ops: tuple[tuple[str, str], ...], targets: tuple[str, ...]
) -> tuple[int, int, int]:
    """A listed Pauli string as ``(x, z, sign)`` with the string ``sign * Z^z X^x``.

    Target k is bit ``1 << (len(targets) - 1 - k)``, as in a basis index,
    and ops apply right to left, as in apply_pauli_string.  Cached per
    distinct string: a two-qubit table repeats 256 strings over 1,296 rows.
    """
    bits = {reg: 1 << (len(targets) - 1 - k) for k, reg in enumerate(targets)}
    x = z = 0
    sign = 1
    for reg, op in reversed(ops):
        if op not in PAULI_OPS:
            raise UnknownPauliOp(f"unknown Pauli op {op!r}")
        if reg not in bits:
            raise UnknownRegister(f"no register named {reg!r}")
        code, bit = PAULI_OPS.index(op), bits[reg]
        if code & 1:
            # X Z = -Z X on one coin.
            sign = -sign if z & bit else sign
            x ^= bit
        if code & 2:
            z ^= bit
    return x, z, sign


def dense_on_targets(state: SparseState) -> np.ndarray:
    """A coin-only state as a dense vector, first register most significant."""
    k = len(state.layout)
    vec = np.zeros(1 << k, dtype=complex)
    for label, amp in state.amps.items():
        vec[bits_to_index(label)] = amp
    return vec


def expected_output(spec: ProtocolSpec, payload: Payload) -> SparseState:
    """The verified target: Bob's state on Alice's output coins and vice versa."""
    layout = RegisterLayout(
        spec.layout.register(name) for name in spec.target_coins
    )
    q = spec.qubits
    amps = {}
    for bits in itertools.product((0, 1), repeat=2 * q):
        amp = payload.bob[bits_to_index(bits[:q])] * payload.alice[bits_to_index(bits[q:])]
        amps[bits] = amp
    return SparseState(layout, amps)


@dataclass(frozen=True, eq=False)
class BranchResult:
    """One joint measurement outcome with its corrected residual.

    ``vector`` is the renormalized residual on the target coins, first
    target most significant; vacuous branches keep it uncorrected.
    """

    position: str
    coin: str
    probability: float
    vector: np.ndarray
    fidelity: float
    vacuous: bool
    layout: RegisterLayout

    @property
    def corrected(self) -> SparseState:
        """``vector`` as a sparse state on the target-coin layout."""
        labels = itertools.product((0, 1), repeat=len(self.layout))
        return SparseState(self.layout, dict(zip(labels, self.vector.tolist())))


@dataclass(frozen=True, eq=False)
class Branches:
    """Every branch of one payload, scored, as columns indexed like ``keys``.

    ``vectors`` holds one renormalized corrected residual per row (see
    BranchResult).  Iterating yields BranchResult rows built on demand.
    """

    keys: tuple[tuple[str, str], ...]
    probabilities: np.ndarray
    fidelities: np.ndarray
    vacuous: np.ndarray
    vectors: np.ndarray
    layout: RegisterLayout

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[BranchResult]:
        columns = zip(
            self.keys,
            self.probabilities.tolist(),
            self.vectors,
            self.fidelities.tolist(),
            self.vacuous.tolist(),
        )
        for (position, coin), prob, vector, fidelity, vac in columns:
            yield BranchResult(position, coin, prob, vector, fidelity, vac, self.layout)


def branch_finals(
    spec: ProtocolSpec, payload: Payload
) -> dict[tuple[str, str], tuple[float, SparseState]]:
    """Probability and uncorrected target-coin residual for every branch.

    Outcome ``r`` weighs a family's members, or the coins' labels, by ``walsh`` row ``r``.
    """
    state = run_walks(spec, payload)
    out: dict[tuple[str, str], tuple[float, SparseState]] = {}
    n = len(spec.measured_coins)
    bits = list(itertools.product((0, 1), repeat=n))
    coins = [
        (coin_outcome_name(spec, c), dict(zip(bits, row)))
        for c, row in enumerate((walsh(1 << n) * (1.0 / math.sqrt(2.0)) ** n).tolist())
    ]
    for family in spec.position_families:
        m = family.outcome_count
        for r, row in enumerate((walsh(m) * (1.0 / math.sqrt(m))).tolist()):
            p_pos, residual = project(state, family.registers, dict(zip(family.members, row)))
            for name, weights in coins:
                p_coin, final = project(residual, spec.measured_coins, weights)
                out[(family.outcome_name(r), name)] = (p_pos * p_coin, final)
    return out


# ---------------------------------------------------------------------------
# Compiled branch maps


@dataclass(frozen=True, eq=False)
class BranchMaps:
    """Every branch of a measurement plan as one linear map of the payloads.

    Rows ``b*dim`` to ``(b+1)*dim`` of ``matrix`` hold ``M_b``, the map of
    branch ``keys[b]``: ``M_b @ kron(alice, bob)`` is that branch's
    unnormalized residual on the target coins, whose squared norm is the
    branch probability.  Keys are sorted.
    """

    keys: tuple[tuple[str, str], ...]
    matrix: sparse.csr_matrix
    layout: RegisterLayout

    @property
    def dim(self) -> int:
        return 1 << len(self.layout)


@functools.cache
def walk_map(spec: ProtocolSpec) -> tuple[tuple[Label, ...], np.ndarray]:
    """The sorted labels the basis walks reach, and the dense ``labels × d²`` walk map.

    Column ``i*d + j`` is the walk of the basis payloads ``(e_i, e_j)``; all
    ``d²`` are one ``walk_program`` run on the stacked basis rows.  The
    map's real and imaginary parts are the run's, bit for bit.  Cached per
    spec object and shared, like ``branch_maps``: read only.
    """
    d = 1 << spec.qubits
    eye = np.eye(d, dtype=complex)
    program = walk_program(spec)
    re, im = program.run(np.repeat(eye, d, 0), np.tile(eye, (d, 1)))[-1]
    final = program.labels[-1]
    reached = np.flatnonzero(((re != 0.0) | (im != 0.0)).any(axis=0)).tolist()
    reached.sort(key=final.__getitem__)
    walks = np.empty((len(reached), d * d), dtype=complex)
    walks.real, walks.imag = re[:, reached].T, im[:, reached].T
    read_only(walks)
    return tuple(final[k] for k in reached), walks


def compile_branch_maps(spec: ProtocolSpec) -> BranchMaps:
    """Build every branch map as one sparse product ``(Wp ⊗ Wc) · F``.

    The walk map's nonzero entries fill a sparse ``F[(member, measured-coin
    bits), (target bits, column)]``, skipping positions outside every family.
    ``Wp`` stacks each family's sign-pattern weights block by block and
    ``Wc`` holds the coin weights, so every branch is one row of the product.
    """
    d = 1 << spec.qubits
    layout = spec.layout
    positions = layout.subset(spec.measured_positions)
    coins = layout.subset(spec.measured_coins)
    targets = layout.subset(spec.target_coins)
    families = spec.position_families
    member_row = {m: k for k, m in enumerate(m for f in families for m in f.members)}
    coin_dim, dim = 1 << len(coins), 1 << len(targets)
    labels, walks = walk_map(spec)
    member = np.array([member_row.get(tuple(l[i] for i in positions), -1) for l in labels])
    coin, target = (
        np.array([bits_to_index(tuple(l[i] for i in regs)) for l in labels])
        for regs in (coins, targets)
    )
    rows, cols = np.nonzero(walks)
    measured = member[rows] >= 0
    k, col = rows[measured], cols[measured]
    finals = sparse.csr_matrix(
        (walks[k, col], (member[k] * coin_dim + coin[k], target[k] * d * d + col)),
        shape=(len(member_row) * coin_dim, dim * d * d),
    )

    # Weights run over the members, and over the coin bits in index order.
    wp = sparse.block_diag(
        [walsh(f.outcome_count) * (1.0 / math.sqrt(f.outcome_count)) for f in families]
    )
    wc = walsh(coin_dim) * (1.0 / math.sqrt(2.0)) ** len(coins)
    coin_names = [coin_outcome_name(spec, c) for c in range(coin_dim)]
    names = [
        (f.outcome_name(r), c) for f in families for r in range(f.outcome_count) for c in coin_names
    ]
    order = sorted(range(len(names)), key=names.__getitem__)
    branches = sparse.kron(wp, wc, format="csr") @ finals
    matrix = branches[order].reshape((len(names) * dim, d * d)).tocsr()
    target_layout = RegisterLayout(layout.register(name) for name in spec.target_coins)
    return BranchMaps(tuple(names[b] for b in order), matrix, target_layout)


@functools.cache
def branch_maps(spec: ProtocolSpec) -> BranchMaps:
    """Compiled branch maps, cached per spec object (see ``get_protocol``); read only."""
    maps = compile_branch_maps(spec)
    read_only(maps.matrix.data, maps.matrix.indices, maps.matrix.indptr)
    return maps


def kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row ``k`` is ``np.kron(a[k], b[k])``, bit for bit."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


# Entries of one (payloads, branches, dim) chunk of scored vectors.
SCORE_ENTRIES = 1 << 16


def chunk_slices(count: int, width: int) -> Iterator[slice]:
    """Slices of ``count`` rows of ``width`` entries: at most ``SCORE_ENTRIES``, one row at least."""
    rows = max(1, SCORE_ENTRIES // width)
    return (slice(start, start + rows) for start in range(0, count, rows))


def score_branches(
    spec: ProtocolSpec, alice: np.ndarray, bob: np.ndarray, table: CorrectionTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every branch of ``n`` stacked payloads, corrected and scored.

    ``alice`` and ``bob`` are ``(n, d)``.  Returns the ``(n, B)``
    probabilities, fidelities and vacuous flags and the ``(n, B, dim)``
    vectors, indexed like ``branch_maps(spec).keys`` (see Branches).  One
    product of the compiled maps with the stacked ``alice ⊗ bob`` gives every
    residual; the table's rows then apply as signed permutations.
    """
    maps = branch_maps(spec)
    src, sign = table.signed_permutations(maps.keys, maps.layout)
    # One sparse mat-mat for the whole stack, copied back into payload-major rows.
    residuals = (maps.matrix @ kron_rows(alice, bob).T).T.copy().reshape(len(alice), *src.shape)
    probs = np.einsum("nbi,nbi->nb", residuals.conj(), residuals).real
    vacuous = probs < VACUOUS_TOL
    scale = np.zeros_like(probs)
    np.divide(1.0, np.sqrt(probs), out=scale, where=probs > RENORM_TOL_SQ)
    corrected = sign * np.take_along_axis(residuals, src[None], axis=2)
    vectors = np.where(vacuous[..., None], residuals, corrected) * scale[..., None]
    overlaps = (vectors @ kron_rows(bob, alice).conj()[..., None])[..., 0]
    fidelities = np.where(vacuous, 0.0, np.abs(overlaps) ** 2)
    return probs, fidelities, vacuous, vectors


def scored_payloads(
    spec: ProtocolSpec, payloads: Sequence[Payload], table: CorrectionTable
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Each payload's row of ``score_branches``: probabilities, fidelities, vacuous flags, vectors.

    The payloads are scored in chunks of at most ``SCORE_ENTRIES`` vector
    entries, so memory stays bounded for any count.
    """
    alice, bob = stack_payloads(spec, payloads)
    for chunk in chunk_slices(len(payloads), branch_maps(spec).matrix.shape[0]):
        yield from zip(*score_branches(spec, alice[chunk], bob[chunk], table))


def enumerate_branches(
    spec: ProtocolSpec,
    payload: Payload,
    table: CorrectionTable | None = None,
) -> Branches:
    """Every (position outcome, coin outcome) branch of one payload, corrected and scored."""
    if table is None:
        table = synthesized_table(spec)
    maps = branch_maps(spec)
    (columns,) = scored_payloads(spec, [payload], table)
    return Branches(maps.keys, *columns, maps.layout)


def synthesize_table(spec: ProtocolSpec) -> CorrectionTable:
    """Read every branch's Pauli correction off its compiled map's stored entries.

    A correctable branch map is ``lam * X^x Z^z`` with its columns reordered
    by the swap, so ``Z^z X^x`` (an I, X, Z or ZX per target coin) returns
    the swapped payloads for every payload.  Each row stores exactly one
    entry; ``x`` is the swap of row 0's column, and with the rows permuted
    by ``i ^ x``, row ``i`` holds column ``swap[i]`` and ``lam`` times
    ``walsh`` row ``z`` within ``PAULI_TOL``, where ``lam`` is row 0's
    value.  Raises NoPauliCorrection if a branch map has no such form or
    ``|lam|²`` is below ``VACUOUS_TOL``, which signals a measurement plan
    that loses the payloads.
    """
    maps = branch_maps(spec)
    matrix, dim, n = maps.matrix, maps.dim, len(maps.keys)
    d = 1 << spec.qubits
    idx = np.arange(dim)
    swap = (idx % d) * d + idx // d
    # Each row's first stored entry; a row that stores none reads the padding.
    first = matrix.indptr[:-1]
    cols = np.append(matrix.indices, 0)[first].reshape(n, dim)
    vals = np.append(matrix.data, 0.0)[first].reshape(n, dim)
    xmask = swap[cols[:, 0]]
    permuted = idx ^ xmask[:, None]
    cols, vals = np.take_along_axis(cols, permuted, 1), np.take_along_axis(vals, permuted, 1)
    lam = vals[:, 0]
    bits = 1 << np.arange(len(spec.target_coins))
    zmask = ((vals[:, bits] * lam.conj()[:, None]).real < 0) @ bits
    correctable = (
        (np.diff(matrix.indptr).reshape(n, dim) == 1).all(axis=1)
        & (cols == swap).all(axis=1)
        & (np.abs(vals - lam[:, None] * walsh(dim)[zmask]) <= PAULI_TOL).all(axis=1)
        & (np.abs(lam) ** 2 >= VACUOUS_TOL)
    )
    failed = np.flatnonzero(~correctable)
    if failed.size:
        raise NoPauliCorrection(f"no Pauli string corrects branch {maps.keys[failed[0]]}")
    # The first target coin is the most significant bit.
    target_bits = tuple(zip(spec.target_coins, bits[::-1].tolist()))
    rows = {
        key: tuple(
            (reg, PAULI_OPS[bool(x & bit) + 2 * bool(z & bit)])
            for reg, bit in target_bits
            if (x | z) & bit
        )
        for key, x, z in zip(maps.keys, xmask.tolist(), zmask.tolist())
    }
    return CorrectionTable(spec.id, rows)


@functools.cache
def synthesized_table(spec: ProtocolSpec) -> CorrectionTable:
    """The synthesized table for a spec, cached per spec object."""
    return synthesize_table(spec)


# ---------------------------------------------------------------------------
# Bundled reference tables


def bundled_table(protocol_id: str) -> CorrectionTable:
    """Reference correction table shipped with the package.

    The reference tables are data, not ground truth: compare_tables()
    reports where they disagree with the synthesized corrections, and a
    handful of known transcription defects are expected to be flagged.
    """
    path = resources.files("walkport.data").joinpath(f"table_{protocol_id}.json")
    return CorrectionTable.from_json_dict(json.loads(path.read_text()))


def compare_tables(spec: ProtocolSpec, reference: CorrectionTable) -> dict:
    """Row-by-row comparison of a reference table against the synthesized one.

    Reports rows whose net Pauli differs (``pauli_masks``, phase ignored),
    rows the reference omits for families it covers, and rows it lists that
    the plan does not contain.  synthesize_table proved each branch map
    ``lam * X^x Z^z`` times the swap with ``lam != 0``, so a differing row
    never reaches the target: ``reference_achieves_target`` is False.
    """
    synth = synthesized_table(spec)
    targets = spec.target_coins
    covered_positions = sorted({pos for pos, _ in reference.rows})
    expected_keys = [k for k in sorted(synth.rows) if k[0] in covered_positions]
    missing = [list(k) for k in expected_keys if k not in reference.rows]
    extra = [list(k) for k in sorted(reference.rows) if k not in synth.rows]
    mismatches = [
        {
            "position": key[0],
            "coin": key[1],
            "reference": [list(p) for p in reference.rows[key]],
            "synthesized": [list(p) for p in synth.rows[key]],
            "reference_achieves_target": False,
        }
        for key in expected_keys
        if key in reference.rows
        and pauli_masks(reference.rows[key], targets)[:2]
        != pauli_masks(synth.rows[key], targets)[:2]
    ]
    return {
        "protocol": spec.id,
        "rows_checked": len(expected_keys),
        "mismatches": mismatches,
        "missing_rows": missing,
        "extra_rows": extra,
    }


def corrupt_table(
    table: CorrectionTable, family: str, targets: Sequence[str]
) -> CorrectionTable:
    """Deterministically break every row of one family (for failure injection)."""
    rows = dict(table.rows)
    hit = False
    for (pos, coin), ops in table.rows.items():
        if PositionFamily.family_of(pos) == family:
            rows[(pos, coin)] = ops + ((targets[0], "Z"),)
            hit = True
    if not hit:
        raise MissingCorrection(f"no rows for family {family!r} in table {table.protocol}")
    return CorrectionTable(table.protocol, rows)
