"""Projective measurement, branch enumeration, and Pauli correction tables.

A measurement plan is the spec's position families, each measured as
sign-pattern superpositions over its members, crossed with sign-basis
outcomes on the measured coins.  For every branch we compute the
probability, apply the correction table's Pauli string to the residual on
the target coins, and score the result against the expected swapped
payloads.

Every step from the payloads to a branch residual is linear, so each
branch compiles, once, to a small matrix of ``alice ⊗ bob`` (built from the
basis payloads by the sparse engine below); verifying a payload is then one
sparse mat-vec.  Correction tables are read off those matrices: a branch is
correctable exactly when its map is a Pauli string times the swap, which
proves fidelity one for every payload.  The synthesized tables are the
source of truth.  Reference tables bundled under ``data/`` are compared
against them row by row and any disagreement is reported, not silently
adopted.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

from .errors import (
    MalformedProjector,
    MissingCorrection,
    NoPauliCorrection,
    UnknownPauliOp,
)
from .hilbert import Label, RegisterLayout, SparseState
from .protocols import (
    Payload,
    PositionFamily,
    ProtocolSpec,
    bits_to_index,
    check_payload,
    run_walks,
    seeded_payloads,
)

VACUOUS_TOL = 1e-14
RENORM_TOL_SQ = 1e-24
PROJECTOR_TOL = 1e-12
PAULI_TOL = 1e-10
BRANCH_FIDELITY_TOL = 1e-9

# Indexed by x + 2z for one coin's masks.
PAULI_OPS = ("I", "X", "Z", "ZX")

# Seed of the generic payloads that compare_tables checks differing
# reference rows against.
COMPARE_SEED = 1890


@dataclass(frozen=True, eq=False)
class ProjectorSpec:
    """One orthonormal measurement outcome on a subset of registers."""

    name: str
    registers: tuple[str, ...]
    terms: tuple[tuple[Label, complex], ...]

    def __post_init__(self) -> None:
        norm2 = sum(abs(a) ** 2 for _, a in self.terms)
        if abs(norm2 - 1.0) > PROJECTOR_TOL:
            raise MalformedProjector(f"projector {self.name!r} has norm^2 {norm2!r}")
        if len({l for l, _ in self.terms}) != len(self.terms):
            raise MalformedProjector(f"projector {self.name!r} repeats a label")

    def weights(self) -> dict[Label, complex]:
        return dict(self.terms)


def check_orthogonal(projectors: Sequence[ProjectorSpec]) -> None:
    """Raise unless the projectors are pairwise orthogonal."""
    for i, p in enumerate(projectors):
        wp = p.weights()
        for q in projectors[i + 1 :]:
            overlap = sum(
                wp[l].conjugate() * a for l, a in q.terms if l in wp
            )
            if abs(overlap) > PROJECTOR_TOL:
                raise MalformedProjector(
                    f"projectors {p.name!r} and {q.name!r} overlap by {abs(overlap):.3e}"
                )


def position_projectors(family: PositionFamily) -> list[ProjectorSpec]:
    """The orthonormal outcomes measuring one position family.

    The members are combined with sign patterns, the reading that keeps
    every payload component alive.  Measuring the members one by one is the
    same reading over a spec whose families are the single members.
    """
    w = 1.0 / math.sqrt(family.outcome_count)
    projs = [
        ProjectorSpec(
            family.outcome_name(r),
            family.registers,
            tuple((member, s * w) for member, s in zip(family.members, family.signs(r))),
        )
        for r in range(family.outcome_count)
    ]
    check_orthogonal(projs)
    return projs


def coin_outcome_name(spec: ProtocolSpec, signs: tuple[int, ...]) -> str:
    chars = ["+" if s > 0 else "-" for s in signs]
    q = spec.qubits
    return "".join(chars[:q]) + ("," + "".join(chars[q:]) if q > 1 else "".join(chars[q:]))


def coin_projectors(spec: ProtocolSpec) -> list[ProjectorSpec]:
    """Sign-basis outcomes on the measured coins, '+' before '-'."""
    n = len(spec.measured_coins)
    w = (1.0 / math.sqrt(2.0)) ** n
    projs = []
    for signs in itertools.product((1, -1), repeat=n):
        terms = []
        for bits in itertools.product((0, 1), repeat=n):
            sign = 1
            for s, b in zip(signs, bits):
                if s < 0 and b == 1:
                    sign = -sign
            terms.append((bits, sign * w))
        projs.append(
            ProjectorSpec(coin_outcome_name(spec, signs), spec.measured_coins, tuple(terms))
        )
    check_orthogonal(projs)
    return projs


def project(state: SparseState, proj: ProjectorSpec) -> tuple[float, SparseState]:
    """Measure one outcome.

    Returns the outcome probability and the renormalized post-measurement
    state on the remaining registers (the zero state when the probability
    is numerically zero).
    """
    indices = state.layout.subset(proj.registers)
    keep = [i for i in range(len(state.layout)) if i not in indices]
    rest_layout = state.layout.without(proj.registers)
    weights = proj.weights()
    amps: dict[Label, complex] = {}
    for label, amp in state.amps.items():
        w = weights.get(tuple(label[i] for i in indices))
        if w is None:
            continue
        rest = tuple(label[i] for i in keep)
        amps[rest] = amps.get(rest, 0.0 + 0.0j) + w.conjugate() * amp
    prob = sum((a * a.conjugate()).real for a in amps.values())
    if prob <= RENORM_TOL_SQ:
        return prob, SparseState(rest_layout, {}, state.tol)
    scale = 1.0 / math.sqrt(prob)
    residual = SparseState(
        rest_layout, {l: a * scale for l, a in amps.items()}, state.tol
    )
    return prob, residual


# ---------------------------------------------------------------------------
# Correction tables


@dataclass(frozen=True, eq=False)
class CorrectionTable:
    """(position outcome, coin outcome) -> Pauli string on the target coins.

    A row lists (register, op) pairs with op in {X, Z, ZX}; identity rows
    are empty lists.  Rows apply right to left, matching how composed
    corrections are written.
    """

    protocol: str
    rows: Mapping[tuple[str, str], tuple[tuple[str, str], ...]]
    _permutations: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

        Cached on the table; each distinct row is probed once per process
        (``pauli_probe``).
        """
        cache_key = (keys, layout)
        if cache_key not in self._permutations:
            moved = np.array([pauli_probe(self.get(*key), layout) for key in keys])
            self._permutations[cache_key] = (np.abs(moved).astype(int) - 1, np.sign(moved))
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
    return SparseState(state.layout, amps, state.tol)


@functools.cache
def pauli_probe(ops: tuple[tuple[str, str], ...], layout: RegisterLayout) -> np.ndarray:
    """Where a Pauli string moves each basis entry of ``layout``, and with which sign.

    The string is applied by apply_pauli_string to a probe state whose
    amplitude at basis index i is i + 1; entry j of the result is
    ``sign * (src + 1)`` for the entry that lands on j.  Read-only, cached
    per distinct string: a two-qubit table repeats 256 strings over 1,296 rows.
    """
    labels = itertools.product((0, 1), repeat=len(layout))
    probe = SparseState(layout, {label: i + 1.0 for i, label in enumerate(labels)})
    moved = dense_on_targets(apply_pauli_string(probe, ops)).real
    moved.flags.writeable = False
    return moved


def pauli_net_classes(
    ops: Iterable[tuple[str, str]], targets: Sequence[str]
) -> dict[str, str]:
    """Reduce a listed Pauli string to one class per register, phase ignored."""
    parity = {t: [0, 0] for t in targets}
    for reg, op in ops:
        x = "X" in op
        z = "Z" in op
        parity[reg][0] ^= int(x)
        parity[reg][1] ^= int(z)
    classes = {}
    for reg, (x, z) in parity.items():
        classes[reg] = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "ZX"}[(x, z)]
    return classes


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
    return SparseState(layout, amps, spec.tol)


def expected_output_dense(spec: ProtocolSpec, payload: Payload) -> np.ndarray:
    return np.kron(payload.bob, payload.alice)


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
    tol: float

    @property
    def corrected(self) -> SparseState:
        """``vector`` as a sparse state on the target-coin layout."""
        labels = itertools.product((0, 1), repeat=len(self.layout))
        return SparseState(self.layout, dict(zip(labels, self.vector.tolist())), self.tol)


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
    tol: float

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
            yield BranchResult(position, coin, prob, vector, fidelity, vac, self.layout, self.tol)


def branch_finals(
    spec: ProtocolSpec, payload: Payload
) -> dict[tuple[str, str], tuple[float, SparseState]]:
    """Probability and uncorrected target-coin residual for every branch."""
    state = run_walks(spec, payload)
    out: dict[tuple[str, str], tuple[float, SparseState]] = {}
    coins = coin_projectors(spec)
    for family in spec.position_families:
        for pproj in position_projectors(family):
            p_pos, residual = project(state, pproj)
            for cproj in coins:
                p_coin, final = project(residual, cproj)
                out[(pproj.name, cproj.name)] = (p_pos * p_coin, final)
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
    tol: float

    @property
    def dim(self) -> int:
        return 1 << len(self.layout)

    def block(self, b: int) -> np.ndarray:
        """``M_b`` as a dense ``dim x dim`` matrix."""
        return self.matrix[b * self.dim : (b + 1) * self.dim].toarray()


def compile_branch_maps(spec: ProtocolSpec) -> BranchMaps:
    """Build every branch map with the sparse engine.

    Walk steps and projections are linear and the payloads enter only
    through ``alice ⊗ bob``, so column ``i*d + j`` of ``M_b`` is branch b's
    residual for the basis payloads ``(e_i, e_j)``, scaled back by the
    square root of its probability.
    """
    d = 1 << spec.qubits
    basis = np.eye(d)
    columns: dict[tuple[str, str], list[tuple[int, int, complex]]] = {}
    for col, (i, j) in enumerate(itertools.product(range(d), repeat=2)):
        finals = branch_finals(spec, Payload(basis[i], basis[j]))
        for key, (prob, final) in finals.items():
            scale = math.sqrt(prob)
            columns.setdefault(key, []).extend(
                (bits_to_index(label), col, scale * amp)
                for label, amp in final.amps.items()
            )
    keys = tuple(sorted(columns))
    layout = RegisterLayout(spec.layout.register(name) for name in spec.target_coins)
    dim = 1 << len(layout)
    rows, cols, data = zip(
        *((b * dim + r, c, v) for b, key in enumerate(keys) for r, c, v in columns[key])
    )
    matrix = sparse.csr_matrix(
        (np.array(data, dtype=complex), (rows, cols)), shape=(len(keys) * dim, d * d)
    )
    return BranchMaps(keys, matrix, layout, spec.tol)


@functools.cache
def branch_maps(spec: ProtocolSpec) -> BranchMaps:
    """Compiled branch maps, cached per spec object (see ``get_protocol``)."""
    return compile_branch_maps(spec)


def enumerate_branches(
    spec: ProtocolSpec,
    payload: Payload,
    table: CorrectionTable | None = None,
) -> Branches:
    """Every (position outcome, coin outcome) branch, corrected and scored.

    One product of the compiled maps with ``alice ⊗ bob`` gives every
    branch's residual; the table's rows then apply as signed permutations.
    """
    check_payload(spec, payload)
    if table is None:
        table = synthesized_table(spec)
    maps = branch_maps(spec)
    src, sign = table.signed_permutations(maps.keys, maps.layout)
    residuals = (maps.matrix @ np.kron(payload.alice, payload.bob)).reshape(src.shape)
    probs = np.einsum("bi,bi->b", residuals.conj(), residuals).real
    vacuous = probs < VACUOUS_TOL
    scale = np.zeros_like(probs)
    np.divide(1.0, np.sqrt(probs), out=scale, where=probs > RENORM_TOL_SQ)
    corrected = sign * np.take_along_axis(residuals, src, axis=1)
    vectors = np.where(vacuous[:, None], residuals, corrected) * scale[:, None]
    overlaps = vectors @ expected_output_dense(spec, payload).conj()
    fidelities = np.where(vacuous, 0.0, np.abs(overlaps) ** 2)
    return Branches(maps.keys, probs, fidelities, vacuous, vectors, maps.layout, maps.tol)


def synthesize_table(spec: ProtocolSpec) -> CorrectionTable:
    """Read every branch's Pauli correction off its compiled map.

    With its columns reordered by the swap, a correctable branch map is
    ``lam * X^x Z^z`` for one pair of masks, so ``Z^z X^x`` (an I, X, Z or
    ZX per target coin) returns the swapped payloads for every payload.
    Raises NoPauliCorrection if a branch map has no such form, which
    signals a malformed projector family.
    """
    maps = branch_maps(spec)
    d = 1 << spec.qubits
    idx = np.arange(maps.dim)
    swap = (idx % d) * d + idx // d
    bits = [1 << m for m in range(len(spec.target_coins))]
    rows: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    for b, key in enumerate(maps.keys):
        block = maps.block(b)[:, swap]
        xmask = int(np.argmax(np.abs(block[:, 0])))
        lam = block[xmask, 0]
        zmask = sum(bit for bit in bits if (block[bit ^ xmask, bit] * lam.conjugate()).real < 0)
        pauli = np.zeros_like(block)
        pauli[idx ^ xmask, idx] = np.where(np.bitwise_count(idx & zmask) & 1, -1, 1)
        if abs(lam) ** 2 < VACUOUS_TOL or np.abs(block - lam * pauli).max() > PAULI_TOL:
            raise NoPauliCorrection(f"no Pauli string corrects branch {key}")
        rows[key] = tuple(
            (reg, PAULI_OPS[bool(xmask & bit) + 2 * bool(zmask & bit)])
            for reg, bit in zip(spec.target_coins, reversed(bits))
            if (xmask | zmask) & bit
        )
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


def compare_tables(
    spec: ProtocolSpec,
    reference: CorrectionTable,
    payloads: Sequence[Payload] | None = None,
) -> dict:
    """Row-by-row comparison of a reference table against the synthesized one.

    Reports net-Pauli mismatches (with whether the reference row still
    reaches the target on generic payloads), rows the reference omits for
    families it covers, and rows it lists that the plan does not contain.
    """
    synth = synthesized_table(spec)
    if payloads is None:
        payloads = seeded_payloads(COMPARE_SEED, 3, spec.qubits)
    covered_positions = sorted({pos for pos, _ in reference.rows})
    expected_keys = [k for k in sorted(synth.rows) if k[0] in covered_positions]
    missing = [list(k) for k in expected_keys if k not in reference.rows]
    extra = [list(k) for k in sorted(reference.rows) if k not in synth.rows]
    differing = [
        key
        for key in expected_keys
        if key in reference.rows
        and pauli_net_classes(reference.rows[key], spec.target_coins)
        != pauli_net_classes(synth.rows[key], spec.target_coins)
    ]
    achieves = dict.fromkeys(differing, True)
    if differing:
        patched = CorrectionTable(spec.id, {**synth.rows, **reference.rows})
        rows = [branch_maps(spec).keys.index(key) for key in differing]
        for payload in payloads:
            branches = enumerate_branches(spec, payload, patched)
            failed = ~branches.vacuous[rows] & (
                branches.fidelities[rows] < 1.0 - BRANCH_FIDELITY_TOL
            )
            for key in itertools.compress(differing, failed.tolist()):
                achieves[key] = False
    mismatches = [
        {
            "position": key[0],
            "coin": key[1],
            "reference": [list(p) for p in reference.rows[key]],
            "synthesized": [list(p) for p in synth.rows[key]],
            "reference_achieves_target": achieves[key],
        }
        for key in differing
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
        if pos == family or pos.startswith(family + ":"):
            rows[(pos, coin)] = ops + ((targets[0], "Z"),)
            hit = True
    if not hit:
        raise MissingCorrection(f"no rows for family {family!r} in table {table.protocol}")
    return CorrectionTable(table.protocol, rows)
