"""The four bidirectional teleportation protocols as declarative data.

Each protocol names its registers, how the payloads and ancilla coins are
prepared, the four walk steps, which registers get measured, and how the
reachable position support is tiled into orthonormal measurement families.
Register names say what a register does: ``a_pos*`` are Alice's walker
positions, ``a_in*`` the coins carrying her unknown state, ``a_out*`` the
coins that end up holding the state teleported to her.

Layout order follows the ket convention used throughout: positions first,
then Alice's coins, then Bob's (``line1q``/``cycle1q``: a_pos, b_pos, a_in,
a_out, b_in, b_out).

One template, ``_walk_protocol``, builds all four specs.  They differ only
in payload qubits, walkers per party (one per coin, or one moved by two
coins), line or 4-cycle, and the prefix of the family names.

The families are derived.  Each walker moves once by its own party's input
coins, then once by the other party's output coins, paired slice by slice;
its position shows whether each pair's two coins agreed.  A family is every
position tuple reached with one agreement pattern.  One-qubit families are
named by each walker's distance from the origin, Alice first (``00``,
``02``, ``20``, ``22``); two-qubit ones by the prefix and the pattern's
index, Bob's pairs most significant (``P0``..``P15``, ``Q0``..``Q15``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDefinition, NotNormalized, ShapeMismatch, UnknownProtocol
from .hilbert import (
    HADAMARD,
    Label,
    RegisterLayout,
    SparseState,
    coin,
    cycle,
    lattice,
)
from .walkops import (
    ConditionedShift,
    WalkProgram,
    WalkStep,
    compile_walk,
    single_coin_shift_rule,
    two_coin_shift_rule,
)

DEFAULT_BOUND = 8

PROTOCOL_IDS = ("line1q", "cycle1q", "single2q", "twostep2q")

PAYLOAD_NORM_TOL = 1e-10


def bits_to_index(bits: tuple[int, ...]) -> int:
    """Big-endian bit tuple to integer: (1, 0) -> 2."""
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


@dataclass(frozen=True, eq=False)
class Payload:
    """The two unknown states: Alice's (headed to Bob) and Bob's (headed to Alice)."""

    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self) -> None:
        for name in ("alice", "bob"):
            vec = np.asarray(getattr(self, name), dtype=complex).reshape(-1)
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        if self.alice.shape != self.bob.shape or len(self.alice) not in (2, 4):
            raise ShapeMismatch(
                f"payload vectors must both have length 2 or 4, "
                f"got {len(self.alice)} and {len(self.bob)}"
            )
        for name in ("alice", "bob"):
            norm = np.linalg.norm(getattr(self, name))
            if not math.isfinite(norm) or abs(norm - 1.0) > PAYLOAD_NORM_TOL:
                raise NotNormalized(f"{name} vector has norm {norm!r}")

    @property
    def qubits(self) -> int:
        return 1 if len(self.alice) == 2 else 2


def draw_payloads(rng: np.random.Generator, count: int, qubits: int) -> list[Payload]:
    """``count`` normalized complex-Gaussian payload pairs (uniform on the sphere).

    One draw of shape (payload, party, real/imaginary, component), the order
    in which one vector at a time would draw them.  Each vector is divided
    by ``sqrt(re·re + im·im)``, the dot products taken on the complex array's
    strided views as ``np.linalg.norm`` takes them; a zero vector becomes
    NaNs, which ``Payload`` rejects as not normalized.
    """
    draw = rng.standard_normal((count, 2, 2, 2**qubits))
    vectors = draw[:, :, 0] + 1j * draw[:, :, 1]
    re, im = vectors.real[..., None, :], vectors.imag[..., None, :]
    norms = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))
    with np.errstate(divide="ignore", invalid="ignore"):
        vectors = vectors / norms[..., 0]
    return [Payload(alice, bob) for alice, bob in vectors]


def random_payload(rng: np.random.Generator, qubits: int) -> Payload:
    """One payload pair: row 0 of ``draw_payloads``."""
    return draw_payloads(rng, 1, qubits)[0]


def seeded_payloads(seed: int, count: int, qubits: int) -> list[Payload]:
    return draw_payloads(np.random.default_rng(seed), count, qubits)


@dataclass(frozen=True)
class PositionFamily:
    """A disjoint set of position tuples measured as one orthonormal family.

    Members are kept sorted; outcome ``r`` is the superposition whose sign
    on member ``k`` is (-1)^popcount(r & k), row ``r`` of ``measure.walsh``:
    the sign-pattern basis over the members.  Families of size 1 have a
    single plain outcome.
    """

    name: str
    registers: tuple[str, ...]
    members: tuple[Label, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.members)) != self.members:
            raise InvalidDefinition(f"family {self.name!r} members must be sorted")
        m = len(self.members)
        if m == 0 or m & (m - 1):
            raise InvalidDefinition(f"family {self.name!r} size must be a power of two")

    @property
    def outcome_count(self) -> int:
        return len(self.members)

    def outcome_name(self, r: int) -> str:
        return self.name if len(self.members) == 1 else f"{self.name}:{r}"

    @staticmethod
    def family_of(outcome: str) -> str:
        return outcome.partition(":")[0]


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """Everything needed to run and measure one protocol."""

    id: str
    layout: RegisterLayout
    steps: tuple[WalkStep, ...]
    alice_coins: tuple[str, ...]
    bob_coins: tuple[str, ...]
    plus_coins: tuple[str, ...]
    measured_positions: tuple[str, ...]
    measured_coins: tuple[str, ...]
    target_coins: tuple[str, ...]
    position_families: tuple[PositionFamily, ...]
    qubits: int

    def __post_init__(self) -> None:
        if len(self.steps) != 4:
            raise InvalidDefinition("a protocol has exactly four walk steps")
        if set(self.target_coins) & set(self.measured_coins):
            raise InvalidDefinition("target coins must be disjoint from measured coins")
        families = self.position_families
        if any(f.registers != self.measured_positions for f in families):
            raise InvalidDefinition("every position family measures the measured positions")
        members = [m for f in families for m in f.members]
        if len(set(members)) != len(members) or len({f.name for f in families}) != len(families):
            raise InvalidDefinition("position families must not share a member or a name")


def _position_families(
    regs: tuple[str, ...], jumps: dict[tuple[int, ...], int], prefix: str | None, cyclic: bool
) -> tuple[PositionFamily, ...]:
    """The plan by the module docstring's agreement rule; a position sums two ``jumps``."""
    reach: dict[tuple[int, ...], set[int]] = {}
    for ins, outs in itertools.product(jumps, repeat=2):
        agree = tuple(int(i == o) for i, o in zip(ins, outs))
        value = jumps[ins] + jumps[outs]
        reach.setdefault(agree, set()).add(value % 4 if cyclic else value)
    families = []
    for walkers in itertools.product(sorted(reach.items()), repeat=len(regs)):
        pattern = sum((agree for agree, _ in walkers), ())
        members = tuple(sorted(itertools.product(*(values for _, values in walkers))))
        if prefix is None:
            key, name = pattern, "".join(str(abs(v)) for v in members[0])
        else:
            half = len(pattern) // 2
            key = pattern[half:] + pattern[:half]
            name = f"{prefix}{bits_to_index(key)}"
        families.append((key, PositionFamily(name, regs, members)))
    return tuple(family for _, family in sorted(families))  # keys are distinct


def _walk_protocol(
    pid: str,
    qubits: int,
    walkers_per_party: int,
    prefix: str | None,
    bound: int,
    cyclic: bool,
) -> ProtocolSpec:
    """The paper's four-step scheme for one choice of walkers and coins.

    Each party's input coins move its own walkers, then each party's output
    coins, after a Hadamard, move the other party's walkers.  A walker moved
    by two coins jumps by the two-coin rule.  On the 4-cycle the output
    coins start in |+> instead of getting the Hadamard.
    """

    def names(role: str, count: int) -> tuple[str, ...]:
        return (role,) if count == 1 else tuple(f"{role}{k}" for k in range(count))

    pos = {p: names(f"{p}_pos", walkers_per_party) for p in "ab"}
    ins = {p: names(f"{p}_in", qubits) for p in "ab"}
    outs = {p: names(f"{p}_out", qubits) for p in "ab"}
    per_walker = qubits // walkers_per_party
    rule = single_coin_shift_rule if per_walker == 1 else two_coin_shift_rule

    def step(coins: tuple[str, ...], walkers: tuple[str, ...], hadamard: bool) -> WalkStep:
        return WalkStep(
            gates=tuple((c, HADAMARD) for c in coins) if hadamard else (),
            shifts=tuple(
                ConditionedShift(w, coins[k * per_walker : (k + 1) * per_walker], rule())
                for k, w in enumerate(walkers)
            ),
        )

    pos_names = pos["a"] + pos["b"]
    return ProtocolSpec(
        id=pid,
        layout=RegisterLayout(
            tuple(cycle(p, 4) if cyclic else lattice(p, bound) for p in pos_names)
            + tuple(coin(c) for c in ins["a"] + outs["a"] + ins["b"] + outs["b"])
        ),
        steps=(
            step(ins["a"], pos["a"], False),
            step(ins["b"], pos["b"], False),
            step(outs["a"], pos["b"], not cyclic),
            step(outs["b"], pos["a"], not cyclic),
        ),
        alice_coins=ins["a"],
        bob_coins=ins["b"],
        plus_coins=outs["a"] + outs["b"] if cyclic else (),
        measured_positions=pos_names,
        measured_coins=ins["a"] + ins["b"],
        target_coins=outs["a"] + outs["b"],
        position_families=_position_families(pos_names, rule(), prefix, cyclic),
        qubits=qubits,
    )


def get_protocol(protocol_id: str, bound: int = DEFAULT_BOUND) -> ProtocolSpec:
    """The protocol's spec, one shared object per (id, bound).

    Compiled branch maps, tables and oracle matrices are cached on the spec
    object itself, so every caller asking for one configuration must get
    the same object.  States built for a spec prune at ``PRUNE_TOL``.
    """
    return _protocol(protocol_id, bound)


# Per protocol: qubits, walkers per party, family name prefix, cyclic.
_TEMPLATE_ARGS = {
    "line1q": (1, 1, None, False),
    "cycle1q": (1, 1, None, True),
    "single2q": (2, 2, "P", False),
    "twostep2q": (2, 1, "Q", False),
}


@functools.cache
def _protocol(protocol_id: str, bound: int) -> ProtocolSpec:
    if protocol_id not in _TEMPLATE_ARGS:
        raise UnknownProtocol(f"unknown protocol {protocol_id!r}; choose from {PROTOCOL_IDS}")
    qubits, walkers, prefix, cyclic = _TEMPLATE_ARGS[protocol_id]
    return _walk_protocol(protocol_id, qubits, walkers, prefix, bound, cyclic)


def check_payload(spec: ProtocolSpec, payload: Payload) -> None:
    """Raise ShapeMismatch unless the payload fits the protocol."""
    if payload.qubits != spec.qubits:
        raise ShapeMismatch(
            f"{spec.id} needs {2**spec.qubits}-component payloads, "
            f"got {len(payload.alice)}"
        )


def stack_payloads(
    spec: ProtocolSpec, payloads: Sequence[Payload]
) -> tuple[np.ndarray, np.ndarray]:
    """The payloads' Alice and Bob vectors as two ``(n, d)`` arrays, each payload checked."""
    for payload in payloads:
        check_payload(spec, payload)
    shape = (len(payloads), 2**spec.qubits)  # (0, d) when there are no payloads
    return tuple(
        np.array([getattr(p, name) for p in payloads], dtype=complex).reshape(shape)
        for name in ("alice", "bob")
    )


def initial_blocks(
    spec: ProtocolSpec,
) -> list[tuple[list[tuple[int, ...]], str | tuple[float, ...]]]:
    """The initial product state's factors in layout order: each block's parts and weights.

    A payload block's weights are ``"alice"`` or ``"bob"``: that vector, in part order.
    """
    plus = 1.0 / math.sqrt(2.0)
    blocks: list[tuple[list[tuple[int, ...]], str | tuple[float, ...]]] = []
    consumed: set[str] = set()
    for reg in spec.layout:
        if reg.name in consumed:
            continue
        if reg.name in (spec.alice_coins[0], spec.bob_coins[0]):
            party = "alice" if reg.name == spec.alice_coins[0] else "bob"
            names = spec.alice_coins if party == "alice" else spec.bob_coins
            blocks.append((list(itertools.product((0, 1), repeat=len(names))), party))
            consumed.update(names)
        elif reg.name in spec.plus_coins:
            blocks.append(([(0,), (1,)], (plus, plus)))
        else:
            blocks.append(([(0,)], (1.0,)))
    return blocks


def build_initial(spec: ProtocolSpec, payload: Payload) -> SparseState:
    """Product state: walkers at the origin, payloads on the *_in coins."""
    check_payload(spec, payload)
    terms: list[tuple[tuple[int, ...], complex]] = [((), 1.0 + 0.0j)]
    for parts, weights in initial_blocks(spec):
        if isinstance(weights, str):
            weights = getattr(payload, weights)
        terms = [
            (label + part, amp * w)
            for label, amp in terms
            for part, w in zip(parts, weights)
            if w != 0.0
        ]
    return SparseState(spec.layout, dict(terms))


@functools.cache
def walk_program(spec: ProtocolSpec) -> WalkProgram:
    """The spec's walk compiled once per spec object; its arrays are read-only."""
    return compile_walk(spec.layout, initial_blocks(spec), spec.steps)


def walk_states(spec: ProtocolSpec, payload: Payload) -> list[SparseState]:
    """The initial state followed by the state after each of the four steps."""
    program = walk_program(spec)
    stages = program.run(*stack_payloads(spec, [payload]))
    return [program.state(k, re[0], im[0]) for k, (re, im) in enumerate(stages)]


def run_walks(spec: ProtocolSpec, payload: Payload) -> SparseState:
    """Pre-measurement state after all four walk steps."""
    program = walk_program(spec)
    re, im = program.run(*stack_payloads(spec, [payload]))[-1]
    return program.state(-1, re[0], im[0])
