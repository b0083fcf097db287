import collections

import numpy as np
import pytest

import chains
from states import is_normalized
from walkport import measure
from walkport.errors import NotNormalized, ShapeMismatch
from walkport.hilbert import HADAMARD
from walkport.protocols import (
    PROTOCOL_IDS,
    Payload,
    build_initial,
    get_protocol,
    random_payload,
    run_walks,
    seeded_payloads,
    walk_states,
)

EXPECTED_FAMILY_SIZES = (2, 2, 4, 2, 4, 4, 8, 2, 4, 4, 8, 4, 8, 8, 16)

# Jump size per control-coin outcome: nearest-neighbour and next-nearest.
ONE_COIN = {(0,): 1, (1,): -1}
TWO_COIN = {(0, 0): 2, (0, 1): 1, (1, 0): -1, (1, 1): -2}

# Per protocol: layout register names, then per step its Hadamard-gated
# registers and its shifts as (position, control coins, rule).
EXPECTED_TEMPLATE = {
    "line1q": (
        ("a_pos", "b_pos", "a_in", "a_out", "b_in", "b_out"),
        (
            ((), (("a_pos", ("a_in",), ONE_COIN),)),
            ((), (("b_pos", ("b_in",), ONE_COIN),)),
            (("a_out",), (("b_pos", ("a_out",), ONE_COIN),)),
            (("b_out",), (("a_pos", ("b_out",), ONE_COIN),)),
        ),
    ),
    "cycle1q": (
        ("a_pos", "b_pos", "a_in", "a_out", "b_in", "b_out"),
        (
            ((), (("a_pos", ("a_in",), ONE_COIN),)),
            ((), (("b_pos", ("b_in",), ONE_COIN),)),
            ((), (("b_pos", ("a_out",), ONE_COIN),)),
            ((), (("a_pos", ("b_out",), ONE_COIN),)),
        ),
    ),
    "single2q": (
        (
            "a_pos0", "a_pos1", "b_pos0", "b_pos1",
            "a_in0", "a_in1", "a_out0", "a_out1", "b_in0", "b_in1", "b_out0", "b_out1",
        ),
        (
            ((), (("a_pos0", ("a_in0",), ONE_COIN), ("a_pos1", ("a_in1",), ONE_COIN))),
            ((), (("b_pos0", ("b_in0",), ONE_COIN), ("b_pos1", ("b_in1",), ONE_COIN))),
            (
                ("a_out0", "a_out1"),
                (("b_pos0", ("a_out0",), ONE_COIN), ("b_pos1", ("a_out1",), ONE_COIN)),
            ),
            (
                ("b_out0", "b_out1"),
                (("a_pos0", ("b_out0",), ONE_COIN), ("a_pos1", ("b_out1",), ONE_COIN)),
            ),
        ),
    ),
    "twostep2q": (
        (
            "a_pos", "b_pos",
            "a_in0", "a_in1", "a_out0", "a_out1", "b_in0", "b_in1", "b_out0", "b_out1",
        ),
        (
            ((), (("a_pos", ("a_in0", "a_in1"), TWO_COIN),)),
            ((), (("b_pos", ("b_in0", "b_in1"), TWO_COIN),)),
            (("a_out0", "a_out1"), (("b_pos", ("a_out0", "a_out1"), TWO_COIN),)),
            (("b_out0", "b_out1"), (("a_pos", ("b_out0", "b_out1"), TWO_COIN),)),
        ),
    ),
}


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_template_layout_and_steps(pid):
    spec = get_protocol(pid)
    names, steps = EXPECTED_TEMPLATE[pid]
    assert spec.layout.names == names
    got = tuple(
        (
            tuple(reg for reg, _ in step.gates),
            tuple((s.position, s.coins, dict(s.rule)) for s in step.shifts),
        )
        for step in spec.steps
    )
    assert got == steps
    assert all(np.array_equal(gate, HADAMARD) for step in spec.steps for _, gate in step.gates)
    assert spec.plus_coins == (("a_out", "b_out") if pid == "cycle1q" else ())


def test_payload_validation():
    with pytest.raises(ShapeMismatch):
        Payload(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ShapeMismatch):
        Payload(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NotNormalized):
        Payload(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(NotNormalized):
        Payload(np.array([np.nan, 0.0]), np.array([1.0, 0.0]))


def test_random_payloads_are_unit_norm_and_seeded():
    a = seeded_payloads(5, 3, 2)
    b = seeded_payloads(5, 3, 2)
    for x, y in zip(a, b):
        assert np.allclose(x.alice, y.alice) and np.allclose(x.bob, y.bob)
        assert abs(np.linalg.norm(x.alice) - 1.0) < 1e-12


def looped_payloads(seed, count, qubits):
    """The reference draw: one vector at a time, real parts then imaginary parts."""
    rng = np.random.default_rng(seed)
    dim = 2**qubits

    def draw():
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    return [(draw(), draw()) for _ in range(count)]


@pytest.mark.parametrize("qubits", [1, 2])
def test_seeded_payloads_equal_the_per_vector_draw_bit_for_bit(qubits):
    for seed in range(200):
        for count in (1, 2, 25):
            drawn = seeded_payloads(seed, count, qubits)
            reference = looped_payloads(seed, count, qubits)
            assert len(drawn) == len(reference) == count
            for payload, (alice, bob) in zip(drawn, reference):
                assert np.array_equal(payload.alice.view(float), alice.view(float))
                assert np.array_equal(payload.bob.view(float), bob.view(float))
        assert np.array_equal(
            random_payload(np.random.default_rng(seed), qubits).bob, reference[0][1]
        )


def test_a_drawn_zero_vector_is_not_normalized(monkeypatch):
    # The vectorised division must leave the norm check to Payload.
    default_rng = np.random.default_rng

    class ZeroBobRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, shape):
            draw = self.rng.standard_normal(shape)
            draw[1:2, 1] = 0.0  # payload 1, if drawn: Bob, real and imaginary parts
            return draw

    monkeypatch.setattr(np.random, "default_rng", ZeroBobRng)
    assert len(seeded_payloads(3, 1, 2)) == 1
    with pytest.raises(NotNormalized, match="bob"):
        seeded_payloads(3, 2, 2)


def test_build_initial_line_basis_payload():
    spec = get_protocol("line1q")
    state = build_initial(spec, Payload(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
    assert dict(state.amps) == {(0, 0, 0, 0, 0, 0): 1.0 + 0.0j}


def test_build_initial_cycle_has_plus_ancillas():
    spec = get_protocol("cycle1q")
    state = build_initial(spec, Payload(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
    expected = {(0, 0, 0, x, 0, y): 0.5 for x in (0, 1) for y in (0, 1)}
    assert len(state) == 4
    for label, amp in expected.items():
        assert abs(state.amplitude(label) - amp) < 1e-12


def test_build_initial_single2q_matches_kron():
    spec = get_protocol("single2q")
    alice = np.array([0.5, 0.5, 0.5, 0.5])
    bob = np.array([1.0, 0.0, 0.0, 0.0])
    state = build_initial(spec, Payload(alice, bob))
    assert len(state) == 4
    assert is_normalized(state)
    for i in range(4):
        label = (0, 0, 0, 0, i >> 1, i & 1, 0, 0, 0, 0, 0, 0)
        assert abs(state.amplitude(label) - alice[i]) < 1e-12


def test_build_initial_shape_check():
    with pytest.raises(ShapeMismatch):
        build_initial(get_protocol("single2q"), Payload(np.array([1.0, 0]), np.array([1.0, 0])))


def test_run_walks_line_final_state():
    payload = random_payload(np.random.default_rng(11), 1)
    state = run_walks(get_protocol("line1q"), payload)
    expected = chains.expected_state(chains.LINE_STAGE4, payload, 0.5)
    assert len(state) == 16
    for label, amp in expected.items():
        assert abs(state.amplitude(label) - amp) < 1e-12


def test_run_walks_cycle_final_state():
    payload = random_payload(np.random.default_rng(12), 1)
    state = run_walks(get_protocol("cycle1q"), payload)
    expected = chains.expected_state(chains.CYCLE_FINAL, payload, 0.5)
    assert len(state) == 16
    for label, amp in expected.items():
        assert abs(state.amplitude(label) - amp) < 1e-12


def test_run_walks_twostep_basis_block():
    payload = Payload(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]))
    state = run_walks(get_protocol("twostep2q"), payload)
    assert len(state) == 16
    for label in chains.TWOSTEP_BASIS_BLOCK:
        assert abs(state.amplitude(label) - 0.25) < 1e-12


def test_every_step_preserves_normalization():
    for pid in PROTOCOL_IDS:
        spec = get_protocol(pid)
        payload = random_payload(np.random.default_rng(13), spec.qubits)
        for state in walk_states(spec, payload):
            assert is_normalized(state)


@pytest.mark.parametrize(
    "pid, checker",
    [
        ("line1q", lambda v: v in (-2, 0, 2)),
        ("cycle1q", lambda v: v in (0, 2)),
        ("single2q", lambda v: v in (-2, 0, 2)),
        ("twostep2q", lambda v: -4 <= v <= 4),
    ],
)
def test_support_structure(pid, checker):
    spec = get_protocol(pid)
    payload = random_payload(np.random.default_rng(14), spec.qubits)
    state = run_walks(spec, payload)
    positions = [spec.layout.index(n) for n in spec.measured_positions]
    for label in state.amps:
        assert all(checker(label[i]) for i in positions)


@pytest.mark.parametrize("pid, prefactor", [("line1q", 0.5), ("cycle1q", 0.5), ("single2q", 0.25), ("twostep2q", 0.25)])
def test_factorized_amplitude_dependence(pid, prefactor):
    # Every pre-measurement amplitude is prefactor * a_i * b_j for the (i, j)
    # encoded on the payload coins, with no extra sign for these protocols.
    spec = get_protocol(pid)
    payload = random_payload(np.random.default_rng(15), spec.qubits)
    state = run_walks(spec, payload)
    a_idx = [spec.layout.index(n) for n in spec.alice_coins]
    b_idx = [spec.layout.index(n) for n in spec.bob_coins]
    for label, amp in state.amps.items():
        i = int("".join(str(label[k]) for k in a_idx), 2)
        j = int("".join(str(label[k]) for k in b_idx), 2)
        quotient = amp / (payload.alice[i] * payload.bob[j])
        assert abs(quotient - prefactor) < 1e-10


def test_two_qubit_family_sizes():
    for pid, prefix in (("single2q", "P"), ("twostep2q", "Q")):
        spec = get_protocol(pid)
        names = [f.name for f in spec.position_families]
        assert names == [f"{prefix}{k}" for k in range(16)]
        by_name = {f.name: f for f in spec.position_families}
        assert by_name[f"{prefix}0"].members == ((0,) * len(spec.measured_positions),)
        sizes = tuple(len(by_name[f"{prefix}{k}"].members) for k in range(1, 16))
        assert sizes == EXPECTED_FAMILY_SIZES
    single = {f.name: f.members for f in get_protocol("single2q").position_families}
    assert single["P1"] == ((0, -2, 0, 0), (0, 2, 0, 0))
    assert single["P4"] == ((0, 0, 0, -2), (0, 0, 0, 2))
    twostep = {f.name: f.members for f in get_protocol("twostep2q").position_families}
    assert twostep["Q1"] == ((-1, 0), (1, 0))
    assert twostep["Q2"] == ((-3, 0), (3, 0))
    assert twostep["Q3"] == ((-4, 0), (-2, 0), (2, 0), (4, 0))
    assert twostep["Q4"] == ((0, -1), (0, 1))


def test_line_families():
    for pid in ("line1q", "cycle1q"):
        names = [f.name for f in get_protocol(pid).position_families]
        assert names == ["00", "02", "20", "22"]
    spec = get_protocol("line1q")
    by_name = {f.name: f.members for f in spec.position_families}
    assert by_name["00"] == ((0, 0),)
    assert by_name["02"] == ((0, -2), (0, 2))
    assert by_name["20"] == ((-2, 0), (2, 0))
    assert by_name["22"] == ((-2, -2), (-2, 2), (2, -2), (2, 2))
    cycle = [f.members for f in get_protocol("cycle1q").position_families]
    assert cycle == [((0, 0),), ((0, 2),), ((2, 0),), ((2, 2),)]


def test_families_tile_reachable_support():
    for pid in PROTOCOL_IDS:
        spec = get_protocol(pid)
        members = [m for f in spec.position_families for m in f.members]
        assert len(members) == len(set(members))
        payload = random_payload(np.random.default_rng(16), spec.qubits)
        state = run_walks(spec, payload)
        pos_idx = [spec.layout.index(n) for n in spec.measured_positions]
        support = {tuple(label[i] for i in pos_idx) for label in state.amps}
        assert support == set(members)


def agreement_pattern(spec, label):
    """For each measured walker and each pair of the coins that move it (its
    party's input coin, then the other party's output coin): are they equal?"""
    pattern = []
    for walker in spec.measured_positions:
        first, second = (s for step in spec.steps for s in step.shifts if s.position == walker)
        pattern += [
            label[spec.layout.index(i)] == label[spec.layout.index(o)]
            for i, o in zip(first.coins, second.coins)
        ]
    return tuple(pattern)


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_derived_plan_matches_the_simulated_walk(pid):
    spec = get_protocol(pid)
    labels, _ = measure.walk_map(spec)
    pos_idx = [spec.layout.index(n) for n in spec.measured_positions]
    family_by_member = {m: f.name for f in spec.position_families for m in f.members}
    assert {tuple(label[i] for i in pos_idx) for label in labels} == set(family_by_member)
    patterns = collections.defaultdict(set)
    for label in labels:
        family = family_by_member[tuple(label[i] for i in pos_idx)]
        patterns[family].add(agreement_pattern(spec, label))
    assert all(len(seen) == 1 for seen in patterns.values())
    assert len({seen.pop() for seen in patterns.values()}) == len(spec.position_families)


def test_unknown_protocol():
    with pytest.raises(KeyError):
        get_protocol("hexwalk")
