import json
import math

import numpy as np
import pytest

from states import (
    PAULI_X,
    allclose,
    basis_state,
    is_normalized,
    layout_from_descriptor,
    state_from_json_dict,
)
from walkport.errors import (
    EmptyState,
    InvalidLabel,
    NotUnitary,
    UnknownRegister,
    WrongRegisterKind,
)
from walkport.hilbert import (
    HADAMARD,
    PRUNE_TOL,
    RegisterLayout,
    SparseState,
    apply_coin_gate,
    below_prune_tol,
    coin,
    cycle,
    lattice,
    superpose,
)
from walkport.protocols import (
    PROTOCOL_IDS,
    build_initial,
    get_protocol,
    random_payload,
    walk_states,
)

LINE = get_protocol("line1q").layout
CYC = get_protocol("cycle1q").layout


def test_basis_state_single_term():
    s = basis_state(LINE, (0, 0, 0, 0, 0, 0))
    assert dict(s.amps) == {(0, 0, 0, 0, 0, 0): 1.0 + 0.0j}
    assert is_normalized(s)


def test_basis_state_rejects_coin_out_of_range():
    with pytest.raises(InvalidLabel):
        basis_state(LINE, (0, 0, 0, 0, 0, 2))


def test_basis_state_rejects_cycle_out_of_range():
    with pytest.raises(InvalidLabel):
        basis_state(CYC, (4, 0, 0, 0, 0, 0))


def test_basis_state_rejects_wrong_length():
    with pytest.raises(InvalidLabel):
        basis_state(LINE, (0, 0, 0))


def test_superpose_uniform_pair_is_plus_state():
    w = 1 / math.sqrt(2)
    s = superpose(LINE, [((0, 0, 0, 0, 0, 0), w), ((0, 0, 0, 0, 0, 1), w)])
    assert is_normalized(s)
    assert abs(s.amplitude((0, 0, 0, 0, 0, 1)) - w) < 1e-15


def test_superpose_merges_duplicate_labels():
    s = superpose(LINE, [((0, 0, 0, 0, 0, 0), 0.5), ((0, 0, 0, 0, 0, 0), 0.5)])
    assert dict(s.amps) == {(0, 0, 0, 0, 0, 0): 1.0 + 0.0j}


def test_superpose_empty_terms_rejected():
    with pytest.raises(EmptyState):
        superpose(LINE, [])


def test_superpose_product_expansion_matches_manual_kron():
    # Expanding (a0|0>+a1|1>) x (b0|0>+b1|1>) on the in-coins by hand must
    # agree with the initial-state builder.
    payload = random_payload(np.random.default_rng(1), 1)
    a, b = payload.alice, payload.bob
    terms = [
        ((0, 0, i, 0, j, 0), a[i] * b[j]) for i in (0, 1) for j in (0, 1)
    ]
    state = superpose(LINE, terms)
    spec = get_protocol("line1q")
    assert allclose(state, build_initial(spec, payload), tol=1e-14)
    assert len(state) == 4


def test_pre_measurement_state_is_normalized():
    # 16 terms of squared magnitude |a_i b_j / 2|^2 sum to 1.
    from walkport.protocols import run_walks

    payload = random_payload(np.random.default_rng(2), 1)
    state = run_walks(get_protocol("line1q"), payload)
    assert abs(state.norm2() - 1.0) < 1e-10


def test_apply_coin_gate_hadamard():
    s = apply_coin_gate(basis_state(LINE, (0, 0, 0, 0, 0, 0)), "a_out", HADAMARD)
    w = 1 / math.sqrt(2)
    assert abs(s.amplitude((0, 0, 0, 0, 0, 0)) - w) < 1e-15
    assert abs(s.amplitude((0, 0, 0, 1, 0, 0)) - w) < 1e-15


def test_apply_coin_gate_involution():
    payload = random_payload(np.random.default_rng(3), 1)
    s = build_initial(get_protocol("line1q"), payload)
    twice = apply_coin_gate(apply_coin_gate(s, "a_in", PAULI_X), "a_in", PAULI_X)
    assert allclose(twice, s, tol=1e-12)


def test_apply_coin_gate_bit_flips_restore_payload():
    # Flipping both output coins of the swapped-and-negated product state
    # yields the two payloads in their original orientation.
    payload = random_payload(np.random.default_rng(4), 1)
    a, b = payload.alice, payload.bob
    targets = RegisterLayout([coin("a_out"), coin("b_out")])
    before = superpose(
        targets,
        [((1 - i, 1 - j), b[i] * a[j]) for i in (0, 1) for j in (0, 1)],
    )
    after = apply_coin_gate(apply_coin_gate(before, "a_out", PAULI_X), "b_out", PAULI_X)
    expected = superpose(
        targets, [((i, j), b[i] * a[j]) for i in (0, 1) for j in (0, 1)]
    )
    assert allclose(after, expected, tol=1e-12)


def test_apply_coin_gate_rejects_position_register():
    s = basis_state(LINE, (0, 0, 0, 0, 0, 0))
    with pytest.raises(WrongRegisterKind):
        apply_coin_gate(s, "a_pos", PAULI_X)


def test_apply_coin_gate_rejects_non_unitary():
    s = basis_state(LINE, (0, 0, 0, 0, 0, 0))
    with pytest.raises(NotUnitary):
        apply_coin_gate(s, "a_in", np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_unknown_register():
    s = basis_state(LINE, (0, 0, 0, 0, 0, 0))
    with pytest.raises(UnknownRegister):
        apply_coin_gate(s, "nope", PAULI_X)


def test_prune_drops_tiny_entries():
    s = SparseState(LINE, {(0, 0, 0, 0, 0, 0): 1.0, (1, 0, 0, 0, 0, 0): 1e-15})
    assert len(s) == 1


def test_prune_keeps_balanced_state():
    w = 0.5
    labels = [(0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 1, 1, 0, 0)]
    s = superpose(LINE, [(l, w) for l in labels])
    pruned = SparseState(s.layout, s.amps)
    assert len(pruned) == 4
    assert abs(pruned.norm2() - s.norm2()) < 1e-10


def test_prune_leaves_generic_walk_state_intact():
    from walkport.protocols import run_walks

    payload = random_payload(np.random.default_rng(5), 1)
    state = run_walks(get_protocol("line1q"), payload)
    assert len(SparseState(state.layout, state.amps)) == 16


def test_array_prune_rounds_as_the_state_prune():
    # Magnitudes within a few ulps of the cut, where np.abs and abs round differently.
    rng = np.random.default_rng(7)
    size = PRUNE_TOL * (1 + rng.integers(-6, 7, 20000) * np.finfo(float).eps)
    angle = rng.uniform(0, 2 * math.pi, len(size))
    re, im = size * np.cos(angle), size * np.sin(angle)
    small = [abs(complex(r, i)) < PRUNE_TOL for r, i in zip(re.tolist(), im.tolist())]
    assert below_prune_tol(re, im).tolist() == small
    assert 0 < sum(small) < len(small)


def test_public_constructor_validates_labels():
    with pytest.raises(InvalidLabel):
        SparseState(LINE, {(0, 0, 0, 0, 0, 2): 1.0})
    with pytest.raises(InvalidLabel):
        SparseState(LINE, {(0, 0, 0): 1.0})


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_engine_stores_python_complex_amplitudes(pid):
    spec = get_protocol(pid)
    for state in walk_states(spec, random_payload(np.random.default_rng(8), spec.qubits)):
        assert all(type(amp) is complex for amp in state.amps.values())
        json.dumps(state.to_json_dict())


def test_non_finite_amplitude_rejected():
    with pytest.raises(ValueError):
        SparseState(LINE, {(0, 0, 0, 0, 0, 0): complex("inf")})


def test_serialization_roundtrip_and_determinism():
    payload = random_payload(np.random.default_rng(6), 1)
    from walkport.protocols import run_walks

    state = run_walks(get_protocol("line1q"), payload)
    blob1 = json.dumps(state.to_json_dict(), sort_keys=True)
    blob2 = json.dumps(run_walks(get_protocol("line1q"), payload).to_json_dict(), sort_keys=True)
    assert blob1 == blob2
    back = state_from_json_dict(json.loads(blob1))
    assert allclose(back, state, tol=1e-15)
    labels = [e["label"] for e in state.to_json_dict()["amps"]]
    assert labels == sorted(labels)


def test_layout_helpers():
    layout = RegisterLayout([lattice("p", 2), cycle("c", 4), coin("k")])
    assert layout.names == ("p", "c", "k")
    assert layout.register("p").dim == 5
    assert layout.without(["c"]).names == ("p", "k")
    assert layout_from_descriptor(layout.descriptor()) == layout
    with pytest.raises(ValueError):
        RegisterLayout([coin("x"), coin("x")])
