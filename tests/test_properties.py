"""Property-based checks of the engine invariants."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from states import densify, normalized
from walkport.hilbert import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    RegisterLayout,
    SparseState,
    apply_coin_gate,
    coin,
    cycle,
    inner_product,
    lattice,
    superpose,
)
from walkport import oracle
from walkport.walkops import ConditionedShift, apply_conditioned_shift

LAYOUT = RegisterLayout([lattice("p", 6), cycle("q", 4), coin("c"), coin("d")])

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")


def labels_strategy():
    return st.tuples(
        st.integers(-4, 4), st.integers(0, 3), st.integers(0, 1), st.integers(0, 1)
    )


def amplitudes_strategy():
    part = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part).filter(lambda z: abs(z) > 1e-3)


def states_strategy(max_terms=6):
    return st.dictionaries(labels_strategy(), amplitudes_strategy(), min_size=1, max_size=max_terms).map(
        lambda amps: normalized(superpose(LAYOUT, list(amps.items())))
    )


@given(states_strategy())
def test_coin_gates_preserve_norm(state):
    for gate in (HADAMARD, PAULI_X, PAULI_Z):
        out = apply_coin_gate(state, "c", gate)
        assert abs(out.norm2() - state.norm2()) < 1e-10


@given(states_strategy())
def test_conditioned_shift_preserves_norm_and_inverts(state):
    cs = ConditionedShift("p", ("c",))
    out = apply_conditioned_shift(state, cs)
    assert abs(out.norm2() - state.norm2()) < 1e-10
    inverse = ConditionedShift("p", ("c",), {k: -v for k, v in cs.rule.items()})
    back = apply_conditioned_shift(out, inverse)
    assert back.max_delta(state) < 1e-12


@given(states_strategy())
def test_cyclic_shift_two_coin_rule_preserves_norm(state):
    from walkport.walkops import two_coin_shift_rule

    cs = ConditionedShift("q", ("c", "d"), two_coin_shift_rule())
    out = apply_conditioned_shift(state, cs)
    assert abs(out.norm2() - state.norm2()) < 1e-10


@given(states_strategy(), states_strategy())
def test_inner_product_hermitian(x, y):
    assert abs(inner_product(x, y) - inner_product(y, x).conjugate()) < 1e-12


@given(states_strategy(), states_strategy(), amplitudes_strategy(), amplitudes_strategy())
def test_gates_are_linear(x, y, alpha, beta):
    combined = superpose(
        LAYOUT,
        [(l, alpha * a) for l, a in x.amps.items()]
        + [(l, beta * a) for l, a in y.amps.items()],
    )
    lhs = apply_coin_gate(combined, "d", HADAMARD)
    rhs = superpose(
        LAYOUT,
        [(l, alpha * a) for l, a in apply_coin_gate(x, "d", HADAMARD).amps.items()]
        + [(l, beta * a) for l, a in apply_coin_gate(y, "d", HADAMARD).amps.items()],
    )
    assert lhs.max_delta(rhs) < 1e-10


@given(states_strategy())
def test_serialization_is_deterministic_and_lossless(state):
    blob1 = json.dumps(state.to_json_dict(), sort_keys=True)
    blob2 = json.dumps(state.to_json_dict(), sort_keys=True)
    assert blob1 == blob2
    assert SparseState.from_json_dict(json.loads(blob1)).max_delta(state) < 1e-15


@given(states_strategy(), st.floats(1e-12, 1e-2))
def test_prune_norm_change_bounded(state, tol):
    kept = SparseState(state.layout, state.amps, tol)
    dropped = [a for l, a in state.amps.items() if abs(a) < tol]
    assert abs(kept.norm2() + sum(abs(a) ** 2 for a in dropped) - state.norm2()) < 1e-12
    assert all(abs(a) >= tol for a in kept.amps.values())


@given(states_strategy())
def test_densify_sparsify_roundtrip(state):
    vec = densify(state)
    back = oracle.sparsify(vec, LAYOUT, tol=0.0)
    assert back.max_delta(state) < 1e-14
    assert abs(np.linalg.norm(vec) ** 2 - state.norm2()) < 1e-12
