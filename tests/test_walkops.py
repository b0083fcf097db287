import numpy as np
import pytest

import chains
from states import allclose, basis_state
from walkport.errors import OutOfBounds, WrongRegisterKind
from walkport.hilbert import RegisterLayout, coin, cycle, lattice, superpose
from walkport.protocols import build_initial, get_protocol, random_payload, walk_states
from walkport.walkops import (
    ConditionedShift,
    WalkStep,
    apply_conditioned_shift,
    apply_walk_step,
    shift_value,
    two_coin_shift_rule,
)

LINE = get_protocol("line1q")
SMALL = RegisterLayout([lattice("p", 8), coin("c")])
RING = RegisterLayout([cycle("p", 4), coin("c")])


def test_shift_moves_per_coin_outcome():
    cs = ConditionedShift("a_pos", ("a_in",))
    s = apply_conditioned_shift(basis_state(LINE.layout, (0, 0, 0, 0, 0, 0)), cs)
    assert dict(s.amps) == {(1, 0, 0, 0, 0, 0): 1.0 + 0.0j}
    s = apply_conditioned_shift(basis_state(LINE.layout, (0, 0, 1, 0, 0, 0)), cs)
    assert dict(s.amps) == {(-1, 0, 1, 0, 0, 0): 1.0 + 0.0j}


def test_cycle_wraps_forward():
    cs = ConditionedShift("p", ("c",))
    s = apply_conditioned_shift(basis_state(RING, (3, 0)), cs)
    assert dict(s.amps) == {(0, 0): 1.0 + 0.0j}


def test_lattice_bound_exit_raises():
    cs = ConditionedShift("p", ("c",))
    with pytest.raises(OutOfBounds):
        apply_conditioned_shift(basis_state(SMALL, (8, 0)), cs)


def test_shift_value_rejects_coin():
    with pytest.raises(WrongRegisterKind):
        shift_value(coin("c"), 0, 1)


def test_rule_must_be_total():
    with pytest.raises(ValueError):
        ConditionedShift("p", ("c",), {(0,): 1})


def test_two_coin_shift_rule():
    rule = two_coin_shift_rule()
    assert rule[(0, 0)] == 2
    assert rule[(0, 1)] == 1
    assert rule[(1, 0)] == -1
    assert rule[(1, 1)] == -2


def test_shift_then_inverse_is_identity():
    rng = np.random.default_rng(0)
    cs = ConditionedShift("p", ("c",))
    inverse = ConditionedShift("p", ("c",), {k: -v for k, v in cs.rule.items()})
    for _ in range(20):
        pos = int(rng.integers(-4, 5))
        c = int(rng.integers(0, 2))
        s = superpose(SMALL, [((pos, c), 1.0)])
        back = apply_conditioned_shift(apply_conditioned_shift(s, cs), inverse)
        assert allclose(back, s, tol=1e-12)


@pytest.mark.parametrize(
    "stage, terms",
    [(1, chains.LINE_STAGE1), (2, chains.LINE_STAGE2), (3, chains.LINE_STAGE3), (4, chains.LINE_STAGE4)],
)
def test_line_walk_chain_matches_expected_terms(stage, terms):
    payload = random_payload(np.random.default_rng(9), 1)
    state = walk_states(LINE, payload)[stage]
    expected = chains.expected_state(terms, payload, chains.STAGE_PREFACTORS[stage - 1])
    assert len(state) == len(expected)
    for label, amp in expected.items():
        assert abs(state.amplitude(label) - amp) < 1e-12


def test_walk_step_preserves_norm_on_random_states():
    rng = np.random.default_rng(1)
    for spec_id in ("line1q", "cycle1q", "single2q", "twostep2q"):
        spec = get_protocol(spec_id)
        for _ in range(10):
            state = _random_state(spec, rng)
            for step in spec.steps:
                out = apply_walk_step(state, step)
                assert abs(out.norm2() - state.norm2()) < 1e-10
                state = out


def _random_state(spec, rng, terms=8):
    labels = set()
    while len(labels) < terms:
        label = []
        for reg in spec.layout:
            if reg.kind == "lattice":
                label.append(int(rng.integers(-4, 5)))
            elif reg.kind == "cycle":
                label.append(int(rng.integers(0, reg.size)))
            else:
                label.append(int(rng.integers(0, 2)))
        labels.add(tuple(label))
    amps = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    amps /= np.linalg.norm(amps)
    return superpose(spec.layout, list(zip(sorted(labels), amps)))


def test_walk_step_is_linear():
    rng = np.random.default_rng(2)
    spec = get_protocol("line1q")
    for _ in range(10):
        x = _random_state(spec, rng)
        y = _random_state(spec, rng)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        for step in spec.steps:
            combined = superpose(
                spec.layout,
                [(l, alpha * a) for l, a in x.amps.items()]
                + [(l, beta * a) for l, a in y.amps.items()],
            )
            lhs = apply_walk_step(combined, step)
            rhs = superpose(
                spec.layout,
                [(l, alpha * a) for l, a in apply_walk_step(x, step).amps.items()]
                + [(l, beta * a) for l, a in apply_walk_step(y, step).amps.items()],
            )
            assert lhs.max_delta(rhs) < 1e-10


def test_duplicate_shift_targets_rejected():
    with pytest.raises(ValueError):
        WalkStep(
            shifts=(
                ConditionedShift("a_pos", ("a_in",)),
                ConditionedShift("a_pos", ("b_in",)),
            )
        )


def test_even_support_walk_commutes_with_mod4_reduction():
    # Running the line steps and reducing positions mod 4 equals running the
    # cyclic steps on the reduced state, for states on even positions.
    line = get_protocol("line1q")
    cyc = get_protocol("cycle1q")
    payload = random_payload(np.random.default_rng(3), 1)
    line_state = build_initial(line, payload)
    cycle_state = build_initial(cyc, payload)
    # Match the cycle's |+> out-coins by applying the line's own gates first.
    for k in range(4):
        line_state = apply_walk_step(line_state, line.steps[k])
        cycle_state = apply_walk_step(cycle_state, cyc.steps[k])
    reduced = {
        tuple(v % 4 if i < 2 else v for i, v in enumerate(label)): amp
        for label, amp in line_state.amps.items()
    }
    assert set(reduced) == set(cycle_state.amps)
    assert all(abs(reduced[k] - cycle_state.amplitude(k)) < 1e-10 for k in reduced)
