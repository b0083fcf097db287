import dataclasses

import pytest

from walkport.errors import NonFiniteAmplitude, UnknownPauliOp, WalkportError
from walkport.hilbert import Register, RegisterLayout, SparseState, coin
from walkport.measure import apply_pauli_string, pauli_masks
from walkport.protocols import PositionFamily, get_protocol
from walkport.walkops import ConditionedShift, WalkStep

LINE = get_protocol("line1q")
POSITIONS = LINE.measured_positions


def _with_family(family):
    return dataclasses.replace(LINE, position_families=LINE.position_families + (family,))


MALFORMED = {
    "register kind": lambda: Register("r", "spiral"),
    "register size": lambda: Register("r", "lattice", 0),
    "duplicate register": lambda: RegisterLayout([coin("x"), coin("x")]),
    "unsorted family": lambda: PositionFamily("f", ("p",), ((1,), (0,))),
    "family size": lambda: PositionFamily("f", ("p",), ((0,), (1,), (2,))),
    "step count": lambda: dataclasses.replace(LINE, steps=LINE.steps[:3]),
    "measured target": lambda: dataclasses.replace(LINE, target_coins=LINE.measured_coins),
    "family registers": lambda: dataclasses.replace(
        LINE, position_families=(PositionFamily("f", ("a_pos",), ((0,),)),)
    ),
    "shared family member": lambda: _with_family(PositionFamily("g", POSITIONS, ((0, 0),))),
    "shared family name": lambda: _with_family(PositionFamily("00", POSITIONS, ((1, 1),))),
    "partial rule": lambda: ConditionedShift("p", ("c",), {(0,): 1}),
    "step size": lambda: ConditionedShift("p", ("c",), {(0,): 1, (1,): 3}),
    "shared shift target": lambda: WalkStep(
        shifts=(ConditionedShift("p", ("a",)), ConditionedShift("p", ("b",)))
    ),
    "unknown protocol": lambda: get_protocol("hexwalk"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_definitions_raise_walkport_errors(case):
    # Still ValueError or KeyError too, so library callers catching those keep working.
    with pytest.raises(WalkportError) as err:
        MALFORMED[case]()
    assert isinstance(err.value, (ValueError, KeyError))


COIN = RegisterLayout([coin("c")])


def test_non_finite_amplitude_is_a_walkport_error():
    with pytest.raises(NonFiniteAmplitude) as err:
        SparseState(COIN, {(0,): complex("nan")})
    assert isinstance(err.value, WalkportError) and isinstance(err.value, ValueError)


def test_unknown_pauli_op_is_a_walkport_error():
    for read in (
        lambda: apply_pauli_string(SparseState(COIN, {(0,): 1.0}), [("c", "Y")]),
        lambda: pauli_masks((("c", "Y"),), ("c",)),
    ):
        with pytest.raises(UnknownPauliOp) as err:
            read()
        assert isinstance(err.value, WalkportError) and isinstance(err.value, ValueError)
