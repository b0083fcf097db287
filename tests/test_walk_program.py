"""The compiled walk program against the dict engine, its reference, bit for bit.

The dict engine is ``build_initial`` followed by ``apply_walk_step`` per
step.  Bits are compared on ``terms()``, with signed zeros told apart.
"""

import dataclasses
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from states import PAULI_X
from walkport import measure
from walkport.cli import main
from walkport.errors import NotUnitary, OutOfBounds, WrongRegisterKind
from walkport.hilbert import HADAMARD, RegisterLayout
from walkport.protocols import (
    PROTOCOL_IDS,
    Payload,
    build_initial,
    get_protocol,
    run_walks,
    seeded_payloads,
    stack_payloads,
    walk_program,
    walk_states,
)
from walkport.walkops import ConditionedShift, apply_walk_step

SRC = Path(__file__).resolve().parents[1] / "src"


def dict_states(spec, payload):
    states = [build_initial(spec, payload)]
    for step in spec.steps:
        states.append(apply_walk_step(states[-1], step))
    return states


def bits(state):
    return [(label, struct.pack("<dd", a.real, a.imag)) for label, a in state.terms()]


def basis_payloads(qubits):
    basis = np.eye(1 << qubits)
    return [Payload(a, b) for a in basis for b in basis]


def zero_component_payloads(qubits, count):
    """Imaginary Alice with one exact-zero component, and real Bob; many terms get a signed zero."""
    out = []
    for k, p in enumerate(seeded_payloads(61, count, qubits)):
        alice, bob = 1j * p.alice.real, p.bob.real
        alice[k % len(alice)] = 0.0
        out.append(Payload(alice / np.linalg.norm(alice), bob / np.linalg.norm(bob)))
    return out


def prune_path_payloads(qubits, count):
    """One component between 1e-16 and 1e-10, so that terms near ``PRUNE_TOL`` appear."""
    rng = np.random.default_rng(62)
    out = []
    for p in seeded_payloads(63, count, qubits):
        alice = p.alice.copy()
        alice[rng.integers(len(alice))] = 10.0 ** rng.uniform(-16, -10) * rng.choice([1, -1, 1j])
        out.append(Payload(alice / np.linalg.norm(alice), p.bob))
    return out


def reference_payloads(qubits):
    return (
        seeded_payloads(60, 40, qubits)
        + basis_payloads(qubits)
        + zero_component_payloads(qubits, 20)
        + prune_path_payloads(qubits, 40)
    )


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_walks_equal_the_dict_engine_bit_for_bit(pid):
    spec = get_protocol(pid)
    for payload in reference_payloads(spec.qubits):
        expected = [bits(s) for s in dict_states(spec, payload)]
        assert [bits(s) for s in walk_states(spec, payload)] == expected
        assert bits(run_walks(spec, payload)) == expected[-1]


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_a_stack_equals_its_one_row_runs(pid):
    spec = get_protocol(pid)
    program = walk_program(spec)
    alice, bob = stack_payloads(spec, reference_payloads(spec.qubits))
    stacked = program.run(alice, bob)
    for k in range(len(alice)):
        for (re, im), (re1, im1) in zip(stacked, program.run(alice[k : k + 1], bob[k : k + 1])):
            assert re[k : k + 1].tobytes() == re1.tobytes() and im[k : k + 1].tobytes() == im1.tobytes()


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_walk_map_equals_the_dict_engines(pid):
    # Column i*d + j is the dict engine's walk of (e_i, e_j), its amplitudes filled in as stored
    # and 0.0 elsewhere.
    spec = get_protocol(pid)
    labels, matrix = measure.walk_map(spec)
    walks = [dict_states(spec, payload)[-1] for payload in basis_payloads(spec.qubits)]
    dict_labels = tuple(sorted(set().union(*(w.amps for w in walks))))
    row = {label: k for k, label in enumerate(dict_labels)}
    dict_matrix = np.zeros((len(dict_labels), len(walks)), dtype=complex)
    for col, w in enumerate(walks):
        for label, amp in w.amps.items():
            dict_matrix[row[label], col] = amp
    assert labels == dict_labels
    assert matrix.shape == dict_matrix.shape and matrix.tobytes() == dict_matrix.tobytes()


def test_signed_zeros_when_a_payload_is_the_last_factor():
    # The built-in layouts end with constant factors, whose products clear
    # every -0.0 of the initial state.  With Bob's coin last, real and
    # imaginary payloads leave -0.0 parts until the first shift adds them to 0.0.
    spec = get_protocol("line1q")
    layout = RegisterLayout(
        [r for r in spec.layout if r.name != "b_in"] + [spec.layout.register("b_in")]
    )
    spec = dataclasses.replace(spec, layout=layout)
    negative_zeros = 0
    for p in seeded_payloads(64, 10, 1):
        alice, bob = (v.real / np.linalg.norm(v.real) for v in (p.alice, p.bob))
        for payload in (Payload(1j * alice, bob), Payload(alice, 1j * bob), Payload(alice, -bob)):
            expected = dict_states(spec, payload)
            assert [bits(s) for s in walk_states(spec, payload)] == [bits(s) for s in expected]
            parts = [x for _, a in expected[0].terms() for x in (a.real, a.imag)]
            negative_zeros += sum(x == 0.0 and math.copysign(1.0, x) < 0 for x in parts)
    assert negative_zeros > 0


def test_program_arrays_are_read_only():
    program = walk_program(get_protocol("single2q"))
    arrays = [column for _, column in program.blocks] + [
        a for ops in program.steps for op in ops for a in vars(op).values() if isinstance(a, np.ndarray)
    ]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = 0


BOUND_ERRORS = [
    ("line1q", 1, "shift +1 from 1 exits [-1, 1] on register 'b_pos'"),
    ("single2q", 1, "shift +1 from 1 exits [-1, 1] on register 'b_pos0'"),
    ("twostep2q", 1, "shift +2 from 0 exits [-1, 1] on register 'a_pos'"),
    ("twostep2q", 2, "shift +2 from 2 exits [-2, 2] on register 'b_pos'"),
    ("twostep2q", 3, "shift +2 from 2 exits [-3, 3] on register 'b_pos'"),
]


@pytest.mark.parametrize("pid, bound, message", BOUND_ERRORS)
def test_too_small_bound_is_the_dict_engines_error(pid, bound, message, capsys):
    assert main(["run", pid, "--bound", str(bound)]) == 2
    assert capsys.readouterr().err == f"error: OutOfBounds: {message}\n"


def walk_error(walk):
    try:
        walk()
    except OutOfBounds as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("pid", ["line1q", "single2q", "twostep2q"])
def test_out_of_bounds_only_where_the_dict_engine_raises_and_with_its_message(pid):
    # Basis and zero-component payloads leave out terms, which moves the first
    # exiting term in the dict engine's insertion order.
    for bound in (1, 2, 3):
        spec = get_protocol(pid, bound)
        payloads = basis_payloads(spec.qubits) + zero_component_payloads(spec.qubits, 8)
        messages = []
        for payload in payloads:
            expected = walk_error(lambda: dict_states(spec, payload))
            assert walk_error(lambda: run_walks(spec, payload)) == expected
            if expected is None:
                assert bits(run_walks(spec, payload)) == bits(dict_states(spec, payload)[-1])
            messages.append(expected)
        # A stack raises for its first payload that leaves the lattice.
        for k in range(len(payloads)):
            first = next((m for m in messages[k:] + messages[:k] if m is not None), None)
            stack = stack_payloads(spec, payloads[k:] + payloads[:k])
            assert walk_error(lambda: walk_program(spec).run(*stack)) == first


def test_a_walk_inside_a_small_lattice_does_not_raise():
    # twostep2q at bound 3 has exiting labels, but jumps of +-1 stay inside.
    spec = get_protocol("twostep2q", 3)
    payload = Payload(np.eye(4)[1], np.eye(4)[2])
    assert any(getattr(op, "keep", None) is not None for ops in walk_program(spec).steps for op in ops)
    assert bits(run_walks(spec, payload)) == bits(dict_states(spec, payload)[-1])


def with_step(spec, k, **changes):
    step = dataclasses.replace(spec.steps[k], **changes)
    return dataclasses.replace(spec, steps=spec.steps[:k] + (step,) + spec.steps[k + 1 :])


@pytest.mark.parametrize(
    "mutate, error",
    [
        (lambda s: with_step(s, 2, gates=(("a_out", 2 * PAULI_X),)), NotUnitary),
        (lambda s: with_step(s, 2, gates=(("a_pos", HADAMARD),)), WrongRegisterKind),
        (lambda s: with_step(s, 0, shifts=(ConditionedShift("a_out", ("a_in",)),)), WrongRegisterKind),
    ],
)
def test_the_compile_raises_what_the_step_functions_raise(mutate, error):
    spec = mutate(get_protocol("line1q"))
    with pytest.raises(error):
        dict_states(spec, basis_payloads(1)[0])
    with pytest.raises(error):
        walk_program(spec)


DIGEST = """
import hashlib
from numpy._core._multiarray_umath import __cpu_features__
from walkport.protocols import PROTOCOL_IDS, get_protocol, seeded_payloads, stack_payloads, walk_program
digest = hashlib.sha256()
for pid in PROTOCOL_IDS:
    spec = get_protocol(pid)
    for re, im in walk_program(spec).run(*stack_payloads(spec, seeded_payloads(5, 200, spec.qubits))):
        digest.update(re.tobytes() + im.tobytes())
print(__cpu_features__["X86_V3"], digest.hexdigest())
"""

LOW_DISPATCH = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3")


def test_program_bits_do_not_depend_on_simd_dispatch():
    # Below X86_V3, numpy's vector complex multiply rounds differently on
    # some CPUs; the written-out float products must not.
    available = [f for f in LOW_DISPATCH if __cpu_features__.get(f)]
    if "X86_V3" not in available:
        pytest.skip("this CPU has no X86_V3 dispatch to turn off")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    low = {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(available)}
    (v3, plain), (low_v3, lowered) = (
        subprocess.run(
            [sys.executable, "-c", DIGEST], env=e, capture_output=True, text=True, check=True
        ).stdout.split()
        for e in (env, low)
    )
    assert (v3, low_v3) == ("True", "False")
    assert plain == lowered
