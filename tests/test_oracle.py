import math
import struct

import numpy as np
import pytest
import scipy.sparse as sp

import chains
from states import allclose, densify, label_to_index
from test_spec_mutations import first_jump_off_by_one
from walkport import cli, measure, oracle
from walkport.errors import DimensionOverflow, NonFiniteAmplitude
from walkport.hilbert import COIN, RegisterLayout, below_prune_tol, lattice
from walkport.protocols import (
    PROTOCOL_IDS,
    Payload,
    build_initial,
    get_protocol,
    random_payload,
    run_walks,
    seeded_payloads,
    stack_payloads,
    walk_program,
)


def test_densify_one_hot_indexing():
    spec = oracle.oracle_spec("line1q")
    state = build_initial(spec, random_payload(np.random.default_rng(0), 1))
    # Origin label sits at the index encoding (B, B, i, 0, j, 0), with B = 2.
    vec = densify(state)
    idx = label_to_index(spec.layout, (0, 0, 0, 0, 0, 0))
    assert abs(vec[idx] - state.amplitude((0, 0, 0, 0, 0, 0))) < 1e-15
    dim = oracle.layout_dim(spec.layout)
    indices = np.array([0, idx, dim - 1])
    back = oracle.support_state(spec.layout, indices, np.array([1.0, 2.0, 3.0]))
    assert list(back.amps) == [(-2, -2, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (2, 2, 1, 1, 1, 1)]
    assert [label_to_index(spec.layout, label) for label in back.amps] == indices.tolist()


def test_densify_sparsify_roundtrip_random_vectors():
    spec = oracle.oracle_spec("cycle1q")
    dim = oracle.layout_dim(spec.layout)
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    back = densify(oracle.sparsify(vec, spec.layout))
    assert np.abs(back - vec).max() < 1e-14


def test_final_state_roundtrips_with_16_nonzeros():
    spec = get_protocol("line1q")
    state = run_walks(spec, random_payload(np.random.default_rng(2), 1))
    vec = densify(state)
    assert int(np.count_nonzero(np.abs(vec) > 1e-12)) == 16
    assert allclose(oracle.sparsify(vec, spec.layout), state, tol=1e-14)


def test_dimension_cap():
    layout = RegisterLayout([lattice("p", 1 << 30)])
    with pytest.raises(DimensionOverflow):
        oracle.check_dim(layout)


# Per lattice protocol: the half-width its shift rules give, and the oracle's dimension.
DERIVED_TRUNCATIONS = {"line1q": (2, 400), "single2q": (2, 160_000), "twostep2q": (4, 20_736)}


def test_truncation_is_derived_from_the_shift_rules():
    for pid, (bound, dim) in DERIVED_TRUNCATIONS.items():
        assert oracle.reach(get_protocol(pid)) == bound
        assert oracle.oracle_spec(pid) is get_protocol(pid, bound)
        assert oracle.layout_dim(oracle.oracle_spec(pid).layout) == dim
    assert oracle.reach(get_protocol("cycle1q")) is None
    assert oracle.oracle_spec("cycle1q") is get_protocol("cycle1q")
    assert oracle.layout_dim(oracle.oracle_spec("cycle1q").layout) == 256


def test_reach_follows_a_mutated_shift_rule():
    # A +-1 jump that becomes +-2 widens the reach; a +-2 jump that becomes
    # +-1 leaves the larger jump of the same rule as the maximum.
    for pid, reach in (("line1q", 3), ("single2q", 3), ("twostep2q", 4)):
        assert oracle.reach(first_jump_off_by_one(get_protocol(pid))) == reach


@pytest.mark.parametrize("pid", DERIVED_TRUNCATIONS)
def test_one_more_site_changes_no_bit(pid):
    bound = oracle.reach(get_protocol(pid))
    derived, wider = get_protocol(pid, bound), get_protocol(pid, bound + 1)
    for k in range(4):
        assert oracle.cached_unitarity_defect(derived, k) == oracle.cached_unitarity_defect(wider, k)
    for payload in seeded_payloads(13, 5, derived.qubits):
        got, want = oracle.dense_run(derived, payload), oracle.dense_run(wider, payload)
        assert list(got.amps) == list(want.amps)
        assert [_bits(a) for a in got.amps.values()] == [_bits(a) for a in want.amps.values()]


@pytest.mark.parametrize("pid", DERIVED_TRUNCATIONS)
def test_one_site_short_disagrees_with_the_engine(pid):
    # Negative control: one site short of the reach, a walker wraps around.
    spec = get_protocol(pid)
    short = get_protocol(pid, oracle.reach(spec) - 1)
    for payload in seeded_payloads(13, 5, spec.qubits):
        assert oracle.dense_run(short, payload).max_delta(run_walks(spec, payload)) > 1e-10


def test_step_matrix_reproduces_first_transition():
    spec = oracle.oracle_spec("line1q")
    payload = random_payload(np.random.default_rng(3), 1)
    vec = densify(build_initial(spec, payload))
    out = oracle.cached_step_matrix(spec, 0) @ vec
    expected = chains.expected_state(chains.LINE_STAGE1, payload, 1.0)
    got = oracle.sparsify(out, spec.layout)
    assert len(got) == 4
    for label, amp in expected.items():
        assert abs(got.amplitude(label) - amp) < 1e-12


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_step_matrices_unitary(pid):
    spec = oracle.oracle_spec(pid)
    for k in range(4):
        defect = oracle.cached_unitarity_defect(spec, k)
        assert defect < 1e-10
        assert defect == oracle.unitarity_defect(oracle.step_matrix(spec, k))


@pytest.fixture
def fresh_defect_cache():
    """An empty defect cache, emptied again so no faked defect outlives the test."""
    oracle.cached_unitarity_defect.cache_clear()
    yield
    oracle.cached_unitarity_defect.cache_clear()


def test_defect_computed_once_per_protocol_bound_and_step(fresh_defect_cache, monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix.shape[0])
        return 0.0

    monkeypatch.setattr(oracle, "unitarity_defect", counting)
    small, large = get_protocol("line1q", 3), get_protocol("line1q", 4)
    for _ in range(2):
        for spec in (small, large):
            for k in range(4):
                oracle.cached_unitarity_defect(spec, k)
    dims = [oracle.layout_dim(small.layout), oracle.layout_dim(large.layout)]
    assert dims[0] != dims[1]
    assert calls == [dims[0]] * 4 + [dims[1]] * 4


def _plain_kron_chain(factors):
    out = None
    for factor in factors:
        if isinstance(factor, int):
            factor = sp.identity(factor, dtype=complex, format="csc")
        out = factor if out is None else sp.kron(out, factor, format="csc")
    return out.tocsc()


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_step_matrix_bitwise_equal_to_plain_kron_chain(pid, monkeypatch):
    spec = oracle.oracle_spec(pid)
    built = [oracle.cached_step_matrix(spec, k) for k in range(4)]
    monkeypatch.setattr(oracle, "_kron_chain", _plain_kron_chain)
    for k, matrix in enumerate(built):
        reference = oracle.step_matrix(spec, k)
        assert matrix.format == reference.format == "csc"
        for name in ("indptr", "indices", "data"):
            got, want = getattr(matrix, name), getattr(reference, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def step_matrix_dense(spec, step_index: int, cap: int = 4096) -> np.ndarray:
    """Dense ndarray form of a step matrix, for small spaces only."""
    dim = oracle.layout_dim(spec.layout)
    if dim > cap:
        raise DimensionOverflow(f"dense ndarray of dimension {dim} exceeds cap {cap}")
    return oracle.step_matrix(spec, step_index).toarray()


def test_dense_matrix_form_for_small_spaces():
    spec = oracle.oracle_spec("cycle1q")
    mat = step_matrix_dense(spec, 0)
    assert mat.shape == (256, 256)
    assert np.abs(mat.conj().T @ mat - np.eye(256)).max() < 1e-12
    big = oracle.oracle_spec("single2q")
    with pytest.raises(DimensionOverflow):
        step_matrix_dense(big, 0)


def dense_initial(spec, payload) -> np.ndarray:
    """Initial product state assembled directly with numpy Kronecker products."""
    factors: list[np.ndarray] = []
    consumed: set[str] = set()
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for reg in spec.layout:
        if reg.name in consumed:
            continue
        if reg.name in (spec.alice_coins[0], spec.bob_coins[0]):
            alice_side = reg.name == spec.alice_coins[0]
            factors.append(np.asarray(payload.alice if alice_side else payload.bob))
            consumed.update(spec.alice_coins if alice_side else spec.bob_coins)
        elif reg.name in spec.plus_coins:
            factors.append(plus)
        elif reg.kind == COIN:
            factors.append(np.array([1.0, 0.0], dtype=complex))
        else:
            vec = np.zeros(reg.dim, dtype=complex)
            vec[oracle.value_index(reg, 0)] = 1.0
            factors.append(vec)
    out = factors[0]
    for factor in factors[1:]:
        out = np.kron(out, factor)
    return out


def _bits(amp: complex) -> bytes:
    return struct.pack("<dd", amp.real, amp.imag)


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_support_run_bitwise_equal_to_dense_evolution(pid):
    # The reference is the dense evolution: the full initial vector, one CSR
    # mat-vec over every row per step, then sparsify.  The basis payloads
    # give exact zeros inside the reach; one site short, walkers wrap around.
    spec = get_protocol(pid)
    payloads = seeded_payloads(21, 5, spec.qubits) + _basis_payloads(spec.qubits)
    alice, bob = stack_payloads(spec, payloads)
    for ospec in _oracle_specs(pid):
        reaches, matrices = cached = oracle.step_reach(ospec)
        assert oracle.step_reach(ospec) is cached
        arrays = [*reaches, *(getattr(m, f) for m in matrices for f in ("data", "indices", "indptr"))]
        assert not any(array.flags.writeable for array in arrays)
        assert all(m.format == "csr" and m.has_sorted_indices for m in matrices)
        csr = [oracle.cached_step_matrix(ospec, k).tocsr() for k in range(4)]
        indices, values = oracle.initial_values(ospec, alice, bob)
        chunk = oracle.dense_values(ospec, alice, bob)
        for i, payload in enumerate(payloads):
            vec = dense_initial(ospec, payload)
            assert np.array_equal(indices, reaches[0])
            assert not np.any(np.delete(vec, indices))
            assert [_bits(v) for v in values[i].tolist()] == [_bits(v) for v in vec[indices].tolist()]
            for matrix in csr:
                vec = matrix @ vec
            assert not np.any(np.delete(vec, reaches[-1]))
            kept = np.where(below_prune_tol(vec.real, vec.imag), 0.0, vec)[reaches[-1]]
            assert [_bits(v) for v in chunk[:, i].tolist()] == [_bits(v) for v in kept.tolist()]
            want = oracle.sparsify(vec, ospec.layout)
            got = oracle.dense_run(ospec, payload)
            assert list(got.amps) == list(want.amps)
            assert all(type(amp) is complex for amp in got.amps.values())
            assert [_bits(a) for a in got.amps.values()] == [_bits(a) for a in want.amps.values()]


@pytest.fixture
def fresh_reach_cache():
    """An empty reach cache, emptied again so no reach of a faked matrix outlives the test."""
    oracle.step_reach.cache_clear()
    yield
    oracle.step_reach.cache_clear()


def test_reach_products_sum_like_a_full_space_mat_vec(fresh_reach_cache, monkeypatch):
    # Every row of the walks' restricted step matrices holds one term, so
    # random real matrices stand in for them here: their rows hold several
    # terms, which makes the summation order visible in the bits.
    spec = oracle.oracle_spec("cycle1q")
    dim = oracle.layout_dim(spec.layout)
    rng = np.random.default_rng(12)
    fakes = []
    for _ in range(4):
        dense = rng.standard_normal((dim, dim))
        dense[rng.random((dim, dim)) < 0.97] = 0.0
        fakes.append(sp.csc_matrix(dense.astype(complex)))
    monkeypatch.setattr(oracle, "cached_step_matrix", lambda spec, k: fakes[k])
    payloads = seeded_payloads(5, 3, spec.qubits)
    chunk = oracle.dense_values(spec, *stack_payloads(spec, payloads))
    reach = oracle.step_reach(spec)[0][-1]
    assert max(np.diff(m.indptr).max() for m in oracle.step_reach(spec)[1]) > 2
    for i, payload in enumerate(payloads):
        vec = dense_initial(spec, payload)
        for matrix in fakes:
            vec = matrix.tocsr() @ vec
        assert not np.any(np.delete(vec, reach))
        kept = np.where(below_prune_tol(vec.real, vec.imag), 0.0, vec)[reach]
        assert [_bits(v) for v in chunk[:, i].tolist()] == [_bits(v) for v in kept.tolist()]


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_dense_path_matches_sparse_engine(pid):
    spec = get_protocol(pid)
    ospec = oracle.oracle_spec(pid)
    for payload in seeded_payloads(9, 5, spec.qubits):
        dense = oracle.dense_run(ospec, payload)
        sparse = run_walks(spec, payload)
        keys = set(dense.amps) | set(sparse.amps)
        delta = max(abs(dense.amplitude(k) - sparse.amplitude(k)) for k in keys)
        assert delta < 1e-10


def test_matrix_product_equals_run_walks():
    spec = oracle.oracle_spec("line1q")
    payload = random_payload(np.random.default_rng(4), 1)
    vec = densify(build_initial(spec, payload))
    for k in range(4):
        vec = oracle.cached_step_matrix(spec, k) @ vec
    final = run_walks(get_protocol("line1q"), payload)
    got = oracle.sparsify(vec, spec.layout)
    keys = set(got.amps) | set(final.amps)
    assert max(abs(got.amplitude(k) - final.amplitude(k)) for k in keys) < 1e-10


@pytest.mark.parametrize(
    "pid, map_delta",
    [("line1q", 0.0), ("cycle1q", 0.0), ("single2q", 2.78e-17), ("twostep2q", 2.78e-17)],
)
def test_oracle_walk_map_bounds_the_delta_of_every_payload(pid, map_delta):
    # Both sides are linear in x = alice ⊗ bob, and |x|_1 <= d for unit
    # payloads, so max|ΔW| over the d² basis walks bounds every payload's
    # engine-oracle delta by d * max|ΔW| (up to the rounding of W @ x).
    spec = get_protocol(pid)
    labels, walks = measure.walk_map(spec)
    d = 1 << spec.qubits
    basis = np.eye(d)
    finals = [
        oracle.dense_run(oracle.oracle_spec(pid), Payload(basis[i], basis[j]))
        for i in range(d)
        for j in range(d)
    ]
    assert tuple(sorted(set().union(*(f.amps for f in finals)))) == labels
    dense = np.array([[f.amplitude(label) for f in finals] for label in labels])
    delta = np.abs(dense - walks).max()
    assert delta <= map_delta
    assert d * delta <= 1.12e-16


def _basis_payloads(qubits: int) -> list[Payload]:
    basis = np.eye(1 << qubits)
    return [Payload(a, b) for a in basis for b in basis]


def _oracle_specs(pid):
    """The oracle's spec and, on a lattice, the spec one site short of the reach."""
    spec = get_protocol(pid)
    bound = oracle.reach(spec)
    return [oracle.oracle_spec(pid)] + ([] if bound is None else [get_protocol(pid, bound - 1)])


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_state_delta_bitwise_equal_to_max_delta_of_the_states(pid):
    # One site short, a walker wraps around: the oracle then has terms that
    # no program label pairs with, and the program has labels outside the
    # space.  The basis payloads give exact zeros on both sides.
    spec = get_protocol(pid)
    program = walk_program(spec)
    payloads = seeded_payloads(17, 20, spec.qubits) + _basis_payloads(spec.qubits)
    alice, bob = stack_payloads(spec, payloads)
    re, im = program.run(alice, bob)[-1]
    for ospec in _oracle_specs(pid):
        got = oracle.payload_deltas(program, ospec, alice, bob, re, im).tolist()
        want = [oracle.dense_run(ospec, p).max_delta(run_walks(spec, p)) for p in payloads]
        assert [_bits(d) for d in got] == [_bits(d) for d in want]
        slots = oracle.label_slots(program, ospec)
        assert slots is oracle.label_slots(program, ospec) and not slots.flags.writeable
        if ospec is oracle.oracle_spec(pid):
            assert max(got) < 1e-10
        else:
            assert min(got[:20]) > 1e-10


def test_label_slots_invert_support_state():
    # A label's slot is its row in the final reach; support_state's unravel_index of
    # that row's flat index gives the label back.  A label with no row is outside the
    # truncated space, which happens only one site short of the reach.
    for pid in PROTOCOL_IDS:
        program = walk_program(get_protocol(pid))
        labels = program.labels[-1]
        for ospec in _oracle_specs(pid):
            final = oracle.step_reach(ospec)[0][-1]
            slots = oracle.label_slots(program, ospec)
            assert slots is oracle.label_slots(program, ospec) and not slots.flags.writeable
            rows, unpaired = slots[: len(labels)], slots[len(labels) :]
            paired = rows < len(final)
            back = oracle.support_state(ospec.layout, final[rows[paired]], np.ones(paired.sum()))
            assert list(back.amps) == [label for label, kept in zip(labels, paired) if kept]
            outside = [label for label, kept in zip(labels, paired) if not kept]
            for label in outside:
                assert not all(reg.admits(v) for reg, v in zip(ospec.layout, label))
            assert bool(outside) == (ospec is not oracle.oracle_spec(pid))
            # The rows no label pairs with follow, so each row is compared once.
            assert sorted([*rows[paired], *unpaired]) == list(range(len(final)))


@pytest.mark.parametrize("side", ["oracle", "program"])
def test_non_finite_amplitude_on_either_side_raises(side, monkeypatch):
    spec = get_protocol("line1q")
    ospec = oracle.oracle_spec("line1q")
    program = walk_program(spec)
    (payload,) = seeded_payloads(0, 1, spec.qubits)
    alice, bob = stack_payloads(spec, [payload])
    re, im = (part.copy() for part in program.run(alice, bob)[-1])
    if side == "oracle":
        dense_values = oracle.dense_values

        def poisoned(spec, alice, bob):
            values = dense_values(spec, alice, bob)
            return np.where(np.arange(len(values))[:, None] == 3, np.nan, values)

        monkeypatch.setattr(oracle, "dense_values", poisoned)
    else:
        im[0, 5] = np.nan
    with pytest.raises(NonFiniteAmplitude):
        oracle.payload_deltas(program, ospec, alice, bob, re, im)


def _reference_report(seed: int, count: int) -> str:
    """The ``oracle-check`` report, with each delta taken between the two states."""
    checks = []
    for pid in PROTOCOL_IDS:
        spec, ospec = get_protocol(pid), oracle.oracle_spec(pid)
        defects = [oracle.cached_unitarity_defect(ospec, k) for k in range(4)]
        max_delta = 0.0
        for payload in seeded_payloads(seed, count, spec.qubits):
            max_delta = max(max_delta, oracle.dense_run(ospec, payload).max_delta(run_walks(spec, payload)))
        ok = max(defects) < cli.ORACLE_TOL and max_delta < cli.ORACLE_TOL
        checks.append(
            {
                "protocol": pid,
                "unitarity_defects": defects,
                "max_state_delta": max_delta,
                "payloads": count,
                "ok": ok,
            }
        )
    report = {
        "schema": cli.SCHEMA,
        "command": "oracle-check",
        "seed": seed,
        "tolerance": cli.ORACLE_TOL,
        "checks": checks,
        "ok": all(check["ok"] for check in checks),
    }
    return cli.report_text(report)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_oracle_check_report_equals_the_state_reference(seed, count, tmp_path):
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--seed", str(seed), "--count", str(count), "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == _reference_report(seed, count).encode()
