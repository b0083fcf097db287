import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from walkport import equivalence, measure, oracle
from walkport.errors import (
    MissingCorrection,
    NoPauliCorrection,
    UnknownPauliOp,
    UnknownRegister,
)
from walkport.measure import (
    CorrectionTable,
    apply_pauli_string,
    branch_finals,
    branch_maps,
    coin_outcome_name,
    corrupt_table,
    dense_on_targets,
    enumerate_branches,
    expected_output,
    pauli_masks,
    project,
    synthesize_table,
    synthesized_table,
    walsh,
)
from walkport.hilbert import RegisterLayout, SparseState
from walkport.protocols import (
    PROTOCOL_IDS,
    Payload,
    PositionFamily,
    bits_to_index,
    get_protocol,
    run_walks,
    seeded_payloads,
    walk_program,
)
from walkport.walkops import WalkProgram

from test_spec_mutations import CASES as MUTATIONS

LINE = get_protocol("line1q")


def _family(spec, name):
    return next(f for f in spec.position_families if f.name == name)


def _with_families(spec, *families):
    return dataclasses.replace(spec, position_families=families)


def _members(family):
    """The family's members as singleton families: measuring them one by one."""
    return tuple(
        PositionFamily(family.outcome_name(r), family.registers, (member,))
        for r, member in enumerate(family.members)
    )


def _position_weights(family):
    """Each outcome's weights over the family's members, as branch_finals builds them."""
    m = family.outcome_count
    return [dict(zip(family.members, row)) for row in (walsh(m) * (1.0 / math.sqrt(m))).tolist()]


def _coin_weights(spec):
    """Each coin outcome's weights over the measured coins' labels, as branch_finals builds them."""
    n = len(spec.measured_coins)
    bits = list(itertools.product((0, 1), repeat=n))
    rows = (walsh(1 << n) * (1.0 / math.sqrt(2.0)) ** n).tolist()
    return [dict(zip(bits, row)) for row in rows]


def test_project_origin_block_probability_and_residual(payload_1q):
    state = run_walks(LINE, payload_1q)
    family = _family(LINE, "00")
    (weights,) = _position_weights(family)
    prob, residual = project(state, family.registers, weights)
    assert abs(prob - 0.25) < 1e-12
    # Residual (renormalized) carries a_i b_j on coins (a_in, a_out, b_in, b_out).
    a, b = payload_1q.alice, payload_1q.bob
    expected = {
        (0, 1, 0, 1): a[0] * b[0],
        (0, 0, 1, 1): a[0] * b[1],
        (1, 1, 0, 0): a[1] * b[0],
        (1, 0, 1, 0): a[1] * b[1],
    }
    assert len(residual) == 4
    for label, amp in expected.items():
        assert abs(residual.amplitude(label) - amp) < 1e-12


def test_project_then_coins_reaches_swapped_product(payload_1q):
    state = run_walks(LINE, payload_1q)
    family = _family(LINE, "00")
    (pos,) = _position_weights(family)
    prob1, residual = project(state, family.registers, pos)
    assert coin_outcome_name(LINE, 0) == "++"
    prob2, final = project(residual, LINE.measured_coins, _coin_weights(LINE)[0])
    assert abs(prob1 * prob2 - 1.0 / 16.0) < 1e-12
    a, b = payload_1q.alice, payload_1q.bob
    expected = {
        (1 - i, 1 - j): b[i] * a[j] for i in (0, 1) for j in (0, 1)
    }
    for label, amp in expected.items():
        assert abs(final.amplitude(label) - amp) < 1e-10


def test_projector_family_completeness(payload_1q):
    state = run_walks(LINE, payload_1q)
    total = 0.0
    for family in LINE.position_families:
        for weights in _position_weights(family):
            prob, _ = project(state, family.registers, weights)
            total += prob
    assert abs(total - 1.0) < 1e-10


def test_project_unknown_register(payload_1q):
    state = run_walks(LINE, payload_1q)
    with pytest.raises(UnknownRegister):
        project(state, ("nope",), {(0,): 1.0})


def test_branch_probabilities_line(warm_tables, payload_1q):
    branches = enumerate_branches(LINE, payload_1q)
    assert len(branches) == 36
    expected = {"00": 1 / 16, "02": 1 / 32, "20": 1 / 32, "22": 1 / 64}
    for branch in branches:
        family = branch.position.split(":")[0]
        assert abs(branch.probability - expected[family]) < 1e-10
        assert branch.fidelity >= 1.0 - 1e-9
        assert not branch.vacuous
    assert abs(sum(b.probability for b in branches) - 1.0) < 1e-10


def test_branch_probabilities_payload_independent(warm_tables):
    for payload in seeded_payloads(21, 10, 1):
        for branch in enumerate_branches(LINE, payload):
            family = branch.position.split(":")[0]
            expected = {"00": 1 / 16, "02": 1 / 32, "20": 1 / 32, "22": 1 / 64}[family]
            assert abs(branch.probability - expected) < 1e-10


def test_verify_branch_detects_missing_correction():
    # With the identity instead of the bit flips, orthogonal payloads score 0.
    payload = Payload(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    table = synthesized_table(LINE)
    rows = dict(table.rows)
    rows[("00", "++")] = ()
    broken = CorrectionTable("line1q", rows)
    branches = {
        (b.position, b.coin): b for b in enumerate_branches(LINE, payload, broken)
    }
    bad = branches[("00", "++")]
    assert bad.fidelity < 1e-10
    expected = np.kron(payload.bob, payload.alice)
    direct = abs(np.vdot(expected, dense_on_targets(bad.corrected))) ** 2
    assert abs(direct - bad.fidelity) < 1e-12


def test_table_rows_are_a_frozen_copy(warm_tables):
    # The table caches signed permutations of its rows, so a caller that
    # edits its dict afterwards must change neither the rows nor the scores.
    source = dict(synthesized_table(LINE).rows)
    table = CorrectionTable("line1q", source)
    payloads = seeded_payloads(71, 3, 1)
    before = [enumerate_branches(LINE, p, table).fidelities for p in payloads]
    snapshot = dict(source)
    for key, ops in source.items():
        source[key] = (("a_out", "Z"), *ops)
    assert dict(table.rows) == snapshot
    for payload, fidelities in zip(payloads, before):
        assert np.array_equal(enumerate_branches(LINE, payload, table).fidelities, fidelities)
    edited = CorrectionTable("line1q", source)
    assert enumerate_branches(LINE, payloads[0], edited).fidelities.max() < 0.99
    with pytest.raises(TypeError):
        table.rows[("00", "++")] = ()


def test_cached_arrays_are_read_only(warm_tables):
    # Every caller shares these: a write into one would change every later
    # call's result (doubling four branch-map entries took a line1q run
    # from exit 0 to exit 1 with a probability sum of 1.1875).
    single, twostep, cycle = (get_protocol(p) for p in ("single2q", "twostep2q", "cycle1q"))
    maps = branch_maps(LINE)
    _, walks = measure.walk_map(LINE)
    step = oracle.cached_step_matrix(LINE, 0)
    slots = oracle.label_slots(walk_program(LINE), oracle.oracle_spec("line1q"))
    pairs, names, si, ti = equivalence.outcome_bijection(single, twostep)
    assert isinstance(pairs, tuple) and isinstance(names, tuple)
    src, sign = synthesized_table(LINE).signed_permutations(maps.keys, maps.layout)
    arrays = [
        *(getattr(m, f) for m in (maps.matrix, step) for f in ("data", "indices", "indptr")),
        walks,
        walks.real,
        walks.imag,
        slots,
        si,
        ti,
        src,
        sign,
        equivalence.cycle_line_difference(LINE, cycle),
    ]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[:1] *= 2
    assert all(array.flags.writeable is False for array in arrays)


def test_missing_correction_raises(payload_1q):
    table = CorrectionTable("line1q", {})
    with pytest.raises(MissingCorrection):
        enumerate_branches(LINE, payload_1q, table)


def test_apply_pauli_string_order_and_classes():
    layout_state = expected_output(LINE, Payload(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    flipped = apply_pauli_string(layout_state, [("a_out", "X")])
    assert abs(flipped.amplitude((0, 0)) - 1.0) < 1e-12
    # Right to left: X on b_out, X on a_out, then Z on a_out.  Target k is
    # bit 1 << (1 - k); X after Z on one coin costs a sign.
    targets = ("a_out", "b_out")
    assert pauli_masks((("a_out", "Z"), ("a_out", "X"), ("b_out", "X")), targets) == (3, 2, 1)
    assert pauli_masks((("a_out", "X"), ("a_out", "Z")), targets) == (2, 2, -1)
    assert pauli_masks((("b_out", "ZX"), ("b_out", "ZX")), targets) == (0, 0, -1)
    assert pauli_masks((("a_out", "I"),), targets) == (0, 0, 1)
    with pytest.raises(UnknownRegister):
        pauli_masks((("c_out", "X"),), targets)
    with pytest.raises(UnknownPauliOp):
        pauli_masks((("a_out", "Y"),), targets)


def test_synthesized_origin_block_rows(warm_tables):
    table = synthesized_table(LINE)
    assert table.get("00", "++") == (("a_out", "X"), ("b_out", "X"))
    # (x, z, sign) with a_out as bit 2 and b_out as bit 1: ZX on a_out for
    # "+-", on b_out for "-+", on both for "--".
    masks = {
        coin: pauli_masks(table.get("00", coin), LINE.target_coins) for coin in ("+-", "-+", "--")
    }
    assert masks == {"+-": (3, 2, 1), "-+": (3, 1, 1), "--": (3, 3, 1)}


def test_single_family_spec_table():
    twostep = get_protocol("twostep2q")
    spec = _with_families(twostep, _family(twostep, "Q3"))
    table = synthesize_table(spec)
    assert len(table.rows) == 64
    for payload in seeded_payloads(31, 5, 2):
        for branch in enumerate_branches(spec, payload, table):
            assert branch.fidelity >= 1.0 - 1e-9


def test_per_family_spec_gets_its_own_table(warm_tables):
    table = synthesized_table(_with_families(LINE, *LINE.position_families[:1]))
    assert len(table.rows) == 4
    assert {pos for pos, _ in table.rows} == {"00"}


def test_computational_reading_not_pauli_correctable():
    spec = get_protocol("single2q")
    with pytest.raises(NoPauliCorrection):
        synthesize_table(_with_families(spec, *_members(_family(spec, "P1"))))


def test_corrupted_table_detected(warm_tables, payload_1q):
    table = corrupt_table(synthesized_table(LINE), "02", LINE.target_coins)
    branches = enumerate_branches(LINE, payload_1q, table)
    broken = [b for b in branches if b.position.startswith("02")]
    assert any(b.fidelity < 1.0 - 1e-9 for b in broken)
    with pytest.raises(MissingCorrection):
        corrupt_table(synthesized_table(LINE), "zz", LINE.target_coins)


def test_two_qubit_branch_origin(warm_tables, payload_2q):
    spec = get_protocol("single2q")
    branches = {
        (b.position, b.coin): b for b in enumerate_branches(spec, payload_2q)
    }
    origin = branches[("P0", "++,++")]
    assert abs(origin.probability - 1.0 / 256.0) < 1e-12
    assert origin.fidelity >= 1.0 - 1e-9
    assert abs(sum(b.probability for b in branches.values()) - 1.0) < 1e-9


def test_table_serialization_roundtrip(warm_tables):
    table = synthesized_table(LINE)
    back = CorrectionTable.from_json_dict(table.to_json_dict())
    assert back.rows == table.rows
    assert back.protocol == table.protocol


def _block(maps, b):
    """``M_b`` as a dense ``dim x dim`` matrix."""
    return maps.matrix[b * maps.dim : (b + 1) * maps.dim].toarray()


def _pauli_matrix(ops, layout):
    """The listed Pauli string as a dense matrix, column by column from the engine."""
    dim = 1 << len(layout)
    labels = list(itertools.product((0, 1), repeat=len(layout)))
    columns = [
        dense_on_targets(apply_pauli_string(SparseState(layout, {label: 1.0}), ops))
        for label in labels
    ]
    return np.array(columns).reshape(dim, dim).T


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_corrected_branch_maps_are_the_swap(warm_tables, pid):
    # P_b M_b = lam_b SWAP entrywise for every branch: fidelity one is then
    # proved for every payload, and sum |lam_b|^2 = 1 is completeness.
    spec = get_protocol(pid)
    maps = branch_maps(spec)
    table = synthesized_table(spec)
    d = 1 << spec.qubits
    swap = np.zeros((d * d, d * d))
    for i, j in itertools.product(range(d), repeat=2):
        swap[j * d + i, i * d + j] = 1.0
    weight = 0.0
    for b, key in enumerate(maps.keys):
        product = _pauli_matrix(table.get(*key), maps.layout) @ _block(maps, b)
        lam = product[0, 0]
        assert np.abs(product - lam * swap).max() <= 1e-12
        weight += abs(lam) ** 2
    assert abs(weight - 1.0) <= 1e-12


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_map_path_agrees_with_sparse_engine(warm_tables, pid):
    spec = get_protocol(pid)
    table = synthesized_table(spec)
    for payload in seeded_payloads(61, 3, spec.qubits):
        finals = branch_finals(spec, payload)
        branches = enumerate_branches(spec, payload, table)
        assert [(b.position, b.coin) for b in branches] == sorted(finals)
        for branch in branches:
            prob, final = finals[(branch.position, branch.coin)]
            assert abs(branch.probability - prob) <= 1e-12
            reference = dense_on_targets(
                apply_pauli_string(final, table.get(branch.position, branch.coin))
            )
            assert np.abs(branch.vector - reference).max() <= 1e-12


def test_branch_rows_equal_the_columns(warm_tables):
    # Measuring the members one by one leaves half the basis payload's
    # branches vacuous, so the vacuous column is exercised too.
    spec = _with_families(LINE, *_members(_family(LINE, "02")))
    keys = branch_maps(spec).keys
    table = CorrectionTable("line1q", dict.fromkeys(keys, ()))
    basis = Payload(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    cases = [(spec, basis, table)] + [
        (get_protocol(pid), payload, None)
        for pid in ("line1q", "single2q")
        for payload in seeded_payloads(62, 2, get_protocol(pid).qubits)
    ]
    for pspec, payload, ptable in cases:
        branches = enumerate_branches(pspec, payload, ptable)
        assert isinstance(branches, measure.Branches)
        rows = list(branches)
        assert len(branches) == len(rows) == len(branches.keys)
        assert sum(b.vacuous for b in branches) == int(branches.vacuous.sum())
        for b, row in enumerate(rows):
            assert (row.position, row.coin) == branches.keys[b]
            assert row.probability == branches.probabilities[b]
            assert row.fidelity == branches.fidelities[b]
            assert row.vacuous == branches.vacuous[b]
            assert np.array_equal(row.vector, branches.vectors[b])
            assert row.layout == branches.layout
            assert type(row.probability) is float and type(row.vacuous) is bool
    assert int(enumerate_branches(spec, basis, table).vacuous.sum()) == 4


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_chunked_batch_equals_one_row_batches_bit_for_bit(warm_tables, monkeypatch, pid, corrupt):
    spec = get_protocol(pid)
    table = synthesized_table(spec)
    if corrupt:
        table = corrupt_table(table, spec.position_families[1].name, spec.target_coins)
    maps = branch_maps(spec)
    per_chunk = max(1, measure.SCORE_ENTRIES // maps.matrix.shape[0])
    # Three chunks of two-qubit payloads, two of one-qubit ones.
    count = 3 * per_chunk - 2 if spec.qubits == 2 else per_chunk + 3
    payloads = seeded_payloads(83, count, spec.qubits)
    chunks = []
    score_branches = measure.score_branches

    def spy(spec, alice, bob, table):
        chunks.append(len(alice))
        return score_branches(spec, alice, bob, table)

    monkeypatch.setattr(measure, "score_branches", spy)
    rows = list(measure.scored_payloads(spec, payloads, table))
    assert chunks == [per_chunk] * (len(chunks) - 1) + [count - per_chunk * (len(chunks) - 1)]
    assert len(chunks) == (3 if spec.qubits == 2 else 2) and len(rows) == count
    for payload, row in zip(payloads, rows):
        one = [c[0] for c in score_branches(spec, payload.alice[None], payload.bob[None], table)]
        assert all(column.shape == (len(maps.keys),) for column in row[:3])
        assert row[3].shape == (len(maps.keys), maps.dim)
        assert np.array_equal(row[2], one[2])  # vacuous flags
        for batched, single in zip(row[:2] + row[3:], one[:2] + one[3:]):
            # Compared by their bits, so signed zeros and NaNs count too.
            assert np.array_equal(batched.view(np.int64), single.view(np.int64))
    if corrupt:
        assert min(row[1].min() for row in rows) < 0.99


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_signed_permutations_equal_the_engine_pauli_matrices(warm_tables, pid):
    # Every row of the synthesized and the bundled table, as a signed
    # permutation from its masks, is the engine's matrix exactly.  Bundled
    # rows compose up to 8 ops on repeated registers; read in reverse, some
    # apply X after Z on one coin, so the sign is exercised too.
    spec = get_protocol(pid)
    layout = branch_maps(spec).layout
    dim = 1 << len(layout)
    bundled = measure.bundled_table(pid)
    reversed_rows = CorrectionTable(pid, {k: ops[::-1] for k, ops in bundled.rows.items()})
    engine = {}
    for table in (synthesized_table(spec), bundled, reversed_rows):
        keys = tuple(sorted(table.rows))
        src, sign = table.signed_permutations(keys, layout)
        assert table.signed_permutations(keys, layout)[0] is src
        for b, key in enumerate(keys):
            ops = table.get(*key)
            if ops not in engine:
                engine[ops] = _pauli_matrix(ops, layout)
            matrix = np.zeros((dim, dim))
            matrix[np.arange(dim), src[b]] = sign[b]
            assert np.array_equal(matrix, engine[ops]), key
    assert max(map(len, bundled.rows.values())) >= 4
    assert any(pauli_masks(ops, spec.target_coins)[2] < 0 for ops in engine)


def test_caches_are_keyed_on_the_bound(warm_tables):
    default = synthesized_table(LINE)
    assert synthesized_table(get_protocol("line1q")) is default
    spec = get_protocol("line1q", bound=4)
    table = synthesized_table(spec)
    assert table is not default and table.rows == default.rows
    assert branch_maps(spec) is not branch_maps(LINE)
    origin = _with_families(LINE, _family(LINE, "00"))
    assert branch_maps(origin) is not branch_maps(LINE)
    # Same outcome names, different readings: the maps must differ.
    members = branch_maps(_with_families(LINE, *_members(_family(LINE, "02"))))
    signs = branch_maps(_with_families(LINE, _family(LINE, "02")))
    assert members.keys == signs.keys
    assert abs(members.matrix - signs.matrix).max() > 0.1


def test_get_protocol_is_one_spec_per_configuration():
    # Every compiled cache keys on the spec object, so equal configurations
    # must share it (maps and tables of other ones: the test above).
    assert get_protocol("line1q") is LINE
    assert get_protocol("line1q", 8) is LINE
    assert get_protocol("line1q", bound=4) is get_protocol("line1q", 4)
    assert get_protocol("line1q", bound=4) is not LINE


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_walsh_is_the_sign_rule_and_orthogonal(m):
    w = measure.walsh(m)
    assert w.shape == (m, m) and set(np.unique(w).tolist()) <= {-1, 1}
    assert np.array_equal(w @ w.T, m * np.eye(m, dtype=int))
    assert all(w[r, k] == (-1) ** (r & k).bit_count() for r in range(m) for k in range(m))


def reference_branch_maps(spec):
    """Branch maps by the sparse engine, branch by branch (the loop the
    compiled product replaced): column ``i*d + j`` is ``branch_finals`` of the
    basis payloads ``(e_i, e_j)`` scaled back by the root of its probability."""
    d = 1 << spec.qubits
    basis = np.eye(d)
    columns = {}
    for col, (i, j) in enumerate(itertools.product(range(d), repeat=2)):
        for key, (prob, final) in branch_finals(spec, Payload(basis[i], basis[j])).items():
            columns.setdefault(key, []).extend(
                (bits_to_index(label), col, math.sqrt(prob) * amp)
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
    return measure.BranchMaps(keys, matrix, layout)


def reference_synthesis(spec, maps):
    """Table synthesis block by block (the loop the vectorised pass replaced)."""
    d = 1 << spec.qubits
    idx = np.arange(maps.dim)
    swap = (idx % d) * d + idx // d
    bits = [1 << m for m in range(len(spec.target_coins))]
    rows = {}
    for b, key in enumerate(maps.keys):
        block = _block(maps, b)[:, swap]
        xmask = int(np.argmax(np.abs(block[:, 0])))
        lam = block[xmask, 0]
        zmask = sum(bit for bit in bits if (block[bit ^ xmask, bit] * lam.conjugate()).real < 0)
        pauli = np.zeros_like(block)
        pauli[idx ^ xmask, idx] = np.where(np.bitwise_count(idx & zmask) & 1, -1, 1)
        if abs(lam) ** 2 < measure.VACUOUS_TOL or np.abs(block - lam * pauli).max() > measure.PAULI_TOL:
            raise NoPauliCorrection(f"no Pauli string corrects branch {key}")
        rows[key] = tuple(
            (reg, measure.PAULI_OPS[bool(xmask & bit) + 2 * bool(zmask & bit)])
            for reg, bit in zip(spec.target_coins, reversed(bits))
            if (xmask | zmask) & bit
        )
    return CorrectionTable(spec.id, rows)


COMPILE_CASES = {
    **{pid: lambda pid=pid: get_protocol(pid) for pid in PROTOCOL_IDS},
    "line1q-bound4": lambda: get_protocol("line1q", bound=4),
    "single2q-bound2": lambda: get_protocol("single2q", bound=2),
    "line1q-members02": lambda: _with_families(LINE, *_members(_family(LINE, "02"))),
}


# Mutated specs: where the first Hadamard is gone, several walk terms sum
# in one map entry, and the two sides may round that sum differently.
MUTATED_CASES = {
    f"{pid}-{mutate.__name__}": lambda pid=pid, mutate=mutate: mutate(get_protocol(pid))
    for pid, mutate in MUTATIONS
}


@pytest.mark.parametrize("case", sorted(COMPILE_CASES) + sorted(MUTATED_CASES))
def test_contracted_maps_equal_the_engine_reference_bitwise(case):
    spec = {**COMPILE_CASES, **MUTATED_CASES}[case]()
    maps = measure.compile_branch_maps(spec)
    reference = reference_branch_maps(spec)
    assert maps.keys == reference.keys
    assert (maps.layout, maps.matrix.shape) == (reference.layout, reference.matrix.shape)
    for part in ("indices", "indptr"):
        assert np.array_equal(getattr(maps.matrix, part), getattr(reference.matrix, part)), part
    if case in COMPILE_CASES:
        assert np.array_equal(maps.matrix.data, reference.matrix.data)
    else:
        assert np.abs(maps.matrix.data - reference.matrix.data).max() <= 1e-15


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_vectorised_synthesis_equals_the_blockwise_reference(warm_tables, pid):
    spec = get_protocol(pid)
    assert synthesize_table(spec).rows == reference_synthesis(spec, branch_maps(spec)).rows


def _failing_key(synthesize):
    with pytest.raises(NoPauliCorrection) as err:
        synthesize()
    return str(err.value)


@pytest.mark.parametrize(
    "pid, mutate", MUTATIONS, ids=[f"{pid}-{mutate.__name__}" for pid, mutate in MUTATIONS]
)
def test_mutated_specs_fail_on_the_same_key_as_the_blockwise_reference(pid, mutate):
    spec = mutate(get_protocol(pid))
    new = _failing_key(lambda: synthesize_table(spec))
    assert new == _failing_key(lambda: reference_synthesis(spec, branch_maps(spec)))


def test_first_failing_key_is_named_when_later_keys_fail_too(warm_tables):
    # Measuring P1's members one by one: both outcomes fail on every coin.
    spec = get_protocol("single2q")
    spec = _with_families(spec, *_members(_family(spec, "P1")))
    new = _failing_key(lambda: synthesize_table(spec))
    assert new == _failing_key(lambda: reference_synthesis(spec, branch_maps(spec)))
    assert new == f"no Pauli string corrects branch {branch_maps(spec).keys[0]}"


def _with_block0(monkeypatch, edit):
    """Patch ``branch_maps`` to return LINE's maps with block ``('00', '++')`` edited as LIL."""
    maps = branch_maps(LINE)
    assert maps.keys[0] == ("00", "++")
    matrix = maps.matrix.tolil()
    edit(matrix, maps.matrix)
    edited = measure.BranchMaps(maps.keys, matrix.tocsr(), maps.layout)
    monkeypatch.setattr(measure, "branch_maps", lambda spec: edited)
    return edited


@pytest.mark.parametrize("row", range(4))
def test_a_second_stored_entry_in_a_row_fails_the_read_off(warm_tables, monkeypatch, row):
    # A correctable row stores exactly one entry.  A second one fails its
    # branch, stored before or after it, even far inside PAULI_TOL.
    def add(matrix, maps):
        matrix[row, (maps.indices[row] + 1) % 4] = 1e-13

    edited = _with_block0(monkeypatch, add)
    assert edited.matrix.nnz == branch_maps(LINE).matrix.nnz + 1
    assert _failing_key(lambda: synthesize_table(LINE)) == "no Pauli string corrects branch ('00', '++')"


@pytest.mark.parametrize("edit", ["column", "phase", "vacuous"])
def test_one_entry_per_row_is_not_enough_for_the_read_off(warm_tables, monkeypatch, edit):
    # The entries must also sit in the swap's pattern, be one lam times a
    # walsh row, and have |lam|² of at least VACUOUS_TOL.
    def change(matrix, maps):
        cols, vals = maps.indices, maps.data
        if edit == "column":  # rows 1 and 2 trade columns
            matrix[1, cols[1]] = matrix[2, cols[2]] = 0.0
            matrix[1, cols[2]], matrix[2, cols[1]] = vals[1], vals[2]
        elif edit == "phase":
            matrix[0, cols[0]] *= 1j
        else:
            for row in range(4):
                matrix[row, cols[row]] *= 1e-8

    edited = _with_block0(monkeypatch, change)
    assert (np.diff(edited.matrix.indptr) == 1).all()
    assert _failing_key(lambda: synthesize_table(LINE)) == "no Pauli string corrects branch ('00', '++')"


@pytest.mark.parametrize("families", [("far",), ("00", "far")], ids=["far", "00-far"])
def test_a_family_no_walk_reaches_fails_the_read_off(families):
    # No basis walk reaches (6, 6), so the far family's branches store no entry at all.
    origin = _family(LINE, "00")
    plan = {"00": origin, "far": PositionFamily("far", origin.registers, ((6, 6),))}
    spec = _with_families(LINE, *(plan[name] for name in families))
    assert _failing_key(lambda: synthesize_table(spec)) == "no Pauli string corrects branch ('far', '++')"


def test_compiling_walks_the_basis_payloads_and_never_projects(monkeypatch):
    calls = {"project": 0, "branch_finals": 0}

    def counted(name):
        original = getattr(measure, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(measure, name, counted(name))
    rows = []
    run = WalkProgram.run
    monkeypatch.setattr(WalkProgram, "run", lambda self, a, b: rows.append(len(a)) or run(self, a, b))
    measure.walk_map.cache_clear()
    for pid in ("line1q", "twostep2q"):
        spec = get_protocol(pid)
        before = len(rows)
        measure.compile_branch_maps(spec)
        # One program run on the stacked d² basis payloads.
        assert rows[before:] == [4**spec.qubits]
    assert (calls["project"], calls["branch_finals"]) == (0, 0)


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_walk_map_rows_hold_one_entry_of_plus_or_minus_two_to_the_minus_q(pid):
    spec = get_protocol(pid)
    labels, walks = measure.walk_map(spec)
    d = 1 << spec.qubits
    assert labels == tuple(sorted(labels)) and walks.shape == (16**spec.qubits, d * d)
    basis = np.eye(d)
    for col, (i, j) in enumerate(itertools.product(range(d), repeat=2)):
        final = run_walks(spec, Payload(basis[i], basis[j]))
        assert walks[:, col].tolist() == [final.amplitude(l) for l in labels]
    # In exact arithmetic every entry is +-2^-q; the walks round within an ulp.
    assert (np.count_nonzero(walks, axis=1) == 1).all()
    entries, scale = walks[walks != 0], 2.0**-spec.qubits
    assert np.minimum(abs(entries - scale), abs(entries + scale)).max() <= 1.2e-16


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_the_four_walk_steps_commute(warm_tables, pid):
    spec = get_protocol(pid)
    maps = branch_maps(spec)
    orders = list(itertools.permutations(range(4)))[1:]
    assert len(orders) == 23
    for order in orders:
        reordered = dataclasses.replace(spec, steps=tuple(spec.steps[k] for k in order))
        other = measure.compile_branch_maps(reordered)
        assert other.keys == maps.keys
        for part in ("indptr", "indices", "data"):
            got, want = getattr(other.matrix, part), getattr(maps.matrix, part)
            assert got.tobytes() == want.tobytes(), (order, part)


def test_compiling_a_two_qubit_protocol_peaks_under_8_mib():
    # The largest array is Wp ⊗ Wc: 160,000 weights, 2.5 MB once made
    # complex for the product.  The basis walks and the maps stay sparse; a
    # dense scatter of the walks, or a dense stack of the 1,296 maps, would
    # each add another 5.3 MB.
    spec = get_protocol("single2q")
    tracemalloc.start()
    try:
        measure.compile_branch_maps(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
