import dataclasses
import itertools

import numpy as np
import pytest

from walkport import measure
from walkport.errors import (
    MalformedProjector,
    MissingCorrection,
    NoPauliCorrection,
    UnknownRegister,
)
from walkport.measure import (
    CorrectionTable,
    ProjectorSpec,
    apply_pauli_string,
    branch_finals,
    branch_maps,
    coin_projectors,
    corrupt_table,
    dense_on_targets,
    enumerate_branches,
    expected_output,
    pauli_net_classes,
    position_projectors,
    project,
    synthesize_table,
    synthesized_table,
)
from walkport.hilbert import SparseState
from walkport.protocols import (
    PROTOCOL_IDS,
    Payload,
    PositionFamily,
    get_protocol,
    run_walks,
    seeded_payloads,
)

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


def test_project_origin_block_probability_and_residual(payload_1q):
    state = run_walks(LINE, payload_1q)
    (proj,) = position_projectors(_family(LINE, "00"))
    prob, residual = project(state, proj)
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
    (pos,) = position_projectors(_family(LINE, "00"))
    prob1, residual = project(state, pos)
    plusplus = next(c for c in coin_projectors(LINE) if c.name == "++")
    prob2, final = project(residual, plusplus)
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
        for proj in position_projectors(family):
            prob, _ = project(state, proj)
            total += prob
    assert abs(total - 1.0) < 1e-10


def test_project_unknown_register(payload_1q):
    state = run_walks(LINE, payload_1q)
    proj = ProjectorSpec("x", ("nope",), (((0,), 1.0),))
    with pytest.raises(UnknownRegister):
        project(state, proj)


def test_malformed_projector_rejected():
    with pytest.raises(MalformedProjector):
        ProjectorSpec("bad", ("a_pos", "b_pos"), (((0, 0), 0.5),))
    with pytest.raises(MalformedProjector):
        measure.check_orthogonal(
            [
                ProjectorSpec("p", ("a_pos",), (((0,), 1.0),)),
                ProjectorSpec("q", ("a_pos",), (((0,), 1.0),)),
            ]
        )


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


def test_missing_correction_raises(payload_1q):
    table = CorrectionTable("line1q", {})
    with pytest.raises(MissingCorrection):
        enumerate_branches(LINE, payload_1q, table)


def test_apply_pauli_string_order_and_classes():
    layout_state = expected_output(LINE, Payload(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    flipped = apply_pauli_string(layout_state, [("a_out", "X")])
    assert abs(flipped.amplitude((0, 0)) - 1.0) < 1e-12
    classes = pauli_net_classes(
        [("a_out", "Z"), ("a_out", "X"), ("b_out", "X")], ("a_out", "b_out")
    )
    assert classes == {"a_out": "ZX", "b_out": "X"}


def test_synthesized_origin_block_rows(warm_tables):
    table = synthesized_table(LINE)
    assert table.get("00", "++") == (("a_out", "X"), ("b_out", "X"))
    assert pauli_net_classes(table.get("00", "+-"), LINE.target_coins) == {
        "a_out": "ZX",
        "b_out": "X",
    }
    assert pauli_net_classes(table.get("00", "-+"), LINE.target_coins) == {
        "a_out": "X",
        "b_out": "ZX",
    }
    assert pauli_net_classes(table.get("00", "--"), LINE.target_coins) == {
        "a_out": "ZX",
        "b_out": "ZX",
    }


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
        product = _pauli_matrix(table.get(*key), maps.layout) @ maps.block(b)
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
            assert (row.layout, row.tol) == (branches.layout, branches.tol)
            assert type(row.probability) is float and type(row.vacuous) is bool
    assert int(enumerate_branches(spec, basis, table).vacuous.sum()) == 4


def test_pauli_probe_runs_once_per_distinct_string(warm_tables, monkeypatch):
    # A fresh table instance re-derives its permutations but probes no
    # string already probed in this process.
    spec = get_protocol("single2q")
    maps = branch_maps(spec)
    rows = synthesized_table(spec).rows
    fresh = CorrectionTable(spec.id, dict(rows))
    fresh.signed_permutations(maps.keys, maps.layout)
    probes = []
    monkeypatch.setattr(
        measure, "apply_pauli_string", lambda *a: probes.append(a) or apply_pauli_string(*a)
    )
    again = CorrectionTable(spec.id, dict(rows))
    src, _ = again.signed_permutations(maps.keys, maps.layout)
    assert probes == []
    assert np.array_equal(src, fresh.signed_permutations(maps.keys, maps.layout)[0])
    assert len(set(rows.values())) == 256
    with pytest.raises(ValueError):
        measure.pauli_probe(rows[maps.keys[0]], maps.layout)[0] = 0.0


def test_caches_are_keyed_on_bound_and_tol(warm_tables):
    default = synthesized_table(LINE)
    assert synthesized_table(get_protocol("line1q")) is default
    for spec in (get_protocol("line1q", bound=4), get_protocol("line1q", tol=1e-10)):
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
    assert get_protocol("line1q", bound=8, tol=LINE.tol) is LINE
    assert get_protocol("line1q", bound=4) is get_protocol("line1q", 4)
    assert get_protocol("line1q", bound=4) is not LINE
    assert get_protocol("line1q", tol=1e-10) is not LINE
