import dataclasses

import pytest

from walkport import equivalence, measure
from walkport.errors import MappingIncomplete, NoPauliCorrection
from walkport.protocols import PositionFamily, get_protocol, seeded_payloads


def test_family_size_ledger():
    mapping = equivalence.two_qubit_mapping()
    sizes = tuple(len(members) for _, _, members in mapping.pairs)
    assert sizes == equivalence.FAMILY_SIZES
    assert sizes[1:] == (2, 2, 4, 2, 4, 4, 8, 2, 4, 4, 8, 4, 8, 8, 16)


def test_member_bijection_structure():
    mapping = equivalence.two_qubit_mapping()
    pairs = {src: members for src, _, members in mapping.pairs}
    # Alice displaced on her second walker only <-> unit displacement.
    assert pairs["P1"] == (
        ((0, -2, 0, 0), (-1, 0)),
        ((0, 2, 0, 0), (1, 0)),
    )
    # Both Alice walkers displaced <-> the four double-jump offsets, in rank order.
    assert pairs["P3"] == (
        ((-2, -2, 0, 0), (-4, 0)),
        ((-2, 2, 0, 0), (-2, 0)),
        ((2, -2, 0, 0), (2, 0)),
        ((2, 2, 0, 0), (4, 0)),
    )


def test_mapping_incomplete_detected():
    single = get_protocol("single2q")
    trimmed = dataclasses.replace(
        single, position_families=single.position_families[:-1]
    )
    with pytest.raises(MappingIncomplete):
        equivalence.two_qubit_mapping(trimmed, get_protocol("twostep2q"))


def test_two_qubit_equivalence_holds(warm_tables):
    report = equivalence.check_two_qubit_equivalence(seeded_payloads(3, 3, 2))
    assert report["ok"]
    assert report["branches_compared"] == 3 * 1296
    assert report["max_probability_delta"] <= 1e-10
    assert report["max_state_delta"] <= 1e-10
    assert report["table_mismatches"] == []


def test_two_qubit_equivalence_flags_corruption(warm_tables):
    spec = get_protocol("twostep2q")
    broken = measure.corrupt_table(
        measure.synthesized_table(spec), "Q3", spec.target_coins
    )
    report = equivalence.check_two_qubit_equivalence(
        seeded_payloads(3, 1, 2), twostep_table=broken
    )
    assert not report["ok"]
    assert any(m["twostep_outcome"].startswith("Q3") for m in report["table_mismatches"])


def test_cycle_line_equivalence_holds(warm_tables):
    report = equivalence.check_cycle_line_equivalence(seeded_payloads(4, 3, 1))
    assert report["ok"]
    assert report["max_state_delta"] <= 1e-10
    assert report["table_mismatches"] == []


def test_cycle_line_spot_check_surfaces_text_discrepancy(warm_tables):
    report = equivalence.check_cycle_line_equivalence(seeded_payloads(4, 1, 1))
    (check,) = report["text_discrepancies"]
    assert check["printed_term_label"] == [1, 1, 1, 1]
    assert not check["printed_term_reproduced"]
    assert check["corrected_term_label"] == [1, 0, 1, 0]
    assert check["corrected_term_reproduced"]


def test_line_terms_map_into_cycle_state(warm_tables):
    # Displaced line terms appear at their mod-4 positions on the cycle.
    from walkport.protocols import random_payload, run_walks
    import numpy as np

    payload = random_payload(np.random.default_rng(8), 1)
    line_state = run_walks(get_protocol("line1q"), payload)
    cycle_state = run_walks(get_protocol("cycle1q"), payload)
    line_amp = line_state.amplitude((-2, 2, 1, 0, 0, 1))
    assert abs(line_amp) > 0.0
    assert abs(cycle_state.amplitude((2, 2, 1, 0, 0, 1)) - line_amp) < 1e-12


def test_origin_all_plus_rows_are_four_bit_flips(warm_tables):
    # Under output renaming the two origin rows are the same four X's.
    xxxx = (("a_out0", "X"), ("a_out1", "X"), ("b_out0", "X"), ("b_out1", "X"))
    assert measure.synthesized_table(get_protocol("single2q")).get("P0", "++,++") == xxxx
    assert measure.synthesized_table(get_protocol("twostep2q")).get("Q0", "++,++") == xxxx


def test_origin_residuals_identical_across_protocols(warm_tables):
    # Projecting both walks onto their origin positions leaves literally the
    # same 16-term coin state (identical register names and labels).
    from walkport.measure import position_projectors, project
    from walkport.protocols import random_payload, run_walks
    import numpy as np

    payload = random_payload(np.random.default_rng(17), 2)
    residuals = []
    for pid, origin in (("single2q", "P0"), ("twostep2q", "Q0")):
        spec = get_protocol(pid)
        family = next(f for f in spec.position_families if f.name == origin)
        (proj,) = position_projectors(family)
        _, residual = project(run_walks(spec, payload), proj)
        residuals.append(residual)
    assert len(residuals[0]) == 16
    assert residuals[0].max_delta(residuals[1]) < 1e-12


def test_corner_family_identity_row_matches(warm_tables):
    line_table = measure.synthesized_table(get_protocol("line1q"))
    cycle_table = measure.synthesized_table(get_protocol("cycle1q"))
    assert line_table.get("22:0", "++") == ()
    assert cycle_table.get("22", "++") == ()


def _correctable(spec, families):
    try:
        measure.synthesize_table(dataclasses.replace(spec, position_families=families))
    except NoPauliCorrection:
        return False
    return True


def test_basis_reading_probe():
    # The sign-pattern reading supports Pauli corrections for every family;
    # measuring raw members (each as its own family) destroys all but the
    # origin family.
    spec = get_protocol("line1q")
    families = spec.position_families
    assert all(_correctable(spec, (f,)) for f in families)
    member_by_member = {
        f.name: _correctable(
            spec,
            tuple(
                PositionFamily(f.outcome_name(r), f.registers, (member,))
                for r, member in enumerate(f.members)
            ),
        )
        for f in families
    }
    assert len(member_by_member) == 4
    assert [name for name, ok in member_by_member.items() if not ok] == ["02", "20", "22"]
