"""The bundled reference tables against the synthesized ground truth.

The reference tables are shipped verbatim, including their known defects;
these tests pin down exactly which rows disagree so that an accidental
transcription slip (or a regression in synthesis) shows up as a different
discrepancy set, not a silent pass.
"""

import pytest

from walkport import measure
from walkport.protocols import get_protocol, seeded_payloads


def _comparison(pid):
    spec = get_protocol(pid)
    return spec, measure.compare_tables(spec, measure.bundled_table(pid))


def test_line_reference_has_single_swapped_row(warm_tables):
    spec, report = _comparison("line1q")
    assert report["rows_checked"] == 36
    assert [(m["position"], m["coin"]) for m in report["mismatches"]] == [("02:1", "++")]
    assert not report["mismatches"][0]["reference_achieves_target"]
    assert report["missing_rows"] == [] and report["extra_rows"] == []


def test_cycle_reference_is_clean(warm_tables):
    _, report = _comparison("cycle1q")
    assert report["rows_checked"] == 16
    assert report["mismatches"] == []
    assert report["missing_rows"] == [] and report["extra_rows"] == []


def test_single_step_reference_defects(warm_tables):
    _, report = _comparison("single2q")
    assert report["rows_checked"] == 16
    assert [(m["position"], m["coin"]) for m in report["mismatches"]] == [
        ("P0", "++,+-"),
        ("P0", "--,--"),
    ]
    assert all(not m["reference_achieves_target"] for m in report["mismatches"])
    assert report["missing_rows"] == [["P0", "--,+-"]]


def test_two_step_reference_defects(warm_tables):
    _, report = _comparison("twostep2q")
    assert report["rows_checked"] == 16
    assert [(m["position"], m["coin"]) for m in report["mismatches"]] == [("Q0", "--,--")]
    assert report["missing_rows"] == [["Q0", "--,+-"]]


@pytest.mark.parametrize("pid", ["line1q", "cycle1q", "single2q", "twostep2q"])
def test_agreeing_reference_rows_reach_fidelity_one(warm_tables, pid):
    # Every reference row whose net Pauli matches the synthesized one must
    # actually teleport, and every flagged row must not: run the enumeration
    # with the reference rows patched over the synthesized table and check
    # both sides.  This keeps a simulation behind the report's
    # reference_achieves_target, which compare_tables derives from the proof.
    spec = get_protocol(pid)
    reference = measure.bundled_table(pid)
    synth = measure.synthesized_table(spec)
    report = measure.compare_tables(spec, reference)
    flagged = {(m["position"], m["coin"]) for m in report["mismatches"]}
    rows = dict(synth.rows)
    rows.update(reference.rows)
    patched = measure.CorrectionTable(pid, rows)
    for payload in seeded_payloads(77, 3, spec.qubits):
        for branch in measure.enumerate_branches(spec, payload, patched):
            key = (branch.position, branch.coin)
            if key in flagged:
                assert branch.fidelity < 1.0 - 1e-9
            elif key in reference.rows:
                assert branch.fidelity >= 1.0 - 1e-9
