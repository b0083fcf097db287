import json
from pathlib import Path

import pytest

from walkport.cli import dyadic, main, parse_amplitudes, parse_family_selection


def run_cli(*argv):
    return main(list(argv))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_parse_amplitudes():
    vec = parse_amplitudes("0.6:0, 0:0.8")
    assert vec[0] == 0.6 and vec[1] == 0.8j
    assert list(parse_amplitudes("1,0")) == [1.0 + 0.0j, 0.0 + 0.0j]


def test_dyadic():
    assert dyadic(1 / 16) == "1/16"
    assert dyadic(0.25) == "1/4"
    assert dyadic(1 / 3) is None


def test_family_selection():
    available = [f"P{k}" for k in range(16)]
    assert parse_family_selection("P1..P3", available) == ["P1", "P2", "P3"]
    assert parse_family_selection("P0,P15", available) == ["P0", "P15"]


def test_run_seeded_line(tmp_path, warm_tables):
    out = tmp_path / "report.json"
    assert run_cli("run", "line1q", "--seed", "7", "--count", "3", "--out", str(out)) == 0
    report = read_json(out)
    assert report["schema"] == 1
    assert report["ok"]
    assert len(report["payloads"]) == 3
    table = report["payloads"][0]["branches"]
    assert len(table) == 36
    dyadics = {row["probability_dyadic"] for row in table}
    assert dyadics == {"1/16", "1/32", "1/64"}


def test_run_reports_are_byte_identical(tmp_path, warm_tables):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("run", "line1q", "--seed", "9", "--count", "2", "--out", str(out1)) == 0
    assert run_cli("run", "line1q", "--seed", "9", "--count", "2", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_explicit_cycle_payload(tmp_path, warm_tables):
    out = tmp_path / "report.json"
    code = run_cli(
        "run", "cycle1q", "--alice", "1,0", "--bob", "1,0", "--out", str(out)
    )
    assert code == 0
    report = read_json(out)
    branches = {
        (b["position"], b["coin"]): b for b in report["payloads"][0]["branches"]
    }
    assert branches[("00", "++")]["fidelity"] >= 1 - 1e-9
    assert branches[("00", "++")]["probability_dyadic"] == "1/16"


def test_run_corruption_fails(tmp_path, warm_tables):
    out = tmp_path / "report.json"
    code = run_cli(
        "run", "line1q", "--seed", "3", "--corrupt-table", "20", "--out", str(out)
    )
    assert code == 1
    assert not read_json(out)["ok"]


def test_run_env_seed(tmp_path, warm_tables, monkeypatch):
    monkeypatch.setenv("WALKPORT_SEED", "11")
    out1 = tmp_path / "env.json"
    out2 = tmp_path / "flag.json"
    assert run_cli("run", "line1q", "--out", str(out1)) == 0
    assert run_cli("run", "line1q", "--seed", "11", "--out", str(out2)) == 0
    assert read_json(out1)["payload_source"] == read_json(out2)["payload_source"]


def test_run_config_errors(warm_tables):
    assert run_cli("run", "line1q", "--alice", "1,1", "--bob", "1,0") == 2
    assert run_cli("run", "line1q", "--alice", "1,0") == 2
    assert run_cli("run", "line1q", "--alice", "x", "--bob", "1,0") == 2
    assert run_cli("run", "line1q", "--count", "0") == 2
    with pytest.raises(SystemExit) as err:
        run_cli("run", "nosuch")
    assert err.value.code == 2


def test_renormalization_warning(tmp_path, warm_tables):
    out = tmp_path / "report.json"
    # Norm off by ~2e-9: accepted, renormalized, warned about.
    code = run_cli(
        "run", "line1q", "--alice", "1.000000001,0", "--bob", "1,0", "--out", str(out)
    )
    assert code == 0
    report = read_json(out)
    assert any("renormalized" in w for w in report["warnings"])


def test_equiv_two_qubit(tmp_path, warm_tables):
    out = tmp_path / "report.json"
    assert run_cli("equiv", "two-qubit", "--seed", "1", "--count", "2", "--out", str(out)) == 0
    report = read_json(out)
    assert report["ok"] and report["branches_compared"] == 2 * 1296


def test_equiv_cycle_line(tmp_path, warm_tables):
    out = tmp_path / "report.json"
    assert run_cli("equiv", "cycle-line", "--seed", "1", "--count", "2", "--out", str(out)) == 0
    assert read_json(out)["ok"]


def test_equiv_corruption_lists_mismatches(tmp_path, warm_tables):
    out = tmp_path / "report.json"
    code = run_cli(
        "equiv", "two-qubit", "--seed", "1", "--count", "1",
        "--corrupt-table", "Q3", "--out", str(out),
    )
    assert code == 1
    report = read_json(out)
    assert not report["ok"]
    assert report["corrupted_family"] == "Q3"
    assert any(
        m["twostep_outcome"].startswith("Q3") for m in report["table_mismatches"]
    )


def test_tables_line(tmp_path, warm_tables):
    out = tmp_path / "tables.json"
    assert run_cli("tables", "line1q", "--out", str(out)) == 0
    report = read_json(out)
    assert len(report["reference"]["rows"]) == 36
    flagged = {(m["position"], m["coin"]) for m in report["comparison"]["mismatches"]}
    assert flagged == {("02:1", "++")}


def test_tables_cycle_matches_reference(tmp_path, warm_tables):
    out = tmp_path / "tables.json"
    assert run_cli("tables", "cycle1q", "--out", str(out)) == 0
    report = read_json(out)
    assert len(report["reference"]["rows"]) == 16
    assert report["comparison"]["mismatches"] == []


def test_tables_family_files(tmp_path, warm_tables):
    outdir = tmp_path / "tables"
    outdir.mkdir()
    assert run_cli(
        "tables", "single2q", "--families", "P1..P15", "--out", str(outdir)
    ) == 0
    files = sorted(p.name for p in outdir.glob("single2q_P*.json"))
    assert len(files) == 15
    data = read_json(outdir / "single2q_P3.json")
    assert len(data["rows"]) == 4 * 16


def test_oracle_check_fast_protocols(tmp_path):
    out = tmp_path / "oracle.json"
    assert run_cli(
        "oracle-check", "line1q", "--seed", "2", "--count", "2", "--out", str(out)
    ) == 0
    report = read_json(out)
    assert report["ok"]
    assert all(d < 1e-10 for d in report["checks"][0]["unitarity_defects"])


def test_table_text_format(tmp_path, warm_tables):
    out = tmp_path / "report.txt"
    assert run_cli(
        "run", "cycle1q", "--alice", "1,0", "--bob", "1,0",
        "--format", "table-text", "--out", str(out),
    ) == 0
    text = out.read_text()
    assert "ok: True" in text
    assert "protocol: cycle1q" in text


def test_non_finite_payload_is_a_config_error(capsys):
    assert run_cli("run", "line1q", "--alice", "nan,0", "--bob", "1,0") == 2
    assert run_cli("run", "line1q", "--alice", "1,0", "--bob", "inf:0,0") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_non_positive_bound_is_a_config_error(capsys):
    assert run_cli("run", "line1q", "--bound", "0") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_unwritable_out_is_a_config_error(tmp_path, warm_tables, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run_cli("run", "line1q", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


SEEDED_VERBS = (
    ("run", "line1q"),
    ("equiv", "cycle-line"),
    ("oracle-check", "line1q"),
)


@pytest.mark.parametrize("verb", SEEDED_VERBS)
def test_negative_seed_is_a_config_error(verb, capsys, monkeypatch):
    assert run_cli(*verb, "--seed", "-1") == 2
    assert_one_error_line(capsys)
    monkeypatch.setenv("WALKPORT_SEED", "-1")
    assert run_cli(*verb) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_non_positive_or_non_finite_tol_is_a_config_error(tol, capsys):
    assert run_cli("run", "line1q", f"--tol={tol}") == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "line1q", "--count", "0"),
        ("equiv", "two-qubit", "--count", "0"),
        ("equiv", "cycle-line", "--count", "-3"),
        ("oracle-check", "line1q", "--count", "-2"),
    ],
)
def test_non_positive_count_is_a_config_error(argv, capsys):
    assert run_cli(*argv) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle-check", "line1q", "--bound", "5"),
        ("oracle-check", "line1q", "--tol", "1e-3"),
        ("equiv", "cycle-line", "--bound", "5"),
        ("equiv", "cycle-line", "--tol", "1e-3"),
        ("tables", "line1q", "--seed", "1"),
        ("tables", "line1q", "--count", "1"),
        ("tables", "line1q", "--tol", "1e-3"),
    ],
)
def test_verbs_reject_flags_they_ignore(argv):
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2


def test_equiv_and_oracle_check_read_the_env_seed(tmp_path, warm_tables, monkeypatch):
    monkeypatch.setenv("WALKPORT_SEED", "4")
    for verb in (("equiv", "cycle-line", "--count", "2"), ("oracle-check", "line1q", "--count", "1")):
        env_out, flag_out = tmp_path / "env.json", tmp_path / "flag.json"
        assert run_cli(*verb, "--out", str(env_out)) == 0
        assert run_cli(*verb, "--seed", "4", "--out", str(flag_out)) == 0
        assert env_out.read_bytes() == flag_out.read_bytes()
