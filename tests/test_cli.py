import argparse
import collections
import contextlib
import dataclasses
import errno
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from walkport import cli, measure, oracle, protocols
from walkport.cli import dyadic, main, parse_amplitudes, parse_family_selection
from walkport.errors import NoPauliCorrection


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


def test_repeated_families_are_selected_once_in_first_seen_order(tmp_path, warm_tables):
    available = [f"P{k}" for k in range(16)]
    assert parse_family_selection("P3,P1..P4,P3,P0", available) == ["P3", "P1", "P2", "P4", "P0"]
    out = tmp_path / "report.json"
    assert run_cli("tables", "line1q", "--families", "00,00,02", "--out", str(out)) == 0
    report = read_json(out)
    assert report["families"] == ["00", "02"]
    assert sorted(report["synthesized"]) == ["00", "02"]
    outdir = tmp_path / "tables"
    outdir.mkdir()
    assert run_cli("tables", "line1q", "--families", "02,00,02", "--out", str(outdir)) == 0
    summary = read_json(outdir / "line1q_tables_report.json")
    assert summary["families"] == ["02", "00"]
    assert summary["synthesized"] == ["00", "02"]


def test_two_main_calls_build_one_parser(tmp_path, warm_tables):
    cli.build_parser.cache_clear()
    out = str(tmp_path / "report.json")
    assert run_cli("run", "line1q", "--count", "1", "--out", out) == 0
    assert run_cli("equiv", "cycle-line", "--count", "1", "--out", out) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "alice, norm",
    [
        ("1e200,1e200", "1.414213562373095e+200"),
        ("1e-170,1e-170", "1.414213562373095e-170"),
        ("0:1e-170,1e-170", "1.414213562373095e-170"),
        ("1.7e308,1.7e308", "inf"),
    ],
)
def test_extreme_payload_norm_is_one_error_line(alice, norm, capsys):
    # Squares of these amplitudes overflow or underflow; the norm must not.
    assert run_cli("run", "line1q", "--alice", alice, "--bob", "1,0") == 2
    assert capsys.readouterr().err == f"error: --alice has norm {norm}, not within 1e-8 of 1\n"


@pytest.mark.parametrize("verb", ["run", "tables", "oracle-check"])
def test_positional_protocol_contradicting_the_flag_is_a_config_error(
    verb, tmp_path, warm_tables, capsys
):
    out = tmp_path / "report.json"
    assert run_cli(verb, "line1q", "--protocol", "cycle1q", "--out", str(out)) == 2
    assert_one_error_line(capsys)
    assert not out.exists()
    assert run_cli(verb, "cycle1q", "--protocol", "cycle1q", "--out", str(out)) == 0
    assert read_json(out)["protocol" if verb != "oracle-check" else "checks"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "cycle1q", "--bound", "5"),
        ("run", "cycle1q", "--bound", "8"),
        ("tables", "cycle1q", "--bound", "5"),
    ],
)
def test_bound_on_cycle1q_is_a_config_error(argv, capsys):
    assert run_cli(*argv) == 2
    assert_one_error_line(capsys)


def test_cycle1q_report_keeps_the_default_bound(tmp_path, warm_tables):
    out = tmp_path / "report.json"
    assert run_cli("run", "cycle1q", "--out", str(out)) == 0
    assert read_json(out)["bound"] == protocols.DEFAULT_BOUND


def test_table_text_to_a_directory_is_a_config_error(tmp_path, capsys):
    assert run_cli("tables", "line1q", "--format", "table-text", "--out", str(tmp_path)) == 2
    assert_one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_is_a_config_error(tmp_path, warm_tables, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run_cli("run", "line1q", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


STDOUT_ARGV = [
    ("run", "line1q"),
    ("run", "line1q", "--format", "table-text"),
    ("equiv", "cycle-line", "--count", "1"),
    ("tables", "line1q"),
    ("oracle-check", "line1q", "--count", "1"),
]


def broken_pipe(*args):
    raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("argv", STDOUT_ARGV)
def test_failed_stdout_write_is_a_config_error(argv, method, warm_tables, capsys, monkeypatch):
    broken = type("BrokenStdout", (io.StringIO,), {method: broken_pipe})
    monkeypatch.setattr(sys, "stdout", broken())
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("run", "line1q"), ("oracle-check", "line1q", "--count", "1")])
def test_report_to_a_full_device_is_one_error_line(argv):
    # No traceback, and nothing from the interpreter's own flush at exit: a
    # report smaller than the stdout buffer would still be in it then.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "walkport.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "line1q"),
        ("equiv", "cycle-line", "--count", "1"),
        ("tables", "line1q"),
        ("tables", "line1q", "--format", "table-text"),
        ("oracle-check", "line1q", "--count", "1"),
    ],
)
def test_empty_out_is_a_config_error(argv, tmp_path, warm_tables, capsys, monkeypatch):
    # Path("") is the working directory: tables must not write its files there.
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--out", "") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9", "1", "5"])
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


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "line1q", "--corrupt-table", "nosuch"),
        ("equiv", "two-qubit", "--count", "1", "--corrupt-table", "nosuch"),
        ("equiv", "cycle-line", "--count", "1", "--corrupt-table", "nosuch"),
    ],
)
def test_unknown_corrupt_family_is_a_config_error(argv, warm_tables, capsys):
    assert run_cli(*argv) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("families", ["", ","])
def test_empty_family_selection_is_a_config_error(families, warm_tables, capsys):
    assert run_cli("tables", "line1q", "--families", families) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("flag", [("--seed", "3"), ("--count", "5")])
def test_seed_or_count_with_explicit_payloads_is_a_config_error(flag, capsys):
    assert run_cli("run", "line1q", "--alice", "1,0", "--bob", "1,0", *flag) == 2
    assert_one_error_line(capsys)


def test_verbs_in_one_process_compile_each_artifact_once(tmp_path, monkeypatch):
    # A fresh memo gives this test its own spec objects, so artifacts other
    # tests compiled are not counted.
    monkeypatch.setattr(protocols, "_protocol", functools.cache(protocols._protocol.__wrapped__))
    counts = collections.Counter()

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            counts[(name, *key(*args))] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(measure, "compile_branch_maps", lambda spec: (spec.id,))
    counting(oracle, "step_matrix", lambda spec, k: (spec.id, k))
    counting(oracle, "unitarity_defect", lambda matrix: ())
    out = str(tmp_path / "report.json")
    for _ in range(2):
        assert run_cli("run", "line1q", "--count", "2", "--out", out) == 0
        assert run_cli("tables", "line1q", "--out", out) == 0
        assert run_cli("equiv", "cycle-line", "--count", "2", "--out", out) == 0
        assert run_cli("oracle-check", "line1q", "--count", "1", "--out", out) == 0
    assert counts == {
        ("compile_branch_maps", "line1q"): 1,
        ("compile_branch_maps", "cycle1q"): 1,
        **{("step_matrix", "line1q", k): 1 for k in range(4)},
        ("unitarity_defect",): 4,
    }


FUZZ_OUT = ("file", "dir", "missing")

def valid_or_not(valid, malformed):
    return st.one_of(valid, st.sampled_from(malformed))


FUZZ_VALUES = {
    "--seed": valid_or_not(st.integers(0, 3), ("-1", "x", "", "1.5", "9" * 30)),
    "--count": valid_or_not(st.integers(1, 3), ("0", "-1", "x", "")),
    "--bound": valid_or_not(st.integers(2, 10), ("1", "0", "-1", "x", "2.5")),
    "--tol": valid_or_not(st.sampled_from(("1e-9", "1e-3", "0.5")), ("0", "-1", "nan", "inf", "x", "1", "1e308")),
    "--alice": valid_or_not(st.sampled_from(("1,0", "0.6:0,0:0.8")), ("1,1", "nan,0", "x", "1,0,0,0", "")),
    "--bob": valid_or_not(st.sampled_from(("0,1", "1.000000001,0", "0:1,0")), ("1e400,0", "", "0,0")),
    "--families": valid_or_not(st.sampled_from(("00", "02,20", "00..22")), ("22..00", "", ",", "P1", "..")),
    "--corrupt-table": valid_or_not(st.sampled_from(("00", "02", "02:1", "20", "Q3", "P2")), ("nosuch", "")),
    "--format": valid_or_not(st.sampled_from(("json", "table-text")), ("xml",)),
    "--out": valid_or_not(st.sampled_from(("file", "dir")), ("missing",)),
}

VERB_FLAGS = {
    "run": ("--seed", "--count", "--bound", "--tol", "--alice", "--bob", "--corrupt-table"),
    "equiv": ("--seed", "--count", "--corrupt-table"),
    "tables": ("--bound", "--families"),
    "oracle-check": ("--seed", "--count"),
}


@st.composite
def fuzz_argv(draw):
    """A CLI argv for the fast protocols, mostly with the verb's own flags.

    ``oracle-check`` may name no protocol, which checks all four.
    """
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    protocol = st.sampled_from(("line1q", "cycle1q"))
    argv = [verb]
    if verb == "equiv":
        argv.append(draw(st.sampled_from(("two-qubit", "cycle-line"))))
    elif verb == "oracle-check":
        argv += draw(st.lists(protocol, max_size=1))
    elif draw(st.booleans()):
        argv.append(draw(protocol))
    else:
        argv += ["--protocol", draw(protocol)]
    own = VERB_FLAGS[verb] + ("--format", "--out")
    flags = draw(st.lists(st.sampled_from(own), max_size=4, unique=True))
    payload = {"--alice", "--bob"}
    if len(payload & set(flags)) == 1 and draw(st.booleans()):
        flags += sorted(payload - set(flags))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(FUZZ_VALUES))))
    for flag in flags:
        argv += [flag, str(draw(FUZZ_VALUES[flag]))]
    if verb == "equiv" and "--count" not in flags:
        argv += ["--count", "1"]
    return argv


@given(argv=fuzz_argv())
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_argv_exits_0_1_or_2_without_traceback(argv, tmp_path, warm_tables):
    (tmp_path / "dir").mkdir(exist_ok=True)
    paths = {
        "file": tmp_path / "report.json",
        "dir": tmp_path / "dir",
        "missing": tmp_path / "missing" / "report.json",
    }
    argv = [str(paths[a]) if a in FUZZ_OUT else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def reference_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def checked_writer(monkeypatch):
    """Every text the CLI's report writer returns, each checked against json.dumps."""
    texts = []
    writer = cli.report_text

    def checked(obj):
        text = writer(obj)
        assert text == reference_text(obj)
        texts.append(text)
        return text

    monkeypatch.setattr(cli, "report_text", checked)
    return texts


WRITER_ARGV = [
    *(("run", pid, "--seed", "3") for pid in protocols.PROTOCOL_IDS),
    *(("tables", pid) for pid in protocols.PROTOCOL_IDS),
    *(("oracle-check", pid, "--count", "1") for pid in protocols.PROTOCOL_IDS),
    ("equiv", "two-qubit", "--count", "1"),
    ("equiv", "cycle-line", "--count", "2"),
    ("run", "line1q", "--corrupt-table", "20"),
    ("run", "single2q", "--corrupt-table", "P1"),
    ("equiv", "two-qubit", "--count", "1", "--corrupt-table", "Q3"),
    ("equiv", "cycle-line", "--count", "1", "--corrupt-table", "00"),
    ("run", "line1q", "--alice", "0.6:0,0:0.8", "--bob", "1.000000001,0"),
    ("run", "single2q", "--alice", "0.5,0.5,0.5,0.5", "--bob", "0,0:1,0,0"),
    ("oracle-check", "--count", "1"),
    ("run", "line1q", "--bound", "3"),
    ("run", "single2q", "--seed", "4", "--format", "table-text"),
    ("run", "cycle1q", "--corrupt-table", "02"),
    ("run", "twostep2q", "--count", "3"),
    # Payloads 50-59 are not rendered in table-text, and blocks 1 and 10 must not mix.
    ("run", "line1q", "--count", "60", "--format", "table-text"),
    ("run", "cycle1q", "--count", "60"),
]


def reference_run_report(argv) -> tuple[dict, int]:
    """A ``run`` report and exit code, with one dict per ``enumerate_branches`` row."""
    args = cli.build_parser().parse_args(argv)
    spec = cli.protocol_spec(args)
    payloads, source, warnings = cli.resolve_payloads(args, spec.qubits)
    table = cli.protocol_table(args, spec)
    tol, ok, payload_reports = args.tol, True, []
    for index, payload in enumerate(payloads):
        rows = list(measure.enumerate_branches(spec, payload, table))
        prob_sum = sum(b.probability for b in rows)
        fid_ok = all(b.vacuous or b.fidelity >= 1.0 - tol for b in rows)
        ok = ok and fid_ok and abs(prob_sum - 1.0) <= tol
        branches = [
            {
                "position": b.position,
                "coin": b.coin,
                "probability": b.probability,
                "probability_dyadic": dyadic(b.probability),
                "fidelity": b.fidelity,
                "vacuous": b.vacuous,
            }
            for b in rows
        ]
        payload_reports.append(
            {
                "payload": index,
                "probability_sum": prob_sum,
                "fidelities_ok": fid_ok,
                "branches": branches,
            }
        )
    report = {
        "schema": cli.SCHEMA,
        "command": "run",
        "protocol": spec.id,
        "payload_source": source,
        "payload_values": [cli.payload_descriptor(p) for p in payloads]
        if source["source"] == "explicit"
        else None,
        "tolerance": tol,
        "bound": args.bound,
        "warnings": warnings,
        "corrupted_family": args.corrupt_table,
        "payloads": payload_reports,
        "ok": ok,
    }
    return report, 0 if ok else 1


def reference_table_text(report: dict, indent: str = "") -> str:
    """``--format table-text`` of ``report``, with json.dumps for list items."""
    lines = []
    for key, value in sorted(report.items()):
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(reference_table_text(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: [{len(value)} entries]")
            lines += [f"{indent}  {json.dumps(item, sort_keys=True)}" for item in value[:50]]
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if not indent else "")


def assert_run_matches_reference(argv, out: Path):
    report, code = reference_run_report(argv)
    assert run_cli(*argv, "--out", str(out)) == code
    if "table-text" in argv:
        assert out.read_text() == reference_table_text(report)
    else:
        assert out.read_text() == reference_text(report)


@pytest.mark.parametrize("argv", WRITER_ARGV)
def test_report_writer_matches_json_dumps(argv, tmp_path, warm_tables, request):
    # A run report's branch lists come pre-encoded from a template, which
    # json.dumps would quote, so run is checked against a reference report.
    out = tmp_path / "report.json"
    if argv[0] == "run":
        assert_run_matches_reference(list(argv), out)
        return
    checked_writer = request.getfixturevalue("checked_writer")
    assert run_cli(*argv, "--out", str(out)) in (0, 1)
    assert checked_writer == [out.read_text()]


def test_run_report_matches_reference_on_odd_branch_columns(tmp_path, warm_tables, monkeypatch):
    # Valid payloads give every branch a dyadic probability and no vacuous
    # row, so the columns are bent here: vacuous rows, probabilities with no
    # dyadic, signed zeros and a NaN fidelity.
    enumerate_branches = measure.enumerate_branches

    def bent(spec, payload, table):
        branches = enumerate_branches(spec, payload, table)
        columns = (branches.probabilities, branches.fidelities, branches.vacuous)
        probs, fids, vacs = (column.copy() for column in columns)
        probs[:4] = [1 / 3, 0.0, -0.0, 1e-300]
        fids[:5] = [0.0, -0.0, math.nan, 0.5, 1 - 1e-12]
        vacs[:3] = True
        return dataclasses.replace(branches, probabilities=probs, fidelities=fids, vacuous=vacs)

    monkeypatch.setattr(measure, "enumerate_branches", bent)
    for argv in (["run", "line1q", "--count", "2"], ["run", "cycle1q", "--format", "table-text"]):
        assert_run_matches_reference(argv, tmp_path / "report.json")


def test_branch_template_is_built_once_per_process(tmp_path, warm_tables):
    cli.branch_template.cache_clear()
    argv = ["run", "single2q", "--count", "1", "--out", str(tmp_path / "report.json")]
    for _ in range(2):
        assert cli.main(argv) == 0
    info = cli.branch_template.cache_info()
    assert (info.misses, info.hits) == (1, 1)


TRICKY_KEYS = (("P%s", '"+'), ("%%", "-\\"), ("\u00e9", "\u2028\U0001f600"), ("", "%d"))


@pytest.mark.parametrize("depth", [0, 3, None])
def test_branch_template_encodes_keys_like_json_dumps(depth, tmp_path):
    template = cli.branch_template(TRICKY_KEYS, depth)
    fids, probs = [1.0, 0.0, math.nan, 0.5], [0.25, 1 / 3, -0.0, math.inf]
    dyadics, vacs = ["1/4", None, "0", None], [False, True, True, False]
    slots = zip(fids, probs, dyadics, vacs)
    block = template % tuple(json.dumps(value) for branch in slots for value in branch)
    rows = [
        {
            "position": position,
            "coin": coin,
            "probability": p,
            "probability_dyadic": d,
            "fidelity": f,
            "vacuous": v,
        }
        for (position, coin), f, p, d, v in zip(TRICKY_KEYS, fids, probs, dyadics, vacs)
    ]
    # emit splices the block in where a report holds payload 0's placeholder:
    # at depth 3 as in a run report, and at depth None as in its table-text.
    report = {"payloads": [{"branches": "\x000"}]} if depth != 0 else "\x000"
    nest = {"payloads": [{"branches": rows}]} if depth != 0 else rows
    fmt, reference = ("table-text", reference_table_text) if depth is None else ("json", reference_text)
    out = tmp_path / "report"
    cli.emit(report, argparse.Namespace(out=str(out), format=fmt), [block])
    assert out.read_text() == reference(nest)


def test_report_writer_writes_every_table_file(tmp_path, warm_tables, checked_writer):
    assert run_cli("tables", "single2q", "--out", str(tmp_path)) == 0
    files = sorted(tmp_path.iterdir())
    assert len(files) == 17
    assert sorted(checked_writer) == sorted(f.read_text() for f in files)


def test_dyadic_runs_once_per_distinct_probability(tmp_path, warm_tables, monkeypatch):
    calls = collections.Counter()

    def counting(p):
        calls[p] += 1
        return dyadic(p)

    monkeypatch.setattr(cli, "dyadic", counting)
    out = tmp_path / "report.json"
    assert run_cli("run", "single2q", "--seed", "5", "--count", "2", "--out", str(out)) == 0
    branches = [b for p in read_json(out)["payloads"] for b in p["branches"]]
    assert len(branches) == 2 * 1296
    assert all(b["probability_dyadic"] == dyadic(b["probability"]) for b in branches)
    assert set(calls) == {b["probability"] for b in branches}
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("argv", [("run", "line1q"), ("tables", "cycle1q")])
def test_failed_correction_claim_exits_1(argv, monkeypatch, capsys):
    def no_correction(spec):
        raise NoPauliCorrection(f"no Pauli string corrects branch ('00', '++') of {spec.id}")

    monkeypatch.setattr(measure, "synthesized_table", no_correction)
    assert run_cli(*argv) == 1
    assert_one_error_line(capsys)
