"""Check that the CLI's output is byte-identical at a git revision and in the working tree.

    python scripts/identity.py PARENT

Extracts ``git archive PARENT`` into a temporary directory, then runs every
argv of ``CORPUS`` once on that tree and once on the working tree's
``src/``, each in a fresh ``python -m walkport.cli`` process started in an
empty directory, so that ``--out`` paths are the same relative paths on both
sides.  It compares standard output, standard error, the exit code and every
file the run wrote, prints each argv that differs with what differs, and
exits 1 if any does (0 otherwise).  Two processes run at a time.  A tool,
not a test.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED_ENV = "WALKPORT_SEED"

# (argv, WALKPORT_SEED or None).  "out.json" and "tables" are written in
# the run's own empty directory.
CORPUS: list[tuple[tuple[str, ...], str | None]] = [
    *(((*argv, "--out", "out.json"), None) for argv in (
        ("run", "line1q"),
        ("run", "cycle1q"),
        ("run", "single2q"),
        ("run", "twostep2q"),
        ("run", "line1q", "--seed", "7", "--count", "1000"),  # three scoring chunks
        ("run", "cycle1q", "--seed", "3", "--count", "40"),
        ("run", "single2q", "--seed", "2", "--count", "7"),  # three scoring chunks
        ("run", "twostep2q", "--seed", "9", "--count", "4"),
        ("run", "line1q", "--alice", "1,0", "--bob", "0,1"),
        ("run", "line1q", "--alice", "0.6:0,0:0.8", "--bob", "0:1,0"),
        ("run", "cycle1q", "--alice", "0,-1", "--bob", "-0.6,0.8"),
        ("run", "single2q", "--alice", "1,0,0,0", "--bob", "0,0,0:1,0"),
        ("run", "twostep2q", "--alice", "0.5,0.5,0.5,-0.5", "--bob", "0,0.6,0,0:0.8"),
        ("run", "line1q", "--corrupt-table", "00"),
        ("run", "cycle1q", "--corrupt-table", "02"),
        ("run", "single2q", "--corrupt-table", "P1"),
        ("run", "twostep2q", "--corrupt-table", "Q2"),
        ("run", "line1q", "--corrupt-table", "02:1"),
        ("run", "line1q", "--corrupt-table", "nosuch"),
        ("run", "line1q", "--tol", "1e-3", "--count", "3"),
        ("run", "line1q", "--tol", "1"),
        ("run", "line1q", "--bound", "3", "--count", "2"),
        ("run", "single2q", "--bound", "2"),
        ("run", "twostep2q", "--bound", "4"),
        ("run", "line1q", "--bound", "1"),
        ("run", "single2q", "--bound", "1"),
        ("run", "twostep2q", "--bound", "1"),
        ("run", "twostep2q", "--bound", "2"),
        ("run", "twostep2q", "--bound", "3"),
        ("run", "cycle1q", "--bound", "5"),
        ("run", "line1q", "--bound", "0"),
        ("run", "line1q", "--count", "0"),
        ("run", "line1q", "--seed", "-1"),
        ("run", "line1q", "--alice", "nan,0", "--bob", "1,0"),
        ("run", "line1q", "--alice", "1e200,1e200", "--bob", "1,0"),
        ("run", "line1q", "--alice", "1,0", "--bob", "1,0", "--count", "5"),
        ("run", "single2q", "--protocol", "twostep2q"),
        ("run", "--protocol", "cycle1q", "--count", "2"),
        ("run", "line1q", "--format", "table-text", "--count", "2"),
        ("run", "single2q", "--format", "table-text"),
        ("equiv", "two-qubit", "--count", "2"),
        ("equiv", "two-qubit", "--seed", "4", "--count", "5"),  # two scoring chunks
        ("equiv", "two-qubit", "--corrupt-table", "P1"),
        ("equiv", "two-qubit", "--corrupt-table", "Q3"),
        ("equiv", "two-qubit", "--corrupt-table", "00"),
        ("equiv", "two-qubit", "--format", "table-text"),
        ("equiv", "cycle-line", "--count", "24"),
        ("equiv", "cycle-line", "--seed", "5", "--count", "500"),
        ("equiv", "cycle-line", "--corrupt-table", "02"),
        ("equiv", "cycle-line", "--corrupt-table", "nosuch"),
        ("equiv", "cycle-line", "--format", "table-text"),
        ("tables", "line1q"),
        ("tables", "cycle1q"),
        ("tables", "single2q"),
        ("tables", "twostep2q"),
        ("tables", "line1q", "--bound", "3"),
        ("tables", "line1q", "--bound", "1"),
        ("tables", "single2q", "--bound", "2"),  # the tightest bounds the two-qubit walks fit
        ("tables", "twostep2q", "--bound", "4"),
        ("tables", "single2q", "--families", "P1..P3,P1"),
        ("tables", "line1q", "--families", ""),
        ("tables", "line1q", "--families", "nosuch"),
        ("tables", "twostep2q", "--format", "table-text"),
        ("tables", "line1q", "--seed", "3"),
        ("oracle-check",),
        ("oracle-check", "--count", "1"),
        ("oracle-check", "--seed", "3", "--count", "20"),
        ("oracle-check", "--protocol", "single2q", "--seed", "11", "--count", "5"),
        ("oracle-check", "single2q", "--count", "300", "--seed", "5"),  # two program-run chunks
        ("oracle-check", "line1q", "--count", "5000", "--seed", "4"),  # two program-run chunks
        ("oracle-check", "twostep2q", "--format", "table-text"),
    )),
    (("run", "line1q", "--count", "3", "--out", "out.json"), "17"),
    (("run", "single2q", "--out", "out.json"), "4"),
    (("run", "line1q", "--alice", "1,0", "--bob", "1,0", "--out", "out.json"), "17"),
    (("equiv", "two-qubit", "--out", "out.json"), "6"),
    (("equiv", "cycle-line", "--count", "3", "--out", "out.json"), "6"),
    (("oracle-check", "--count", "2", "--out", "out.json"), "8"),
    (("run", "line1q", "--out", "out.json"), "-3"),
    (("tables", "single2q", "--families", "P1..P15", "--out", "tables"), None),
    (("tables", "line1q", "--out", "tables"), None),
    (("tables", "line1q", "--format", "table-text", "--out", "tables"), None),
    (("run", "line1q", "--count", "2"), None),  # report on standard output
    (("oracle-check", "--protocol", "cycle1q", "--count", "2"), None),
    (("run", "line1q", "--out", "/nonexistent/dir/out.json"), None),
]


def run_once(src: Path, argv: tuple[str, ...], seed: str | None) -> dict:
    """stdout, stderr, exit code and written files of one fresh CLI process."""
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV}
    env["PYTHONPATH"] = str(src)
    if seed is not None:
        env[SEED_ENV] = seed
    with tempfile.TemporaryDirectory() as work:
        if "tables" in argv and "--out" in argv:
            Path(work, "tables").mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "walkport.cli", *argv],
            cwd=work, env=env, capture_output=True,
        )
        files = {
            str(p.relative_to(work)): p.read_bytes() for p in sorted(Path(work).rglob("*")) if p.is_file()
        }
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit": proc.returncode, "files": files}


def differences(a: dict, b: dict) -> list[str]:
    out = [key for key in ("stdout", "stderr", "exit") if a[key] != b[key]]
    names = sorted(set(a["files"]) | set(b["files"]))
    return out + [f"file {n}" for n in names if a["files"].get(n) != b["files"].get(n)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare the working tree against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.parent], cwd=ROOT, capture_output=True, check=True
        ).stdout
        archive_path = Path(tmp, "parent.tar")
        archive_path.write_bytes(archive)
        with tarfile.open(archive_path) as tar:
            tar.extractall(Path(tmp, "parent"), filter="data")
        sides = (Path(tmp, "parent", "src"), ROOT / "src")

        def compare(case):
            argv, seed = case
            return differences(*(run_once(src, argv, seed) for src in sides))

        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(compare, CORPUS))
    differing = 0
    for (argv, seed), diff in zip(CORPUS, results):
        if diff:
            differing += 1
            prefix = f"{SEED_ENV}={seed} " if seed is not None else ""
            print(f"DIFFERS: {prefix}walkport {' '.join(argv)}: {', '.join(diff)}")
    print(f"{differing} of {len(CORPUS)} argvs differ from {args.parent}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
