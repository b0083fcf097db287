"""The benchmark's workloads: which CLI calls each one makes, and why.

Every workload is a single-client closed loop: one process, no worker
threads, and each call starts only when the previous one has returned.
A workload rotates through its call kinds; each call gets its own
``--seed``, drawn from the workload seed, so the program sees only the
generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PROTOCOL_IDS = ("line1q", "cycle1q", "single2q", "twostep2q")

# Measurement branches per payload for each protocol.
BRANCHES = {"line1q": 36, "cycle1q": 16, "single2q": 1296, "twostep2q": 1296}

LOAD = "closed loop, 1 client, no worker threads"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Calls made once before timing starts; together they are the set-up.
    warmup: tuple[tuple[str, ...], ...]
    # Call kinds cycled through in the timed loop.
    rotation: tuple[tuple[str, ...], ...]
    # Fresh processes that measure set-up time in one untraced run.
    setup_runs: int
    # A call that must fail verification, proving the checks bite.
    control: tuple[str, ...] | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-2q",
            why=(
                "run single2q/twostep2q --count 2, equiv two-qubit --count 1: "
                "256-term states, 1296 branches; SparseState, project and "
                "apply_pauli_string dominate"
            ),
            warmup=(("tables", "single2q"), ("tables", "twostep2q")),
            rotation=(
                ("run", "single2q", "--count", "2"),
                ("run", "twostep2q", "--count", "2"),
                ("equiv", "two-qubit", "--count", "1"),
            ),
            # Each set-up synthesizes two tables (about 15 s), so two runs
            # keep the whole benchmark inside its time budget.
            setup_runs=2,
            control=("run", "single2q", "--count", "2", "--corrupt-table", "P1"),
        ),
        Workload(
            name="sweep-1q",
            why=(
                "run line1q --count 6, run cycle1q --count 10, equiv cycle-line "
                "--count 24: 16-term states, 16-36 branches; fixed per-call "
                "costs dominate"
            ),
            warmup=(("tables", "line1q"), ("tables", "cycle1q")),
            rotation=(
                ("run", "line1q", "--count", "6"),
                ("run", "cycle1q", "--count", "10"),
                ("equiv", "cycle-line", "--count", "24"),
            ),
            setup_runs=3,
            control=("run", "line1q", "--count", "6", "--corrupt-table", "20"),
        ),
        Workload(
            name="oracle-xval",
            why=(
                "oracle-check --count 1 on all four protocols: dense scipy "
                "oracle only, never measure or equivalence; step matrices built "
                "in set-up, unitarity and 1.68M-entry mat-vecs per call"
            ),
            warmup=(("oracle-check", "--count", "1"),),
            rotation=(("oracle-check", "--count", "1"),),
            setup_runs=3,
            # oracle-check has no failure-injection flag.
            control=None,
        ),
    )
}


def call_seeds(workload_seed: int):
    """The per-call ``--seed`` values of one run, derived from its seed."""
    rng = random.Random(workload_seed)
    while True:
        yield rng.randrange(1, 2**31)


def with_seed(template: tuple[str, ...], seed: int) -> list[str]:
    """A call's argv; ``tables`` honours no seed and gets none."""
    if template[0] == "tables":
        return list(template)
    return [*template, "--seed", str(seed)]


def payloads(argv: list[str]) -> int:
    """Protocol-payloads a call verifies, once per protocol it checks them on."""
    if argv[0] == "tables":
        return 0
    count = int(argv[argv.index("--count") + 1])
    if argv[0] == "equiv":
        return 2 * count
    if argv[0] == "oracle-check" and not set(argv) & set(PROTOCOL_IDS):
        return len(PROTOCOL_IDS) * count
    return count
