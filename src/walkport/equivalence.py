"""Machine checks of the cross-protocol claims.

Two claims are checked: the single-step and two-step two-qubit protocols
are the same protocol under a bijection between their position families,
and the 4-cycle protocol is the line protocol with positions reduced mod 4.
Both are verified branch by branch on random payloads and table row by
table row, and the checks report deltas rather than trusting structure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MappingIncomplete
from .hilbert import Label, SparseState
from .measure import (
    branch_maps,
    enumerate_branches,
    pauli_net_classes,
    project,
    position_projectors,
    synthesized_table,
)
from .protocols import Payload, ProtocolSpec, get_protocol, run_walks

EQUIV_TOL = 1e-10

# Family sizes shared by the two two-qubit plans, origin family first.
FAMILY_SIZES = (1, 2, 2, 4, 2, 4, 4, 8, 2, 4, 4, 8, 4, 8, 8, 16)


@dataclass(frozen=True)
class BasisMapping:
    """Pairing of position families across two protocols, member by member."""

    pairs: tuple[tuple[str, str, tuple[tuple[Label, Label], ...]], ...]

    def outcome_pairs(self) -> list[tuple[str, str]]:
        names = []
        for src, dst, members in self.pairs:
            if len(members) == 1:
                names.append((src, dst))
            else:
                names.extend(
                    (f"{src}:{r}", f"{dst}:{r}") for r in range(len(members))
                )
        return names


def two_qubit_mapping(
    single: ProtocolSpec | None = None, twostep: ProtocolSpec | None = None
) -> BasisMapping:
    """Rank-order bijection between the two-qubit plans' families."""
    single = single or get_protocol("single2q")
    twostep = twostep or get_protocol("twostep2q")
    src = {f.name: f for f in single.position_families}
    dst = {f.name: f for f in twostep.position_families}
    pairs = []
    for k, size in enumerate(FAMILY_SIZES):
        sname, tname = f"P{k}", f"Q{k}"
        if sname not in src or tname not in dst:
            raise MappingIncomplete(f"missing family pair ({sname}, {tname})")
        p, q = src[sname], dst[tname]
        if len(p.members) != size or len(q.members) != size:
            raise MappingIncomplete(
                f"family pair ({sname}, {tname}) sizes "
                f"{len(p.members)}/{len(q.members)} != {size}"
            )
        pairs.append((sname, tname, tuple(zip(p.members, q.members))))
    return BasisMapping(tuple(pairs))


def phase_aligned_delta(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row of u and v, the entrywise distance after removing the global phase."""
    overlap = np.einsum("bi,bi->b", v.conj(), u)
    size = np.abs(overlap)
    phase = np.ones_like(overlap)
    np.divide(overlap, size, out=phase, where=size > 1e-12)
    return np.abs(u - phase[:, None] * v).max(axis=1)


def mapped_table_mismatches(outcome_pairs, left, right) -> list[dict]:
    """Mapped table rows whose Pauli strings reduce to different net classes.

    ``left`` and ``right`` are (name, table, target coins); rows pair up by
    outcome pair and coin.  Tables hold far fewer distinct Pauli strings
    than rows, so each string is reduced once per call.
    """
    (lname, ltable, ltargets), (rname, rtable, rtargets) = left, right
    net: dict = {}

    def classes(ops, targets):
        if (ops, targets) not in net:
            net[ops, targets] = pauli_net_classes(ops, targets)
        return net[ops, targets]

    coins = sorted({c for _, c in ltable.rows})
    mismatches = []
    for lout, rout in outcome_pairs:
        for coin in coins:
            lops = ltable.rows.get((lout, coin))
            rops = rtable.rows.get((rout, coin))
            if lops is None or rops is None:
                raise MappingIncomplete(f"table row missing for ({lout}, {rout}, {coin})")
            if classes(lops, ltargets) != classes(rops, rtargets):
                mismatches.append(
                    {
                        f"{lname}_outcome": lout,
                        f"{rname}_outcome": rout,
                        "coin": coin,
                        f"{lname}_pauli": [list(p) for p in lops],
                        f"{rname}_pauli": [list(p) for p in rops],
                    }
                )
    return mismatches


@functools.cache
def mapped_branch_rows(
    single: ProtocolSpec, twostep: ProtocolSpec, mapping: BasisMapping
) -> tuple[list[tuple[str, str, str]], np.ndarray, np.ndarray]:
    """The mapped branch pairs as (single outcome, twostep outcome, coin) names
    and the two row-index arrays into each protocol's branches.

    Pairs run over the mapping's outcome pairs, then the coins in sorted
    order.  Cached per (spec, spec, mapping).
    """
    rows_s = {key: b for b, key in enumerate(branch_maps(single).keys)}
    rows_t = {key: b for b, key in enumerate(branch_maps(twostep).keys)}
    coins = sorted({coin for _, coin in rows_s})
    names = [(src, dst, coin) for src, dst in mapping.outcome_pairs() for coin in coins]
    try:
        si = np.array([rows_s[src, coin] for src, _, coin in names], dtype=int)
        ti = np.array([rows_t[dst, coin] for _, dst, coin in names], dtype=int)
    except KeyError as exc:
        raise MappingIncomplete(f"no branch {exc.args[0]} for the mapping") from None
    return names, si, ti


def check_two_qubit_equivalence(
    payloads: list[Payload],
    mapping: BasisMapping | None = None,
    tol: float = EQUIV_TOL,
    single_table=None,
    twostep_table=None,
) -> dict:
    """Compare every mapped branch pair and the two synthesized tables."""
    single = get_protocol("single2q")
    twostep = get_protocol("twostep2q")
    if mapping is None:
        mapping = two_qubit_mapping(single, twostep)
    outcome_pairs = mapping.outcome_pairs()
    table_s = single_table if single_table is not None else synthesized_table(single)
    table_t = twostep_table if twostep_table is not None else synthesized_table(twostep)

    table_mismatches = mapped_table_mismatches(
        outcome_pairs,
        ("single", table_s, single.target_coins),
        ("twostep", table_t, twostep.target_coins),
    )

    names, si, ti = mapped_branch_rows(single, twostep, mapping)
    max_dp = 0.0
    max_ds = 0.0
    branch_mismatches = []
    for index, payload in enumerate(payloads):
        bs = enumerate_branches(single, payload, table_s)
        bt = enumerate_branches(twostep, payload, table_t)
        dp = np.abs(bs.probabilities[si] - bt.probabilities[ti])
        ds = phase_aligned_delta(bs.vectors[si], bt.vectors[ti])
        ds[bs.vacuous[si] & bt.vacuous[ti]] = 0.0
        max_dp = float(dp.max(initial=max_dp))
        max_ds = float(ds.max(initial=max_ds))
        for k in np.flatnonzero((dp > tol) | (ds > tol)).tolist():
            src, dst, coin = names[k]
            branch_mismatches.append(
                {
                    "payload": index,
                    "single_outcome": src,
                    "twostep_outcome": dst,
                    "coin": coin,
                    "probability_delta": float(dp[k]),
                    "state_delta": float(ds[k]),
                }
            )
    return {
        "claim": "two-qubit single-step and two-step protocols are equivalent",
        "payloads": len(payloads),
        "branches_compared": len(payloads) * len(names),
        "max_probability_delta": max_dp,
        "max_state_delta": max_ds,
        "branch_mismatches": branch_mismatches,
        "table_mismatches": table_mismatches,
        "ok": not branch_mismatches and not table_mismatches,
    }


# Family names of the line protocol and their counterparts on the cycle,
# where the +-2 positions merge and only the all-plus outcome survives.
CYCLE_LINE_FAMILY_MAP = (
    ("00", "00"),
    ("02:0", "02"),
    ("20:0", "20"),
    ("22:0", "22"),
)


def reduce_mod4(state: SparseState, cycle_layout) -> SparseState:
    """Map a line-protocol state onto the cycle layout, positions mod 4."""
    amps: dict[Label, complex] = {}
    for label, amp in state.amps.items():
        reduced = tuple(
            v % 4 if reg.role == "position" else v
            for reg, v in zip(state.layout.registers, label)
        )
        amps[reduced] = amps.get(reduced, 0.0 + 0.0j) + amp
    return SparseState(cycle_layout, amps, state.tol)


def check_cycle_line_equivalence(
    payloads: list[Payload],
    tol: float = EQUIV_TOL,
    cycle_table=None,
) -> dict:
    """Line state mod 4 vs cycle state, plus the mapped table rows."""
    line = get_protocol("line1q")
    cyc = get_protocol("cycle1q")
    table_line = synthesized_table(line)
    table_cycle = cycle_table if cycle_table is not None else synthesized_table(cyc)

    table_mismatches = mapped_table_mismatches(
        CYCLE_LINE_FAMILY_MAP,
        ("line", table_line, line.target_coins),
        ("cycle", table_cycle, cyc.target_coins),
    )

    max_ds = 0.0
    state_mismatches = []
    spot_checks = []
    for index, payload in enumerate(payloads):
        line_state = run_walks(line, payload)
        cycle_state = run_walks(cyc, payload)
        delta = reduce_mod4(line_state, cyc.layout).max_delta(cycle_state)
        max_ds = max(max_ds, delta)
        if delta > tol:
            state_mismatches.append({"payload": index, "state_delta": delta})
        if index == 0:
            spot_checks.append(_origin_residual_spot_check(cyc, cycle_state, payload))
    report = {
        "claim": "cycle protocol equals line protocol reduced mod 4",
        "payloads": len(payloads),
        "max_state_delta": max_ds,
        "state_mismatches": state_mismatches,
        "table_mismatches": table_mismatches,
        "text_discrepancies": spot_checks,
        "ok": not state_mismatches
        and not table_mismatches
        and all(c["corrected_term_reproduced"] for c in spot_checks),
    }
    return report


def _origin_residual_spot_check(
    spec: ProtocolSpec, state: SparseState, payload: Payload
) -> dict:
    """The origin-position residual carries a1*b1 on coins 1010, not 1111.

    A reference transcription of this residual lists its last term on coin
    label 1111; the simulator shows that label is empty and the weight
    sits on 1010, which is also what the factorized product form requires.
    """
    family = next(f for f in spec.position_families if f.name == "00")
    (proj,) = position_projectors(family)
    _, residual = project(state, proj)
    printed = residual.amplitude((1, 1, 1, 1))
    corrected = residual.amplitude((1, 0, 1, 0))
    # The renormalized origin residual carries a_i * b_j directly.
    target = payload.alice[1] * payload.bob[1]
    return {
        "outcome": "00",
        "printed_term_label": [1, 1, 1, 1],
        "printed_term_reproduced": bool(abs(printed - target) < 1e-9),
        "corrected_term_label": [1, 0, 1, 0],
        "corrected_term_reproduced": bool(abs(corrected - target) < 1e-9),
    }
