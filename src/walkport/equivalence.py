"""Machine checks of the cross-protocol claims.

Two claims are checked: the single-step and two-step two-qubit protocols
are the same protocol under a bijection between their position outcomes,
and the 4-cycle protocol is the line protocol with positions reduced mod 4.
The two-qubit bijection is derived, not assumed: it pairs the outcomes
whose compiled branch maps are bitwise equal, and the check fails unless
each outcome has exactly one partner.  Equal maps give equal branches for
every payload, so the loop over random payloads scores the two correction
tables on the paired branches.  The cycle-line claim reduces the line
walk map's labels mod 4, subtracts the cycle walk map, and applies the
difference to random payloads; the same reduction pairs the outcomes.  Both
claims also compare their tables row by row, and report deltas.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import MappingIncomplete
from .hilbert import SparseState, read_only
# enumerate_branches stays bound here for the benchmark tracer's rebinding test.
from .measure import (  # noqa: F401
    branch_maps,
    enumerate_branches,
    kron_rows,
    pauli_masks,
    project,
    scored_payloads,
    synthesized_table,
    walk_map,
)
from .protocols import Payload, ProtocolSpec, get_protocol, run_walks, stack_payloads

EQUIV_TOL = 1e-10


def phase_aligned_delta(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row of u and v, the entrywise distance after removing the global phase."""
    overlap = np.einsum("bi,bi->b", v.conj(), u)
    size = np.abs(overlap)
    phase = np.ones_like(overlap)
    np.divide(overlap, size, out=phase, where=size > 1e-12)
    return np.abs(u - phase[:, None] * v).max(axis=1)


def mapped_table_mismatches(outcome_pairs, left, right) -> list[dict]:
    """Mapped table rows whose Pauli strings differ, phase ignored.

    ``left`` and ``right`` are (name, table, target coins); rows pair up by
    outcome pair and coin and compare as ``pauli_masks`` without the sign.
    The comparison is cached (see ``_mismatched_rows``); the dicts are
    built fresh on every call.
    """
    (lname, ltable, _), (rname, rtable, _) = left, right
    return [
        {
            f"{lname}_outcome": lout,
            f"{rname}_outcome": rout,
            "coin": coin,
            f"{lname}_pauli": [list(p) for p in ltable.rows[lout, coin]],
            f"{rname}_pauli": [list(p) for p in rtable.rows[rout, coin]],
        }
        for lout, rout, coin in _mismatched_rows(tuple(outcome_pairs), left, right)
    ]


@functools.lru_cache(maxsize=16)
def _mismatched_rows(outcome_pairs, left, right) -> tuple[tuple[str, str, str], ...]:
    """The (left outcome, right outcome, coin) rows that differ.

    Cached per (outcome pairs, left, right).  Tables hash by identity, so a
    corrupted table, a new object, misses the cache; the bound keeps a
    long-lived process from growing.
    """
    (_, ltable, ltargets), (_, rtable, rtargets) = left, right
    coins = sorted({c for _, c in ltable.rows})
    mismatched = []
    for lout, rout in outcome_pairs:
        for coin in coins:
            lops = ltable.rows.get((lout, coin))
            rops = rtable.rows.get((rout, coin))
            if lops is None or rops is None:
                raise MappingIncomplete(f"table row missing for ({lout}, {rout}, {coin})")
            if pauli_masks(lops, ltargets)[:2] != pauli_masks(rops, rtargets)[:2]:
                mismatched.append((lout, rout, coin))
    return tuple(mismatched)


@functools.cache
def outcome_bijection(
    single: ProtocolSpec, twostep: ProtocolSpec
) -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str, str], ...], np.ndarray, np.ndarray]:
    """The position outcomes paired by bitwise-equal branch maps.

    Keys are sorted and every outcome has every coin, so an outcome's
    branches are one contiguous CSR slice of ``branch_maps(spec).matrix``.
    Its key is the coins and the slice's (relative ``indptr``, ``indices``,
    ``data``) bytes.  Returns the (single, twostep) outcome pairs in single's
    family order, their branches as (single, twostep, coin) names in pair and
    then sorted coin order, and the read-only row-index arrays into each
    side's branches.  Raises ``MappingIncomplete`` unless every outcome on
    both sides has exactly one partner.  Cached per (spec, spec).
    """
    groups: dict[tuple, tuple[list[str], list[str]]] = {}
    rows = []
    for side, spec in enumerate((single, twostep)):
        maps = branch_maps(spec)
        m, dim = maps.matrix, maps.dim
        rows.append({key: b for b, key in enumerate(maps.keys)})
        coins = tuple(sorted({coin for _, coin in maps.keys}))
        for family in spec.position_families:
            for outcome in map(family.outcome_name, range(family.outcome_count)):
                b = rows[side][outcome, coins[0]]
                ptr = m.indptr[b * dim : (b + len(coins)) * dim + 1]
                span = slice(ptr[0], ptr[-1])
                slices = (ptr - ptr[0], m.indices[span], m.data[span])
                key = (coins, *(a.tobytes() for a in slices))
                groups.setdefault(key, ([], []))[side].append(outcome)
    for singles, twosteps in groups.values():
        if len(singles) != 1 or len(twosteps) != 1:
            raise MappingIncomplete(
                f"the branch maps pair {single.id} outcomes {singles} with "
                f"{twostep.id} outcomes {twosteps}; each needs exactly one partner"
            )
    pairs = tuple((src, dst) for (src,), (dst,) in groups.values())
    names = tuple(
        (src, dst, coin) for (coins, *_), (src, dst) in zip(groups, pairs) for coin in coins
    )
    si = np.array([rows[0][src, coin] for src, _, coin in names], dtype=int)
    ti = np.array([rows[1][dst, coin] for _, dst, coin in names], dtype=int)
    read_only(si, ti)
    return pairs, names, si, ti


def check_two_qubit_equivalence(
    payloads: list[Payload],
    tol: float = EQUIV_TOL,
    single_table=None,
    twostep_table=None,
) -> dict:
    """Compare every mapped branch pair and the two synthesized tables."""
    single = get_protocol("single2q")
    twostep = get_protocol("twostep2q")
    outcome_pairs, names, si, ti = outcome_bijection(single, twostep)
    table_s = single_table if single_table is not None else synthesized_table(single)
    table_t = twostep_table if twostep_table is not None else synthesized_table(twostep)

    table_mismatches = mapped_table_mismatches(
        outcome_pairs,
        ("single", table_s, single.target_coins),
        ("twostep", table_t, twostep.target_coins),
    )

    max_dp = 0.0
    max_ds = 0.0
    branch_mismatches = []
    scored = zip(
        scored_payloads(single, payloads, table_s), scored_payloads(twostep, payloads, table_t)
    )
    for index, ((ps, _, vs, xs), (pt, _, vt, xt)) in enumerate(scored):
        dp = np.abs(ps[si] - pt[ti])
        ds = phase_aligned_delta(xs[si], xt[ti])
        ds[vs[si] & vt[ti]] = 0.0
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


def _reduce_mod4(values: tuple[int, ...], registers) -> tuple[int, ...]:
    """Line-protocol register values on the 4-cycle: every position mod 4."""
    return tuple(v % 4 if reg.role == "position" else v for reg, v in zip(registers, values))


@functools.cache
def cycle_line_pairs(line: ProtocolSpec, cyc: ProtocolSpec) -> tuple[tuple[str, str], ...]:
    """(line outcome, cycle outcome) pairs in the cycle's family order, cached.

    A cycle family pairs with the all-plus outcome 0 of the one line family
    whose members all reduce onto its member, else ``MappingIncomplete``: a
    cycle vertex's amplitude is the plain sum of theirs.
    """
    registers = [line.layout.register(name) for name in line.measured_positions]
    images = {f: {_reduce_mod4(m, registers) for m in f.members} for f in line.position_families}
    pairs = []
    for family in cyc.position_families:
        partners = [f.outcome_name(0) for f, image in images.items() if image == set(family.members)]
        if len(partners) != 1:
            raise MappingIncomplete(f"{cyc.id} family {family.name} has {line.id} partners {partners}")
        pairs.append((partners[0], family.outcome_name(0)))
    return tuple(pairs)


@functools.cache
def cycle_line_difference(line: ProtocolSpec, cyc: ProtocolSpec) -> np.ndarray:
    """Line walk map mod 4 minus cycle walk map, over the sorted union of labels; cached."""
    line_labels, line_walks = walk_map(line)
    cycle_labels, cycle_walks = walk_map(cyc)
    reduced = [_reduce_mod4(label, line.layout.registers) for label in line_labels]
    labels = sorted(set(reduced) | set(cycle_labels))
    row = {label: k for k, label in enumerate(labels)}
    difference = np.zeros((len(labels), cycle_walks.shape[1]), dtype=complex)
    np.add.at(difference, [row[label] for label in reduced], line_walks.toarray())
    np.subtract.at(difference, [row[label] for label in cycle_labels], cycle_walks.toarray())
    read_only(difference)
    return difference


def check_cycle_line_equivalence(payloads: list[Payload], cycle_table=None) -> dict:
    """Line state mod 4 vs cycle state through the compiled difference map,
    plus the mapped table rows and the origin spot check on the first payload."""
    line = get_protocol("line1q")
    cyc = get_protocol("cycle1q")
    outcome_pairs = cycle_line_pairs(line, cyc)
    table_line = synthesized_table(line)
    table_cycle = cycle_table if cycle_table is not None else synthesized_table(cyc)

    table_mismatches = mapped_table_mismatches(
        outcome_pairs,
        ("line", table_line, line.target_coins),
        ("cycle", table_cycle, cyc.target_coins),
    )

    spot_checks = [
        _origin_residual_spot_check(cyc, run_walks(cyc, p), p) for p in payloads[:1]
    ]
    inputs = kron_rows(*stack_payloads(cyc, payloads))
    deltas = np.abs(inputs @ cycle_line_difference(line, cyc).T).max(axis=1, initial=0.0)
    state_mismatches = [
        {"payload": index, "state_delta": delta}
        for index, delta in enumerate(deltas.tolist())
        if delta > EQUIV_TOL
    ]
    return {
        "claim": "cycle protocol equals line protocol reduced mod 4",
        "payloads": len(payloads),
        "max_state_delta": float(deltas.max(initial=0.0)),
        "state_mismatches": state_mismatches,
        "table_mismatches": table_mismatches,
        "text_discrepancies": spot_checks,
        "ok": not state_mismatches
        and not table_mismatches
        and all(c["corrected_term_reproduced"] for c in spot_checks),
    }


def _origin_residual_spot_check(
    spec: ProtocolSpec, state: SparseState, payload: Payload
) -> dict:
    """The origin-position residual carries a1*b1 on coins 1010, not 1111.

    A reference transcription of this residual lists its last term on coin
    label 1111; the simulator shows that label is empty and the weight
    sits on 1010, which is also what the factorized product form requires.
    """
    family = next(f for f in spec.position_families if f.name == "00")
    (member,) = family.members
    _, residual = project(state, family.registers, {member: 1.0})
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
