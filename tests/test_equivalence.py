import collections
import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from walkport import cli, equivalence, measure, protocols
from walkport.errors import MappingIncomplete, NoPauliCorrection
from walkport.hilbert import SparseState
from walkport.protocols import PositionFamily, get_protocol, run_walks, seeded_payloads
from walkport.walkops import WalkProgram

from test_spec_mutations import CASES, MUTANT_KINDS, first_jump_off_by_one, last_walk_map


def two_qubit_mapping():
    """The hand pairing the derivation replaced, as a reference.

    Family ``P{k}`` of single2q pairs with ``Q{k}`` of twostep2q, member by
    member in rank order; each entry is (single family, twostep family,
    member pairs).
    """
    src = {f.name: f for f in get_protocol("single2q").position_families}
    dst = {f.name: f for f in get_protocol("twostep2q").position_families}
    return tuple(
        (f"P{k}", f"Q{k}", tuple(zip(src[f"P{k}"].members, dst[f"Q{k}"].members, strict=True)))
        for k in range(16)
    )


def hand_outcome_pairs(mapping):
    """The (single outcome, twostep outcome) pairs of a hand mapping, in its order."""
    return [
        (src, dst) if len(members) == 1 else (f"{src}:{r}", f"{dst}:{r}")
        for src, dst, members in mapping
        for r in range(len(members))
    ]


def test_member_bijection_structure():
    pairs = {src: members for src, _, members in two_qubit_mapping()}
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


def test_derived_bijection_equals_the_hand_pairing(warm_tables):
    single, twostep = get_protocol("single2q"), get_protocol("twostep2q")
    pairs, names, si, ti = equivalence.outcome_bijection(single, twostep)
    assert pairs == tuple(dict.fromkeys((src, dst) for src, dst, _ in names))
    assert list(pairs) == hand_outcome_pairs(two_qubit_mapping())
    assert len(pairs) == 81 and len(names) == 81 * 16
    maps_s, maps_t = measure.branch_maps(single), measure.branch_maps(twostep)
    assert [maps_s.keys[b] for b in si] == [(src, coin) for src, _, coin in names]
    assert [maps_t.keys[b] for b in ti] == [(dst, coin) for _, dst, coin in names]
    # The paired branch maps are bitwise equal, so they agree on every payload.
    rows = np.arange(maps_s.dim)
    block_s = maps_s.matrix[(si[:, None] * maps_s.dim + rows).ravel()]
    block_t = maps_t.matrix[(ti[:, None] * maps_t.dim + rows).ravel()]
    assert (block_s != block_t).nnz == 0


def test_mapping_incomplete_detected(warm_tables):
    single, twostep = get_protocol("single2q"), get_protocol("twostep2q")
    trimmed = {
        spec.id: dataclasses.replace(spec, position_families=spec.position_families[:-1])
        for spec in (single, twostep)
    }
    # The outcomes of the dropped family lose their partners, on either side.
    with pytest.raises(MappingIncomplete, match=r"\[\] with twostep2q outcomes \['Q15:0'\]"):
        equivalence.outcome_bijection(trimmed["single2q"], twostep)
    with pytest.raises(MappingIncomplete, match=r"\['P15:0'\] with twostep2q outcomes \[\]"):
        equivalence.outcome_bijection(single, trimmed["twostep2q"])


TWO_QUBIT_MUTATIONS = [(pid, mutate) for pid, mutate in CASES if pid in ("single2q", "twostep2q")]


@pytest.mark.parametrize(
    "pid, mutate",
    TWO_QUBIT_MUTATIONS,
    ids=[f"{pid}-{mutate.__name__}" for pid, mutate in TWO_QUBIT_MUTATIONS],
)
def test_spec_mutations_break_the_derived_bijection(warm_tables, pid, mutate):
    specs = {p: get_protocol(p) for p in ("single2q", "twostep2q")}
    specs[pid] = mutate(specs[pid])
    with pytest.raises(MappingIncomplete):
        equivalence.outcome_bijection(specs["single2q"], specs["twostep2q"])


def test_every_two_qubit_mutant_breaks_the_derived_bijection(warm_tables, monkeypatch):
    # Each single-point mutant of either side, paired with the other built-in
    # spec, must leave some outcome without exactly one partner; the step
    # swaps compile to the spec's own maps and must pair as the specs do.
    single, twostep = get_protocol("single2q"), get_protocol("twostep2q")
    expected = equivalence.outcome_bijection(single, twostep)[0]
    # Built-in specs keep their cached maps; mutants compile fresh and keep
    # only the last walk map, as in the mutant gate.
    monkeypatch.setattr(measure, "walk_map", last_walk_map(measure.walk_map.__wrapped__))
    monkeypatch.setattr(
        equivalence,
        "branch_maps",
        lambda spec: measure.branch_maps(spec)
        if spec is get_protocol(spec.id)
        else measure.compile_branch_maps(spec),
    )
    derive = equivalence.outcome_bijection.__wrapped__
    verdicts = collections.Counter()
    for side, spec in enumerate((single, twostep)):
        for kind in MUTANT_KINDS:
            for mutant in kind(spec):
                pair = (mutant, twostep) if side == 0 else (single, mutant)
                try:
                    pairs = derive(*pair)[0]
                except MappingIncomplete:
                    verdicts[kind.__name__, "unpaired"] += 1
                    continue
                assert pairs == expected, (spec.id, kind.__name__)
                verdicts[kind.__name__, "paired"] += 1
    assert verdicts == {
        ("hadamard_mutants", "unpaired"): 2 * 16,
        ("shift_rule_mutants", "unpaired"): 2 * 48,
        ("member_trade_mutants", "unpaired"): 2 * 27,
        ("target_swap_mutants", "unpaired"): 2 * 6,
        ("step_swap_mutants", "paired"): 2 * 6,
    }


def test_outcome_bijection_requires_distinct_maps(warm_tables):
    single = get_protocol("single2q")
    _, names, si, ti = equivalence.outcome_bijection(single, single)
    assert (si == ti).all() and len(names) == 81 * 16
    # Its first jump off by one, single2q has only 54 distinct maps for 81
    # outcomes, so even paired with itself two outcomes share one map.
    mutated = first_jump_off_by_one(single)
    with pytest.raises(MappingIncomplete, match=r"\['P2:0', 'P2:1'\] with single2q"):
        equivalence.outcome_bijection(mutated, mutated)


def test_unpaired_branch_maps_exit_1_without_a_traceback(warm_tables, monkeypatch, capsys):
    mutated = first_jump_off_by_one(get_protocol("twostep2q"))
    monkeypatch.setattr(
        equivalence, "get_protocol", lambda pid: mutated if pid == "twostep2q" else get_protocol(pid)
    )
    assert cli.main(["equiv", "two-qubit", "--count", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: MappingIncomplete: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_outcome_bijection_is_derived_once_per_process(warm_tables, tmp_path):
    equivalence.outcome_bijection.cache_clear()
    argv = ["equiv", "two-qubit", "--count", "1", "--out", str(tmp_path / "report.json")]
    for _ in range(2):
        assert cli.main(argv) == 0
    info = equivalence.outcome_bijection.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_deriving_the_bijection_peaks_under_2_mib(warm_tables):
    single, twostep = get_protocol("single2q"), get_protocol("twostep2q")
    measure.branch_maps(single), measure.branch_maps(twostep)
    equivalence.outcome_bijection.cache_clear()
    tracemalloc.start()
    try:
        equivalence.outcome_bijection(single, twostep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


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


def test_mapped_table_comparison_is_cached_per_table_pair(warm_tables):
    spec = get_protocol("twostep2q")
    broken = measure.corrupt_table(
        measure.synthesized_table(spec), "Q3", spec.target_coins
    )
    equivalence._mismatched_rows.cache_clear()
    for _ in range(2):
        assert equivalence.check_two_qubit_equivalence([])["table_mismatches"] == []
    info = equivalence._mismatched_rows.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    corrupted = equivalence.check_two_qubit_equivalence([], twostep_table=broken)
    assert corrupted["table_mismatches"]
    assert all(m["twostep_outcome"].startswith("Q3") for m in corrupted["table_mismatches"])
    # A caller mutating its result cannot reach the cached comparison.
    corrupted["table_mismatches"].clear()
    again = equivalence.check_two_qubit_equivalence([], twostep_table=broken)
    assert again["table_mismatches"] and not again["ok"]
    assert equivalence.check_two_qubit_equivalence([])["table_mismatches"] == []
    assert equivalence._mismatched_rows.cache_info().misses == 2


def test_mapped_branch_rows_reject_an_unknown_outcome(warm_tables):
    single, twostep = get_protocol("single2q"), get_protocol("twostep2q")
    ((src, dst), *rest), *_ = equivalence.outcome_bijection(single, twostep)
    with pytest.raises(MappingIncomplete, match=rf"table row missing for \({src}x, {dst}, "):
        equivalence.mapped_table_mismatches(
            ((src + "x", dst), *rest),
            ("single", measure.synthesized_table(single), single.target_coins),
            ("twostep", measure.synthesized_table(twostep), twostep.target_coins),
        )


def rowwise_two_qubit_equivalence(
    payloads, tol=equivalence.EQUIV_TOL, single_table=None, twostep_table=None
):
    """The branch-by-branch loop check_two_qubit_equivalence replaced, as a reference.

    It pairs the branches through the hand pairing, not the derived one.
    """
    single = get_protocol("single2q")
    twostep = get_protocol("twostep2q")
    outcome_pairs = hand_outcome_pairs(two_qubit_mapping())
    table_s = single_table if single_table is not None else measure.synthesized_table(single)
    table_t = twostep_table if twostep_table is not None else measure.synthesized_table(twostep)
    table_mismatches = equivalence.mapped_table_mismatches(
        outcome_pairs,
        ("single", table_s, single.target_coins),
        ("twostep", table_t, twostep.target_coins),
    )
    max_dp = 0.0
    max_ds = 0.0
    branch_mismatches = []
    compared = 0
    for index, payload in enumerate(payloads):
        bs = {(b.position, b.coin): b for b in measure.enumerate_branches(single, payload, table_s)}
        bt = {(b.position, b.coin): b for b in measure.enumerate_branches(twostep, payload, table_t)}
        coins = sorted({c for _, c in bs})
        pairs = [
            (src, dst, coin, bs[(src, coin)], bt[(dst, coin)])
            for src, dst in outcome_pairs
            for coin in coins
        ]
        dps = [abs(u.probability - v.probability) for *_, u, v in pairs]
        dss = equivalence.phase_aligned_delta(
            np.array([u.vector for *_, u, _ in pairs]),
            np.array([v.vector for *_, v in pairs]),
        ).tolist()
        for (src, dst, coin, u, v), dp, ds in zip(pairs, dps, dss):
            if u.vacuous and v.vacuous:
                ds = 0.0
            compared += 1
            max_dp = max(max_dp, dp)
            max_ds = max(max_ds, ds)
            if dp > tol or ds > tol:
                branch_mismatches.append(
                    {
                        "payload": index,
                        "single_outcome": src,
                        "twostep_outcome": dst,
                        "coin": coin,
                        "probability_delta": dp,
                        "state_delta": ds,
                    }
                )
    return {
        "claim": "two-qubit single-step and two-step protocols are equivalent",
        "payloads": len(payloads),
        "branches_compared": compared,
        "max_probability_delta": max_dp,
        "max_state_delta": max_ds,
        "branch_mismatches": branch_mismatches,
        "table_mismatches": table_mismatches,
        "ok": not branch_mismatches and not table_mismatches,
    }


@pytest.mark.parametrize("family", [None, "P3", "Q5"])
def test_columnar_two_qubit_check_equals_rowwise_reference(warm_tables, family):
    kwargs = {}
    if family is not None:
        pid, key = ("single2q", "single_table") if family[0] == "P" else ("twostep2q", "twostep_table")
        spec = get_protocol(pid)
        kwargs[key] = measure.corrupt_table(
            measure.synthesized_table(spec), family, spec.target_coins
        )
    payloads = seeded_payloads(23, 2, 2)
    report = equivalence.check_two_qubit_equivalence(payloads, **kwargs)
    assert report == rowwise_two_qubit_equivalence(payloads, **kwargs)
    if family is not None:
        # Corrupted rows score as mismatches, so their deltas are compared exactly.
        assert len(report["branch_mismatches"]) > 0
        assert all(type(m["state_delta"]) is float for m in report["branch_mismatches"])
    # A tolerance below every delta flags each compared pair.
    tight = equivalence.check_two_qubit_equivalence(payloads, tol=-1.0, **kwargs)
    assert tight == rowwise_two_qubit_equivalence(payloads, tol=-1.0, **kwargs)
    assert len(tight["branch_mismatches"]) == 2 * 1296


def test_two_qubit_check_over_several_chunks_equals_rowwise_reference(warm_tables):
    # Seven payloads score in chunks of 3, 3 and 1; mismatches stay payload-major.
    single = get_protocol("single2q")
    broken = measure.corrupt_table(measure.synthesized_table(single), "P6", single.target_coins)
    payloads = seeded_payloads(25, 7, 2)
    report = equivalence.check_two_qubit_equivalence(payloads, tol=-1.0, single_table=broken)
    assert report == rowwise_two_qubit_equivalence(payloads, tol=-1.0, single_table=broken)
    assert [m["payload"] for m in report["branch_mismatches"]] == sorted(
        m["payload"] for m in report["branch_mismatches"]
    )


def test_columnar_two_qubit_check_zeroes_pairs_that_are_both_vacuous(warm_tables, monkeypatch):
    # No two-qubit branch is vacuous (each map is a nonzero multiple of a
    # unitary), so mark rows vacuous, a different set and scramble per
    # protocol, and scramble their vectors.
    score_branches = measure.score_branches

    def with_vacuous_rows(spec, alice, bob, table):
        probabilities, fidelities, _, vectors = score_branches(spec, alice, bob, table)
        step, shift = (5, 1) if spec.id == "single2q" else (3, 2)
        dead = np.arange(probabilities.shape[1]) % step == 0
        vectors = vectors.copy()
        vectors[:, dead] = np.roll(vectors[:, dead], shift, axis=2)
        probabilities = probabilities.copy()
        probabilities[:, dead] *= shift + abs(alice[:, :1])
        return probabilities, fidelities, np.broadcast_to(dead, probabilities.shape), vectors

    monkeypatch.setattr(measure, "score_branches", with_vacuous_rows)

    def check(payloads):
        return equivalence.check_two_qubit_equivalence(payloads, tol=-1.0)

    # The first payload holds both maxima, so they must survive the later ones.
    payloads = seeded_payloads(24, 3, 2)
    payloads.sort(key=lambda p: -check([p])["max_state_delta"])
    first = check(payloads[:1])
    report = check(payloads)
    assert report == rowwise_two_qubit_equivalence(payloads, tol=-1.0)
    deltas = [m["state_delta"] for m in report["branch_mismatches"]]
    assert 0 < deltas.count(0.0) < len(deltas)
    assert report["max_state_delta"] == first["max_state_delta"] > 1e-3
    assert report["max_probability_delta"] == first["max_probability_delta"] > 1e-3


def test_cycle_line_equivalence_holds(warm_tables):
    report = equivalence.check_cycle_line_equivalence(seeded_payloads(4, 3, 1))
    assert report["ok"]
    assert report["max_state_delta"] == 0.0
    assert report["table_mismatches"] == []


# The hand pairing the derivation replaced, as a reference: family names of
# the line protocol and their counterparts on the cycle, where the +-2
# positions merge and only the all-plus outcome survives.
CYCLE_LINE_FAMILY_MAP = (
    ("00", "00"),
    ("02:0", "02"),
    ("20:0", "20"),
    ("22:0", "22"),
)


def reduce_mod4(state, cycle_layout):
    """Map a line-protocol state onto the cycle layout, positions mod 4."""
    amps = {}
    for label, amp in state.amps.items():
        reduced = tuple(
            v % 4 if reg.role == "position" else v
            for reg, v in zip(state.layout.registers, label)
        )
        amps[reduced] = amps.get(reduced, 0.0 + 0.0j) + amp
    return SparseState(cycle_layout, amps)


def per_payload_cycle_line_equivalence(payloads, cycle_table=None):
    """The per-payload walks check_cycle_line_equivalence replaced, as a reference."""
    line = equivalence.get_protocol("line1q")
    cyc = equivalence.get_protocol("cycle1q")
    table_cycle = cycle_table if cycle_table is not None else measure.synthesized_table(cyc)
    table_mismatches = equivalence.mapped_table_mismatches(
        CYCLE_LINE_FAMILY_MAP,
        ("line", measure.synthesized_table(line), line.target_coins),
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
        if delta > equivalence.EQUIV_TOL:
            state_mismatches.append({"payload": index, "state_delta": delta})
        if index == 0:
            spot_checks.append(
                equivalence._origin_residual_spot_check(cyc, cycle_state, payload)
            )
    return {
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


@pytest.mark.parametrize("seed, family", [(0, None), (11, None), (2999, None), (5, "02")])
def test_map_cycle_line_check_equals_per_payload_reference(warm_tables, seed, family):
    kwargs = {}
    if family is not None:
        cyc = get_protocol("cycle1q")
        kwargs["cycle_table"] = measure.corrupt_table(
            measure.synthesized_table(cyc), family, cyc.target_coins
        )
    payloads = seeded_payloads(seed, 24, 1)
    report = equivalence.check_cycle_line_equivalence(payloads, **kwargs)
    reference = per_payload_cycle_line_equivalence(payloads, **kwargs)
    assert {**report, "max_state_delta": None} == {**reference, "max_state_delta": None}
    # The walks leave rounding noise; the difference of the maps is exactly 0.
    assert reference["max_state_delta"] <= 2e-16
    assert report["max_state_delta"] == 0.0
    assert report["ok"] == (family is None)


def test_cycle_line_difference_is_exactly_zero(warm_tables):
    difference = equivalence.cycle_line_difference(get_protocol("line1q"), get_protocol("cycle1q"))
    assert difference.shape == (16, 4)
    assert not difference.any()


def test_cycle_line_check_flags_a_mutated_cycle_walk(warm_tables, monkeypatch):
    cyc = get_protocol("cycle1q")
    table = measure.synthesized_table(cyc)
    # The mutated spec has no Pauli table, so the unmutated one stands in.
    mutated = first_jump_off_by_one(cyc)
    monkeypatch.setattr(
        equivalence, "get_protocol", lambda pid: mutated if pid == "cycle1q" else get_protocol(pid)
    )
    payloads = seeded_payloads(12, 5, 1)
    report = equivalence.check_cycle_line_equivalence(payloads, cycle_table=table)
    reference = per_payload_cycle_line_equivalence(payloads, cycle_table=table)
    assert not report["ok"]
    assert [m["payload"] for m in report["state_mismatches"]] == list(range(5))
    assert [m["payload"] for m in reference["state_mismatches"]] == list(range(5))
    for got, want in zip(report["state_mismatches"], reference["state_mismatches"]):
        assert got["state_delta"] == pytest.approx(want["state_delta"], abs=1e-12)
    assert report["max_state_delta"] > 1e-3
    monkeypatch.undo()
    # The difference map is cached per spec object, not per protocol id.
    assert equivalence.check_cycle_line_equivalence(payloads)["max_state_delta"] == 0.0


def test_every_cycle_walk_mutant_moves_the_cycle_line_difference(warm_tables, monkeypatch):
    # Mutants that change the cycle walk must move the compiled difference
    # past the tolerance; step and target swaps leave the walk map as it is
    # (table synthesis kills the target swap).
    line, cycle = get_protocol("line1q"), get_protocol("cycle1q")
    walk_map = measure.walk_map
    monkeypatch.setattr(
        equivalence,
        "walk_map",
        lambda spec: walk_map(spec) if spec is get_protocol(spec.id) else walk_map.__wrapped__(spec),
    )
    difference = equivalence.cycle_line_difference.__wrapped__
    deltas = collections.defaultdict(list)
    for kind in MUTANT_KINDS:
        for mutant in kind(cycle):
            deltas[kind.__name__].append(np.abs(difference(line, mutant)).max())
    assert {kind: len(found) for kind, found in deltas.items()} == {
        "hadamard_mutants": 4,
        "plus_coin_mutants": 2,
        "shift_rule_mutants": 24,
        "step_swap_mutants": 6,
        "target_swap_mutants": 1,
    }
    for kind in ("hadamard_mutants", "plus_coin_mutants", "shift_rule_mutants"):
        assert min(deltas[kind]) > equivalence.EQUIV_TOL, kind
    for kind in ("step_swap_mutants", "target_swap_mutants"):
        assert max(deltas[kind]) == 0.0, kind


def test_derived_cycle_line_pairs_equal_the_hand_map():
    line, cyc = get_protocol("line1q"), get_protocol("cycle1q")
    assert equivalence.cycle_line_pairs(line, cyc) == CYCLE_LINE_FAMILY_MAP


def misplaced_corner(cyc):
    """cycle1q with its 22 family on vertex (1, 3), which no line family reduces onto."""
    families = tuple(
        dataclasses.replace(f, members=((1, 3),)) if f.name == "22" else f
        for f in cyc.position_families
    )
    return dataclasses.replace(cyc, position_families=families)


def test_cycle_family_without_exactly_one_line_partner_is_detected():
    line, cyc = get_protocol("line1q"), get_protocol("cycle1q")
    with pytest.raises(MappingIncomplete, match=r"cycle1q family 22 has line1q partners \[\]$"):
        equivalence.cycle_line_pairs(line, misplaced_corner(cyc))
    # The line's 22 family split in two: both halves reduce onto vertex (2, 2).
    corner = next(f for f in line.position_families if f.name == "22")
    halves = (
        PositionFamily("22a", corner.registers, corner.members[:2]),
        PositionFamily("22b", corner.registers, corner.members[2:]),
    )
    split = dataclasses.replace(line, position_families=line.position_families[:3] + halves)
    with pytest.raises(MappingIncomplete, match=r"partners \['22a:0', '22b:0'\]$"):
        equivalence.cycle_line_pairs(split, cyc)


def test_unpaired_cycle_family_exits_1_without_a_traceback(warm_tables, monkeypatch, capsys):
    mutated = misplaced_corner(get_protocol("cycle1q"))
    monkeypatch.setattr(
        equivalence, "get_protocol", lambda pid: mutated if pid == "cycle1q" else get_protocol(pid)
    )
    assert cli.main(["equiv", "cycle-line", "--count", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: MappingIncomplete: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_tables_and_cycle_line_calls_walk_each_basis_payload_once(tmp_path, monkeypatch):
    # A fresh memo gives this test its own spec objects, so every per-spec
    # cache (walk maps, branch maps, tables, pairs, difference map) starts cold.
    monkeypatch.setattr(protocols, "_protocol", functools.cache(protocols._protocol.__wrapped__))
    ids = {get_protocol(pid).layout: pid for pid in ("line1q", "cycle1q")}
    walked = []
    run = WalkProgram.run

    def counted(program, alice, bob):
        walked.append((ids[program.layout], len(alice)))
        return run(program, alice, bob)

    monkeypatch.setattr(WalkProgram, "run", counted)
    out = str(tmp_path / "report.json")
    equiv = ["equiv", "cycle-line", "--count", "24"]
    for argv in (["tables", "line1q"], ["tables", "cycle1q"], equiv, equiv):
        assert cli.main([*argv, "--out", out]) == 0
    # One run of the four basis payloads per protocol for its walk map,
    # shared by the branch maps and the difference map, plus the origin spot
    # check's one-payload cycle walk once per equiv call.
    assert collections.Counter(walked) == {("line1q", 4): 1, ("cycle1q", 4): 1, ("cycle1q", 1): 2}


def test_equiv_cycle_line_walks_once_per_call_after_the_first(warm_tables, tmp_path, monkeypatch):
    out = str(tmp_path / "report.json")
    argv = ["equiv", "cycle-line", "--count", "24", "--out", out]
    assert cli.main(argv) == 0
    walked = []
    walk = equivalence.run_walks
    monkeypatch.setattr(
        equivalence, "run_walks", lambda spec, payload: walked.append(spec.id) or walk(spec, payload)
    )
    for _ in range(3):
        assert cli.main(argv) == 0
    # Only the origin spot check walks: the cycle for the first payload.
    assert walked == ["cycle1q"] * 3


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
    from walkport.measure import project
    from walkport.protocols import random_payload, run_walks
    import numpy as np

    payload = random_payload(np.random.default_rng(17), 2)
    residuals = []
    for pid, origin in (("single2q", "P0"), ("twostep2q", "Q0")):
        spec = get_protocol(pid)
        family = next(f for f in spec.position_families if f.name == origin)
        (member,) = family.members
        _, residual = project(run_walks(spec, payload), family.registers, {member: 1.0})
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
