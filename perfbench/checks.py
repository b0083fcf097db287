"""Re-checks of CLI reports, done outside the timed interval.

``problems(argv, rc, report)`` returns the reasons a call failed, empty when
it passed.  The thresholds are the package's acceptance tolerances.
"""

from __future__ import annotations

from workloads import BRANCHES, PROTOCOL_IDS

FIDELITY_TOL = 1e-9
PROB_SUM_TOL = 1e-9
DELTA_TOL = 1e-10


def _count(argv: list[str]) -> int:
    return int(argv[argv.index("--count") + 1])


def _check_run(argv: list[str], report: dict) -> list[str]:
    protocol = argv[1]
    out = []
    if report.get("protocol") != protocol:
        out.append(f"protocol {report.get('protocol')!r}, expected {protocol!r}")
    if len(report["payloads"]) != _count(argv):
        out.append(f"{len(report['payloads'])} payloads, expected {_count(argv)}")
    for entry in report["payloads"]:
        branches = entry["branches"]
        if len(branches) != BRANCHES[protocol]:
            out.append(
                f"payload {entry['payload']}: {len(branches)} branches, "
                f"expected {BRANCHES[protocol]}"
            )
        prob_sum = sum(b["probability"] for b in branches)
        if abs(prob_sum - 1.0) > PROB_SUM_TOL:
            out.append(f"payload {entry['payload']}: |sum p - 1| = {abs(prob_sum - 1.0)!r}")
        low = [b for b in branches if not b["vacuous"] and b["fidelity"] < 1.0 - FIDELITY_TOL]
        if low:
            worst = min(low, key=lambda b: b["fidelity"])
            out.append(
                f"payload {entry['payload']}: {len(low)} branches below fidelity "
                f"1 - {FIDELITY_TOL}, worst {worst['fidelity']!r} at "
                f"({worst['position']}, {worst['coin']})"
            )
    return out


def _check_equiv(argv: list[str], report: dict) -> list[str]:
    out = []
    count = _count(argv)
    if report.get("payloads") != count:
        out.append(f"{report.get('payloads')} payloads, expected {count}")
    if argv[1] == "two-qubit":
        expected = BRANCHES["single2q"] * count
        if report.get("branches_compared") != expected:
            out.append(f"{report.get('branches_compared')} branches compared, expected {expected}")
        if report["max_probability_delta"] > DELTA_TOL:
            out.append(f"probability delta {report['max_probability_delta']!r}")
    if report["max_state_delta"] > DELTA_TOL:
        out.append(f"state delta {report['max_state_delta']!r}")
    return out


def _check_oracle(argv: list[str], report: dict) -> list[str]:
    out = []
    named = [a for a in argv if a in PROTOCOL_IDS]
    expected = named or list(PROTOCOL_IDS)
    if [c["protocol"] for c in report["checks"]] != expected:
        out.append(f"checked {[c['protocol'] for c in report['checks']]}, expected {expected}")
    for check in report["checks"]:
        if check["payloads"] != _count(argv):
            out.append(f"{check['protocol']}: {check['payloads']} payloads")
        if not max(check["unitarity_defects"]) < DELTA_TOL:
            out.append(f"{check['protocol']}: unitarity defect {max(check['unitarity_defects'])!r}")
        if not check["max_state_delta"] < DELTA_TOL:
            out.append(f"{check['protocol']}: state delta {check['max_state_delta']!r}")
    return out


def _check_tables(argv: list[str], report: dict) -> list[str]:
    out = []
    if report.get("protocol") != argv[1]:
        out.append(f"protocol {report.get('protocol')!r}, expected {argv[1]!r}")
    if not report["comparison"]["rows_checked"] > 0:
        out.append("no reference rows compared")
    if set(report["synthesized"]) != set(report["families"]) or not report["families"]:
        out.append("synthesized families do not match the selection")
    return out


CHECKERS = {
    "run": _check_run,
    "equiv": _check_equiv,
    "oracle-check": _check_oracle,
    "tables": _check_tables,
}


def problems(argv: list[str], rc, report: dict | None) -> list[str]:
    """Why a call failed; an empty list means it passed every check."""
    out = []
    if rc != 0:
        out.append(f"exit code {rc}")
    if report is None:
        return out + ["no report written"]
    if report.get("ok") is not True:
        out.append(f"report ok is {report.get('ok')!r}")
    try:
        out.extend(CHECKERS[argv[0]](argv, report))
    except (KeyError, TypeError, ValueError) as exc:
        out.append(f"malformed report: {exc.__class__.__name__}: {exc}")
    return out
