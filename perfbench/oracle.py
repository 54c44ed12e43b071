"""Independent verdict oracle for fusion-audit JSON reports.

Uses no fusionaudit code.  The expected values come from the input
generator's own construction (``perfbench.inputs``) or, for the paper's
group, from the paper.  ``check_report`` returns the list of problems it
found; an empty list means the report is accepted.
"""
from __future__ import annotations

from typing import Dict, List

# The paper's group G = F2^4 x| Q8.  g^2 = 1 holds for all 16 elements of H
# and, in the coset Hz of the central involution z, for the 8 elements of
# C_H(z); every other coset squares into Hz.
G128_FACTS = {"order": 128, "square_roots_of_1": 16 + 8}


def _check_degrees(degrees: List[int], indicators: List[int],
                   facts: Dict[str, int]) -> List[str]:
    problems = []
    if len(degrees) != len(indicators):
        problems.append(f"{len(degrees)} degrees but {len(indicators)} indicators")
    if any(nu not in (-1, 0, 1) for nu in indicators):
        problems.append(f"indicator outside {{-1, 0, 1}}: {indicators}")
    sum_sq = sum(d * d for d in degrees)
    if sum_sq != facts["order"]:
        problems.append(f"sum d^2 = {sum_sq}, expected |G| = {facts['order']}")
    # Frobenius-Schur: sum nu(chi) chi(1) counts the square roots of 1.
    fs = sum(nu * d for nu, d in zip(indicators, degrees))
    if fs != facts["square_roots_of_1"]:
        problems.append(f"sum nu*d = {fs}, expected #{{g: g^2 = 1}} = "
                        f"{facts['square_roots_of_1']}")
    return problems


def _check_table(report: Dict, facts: Dict[str, int]) -> List[str]:
    table = report["table"]
    irr = table["irreducibles"]
    problems = _check_degrees([row["degree"] for row in irr],
                              [row["indicator"] for row in irr], facts)
    if table["order"] != facts["order"]:
        problems.append(f"table order {table['order']}, expected {facts['order']}")
    if sum(cl["size"] for cl in table["classes"]) != facts["order"]:
        problems.append("class sizes do not sum to |G|")
    if len(table["classes"]) != len(irr):
        problems.append(f"{len(table['classes'])} classes but {len(irr)} irreducibles")
    if any(len(row["values"]) != len(table["classes"]) for row in irr):
        problems.append("a row does not have one value per class")
    return problems


def _check_scan(report: Dict, facts: Dict[str, int]) -> List[str]:
    problems = _check_degrees(report["degrees"], report["indicators"], facts)
    for rec in report["scans"]["positivity"]:
        if not (rec["N"] > 0 and rec["nu_p"] * rec["nu_q"] * rec["nu_r"] < 0):
            problems.append(f"positivity record is not a violation: {rec}")
    return problems


def _check_paper_verify(report: Dict) -> List[str]:
    problems = []
    claims = report.get("claims", [])
    if [(c["name"], c["passed"]) for c in claims] != [("all_lambdas", True)]:
        problems.append(f"verify claims are not one passing all_lambdas: {claims}")
    runs = report.get("lambda_runs", [])
    covectors = [run["covector"] for run in runs]
    if len(set(covectors)) != 8:
        problems.append(f"expected 8 distinct covectors, got {covectors}")
    for run in runs:
        if not run["ok"] or not all(c["passed"] for c in run["claims"]):
            problems.append(f"covector {run['covector']} does not pass")
        witness = {c["name"]: c["witness"] for c in run["claims"]}
        phi = witness.get("claim2_constituent_phi", {})
        if (phi.get("multiplicity_in_chi_squared"), phi.get("nu2_phi")) != ("2", "-1"):
            problems.append(f"covector {run['covector']}: N = "
                            f"{phi.get('multiplicity_in_chi_squared')}, "
                            f"nu(phi) = {phi.get('nu2_phi')}, expected 2 and -1")
        ledger = witness.get("claim6_indicator", {})
        if (ledger.get("counts"), ledger.get("contributions"), ledger.get("total")) \
                != ([16, 8, 8], [8, 8, -8], 128):
            problems.append(f"covector {run['covector']}: ledger {ledger}")
    return problems


def _check_paper_scan(report: Dict) -> List[str]:
    positivity = report["scans"]["positivity"]
    if not positivity:
        return ["no positivity violation on the paper's group"]
    odd = [rec for rec in positivity if rec["N"] % 2]
    return [f"odd multiplicity in positivity records: {odd}"] if odd else []


def _check_paper_table(report: Dict) -> List[str]:
    claims = report.get("claims", [])
    if [(c["name"], c["passed"]) for c in claims] != [("constructive_matches_dixon", True)]:
        return [f"constructive characters do not match the Dixon table: {claims}"]
    return []


def check_report(report: Dict, facts: Dict[str, int], paper: bool = False) -> List[str]:
    """Problems with one parsed report; facts as made by perfbench.inputs.

    paper=True also checks the paper's witnesses on builtin:g128.
    """
    try:
        problems = [] if report["ok"] is True else ["report is not ok"]
        if "scans" in report and report["scans"]["odd_rule"]:
            problems.append(f"odd_rule is not empty: {report['scans']['odd_rule']}")
        command = report["command"]
        if command == "table":
            problems += _check_table(report, facts)
        elif command == "scan":
            problems += _check_scan(report, facts)
        if paper:
            problems += {"verify": _check_paper_verify, "scan": _check_paper_scan,
                         "table": _check_paper_table}[command](report)
    except (KeyError, TypeError, IndexError) as exc:
        problems = [f"report is missing a field: {exc!r}"]
    return problems
