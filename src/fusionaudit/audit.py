"""Reports, the three conjecture scans, and the command entry points.

scan_report checks a Dixon table's fusion data against the positivity and
Wang conjectures and the odd-multiplicity rule, which must never fail.
verify_claims and verify_all_lambdas check the six claims on g128.  The
`construction` and `constructive` modules are imported only where used.
"""
from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .characters import CharacterTable, dixon_table, fusion_tensor
from .groups import FiniteGroup, elementary_abelian_16, q8_group

if TYPE_CHECKING:
    from .construction import ConstructedGroup
    from .constructive import ConstructiveData

SCHEMA_VERSION = 1


class AuditReport:
    """A report is its JSON document: the header (schema, command, group,
    ok) and the sections, each a top-level key, in the order given."""
    __slots__ = ("command", "group_label", "sections")

    def __init__(self, command: str, group_label: str, **sections):
        self.command = command
        self.group_label = group_label
        self.sections = sections

    @property
    def ok(self) -> bool:
        return (all(c["passed"] for c in self.sections.get("claims", ()))
                and not self.sections.get("scans", {}).get("odd_rule"))

    def to_dict(self) -> Dict:
        return {"schema": SCHEMA_VERSION, "command": self.command,
                "group": self.group_label, "ok": self.ok, **self.sections}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        sections = self.sections
        lines = [f"group: {self.group_label}"]
        for c in sections.get("claims", ()):
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{status}] {c['name']}")
            for k, v in c["witness"].items():
                lines.append(f"    {k}: {v}")
        scans = sections.get("scans", {})
        for tag in ("positivity", "wang", "odd_rule"):
            if tag not in scans:
                continue
            recs = scans[tag]
            lines.append(f"{tag} violations: {len(recs)}")
            for r in recs:
                lines.append(f"    {r}")
        table = sections.get("table")
        if table is not None:
            lines.append(f"character table: {len(table['irreducibles'])} irreducibles")
            for row in table["irreducibles"]:
                name = f"{row['name']}: " if "name" in row else ""
                lines.append(f"    {name}deg {row['degree']:>3}  nu2 {row['indicator']:>2}  "
                             + "  ".join(row["values"]))
        for k, v in sections.items():
            if k == "lambda_runs":
                # One verdict line per run; the witnesses stay in the JSON.
                lines.append(f"lambda_runs: {len(v)}")
                for run in v:
                    lines.append(f"    covector {run['covector']}: "
                                 + ("OK" if run["ok"] else "FAILED"))
                    for c in run["claims"]:
                        status = "PASS" if c["passed"] else "FAIL"
                        lines.append(f"        [{status}] {c['name']}")
            elif k not in ("claims", "scans", "table"):
                lines.append(f"{k}: {v}")
        lines.append("result: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Built-in groups and the six claims
# ---------------------------------------------------------------------------

def builtin_group(name: str) -> Tuple[FiniteGroup, Optional[ConstructedGroup]]:
    if name == "g128":
        from . import construction
        cg = construction.build_default()
        return cg.group, cg
    if name == "q8":
        return q8_group(), None
    if name == "h16":
        return elementary_abelian_16(), None
    raise ValueError(f"unknown builtin group {name!r} (have: g128, q8, h16)")


def constructive_data(cg: ConstructedGroup,
                      covector: Optional[int] = None) -> ConstructiveData:
    from .construction import q8_quotient
    from .constructive import ConstructiveData, _lambda_and_chi, lift_from_quotient
    lam, chi = _lambda_and_chi(cg, covector)
    qtab = dixon_table(q8_quotient(cg)[0])
    lifts = tuple(lift_from_quotient(c, cg) for c in qtab.irreducibles)
    phi = next((l for l, d in zip(lifts, qtab.degrees()) if d == 2), None)
    if phi is None:
        raise AssertionError(f"G/H has no irreducible of degree 2: degrees {qtab.degrees()}")
    return ConstructiveData(cg, lam, chi, lifts, phi)


def verify_claims(cg: ConstructedGroup, covector: Optional[int] = None) -> AuditReport:
    from . import constructive
    data = constructive_data(cg, covector)
    return constructive._claims_report(data, constructive._covector_free_claims(data))


def verify_all_lambdas(cg: ConstructedGroup) -> AuditReport:
    """Run the six claims once per valid covector; all 8 must pass.

    The quotient, its Dixon table, the lifts, phi and the covector-free
    claims are built once; only lambda and chi change per covector.
    """
    from . import constructive
    base = constructive_data(cg)
    fixed = constructive._covector_free_claims(base)
    runs = []
    for v in fixed["valid"]:
        data = base if v == base.lam.covector else base.for_covector(v)
        sub = constructive._claims_report(data, fixed)
        runs.append({"covector": v, "ok": sub.ok, "claims": sub.sections["claims"]})
    all_ok = all(r["ok"] for r in runs)
    return AuditReport("verify", "builtin:g128", claims=[
        {"name": "all_lambdas", "passed": all_ok,
         "witness": {"covectors": [r["covector"] for r in runs], "all_pass": all_ok}}],
        lambda_runs=runs)


# ---------------------------------------------------------------------------
# Conjecture scans
# ---------------------------------------------------------------------------

def positivity_scan(table: CharacterTable, N: List[List[List[int]]]) -> List[Dict]:
    """Triples with N_pq^r > 0 but nu_p nu_q nu_r < 0; p <= q canonically."""
    nus = table.indicators()
    out = []
    k = len(nus)
    for p in range(k):
        for q in range(p, k):
            for r in range(k):
                if N[p][q][r] > 0 and nus[p] * nus[q] * nus[r] < 0:
                    out.append({"tag": "positivity", "p": p, "q": q, "r": r,
                                "N": N[p][q][r], "nu_p": nus[p],
                                "nu_q": nus[q], "nu_r": nus[r]})
    return out


def wang_scan(table: CharacterTable, N: List[List[List[int]]]) -> List[Dict]:
    """Pairs with N_{p,p_dual}^r > 0 but nu_r != 1."""
    nus = table.indicators()
    out = []
    for p, p_dual in enumerate(table.duals):
        for r in range(len(nus)):
            if N[p][p_dual][r] > 0 and nus[r] != 1:
                out.append({"tag": "wang", "p": p, "p_dual": p_dual, "r": r,
                            "N": N[p][p_dual][r], "nu_r": nus[r],
                            "self_dual": p == p_dual})
    return out


def odd_rule_scan(positivity: List[Dict]) -> List[Dict]:
    """The positivity violations with odd N_pq^r, retagged as odd-rule
    findings.  Must be empty, always."""
    return [{**rec, "tag": "odd_rule"} for rec in positivity if rec["N"] % 2]


def scan_report(group_label: str, G: FiniteGroup) -> AuditReport:
    table = dixon_table(G)
    N = fusion_tensor(table)
    positivity = positivity_scan(table, N)
    scans = {
        "positivity": positivity,
        "wang": wang_scan(table, N),
        "odd_rule": odd_rule_scan(positivity),
    }
    return AuditReport("scan", group_label, scans=scans, degrees=list(table.degrees()),
                       indicators=list(table.indicators()))


# ---------------------------------------------------------------------------
# Table serialization
# ---------------------------------------------------------------------------

def table_to_dict(table: CharacterTable) -> Dict:
    G = table.group
    return {
        "order": G.order,
        "root_order": table.root_order,
        "dixon_prime": table.prime,
        "classes": [
            {"representative": cl[0], "size": len(cl),
             "element_order": len(pw)}
            for cl, pw in zip(G.conjugacy_classes(), G.power_classes())],
        "irreducibles": [
            {"degree": deg,
             "indicator": nu,
             "values": list(names)}
            for names, deg, nu in zip(table.rendered, table.degrees(), table.indicators())],
    }


def check_table_method(method: str, cg: Optional[ConstructedGroup]) -> None:
    """Raise ValueError unless `table` can run method on a group with construction cg."""
    if method not in ("dixon", "constructive", "both"):
        raise ValueError(f"unknown table method {method!r}")
    if method in ("constructive", "both") and cg is None:
        raise ValueError("constructive characters are defined only for builtin:g128")


def table_report(group_label: str, G: FiniteGroup, method: str = "dixon",
                 cg: Optional[ConstructedGroup] = None) -> AuditReport:
    """The `table` command: print/serialize the character table.

    method "constructive" lists only the characters the construction
    produces directly (the induced chi and the five quotient lifts) and is
    available for g128 alone; "both" additionally requires every
    constructive character to match a Dixon row verbatim.
    """
    check_table_method(method, cg)
    dix = dixon_table(G) if method in ("dixon", "both") else None
    if method == "dixon":
        return AuditReport("table", group_label, table=table_to_dict(dix))

    data = constructive_data(cg)
    constructive = [("induced_chi", data.chi)] + [
        (f"quotient_lift_{i}", l) for i, l in enumerate(data.lifts)]
    if method == "constructive":
        from .constructive import fs_indicator
        return AuditReport("table", group_label, table={
            "order": G.order, "root_order": G.exponent(), "irreducibles": [
                {"degree": c.degree(), "indicator": fs_indicator(c),
                 "values": [v.render() for v in c.values], "name": name}
                for name, c in constructive]})

    matches = {name: dix.row_of(c) for name, c in constructive}
    missing = [k for k, v in matches.items() if v is None]
    return AuditReport("table", group_label, table=table_to_dict(dix),
                       constructive_rows=matches, claims=[
                           {"name": "constructive_matches_dixon", "passed": not missing,
                            "witness": {"missing": missing} if missing else {"rows": matches}}])
