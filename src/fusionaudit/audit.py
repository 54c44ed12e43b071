"""Claim verification pipeline and the three conjecture scans.

verify_claims builds the order-128 group, runs the full induced-character
pipeline, and returns an AuditReport whose six claim records carry
reproducible witnesses.  The scans check any character table's fusion
data against the positivity conjecture, Wang's conjecture, and the
odd-multiplicity rule (which must never fail).
"""
from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from . import construction
from .characters import (
    CharacterTable,
    ClassFunction,
    dixon_table,
    fs_indicator,
    fusion_tensor,
    induce,
    inner_product,
    lift_from_quotient,
    pointwise_product,
    regular_character,
)
from .construction import ConstructedGroup, LambdaChoice
from .cyclotomic import Cyclotomic
from .groups import (
    FiniteGroup,
    centralizer_of_set,
    elementary_abelian_16,
    q8_group,
    quotient_group,
    squares_in,
)

SCHEMA_VERSION = 1


class ClaimResult:
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: Dict):
        self.name = name
        self.passed = passed
        self.witness = witness

    def to_dict(self) -> Dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


class AuditReport:
    __slots__ = ("command", "group_label", "claims", "scans", "table", "extra")

    def __init__(self, command: str, group_label: str,
                 claims: Optional[List[ClaimResult]] = None,
                 scans: Optional[Dict[str, List[Dict]]] = None,
                 table: Optional[Dict] = None, extra: Optional[Dict] = None):
        self.command = command
        self.group_label = group_label
        self.claims = [] if claims is None else claims
        self.scans = {} if scans is None else scans
        self.table = table
        self.extra = {} if extra is None else extra

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.claims) and not self.scans.get("odd_rule")

    def to_dict(self) -> Dict:
        out = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "group": self.group_label,
            "ok": self.ok,
        }
        if self.claims:
            out["claims"] = [c.to_dict() for c in self.claims]
        if self.scans:
            out["scans"] = self.scans
        if self.table is not None:
            out["table"] = self.table
        if self.extra:
            out.update(self.extra)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"group: {self.group_label}"]
        for c in self.claims:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}")
            for k, v in c.witness.items():
                lines.append(f"    {k}: {v}")
        for tag in ("positivity", "wang", "odd_rule"):
            if tag not in self.scans:
                continue
            recs = self.scans[tag]
            lines.append(f"{tag} violations: {len(recs)}")
            for r in recs:
                lines.append(f"    {r}")
        if self.table is not None:
            lines.append(f"character table: {len(self.table['irreducibles'])} irreducibles")
            for row in self.table["irreducibles"]:
                lines.append(f"    deg {row['degree']:>3}  nu2 {row['indicator']:>2}  "
                             + "  ".join(row["values"]))
        for k, v in self.extra.items():
            lines.append(f"{k}: {v}")
        lines.append("result: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Built-in groups
# ---------------------------------------------------------------------------

def builtin_group(name: str) -> Tuple[FiniteGroup, Optional[ConstructedGroup]]:
    if name == "g128":
        cg = construction.build_default()
        return cg.group, cg
    if name == "q8":
        return q8_group(), None
    if name == "h16":
        return elementary_abelian_16(), None
    raise ValueError(f"unknown builtin group {name!r} (have: g128, q8, h16)")


# ---------------------------------------------------------------------------
# Constructive characters of g128
# ---------------------------------------------------------------------------

def conjugate_stabilizer_check(cg: ConstructedGroup, lam: LambdaChoice) -> bool:
    """True iff ^x(lambda) differs from lambda for every x outside H."""
    G = cg.group
    h_set = set(cg.h_subgroup)
    for x in range(G.order):
        if x in h_set:
            continue
        if all(lam.value_sign(G.conj(h, x)) == lam.value_sign(h)
               for h in cg.h_subgroup):
            return False
    return True


class ConstructiveData:
    __slots__ = ("cg", "lam", "chi", "quotient", "proj", "lifts", "phi")

    def __init__(self, cg: ConstructedGroup, lam: LambdaChoice, chi: ClassFunction,
                 quotient: FiniteGroup, proj: List[int],
                 lifts: Tuple[ClassFunction, ...], phi: ClassFunction):
        self.cg = cg
        self.lam = lam
        self.chi = chi
        self.quotient = quotient
        self.proj = proj
        self.lifts = lifts      # the 5 quotient irreducibles, lifted
        self.phi = phi          # the lifted 2-dimensional irreducible

    def for_covector(self, covector: int) -> "ConstructiveData":
        """The same data with lambda and chi for another covector."""
        return ConstructiveData(self.cg, *_lambda_and_chi(self.cg, covector),
                                self.quotient, self.proj, self.lifts, self.phi)


def constructive_data(cg: ConstructedGroup,
                      covector: Optional[int] = None) -> ConstructiveData:
    G = cg.group
    lam, chi = _lambda_and_chi(cg, covector)
    quot, proj = quotient_group(G, cg.h_subgroup)
    qtab = dixon_table(quot)
    lifts = tuple(lift_from_quotient(c, G, proj) for c in qtab.irreducibles)
    phi = next(l for l, d in zip(lifts, qtab.degrees()) if d == 2)
    return ConstructiveData(cg, lam, chi, quot, proj, lifts, phi)


def _lambda_and_chi(cg: ConstructedGroup,
                    covector: Optional[int]) -> Tuple[LambdaChoice, ClassFunction]:
    """The fields of ConstructiveData that depend on the covector."""
    n = cg.group.exponent()
    lam = construction.choose_lambda(cg, covector)
    values = {g: Cyclotomic.from_rational(n, lam.value_sign(g)) for g in cg.h_subgroup}
    return lam, induce(cg.group, cg.h_subgroup, values, n=n)


def induced_square_constituent(data: ConstructiveData) -> ClassFunction:
    """(lambda^2) induced to G; must equal the lifted regular character of G/H."""
    cg, G = data.cg, data.cg.group
    n = G.exponent()
    sq_values = {g: Cyclotomic.from_rational(n, data.lam.value_sign(g) ** 2)
                 for g in cg.h_subgroup}
    ind = induce(G, cg.h_subgroup, sq_values, n=n)
    reg_lift = lift_from_quotient(regular_character(data.quotient, n), G, data.proj)
    if ind != reg_lift:
        raise AssertionError("(lambda^2)^G differs from the lifted regular character")
    return ind


# ---------------------------------------------------------------------------
# The six claims
# ---------------------------------------------------------------------------

def verify_claims(covector: Optional[int] = None,
                  cg: Optional[ConstructedGroup] = None) -> AuditReport:
    cg = cg or construction.build_default()
    data = constructive_data(cg, covector)
    return _claims_report(data, _covector_free_claims(data))


def _covector_free_claims(data: ConstructiveData) -> Dict:
    """Claims 3, setup and 4, and the facts of claims 5 and 2 that do not
    depend on the covector: lambda^2 = 1_H, so even (lambda^2)^G is fixed."""
    cg, G = data.cg, data.cg.group
    claims = []

    # Claim 3 first in dependency order: the embedding exists.
    regular = construction.q8_regular_embedding()
    evens = all(construction.permutation_is_even(p) for p in regular.values())
    order4_cycles = all(
        construction.cycle_type(regular[q]) == (4, 4)
        for q in range(8) if q8_group().element_order(q) == 4)
    try:
        cg.embedding.check()
        hom_ok = True
    except AssertionError:
        hom_ok = False
    claims.append(ClaimResult(
        "claim3_embedding_exists", evens and order4_cycles and hom_ok,
        {"regular_rep_all_even": evens,
         "order4_elements_are_double_4_cycles": order4_cycles,
         "gl42_homomorphism_check": hom_ok,
         "generator_a_rows": list(cg.embedding.rho[2]),
         "generator_b_rows": list(cg.embedding.rho[4])}))

    # Structural facts about G itself.
    c_g_h = centralizer_of_set(G, cg.h_subgroup)
    quotient_ok = construction._check_quotient_is_q8(cg)
    claims.append(ClaimResult(
        "setup_group_structure",
        G.order == 128 and c_g_h == cg.h_subgroup and quotient_ok,
        {"order": G.order, "centralizer_of_H_is_H": c_g_h == cg.h_subgroup,
         "quotient_is_q8": quotient_ok}))

    # Claim 4: |H0| = 2 and |C_H(z)| = 8.
    h0 = construction.compute_h0(cg)
    h_set = set(cg.h_subgroup)
    c_h_z = [g for g in centralizer_of_set(G, [cg.z_lift]) if g in h_set]
    center = set(centralizer_of_set(G, range(G.order)))
    claims.append(ClaimResult(
        "claim4_h0",
        len(h0) == 2 and len(c_h_z) == 8 and set(h0) <= center,
        {"h0": list(h0), "centralizer_of_z_in_H_size": len(c_h_z),
         "h0_central": set(h0) <= center}))

    ind_sq = induced_square_constituent(data)
    return {"claims": claims, "h0": h0,
            "inter": construction.intersect_commutators(cg),
            "valid": construction.valid_covectors(cg),
            "reg_mult": inner_product(ind_sq, data.phi).as_rational(),
            "nu_phi": fs_indicator(data.phi)}


def _claims_report(data: ConstructiveData, fixed: Dict) -> AuditReport:
    """The six claims for data's covector, given its covector-free facts."""
    cg, lam, chi, phi = data.cg, data.lam, data.chi, data.phi
    report = AuditReport(command="verify", group_label="builtin:g128",
                         claims=list(fixed["claims"]))

    # Claim 5 / Eq. (2): lambda exists; the commutator intersection is H0.
    lam_at_h0 = lam.value_sign(lam.h0_element)
    report.claims.append(ClaimResult(
        "claim5_lambda_exists",
        fixed["inter"] == fixed["h0"] and len(fixed["valid"]) == 8 and lam_at_h0 == -1,
        {"commutator_intersection": list(fixed["inter"]), "h0": list(fixed["h0"]),
         "valid_covectors": fixed["valid"], "chosen_covector": lam.covector,
         "lambda_at_h0": lam_at_h0}))

    # Claim 1: chi is irreducible, by both criteria.
    norm = inner_product(chi, chi)
    stab_ok = conjugate_stabilizer_check(cg, lam)
    report.claims.append(ClaimResult(
        "claim1_chi_irreducible",
        norm == 1 and stab_ok and chi.degree() == 8,
        {"inner_product": norm.render(), "degree": int(chi.degree()),
         "conjugate_stabilizer_check": stab_ok}))

    # Claim 2: chi^2 contains the lifted 2-dimensional quaternion character.
    chi2 = pointwise_product(chi, chi)
    mult = inner_product(chi2, phi).as_rational()
    reg_mult, nu_phi = fixed["reg_mult"], fixed["nu_phi"]
    report.claims.append(ClaimResult(
        "claim2_constituent_phi",
        mult is not None and mult >= 1 and nu_phi == -1 and phi.degree() == 2
        and reg_mult == 2,
        {"multiplicity_in_chi_squared": str(mult),
         "multiplicity_in_induced_square": str(reg_mult),
         "phi_degree": int(phi.degree()), "nu2_phi": str(nu_phi)}))

    # Claim 6: nu2(chi) = +1 with the element-by-element breakdown.
    breakdown = claim6_breakdown(data)
    nu_chi = fs_indicator(chi)
    report.claims.append(ClaimResult(
        "claim6_indicator",
        nu_chi == 1 and breakdown["counts"] == [16, 8, 8]
        and breakdown["contributions"] == [8, 8, -8]
        and breakdown["total"] == 128,
        {"nu2_chi": str(nu_chi), **breakdown}))

    report.extra["lambda_covector"] = lam.covector
    return report


def claim6_breakdown(data: ConstructiveData) -> Dict:
    """The FS sum for chi, split exactly as the three element subsets."""
    cg, G, chi = data.cg, data.cg.group, data.chi
    h_set = set(cg.h_subgroup)
    hz_coset = sorted(G.mul(h, cg.z_lift) for h in cg.h_subgroup)
    sq_in_h = squares_in(G, cg.h_subgroup)
    sq_set = set(sq_in_h)
    in_h = [g for g in sq_in_h if g in h_set]
    fixed = [g for g in hz_coset if G.mul(g, g) == 0]
    moved = [g for g in hz_coset if G.mul(g, g) != 0]
    if sorted(sq_in_h) != sorted(in_h + fixed + moved):
        raise AssertionError("square preimage of H is not H union Hz")

    def contribution(gs: List[int]) -> int:
        vals = {chi.value_at(G.mul(g, g)).as_integer() for g in gs}
        if len(vals) != 1:
            raise AssertionError("subset contributes non-constant values")
        return vals.pop()

    parts = [contribution(in_h), contribution(fixed), contribution(moved)]
    off = sum(1 for g in range(G.order)
              if g not in sq_set and not chi.value_at(G.mul(g, g)).is_zero())
    if off:
        raise AssertionError("chi(g^2) nonzero outside H<z>")
    total = sum(len(s) * c for s, c in zip((in_h, fixed, moved), parts))
    return {
        "counts": [len(in_h), len(fixed), len(moved)],
        "contributions": parts,
        "total": total,
        "squares_in_H_count": len(sq_in_h),
    }


def verify_all_lambdas(cg: Optional[ConstructedGroup] = None) -> AuditReport:
    """Run the six claims once per valid covector; all 8 must pass.

    The quotient, its Dixon table, the lifts, phi and the covector-free
    claims are built once; only lambda and chi change per covector.
    """
    cg = cg or construction.build_default()
    base = constructive_data(cg)
    fixed = _covector_free_claims(base)
    runs = []
    for v in fixed["valid"]:
        data = base if v == base.lam.covector else base.for_covector(v)
        sub = _claims_report(data, fixed)
        runs.append({"covector": v, "ok": sub.ok,
                     "claims": [c.to_dict() for c in sub.claims]})
    all_ok = all(r["ok"] for r in runs)
    report = AuditReport(command="verify", group_label="builtin:g128")
    report.claims.append(ClaimResult(
        "all_lambdas", all_ok,
        {"covectors": [r["covector"] for r in runs],
         "all_pass": all_ok}))
    report.extra["lambda_runs"] = runs
    return report


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
    # Exact: distinct irreducibles have distinct (independent) residue rows.
    index = {row: i for i, row in enumerate(table.residues)}
    for p, row in enumerate(table.residues):
        p_dual = index[tuple(row[j] for j in table.inv_class)]
        for r in range(len(nus)):
            if N[p][p_dual][r] > 0 and nus[r] != 1:
                out.append({"tag": "wang", "p": p, "p_dual": p_dual, "r": r,
                            "N": N[p][p_dual][r], "nu_r": nus[r],
                            "self_dual": p == p_dual})
    return out


def odd_rule_scan(table: CharacterTable, N: List[List[List[int]]]) -> List[Dict]:
    """Positivity violations with odd N_pq^r.  Must be empty, always."""
    return _odd_rule(positivity_scan(table, N))


def _odd_rule(positivity: List[Dict]) -> List[Dict]:
    """The positivity records with odd N, retagged as odd-rule findings."""
    return [{**rec, "tag": "odd_rule"} for rec in positivity if rec["N"] % 2]


def scan_report(group_label: str, G: FiniteGroup) -> AuditReport:
    table = dixon_table(G)
    N = fusion_tensor(table)
    report = AuditReport(command="scan", group_label=group_label)
    positivity = positivity_scan(table, N)
    report.scans = {
        "positivity": positivity,
        "wang": wang_scan(table, N),
        "odd_rule": _odd_rule(positivity),
    }
    report.extra["degrees"] = list(table.degrees())
    report.extra["indicators"] = list(table.indicators())
    return report


# ---------------------------------------------------------------------------
# Table serialization
# ---------------------------------------------------------------------------

def table_to_dict(table: CharacterTable) -> Dict:
    classes = table.group.conjugacy_classes()
    distinct = {v for chi in table.irreducibles for v in chi.values}
    names = {v: v.render() for v in distinct}   # each distinct value rendered once
    return {
        "order": table.group.order,
        "root_order": table.root_order,
        "dixon_prime": table.prime,
        "classes": [
            {"representative": cl[0], "size": len(cl),
             "element_order": table.class_rep_orders[i]}
            for i, cl in enumerate(classes)],
        "irreducibles": [
            {"degree": deg,
             "indicator": nu,
             "values": [names[v] for v in chi.values]}
            for chi, deg, nu in zip(table.irreducibles, table.degrees(), table.indicators())],
    }


def table_report(group_label: str, G: FiniteGroup, method: str = "dixon",
                 cg: Optional[ConstructedGroup] = None) -> AuditReport:
    """The `table` command: print/serialize the character table.

    method "constructive" lists only the characters the construction
    produces directly (the induced chi and the five quotient lifts) and is
    available for g128 alone; "both" additionally requires every
    constructive character to match a Dixon row verbatim.
    """
    report = AuditReport(command="table", group_label=group_label)
    if method not in ("dixon", "constructive", "both"):
        raise ValueError(f"unknown table method {method!r}")
    if method in ("constructive", "both") and cg is None:
        raise ValueError("constructive characters are defined only for builtin:g128")

    dix = dixon_table(G) if method in ("dixon", "both") else None
    if method == "dixon":
        report.table = table_to_dict(dix)
        return report

    data = constructive_data(cg)
    constructive = [("induced_chi", data.chi)] + [
        (f"quotient_lift_{i}", l) for i, l in enumerate(data.lifts)]
    rows = []
    matches = {}
    for name, c in constructive:
        rows.append({"degree": int(c.degree()),
                     "indicator": int(fs_indicator(c)),
                     "values": [v.render() for v in c.values],
                     "name": name})
        if dix is not None:
            matches[name] = dix.row_of(c)
    if method == "constructive":
        report.table = {"order": G.order, "root_order": G.exponent(),
                        "irreducibles": rows}
        return report

    report.table = table_to_dict(dix)
    report.extra["constructive_rows"] = matches
    missing = [k for k, v in matches.items() if v is None]
    report.claims.append(ClaimResult(
        "constructive_matches_dixon", not missing,
        {"missing": missing} if missing else {"rows": matches}))
    return report
