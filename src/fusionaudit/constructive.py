"""The constructive route: chi = lambda^G by induction, and the six claims.

Class functions on G with values in Q(zeta_e), e = exp G (induction, inner
and pointwise products, FS indicators, lifts from G/H = Q8 along the certified
pi) build the order-128 group's chi and phi; a value from another field raises
ValueError.  Only `verify` and the constructive methods of `table` import it.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import construction
from .audit import AuditReport
from .characters import ClassFunction
from .construction import ConstructedGroup, LambdaChoice
from .cyclotomic import Cyclotomic
from .groups import FiniteGroup, centralizer_of_set, is_subgroup, q8_group, squares_in


def regular_character(G: FiniteGroup) -> ClassFunction:
    n = G.exponent()
    vals = [Cyclotomic.from_rational(n, G.order if cl == (0,) else 0)
            for cl in G.conjugacy_classes()]
    return ClassFunction(G, tuple(vals))


def induce(G: FiniteGroup, sub: Sequence[int], values: Dict[int, Cyclotomic]) -> ClassFunction:
    """Induced class function: g -> |S|^-1 sum_{t in G} value(t^-1 g t), zero off S.

    Computed from class sums.  t -> t^-1 g t maps G onto cl(g), and the
    t with t^-1 g t = x form a coset of C_G(g), so each x in cl(g) is hit
    exactly |C_G(g)| = |G| / |cl(g)| times.  Hence

        chi(g) = |G| / (|cl(g)| |S|) * sum_{x in cl(g) & S} value(x),

    for any subgroup S and any values on it (S need not be normal).  The
    values must lie in Q(zeta_e), e = exp G, and the result stays there.
    """
    sub_set = set(sub)
    if not is_subgroup(G, sub_set):
        raise ValueError("induction subgroup is not a subgroup")
    if set(values) != sub_set:
        raise ValueError("values must cover exactly the subgroup")
    classes = G.conjugacy_classes()
    sums = [Cyclotomic.zero(G.exponent())] * len(classes)
    for x, v in values.items():
        c = G.class_of(x)
        sums[c] = sums[c] + v
    return ClassFunction(G, tuple(
        acc * G.order / (len(cl) * len(sub_set)) for acc, cl in zip(sums, classes)))


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    """<a, b> = |G|^-1 sum_g a(g) b(g^-1); for a character b, b(g^-1) = conj b(g)."""
    if a.group is not b.group:
        raise ValueError("class functions live on different groups")
    return sum(len(cl) * av * b.values[row[-1]] for cl, av, row in zip(   # row[-1]: g^-1
        a.group.conjugacy_classes(), a.values, a.group.power_classes())) / a.group.order


def pointwise_product(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    if a.group is not b.group:
        raise ValueError("class functions live on different groups")
    return ClassFunction(a.group, tuple(av * bv for av, bv in zip(a.values, b.values)))


def fs_indicator(a: ClassFunction) -> int:
    """Second Frobenius-Schur indicator |G|^-1 sum_g a(g^2), g^2 from the power map.

    For a character this is -1, 0 or 1; any other class function whose
    indicator is not a rational integer raises ValueError.
    """
    G = a.group
    return (sum(len(cl) * a.values[row[2 % len(row)]] for cl, row in
                zip(G.conjugacy_classes(), G.power_classes())) / G.order).as_integer()


def lift_from_quotient(c: ClassFunction, cg: ConstructedGroup) -> ClassFunction:
    """Pull a class function on G/H = Q8 back to G along construction.q8_quotient's
    pi, into Q(zeta_e), e = exp G.  build_g certifies pi by _check_quotient_is_q8:
    a homomorphism onto Q8 with kernel H.  So pi maps each class of G into one
    class of Q8, and the class's first element gives its value; exp(G/H) divides e."""
    G, e, proj = cg.group, cg.group.exponent(), construction.q8_quotient(cg)[1]
    return ClassFunction(G, tuple(
        c.value_at(proj[cl[0]]).to_order(e) for cl in G.conjugacy_classes()))


def conjugate_stabilizer_check(cg: ConstructedGroup, lam: LambdaChoice) -> bool:
    """True iff ^x(lambda) differs from lambda for every x outside H.

    H is abelian and normal, so x = hq acts on H by conjugation as q does:
    (hq)^-1 h' (hq) = q^-1 h' q.  One representative q of each of the 7
    nontrivial cosets therefore decides for the whole coset.
    """
    G = cg.group
    for q in filter(None, cg.q_subgroup):
        if all(lam.value_sign(G.conj(h, q)) == lam.value_sign(h)
               for h in cg.h_subgroup):
            return False
    return True


class ConstructiveData:
    __slots__ = ("cg", "lam", "chi", "lifts", "phi")

    def __init__(self, cg: ConstructedGroup, lam: LambdaChoice, chi: ClassFunction,
                 lifts: Tuple[ClassFunction, ...], phi: ClassFunction):
        self.cg = cg
        self.lam = lam
        self.chi = chi
        self.lifts = lifts      # the 5 quotient irreducibles, lifted
        self.phi = phi          # the lifted 2-dimensional irreducible

    def for_covector(self, covector: int) -> "ConstructiveData":
        """The same data with lambda and chi for another covector."""
        return ConstructiveData(self.cg, *_lambda_and_chi(self.cg, covector),
                                self.lifts, self.phi)


def _lambda_and_chi(cg: ConstructedGroup,
                    covector: Optional[int]) -> Tuple[LambdaChoice, ClassFunction]:
    """The fields of ConstructiveData that depend on the covector."""
    n = cg.group.exponent()
    lam = construction.choose_lambda(cg, covector)
    values = {g: Cyclotomic.from_rational(n, lam.value_sign(g)) for g in cg.h_subgroup}
    return lam, induce(cg.group, cg.h_subgroup, values)


def induced_square_constituent(data: ConstructiveData) -> ClassFunction:
    """(lambda^2) induced to G; must equal the lifted regular character of G/H."""
    cg, G = data.cg, data.cg.group
    n = G.exponent()
    sq_values = {g: Cyclotomic.from_rational(n, data.lam.value_sign(g) ** 2)
                 for g in cg.h_subgroup}
    ind = induce(G, cg.h_subgroup, sq_values)
    reg_lift = lift_from_quotient(regular_character(construction.q8_quotient(cg)[0]), cg)
    if ind != reg_lift:
        raise AssertionError("(lambda^2)^G differs from the lifted regular character")
    return ind


def _covector_free_claims(data: ConstructiveData) -> Dict:
    """Claims 3, setup and 4, and the facts of claims 5 and 2 that do not
    depend on the covector: lambda^2 = 1_H, so even (lambda^2)^G is fixed."""
    cg, G = data.cg, data.cg.group
    claims = []

    # Claim 3 first in dependency order: the embedding exists.
    regular = construction.q8_regular_embedding()
    evens = all(construction.permutation_is_even(p) for p in regular.values())
    Q = q8_group()
    order4_cycles = all(
        construction.cycle_type(regular[q]) == (4, 4)
        for q in range(8) if Q.element_order(q) == 4)
    try:
        cg.embedding.check()
        hom_ok = True
    except AssertionError:
        hom_ok = False
    claims.append({
        "name": "claim3_embedding_exists", "passed": evens and order4_cycles and hom_ok,
        "witness": {"regular_rep_all_even": evens,
                    "order4_elements_are_double_4_cycles": order4_cycles,
                    "gl42_homomorphism_check": hom_ok,
                    "generator_a_rows": list(cg.embedding.rho[2]),
                    "generator_b_rows": list(cg.embedding.rho[4])}})

    # Structural facts about G itself.
    c_g_h = centralizer_of_set(G, cg.h_subgroup)
    quotient_ok = construction._check_quotient_is_q8(cg)
    claims.append({
        "name": "setup_group_structure",
        "passed": G.order == 128 and c_g_h == cg.h_subgroup and quotient_ok,
        "witness": {"order": G.order, "centralizer_of_H_is_H": c_g_h == cg.h_subgroup,
                    "quotient_is_q8": quotient_ok}})

    # Claim 4: |H0| = 2 and |C_H(z)| = 8.
    h0 = construction.compute_h0(cg)
    h_set = set(cg.h_subgroup)
    c_h_z = [g for g in centralizer_of_set(G, [cg.z_lift]) if g in h_set]
    center = {cl[0] for cl in G.conjugacy_classes() if len(cl) == 1}
    claims.append({
        "name": "claim4_h0",
        "passed": len(h0) == 2 and len(c_h_z) == 8 and set(h0) <= center,
        "witness": {"h0": list(h0), "centralizer_of_z_in_H_size": len(c_h_z),
                    "h0_central": set(h0) <= center}})

    ind_sq = induced_square_constituent(data)
    return {"claims": claims, "h0": h0,
            "inter": construction.intersect_commutators(cg),
            "valid": construction.valid_covectors(cg),
            "reg_mult": inner_product(ind_sq, data.phi),
            "nu_phi": fs_indicator(data.phi)}


def _claims_report(data: ConstructiveData, fixed: Dict) -> AuditReport:
    """The six claims for data's covector, given its covector-free facts."""
    cg, lam, chi, phi = data.cg, data.lam, data.chi, data.phi
    claims = list(fixed["claims"])

    # Claim 5 / Eq. (2): lambda exists; the commutator intersection is H0.
    lam_at_h0 = lam.value_sign(lam.h0_element)
    claims.append({
        "name": "claim5_lambda_exists",
        "passed": fixed["inter"] == fixed["h0"] and len(fixed["valid"]) == 8
        and lam_at_h0 == -1,
        "witness": {"commutator_intersection": list(fixed["inter"]), "h0": list(fixed["h0"]),
                    "valid_covectors": fixed["valid"], "chosen_covector": lam.covector,
                    "lambda_at_h0": lam_at_h0}})

    # Claim 1: chi is irreducible, by both criteria.
    norm = inner_product(chi, chi)
    stab_ok = conjugate_stabilizer_check(cg, lam)
    claims.append({
        "name": "claim1_chi_irreducible",
        "passed": norm == 1 and stab_ok and chi.degree() == 8,
        "witness": {"inner_product": norm.render(), "degree": chi.degree(),
                    "conjugate_stabilizer_check": stab_ok}})

    # Claim 2: chi^2 contains the lifted 2-dimensional quaternion character.
    chi2 = pointwise_product(chi, chi)
    mult = inner_product(chi2, phi)
    reg_mult, nu_phi = fixed["reg_mult"], fixed["nu_phi"]
    claims.append({
        "name": "claim2_constituent_phi",
        # a multiplicity is an integer: mult must equal its constant term, and that be >= 1
        "passed": mult == mult.num[0] >= 1 and nu_phi == -1 and phi.degree() == 2
        and reg_mult == 2,
        "witness": {"multiplicity_in_chi_squared": mult.render(),
                    "multiplicity_in_induced_square": reg_mult.render(),
                    "phi_degree": phi.degree(), "nu2_phi": str(nu_phi)}})

    # Claim 6: nu2(chi) = +1 with the element-by-element breakdown.
    breakdown = claim6_breakdown(data)
    nu_chi = fs_indicator(chi)
    claims.append({
        "name": "claim6_indicator",
        "passed": nu_chi == 1 and breakdown["counts"] == [16, 8, 8]
        and breakdown["contributions"] == [8, 8, -8]
        and breakdown["total"] == 128,
        "witness": {"nu2_chi": str(nu_chi), **breakdown}})

    return AuditReport("verify", "builtin:g128", claims=claims, lambda_covector=lam.covector)


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
