import operator
import random
import tracemalloc
from collections import Counter
from functools import cache
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionaudit import audit, constructive
from fusionaudit.characters import (
    CharacterTable,
    ClassFunction,
    _central_blocks,
    _charpoly_mod,
    _checked,
    _eigenvalues,
    _nullspace_mod,
    _primitive_root,
    _rref_mod,
    _slot_width,
    _slots,
    _split_eigenspaces,
    dixon_prime,
    dixon_table,
    fusion_tensor,
)
from fusionaudit.construction import choose_lambda, compute_h0, q8_quotient, valid_covectors
from fusionaudit.constructive import (
    fs_indicator,
    induce,
    inner_product,
    lift_from_quotient,
    pointwise_product,
    regular_character,
)
from fusionaudit.cyclotomic import Cyclotomic, _power_reductions
from fusionaudit.groupfile import load_group_file
from fusionaudit.groups import FiniteGroup, q8_group
from conftest import cayley_file, cayley_table, dicyclic_mul, dihedral_mul, relabelling
from oracles import (
    class_matrix,
    conjugate,
    conjugate_inner_product,
    dual_character,
    fields,
    fusion_residues,
    galois,
    is_real,
    power_walk,
    rebuild,
    restrict,
    squaring_fs_indicator,
    subgroup_as_group,
    trivial_character,
    value_key,
    zeta,
)

TABLES = ["q8_table", "h16_table", "g128_table", "d10_table", "d30_table", "c30_table"]


def characters_by_group(cg, data, request):
    """Characters to check the constructive route's products on, a list per
    group: chi for each of the 8 valid covectors, phi and the 5 quotient
    lifts on g128, then the Dixon rows of each of TABLES."""
    chis = [data.for_covector(v).chi for v in valid_covectors(cg)]
    return [[*chis, data.phi, *data.lifts],
            *(request.getfixturevalue(name).irreducibles for name in TABLES)]


def test_induced_chi_values(cg, data):
    chi = data.chi
    assert chi.degree() == 8
    h_set = set(cg.h_subgroup)
    for g in range(cg.group.order):
        if g not in h_set:
            assert chi.value_at(g).is_zero()
    h0 = compute_h0(cg)
    assert chi.value_at(h0[1]) == -8


def test_inner_products(cg, data, request):
    G = cg.group
    one = trivial_character(G)
    assert inner_product(one, one) == 1
    assert inner_product(data.chi, data.chi) == 1
    # b(g^-1) from the power map is conj b(g) for characters
    for chars in characters_by_group(cg, data, request):
        for a in chars:
            for b in chars:
                assert inner_product(a, b) == conjugate_inner_product(a, b)


def test_regular_character_of_q8_contains_phi_twice(q8, q8_table):
    reg = regular_character(q8)
    phi = next(c for c in q8_table.irreducibles if c.degree() == 2)
    assert inner_product(reg, phi) == 2


def test_conjugate_stabilizer_check_matches_irreducibility(cg):
    # all 15 functionals: 8 give an irreducible induced character, 7 do not
    from fusionaudit.construction import LambdaChoice
    G = cg.group
    n = G.exponent()
    h0 = compute_h0(cg)
    passing = 0
    for v in range(1, 16):
        lam = LambdaChoice(covector=v, h0_element=h0[1])
        values = {g: Cyclotomic.from_rational(n, lam.value_sign(g))
                  for g in cg.h_subgroup}
        chi = induce(G, cg.h_subgroup, values)
        stab = constructive.conjugate_stabilizer_check(cg, lam)
        assert (inner_product(chi, chi) == 1) == stab
        passing += stab
    assert passing == 8


def test_stabilizer_check_fails_for_trivial_lambda(cg):
    from fusionaudit.construction import LambdaChoice
    lam = LambdaChoice(covector=0, h0_element=compute_h0(cg)[1])
    assert not constructive.conjugate_stabilizer_check(cg, lam)


def test_stabilizer_check_fails_when_kernel_contains_h0(cg):
    from fusionaudit import gf2
    from fusionaudit.construction import LambdaChoice
    h0_bits = compute_h0(cg)[1] >> 3
    v = next(f for f in range(1, 16) if gf2.dot(f, h0_bits) == 0)
    lam = LambdaChoice(covector=v, h0_element=compute_h0(cg)[1])
    # ^z(lambda) = lambda because [H, z] = H0 lies in the kernel
    G = cg.group
    assert all(lam.value_sign(G.conj(h, cg.z_lift)) == lam.value_sign(h)
               for h in cg.h_subgroup)
    assert not constructive.conjugate_stabilizer_check(cg, lam)


def test_fs_indicator_basics(cg, data, request):
    assert fs_indicator(trivial_character(cg.group)) == 1
    assert fs_indicator(data.chi) == 1
    assert fs_indicator(data.phi) == -1
    # the class of g^2 from the power map is the class of the product g g
    for chars in characters_by_group(cg, data, request):
        assert [fs_indicator(a) for a in chars] == [squaring_fs_indicator(a) for a in chars]


def test_fs_indicator_rejects_a_non_integer(q8):
    # Half the trivial character has indicator 1/2: neither 1/2 nor a
    # truncated 0 may come back as an indicator.
    half = Cyclotomic.from_rational(q8.exponent(), 1) / 2
    with pytest.raises(ValueError, match="not a rational integer"):
        fs_indicator(ClassFunction(q8, (half,) * 5))


def test_fs_indicator_range_and_reality(g128_table, q8_table, h16_table):
    for table in (g128_table, q8_table, h16_table):
        for chi in table.irreducibles:
            nu = fs_indicator(chi)
            assert nu in (-1, 0, 1)
            real = all(is_real(v) for v in chi.values)
            assert (nu == 0) == (not real)


def test_pointwise_square(cg, data):
    chi2 = pointwise_product(data.chi, data.chi)
    assert chi2.degree() == 64
    h_set = set(cg.h_subgroup)
    for g in range(cg.group.order):
        if g not in h_set:
            assert chi2.value_at(g).is_zero()
    mult = inner_product(chi2, data.phi)
    assert mult == 2


def test_lift_from_quotient(cg, data):
    G = cg.group
    lifted_triv = lift_from_quotient(trivial_character(q8_quotient(cg)[0]), cg)
    assert lifted_triv == trivial_character(G)
    assert data.phi.degree() == 2
    for h in cg.h_subgroup:
        assert data.phi.value_at(h) == 2


def test_every_lift_is_the_pull_back_along_pi_at_every_element(cg, data):
    # A lift is read at class representatives; pi: g -> g & 7 sends each class
    # of G into one class of Q8, so c(g & 7) is its value at every g.
    Q, G = q8_quotient(cg)[0], cg.group
    assert all(len({Q.class_of(g & 7) for g in cl}) == 1 for cl in G.conjugacy_classes())
    pairs = [*zip(data.lifts, dixon_table(Q).irreducibles),
             (lift_from_quotient(regular_character(Q), cg), regular_character(Q))]
    assert len(pairs) == 6
    for lift, c in pairs:
        assert all(lift.value_at(g) == c.value_at(g & 7) for g in range(G.order))


def test_every_class_function_lives_in_its_groups_field(cg, data, q8_table, h16_table,
                                                        g128_table, d120_file):
    # One field per group: every value is in Q(zeta_e), e = exp G, so class
    # functions on G multiply and compare with no conversion.
    d120_table = dixon_table(load_group_file(str(d120_file)))
    built = [(t.group, t.irreducibles) for t in (q8_table, h16_table, g128_table, d120_table)]
    chis = [data.for_covector(v).chi for v in valid_covectors(cg)]
    assert len(chis) == 8 and len(data.lifts) == 5
    built.append((cg.group, [*chis, data.phi, *data.lifts,
                             constructive.induced_square_constituent(data)]))
    for G, functions in built:
        assert all(c.group is G for c in functions)
        assert {v.n for c in functions for v in c.values} == {G.exponent()}


def test_induced_square_constituent(cg, data):
    ind = constructive.induced_square_constituent(data)
    assert ind.degree() == 8
    assert inner_product(ind, data.phi) == 2
    # lambda^2 = 1_H since H has exponent 2
    lam = data.lam
    for g in cg.h_subgroup:
        assert lam.value_sign(g) ** 2 == 1


def test_dixon_prime_rule():
    assert dixon_prime(128, 4) == 29
    assert dixon_prime(8, 4) == 13
    assert dixon_prime(16, 2) == 11


def test_dixon_q8(q8_table):
    assert q8_table.degrees() == (1, 1, 1, 1, 2)
    assert q8_table.indicators() == (1, 1, 1, 1, -1)


def test_dixon_g128_counts(cg, g128_table):
    degrees = g128_table.degrees()
    assert sum(d * d for d in degrees) == 128
    assert len(g128_table.irreducibles) == len(cg.group.conjugacy_classes())


def test_dixon_row_orthogonality(g128_table, q8_table, h16_table):
    for table in (g128_table, q8_table, h16_table):
        irr = table.irreducibles
        for i, a in enumerate(irr):
            for j, b in enumerate(irr):
                expect = 1 if i == j else 0
                assert inner_product(a, b) == expect


def test_dixon_column_orthogonality(g128_table):
    table = g128_table
    G = table.group
    classes = G.conjugacy_classes()
    n = table.root_order
    for j, cj in enumerate(classes):
        for k in range(len(classes)):
            acc = Cyclotomic.zero(n)
            for chi in table.irreducibles:
                acc = acc + chi.values[j] * conjugate(chi.values[k])
            expect = G.order // len(cj) if j == k else 0
            assert acc == expect


def test_constructive_rows_appear_in_dixon(data, g128_table):
    assert g128_table.row_of(data.chi) is not None
    for lift in data.lifts:
        assert g128_table.row_of(lift) is not None


def test_frobenius_reciprocity_exhaustive(cg, data, g128_table):
    H, embed = subgroup_as_group(cg.group, cg.h_subgroup)
    n = H.exponent()
    lam_h = ClassFunction(H, tuple(
        Cyclotomic.from_rational(n, data.lam.value_sign(embed[cl[0]]))
        for cl in H.conjugacy_classes()))
    for theta in g128_table.irreducibles:
        lhs = inner_product(data.chi, theta)
        rhs = inner_product(lam_h, restrict(theta, H, embed))
        assert lhs == rhs.to_order(cg.group.exponent())   # from Q(zeta_exp H) into G's field


def test_involution_counting(cg, q8, h16, g128_table, q8_table, h16_table):
    for G, table in ((cg.group, g128_table), (q8, q8_table), (h16, h16_table)):
        lhs = sum(fs_indicator(chi) * chi.degree() for chi in table.irreducibles)
        rhs = sum(1 for g in range(G.order) if G.mul(g, g) == 0)
        assert lhs == rhs


def test_galois_action_permutes_rows(g128_table):
    n = g128_table.root_order
    rows = {tuple(map(value_key, chi.values)) for chi in g128_table.irreducibles}
    for k in range(1, n):
        from math import gcd
        if gcd(k, n) != 1:
            continue
        for chi in g128_table.irreducibles:
            assert tuple(value_key(galois(v, k)) for v in chi.values) in rows


def test_dual_character(data, g128_table):
    triv = trivial_character(data.cg.group)
    assert dual_character(triv) == triv
    assert dual_character(data.chi) == data.chi
    for chi in g128_table.irreducibles:
        assert dual_character(dual_character(chi)) == chi


def test_fusion_tensor_unit_and_dimension(q8_table, g128_table):
    for table in (q8_table, g128_table):
        N = fusion_tensor(table)
        degrees = table.degrees()
        k = len(degrees)
        triv = next(i for i, chi in enumerate(table.irreducibles)
                    if chi.degree() == 1 and all(v == 1 for v in chi.values))
        for q in range(k):
            for r in range(k):
                assert N[triv][q][r] == (1 if q == r else 0)
        for p in range(k):
            for q in range(k):
                assert sum(N[p][q][r] * degrees[r] for r in range(k)) \
                    == degrees[p] * degrees[q]
                for r in range(k):
                    assert N[p][q][r] == N[q][p][r] >= 0


def test_fusion_contains_headline_triple(data, g128_table, g128_fusion):
    ichi = g128_table.row_of(data.chi)
    iphi = g128_table.row_of(data.phi)
    assert g128_fusion[ichi][ichi][iphi] == 2


def test_induce_validates_inputs(cg):
    n = cg.group.exponent()
    values = {g: Cyclotomic.from_rational(n, 1) for g in cg.h_subgroup}
    with pytest.raises(ValueError):
        induce(cg.group, (0, 1, 2), {0: values[0]})
    bad = dict(values)
    del bad[cg.h_subgroup[3]]
    with pytest.raises(ValueError):
        induce(cg.group, cg.h_subgroup, bad)


# ---------------------------------------------------------------------------
# Oracle: induction by the defining sum over every conjugator
# ---------------------------------------------------------------------------

def naive_induce(G, sub, values):
    """g -> |S|^-1 sum_{t in G} value(t^-1 g t), one walk over G per class."""
    sub_set = set(sub)
    n = G.exponent()
    vals = []
    for cl in G.conjugacy_classes():
        g = cl[0]
        acc = Cyclotomic.zero(n)
        for t in range(G.order):
            x = G.conj(g, t)
            if x in sub_set:
                acc = acc + values[x]
        vals.append(acc / len(sub_set))
    return ClassFunction(G, tuple(vals))


def test_induce_matches_naive_oracle_for_every_lambda(cg):
    G, H = cg.group, cg.h_subgroup
    n = G.exponent()
    covectors = valid_covectors(cg)
    assert len(covectors) == 8
    for v in covectors:
        lam = choose_lambda(cg, v)
        values = {g: Cyclotomic.from_rational(n, lam.value_sign(g)) for g in H}
        assert induce(G, H, values) == naive_induce(G, H, values)
        squares = {g: Cyclotomic.from_rational(n, lam.value_sign(g) ** 2) for g in H}
        assert induce(G, H, squares) == naive_induce(G, H, squares)


def _is_normal(G, S):
    return all(G.conj(s, t) in S for s in S for t in range(G.order))


def test_induce_matches_naive_oracle_on_non_normal_subgroups(cg, d10_table):
    rnd = random.Random(2017)
    G, Q = cg.group, cg.q_subgroup
    D = d10_table.group
    reflection = (0, 10)                 # {1, s} in D_10, s = index 10
    cases = [(G, Q), (D, reflection)]
    for K, S in cases:
        assert not _is_normal(K, set(S))
        n = K.exponent()
        for _ in range(3):
            ints = {x: Cyclotomic.from_rational(n, rnd.randint(-9, 9)) for x in S}
            assert induce(K, S, ints) == naive_induce(K, S, ints)
            cyc = {x: Cyclotomic.from_powers(n, {rnd.randrange(n): rnd.randint(-3, 3),
                                                 0: rnd.randint(-3, 3)})
                   for x in S}
            assert induce(K, S, cyc) == naive_induce(K, S, cyc)


def test_dixon_trivial_group():
    from fusionaudit.groups import FiniteGroup
    t = dixon_table(FiniteGroup([[0]]))
    assert t.degrees() == (1,)
    assert t.indicators() == (1,)


# ---------------------------------------------------------------------------
# Oracle: the fusion tensor by exact convolution in Z[zeta_n]
# ---------------------------------------------------------------------------

def exact_fusion_tensor(table):
    """N[p][q][r] = <chi_p chi_q, chi_r>, summed exactly in Z[zeta_n]."""
    n = table.root_order
    r_count = len(table.irreducibles)
    sizes = [len(cl) for cl in table.group.conjugacy_classes()]
    order = table.group.order
    red = _power_reductions(n)
    deg = len(red[0])

    def vmul(a, b):
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        out = [0] * deg
        for k, c in enumerate(conv):
            for j in range(deg):
                out[j] += c * red[k % n][j]
        return out

    rows = [[v.num for v in chi.values] for chi in table.irreducibles]
    assert all(v.den == 1 for chi in table.irreducibles for v in chi.values)
    conj_rows = [[conjugate(v).num for v in chi.values]
                 for chi in table.irreducibles]
    N = [[[0] * r_count for _ in range(r_count)] for _ in range(r_count)]
    for pi in range(r_count):
        for qi in range(pi, r_count):
            prod = [vmul(a, b) for a, b in zip(rows[pi], rows[qi])]
            for ri in range(r_count):
                acc = [0] * deg
                for pj, cj, sz in zip(prod, conj_rows[ri], sizes):
                    for m, t in enumerate(vmul(pj, cj)):
                        acc[m] += sz * t
                assert not any(acc[1:]) and acc[0] % order == 0
                N[pi][qi][ri] = N[qi][pi][ri] = acc[0] // order
    return N


@pytest.fixture(scope="module")
def d10_table(d10_file):
    return dixon_table(load_group_file(str(d10_file)))


@pytest.mark.parametrize("name", ["q8_table", "h16_table", "g128_table",
                                  "d10_table"])
def test_fusion_tensor_matches_exact_oracle(name, request):
    table = request.getfixturevalue(name)
    assert fusion_tensor(table) == exact_fusion_tensor(table)


@pytest.mark.parametrize("name", ["q8_table", "h16_table", "g128_table", "d10_table"])
def test_residue_oracle_matches_exact_oracle(name, request):
    table = request.getfixturevalue(name)
    assert fusion_residues(table) == exact_fusion_tensor(table)


@pytest.mark.parametrize("name", ["d120_file", "c120", "g128xc2_file"])
def test_fusion_tensor_matches_residue_oracle(name, request):
    # Relabelled D120 (r = 33: four linear rows, the rest packed), C120 (every
    # row linear: lookups alone) and relabelled g128 x C2 (mixed degrees).
    if name == "c120":
        G = FiniteGroup(cayley_table(120, lambda x, y: (x + y) % 120))
    else:
        G = load_group_file(str(request.getfixturevalue(name)))
    table = dixon_table(G)
    assert fusion_tensor(table) == fusion_residues(table)


@pytest.mark.parametrize("terms, P", [(1, 3), (23, 41), (33, 61), (115, 73), (1024, 12289)])
def test_packed_slots_are_exact_at_the_width_bound(terms, P):
    # Operands of P - 1 in every slot give each slot its largest sum,
    # terms (P - 1)^2 < 2^w.  One bit short, slot 0 carries into slot 1.
    top, w = terms * (P - 1) ** 2, _slot_width(terms, P)
    assert top < 1 << w <= 2 * top
    for width, exact in ((w, True), (w - 1, False)):
        packed = [sum((P - 1) << width * k for k in range(3))] * terms
        slots = _slots(sum(map(operator.mul, [P - 1] * terms, packed)), width, 3, P)
        assert (slots == [top % P] * 3) is exact


@pytest.mark.parametrize("name", ["q8_table", "h16_table", "g128_table",
                                  "d10_table"])
def test_fusion_bound_is_below_dixon_prime(name, request):
    # N <= min(d_p, d_q) <= sqrt|G| < prime is what makes the residue exact.
    table = request.getfixturevalue(name)
    d = table.degrees()
    N = fusion_tensor(table)
    assert all(N[p][q][r] <= min(d[p], d[q])
               for p in range(len(d)) for q in range(len(d)) for r in range(len(d)))
    assert max(d) ** 2 <= table.group.order < table.prime ** 2


def _corrupt(table, row, cls, delta):
    """A copy of table with residues[row][cls] moved by delta mod the prime."""
    rows = [list(r) for r in table.residues]
    rows[row][cls] = (rows[row][cls] + delta) % table.prime
    return rebuild(table, residues=tuple(map(tuple, rows)))


def omega_mod(p, n):
    """The primitive n-th root of unity mod p that dixon_table lifts with."""
    return pow(_primitive_root(p), (p - 1) // n, p)


@pytest.mark.parametrize("row, cls, delta", [
    (4, 1, 1), (4, 2, -1), (0, 3, 2), (2, 4, 1),
])
def test_fusion_tensor_rejects_corrupted_q8_table(q8_table, row, cls, delta):
    bad = _corrupt(q8_table, row, cls, delta)
    with pytest.raises(AssertionError):
        fusion_tensor(bad)


def test_fusion_tensor_rejects_corrupted_g128_table(g128_table):
    # zeta_n -> omega: the residue of old + zeta_n
    last = len(g128_table.irreducibles) - 1
    for row, cls in ((last, 5), (8, 3), (1, 7)):
        bad = _corrupt(g128_table, row, cls,
                       omega_mod(g128_table.prime, g128_table.root_order))
        with pytest.raises(AssertionError):
            fusion_tensor(bad)


# ---------------------------------------------------------------------------
# Oracles for the residue table: the exact lift, fs_indicator, conjugation
# ---------------------------------------------------------------------------

def lifted_residues(irreducibles, p, n):
    """Each lifted value mapped to F_p by zeta_n -> omega.  Every value must
    be an algebraic integer (den == 1) for the map to be a ring map."""
    omega = omega_mod(p, n)
    assert all(v.den == 1 for chi in irreducibles for v in chi.values)
    return tuple(tuple(sum(c * pow(omega, i, p) for i, c in enumerate(v.num)) % p
                       for v in chi.values) for chi in irreducibles)


@pytest.mark.parametrize("name", TABLES)
def test_residues_are_the_image_of_the_lift(name, request):
    table = request.getfixturevalue(name)
    assert lifted_residues(table.irreducibles, table.prime, table.root_order) \
        == table.residues


@pytest.mark.parametrize("name", TABLES)
def test_indicators_match_fs_indicator(name, request):
    table = request.getfixturevalue(name)
    assert table.indicators() == tuple(fs_indicator(chi) for chi in table.irreducibles)


@pytest.mark.parametrize("name", TABLES)
def test_wang_duals_match_conjugation(name, request):
    table = request.getfixturevalue(name)
    # The dual permutation against conjugation in Z[zeta_n]; and with every
    # N = 1 and every nu = 0, each p reports the p_dual wang_scan reads.
    r = len(table.irreducibles)
    conjugated = tuple(table.row_of(dual_character(chi)) for chi in table.irreducibles)
    assert table.duals == conjugated
    probe = rebuild(table)
    probe._indicators = (0,) * r
    ones = [[[1] * r for _ in range(r)] for _ in range(r)]
    duals = [rec["p_dual"] for rec in audit.wang_scan(probe, ones) if rec["r"] == 0]
    assert tuple(duals) == conjugated


# ---------------------------------------------------------------------------
# The table's self-checks, each tripped by one corrupted copy
# ---------------------------------------------------------------------------

def test_dixon_table_checks_every_table(monkeypatch, q8):
    from fusionaudit import characters
    checked = []
    monkeypatch.setattr(characters, "_checked",
                        lambda table: checked.append(table) or table)
    assert checked == [dixon_table(q8)]


def test_check_rejects_a_bad_degree(q8_table):
    with pytest.raises(AssertionError, match="sum of squared degrees"):
        _checked(_corrupt(q8_table, 4, 0, 1))


def test_check_rejects_a_swapped_residue(q8_table):
    # Classes 2..4 of Q8 ({+-i}, {+-j}, {+-k}) are no square's class, so
    # swapping rows 1 and 2 there leaves degrees and indicators alone.
    rows = [list(r) for r in q8_table.residues]
    assert rows[1][3] != rows[2][3]
    rows[1][3], rows[2][3] = rows[2][3], rows[1][3]
    bad = rebuild(q8_table, residues=tuple(map(tuple, rows)))
    assert bad.indicators() == q8_table.indicators()
    with pytest.raises(AssertionError, match="not orthogonal"):
        _checked(bad)


def test_check_rejects_a_row_only_the_centre_check_catches(q8_table):
    # Q8's degree-2 row is alone in its central block (lambda(-1) = -1), so
    # only its own norm is summed.  (2, -2, 2, 3, 0) mod 13 keeps the degree,
    # the norm (4 + 4 + 2 (2^2 + 3^2) = 8 mod 13) and the indicator, but
    # breaks chi(-g) = -chi(g) at +-i and +-j, and with it the orthogonality
    # to the trivial row (2 - 2 + 2 (2 + 3) = 10 mod 13).
    p, sizes = q8_table.prime, [len(cl) for cl in q8_table.group.conjugacy_classes()]
    rows = list(q8_table.residues)
    assert p == 13 and rows[4] == (2, p - 2, 0, 0, 0)
    rows[4] = (2, p - 2, 2, 3, 0)
    bad = rebuild(q8_table, residues=tuple(rows))
    assert sum(s * x * x for s, x in zip(sizes, rows[4])) % p == 8
    assert sum(s * x for s, x in zip(sizes, rows[4])) % p == 10
    assert bad.indicators() == q8_table.indicators()
    with pytest.raises(AssertionError, match="row 4 is not covariant under the centre"):
        _checked(bad)


def test_check_rejects_an_indicator_outside_plus_minus_one(monkeypatch):
    # The power map of a fresh Q8 with every square of order 4 read as 1,
    # orders and inverses kept: nu(chi) = chi(1), which is 2 for the
    # degree-2 row.
    G = q8_group()
    table = dixon_table(G)
    rows = G.power_classes()
    assert rows == ((0,), (0, 1), (0, 2, 1, 2), (0, 3, 1, 3), (0, 4, 1, 4))
    monkeypatch.setattr(G, "power_classes", lambda: rows[:2] + tuple(
        (0, c, 0, c) for c in (2, 3, 4)))
    with pytest.raises(AssertionError, match="indicator residues"):
        _checked(rebuild(table))


def test_check_rejects_a_wrong_frobenius_schur_count(q8_table):
    # Every nu read as 1 makes sum nu d = 6; 2 elements of Q8 square to 1.
    bad = rebuild(q8_table)
    bad._indicators = (1,) * 5
    with pytest.raises(AssertionError, match="Frobenius-Schur count"):
        _checked(bad)


def test_check_counts_involutions_from_the_power_rows(monkeypatch):
    # A fresh Q8's row of -1 read as (0, 1, 0, 1): -1 has order 4 by the
    # row's length, while its square, its inverse and so every nu stay.
    # One element squares to 1, but sum nu d is 2.
    G = q8_group()
    table = dixon_table(G)
    rows = G.power_classes()
    monkeypatch.setattr(G, "power_classes", lambda: (rows[0], (0, 1, 0, 1), *rows[2:]))
    bad = rebuild(table)
    assert bad.indicators() == table.indicators()
    with pytest.raises(AssertionError, match="Frobenius-Schur count fails: 1 elements"):
        _checked(bad)


@pytest.mark.parametrize("duals", [(0, 1, 2, 3, 3), (0, 1, 2, 3, None), (0, 1, 2, 3)])
def test_check_rejects_duals_that_are_not_a_permutation(q8_table, duals):
    with pytest.raises(AssertionError, match="not a permutation of the 5 rows"):
        _checked(rebuild(q8_table, duals=duals))


def test_check_rejects_two_swapped_duals(q8_table, g128_table):
    # Q8's rows are real; g128's rows 8..11 are two pairs of conjugates.
    # Either way chi_a is orthogonal to the wrong a*, so b = a fails.
    assert q8_table.duals == tuple(range(5))
    assert g128_table.duals[8:12] == (11, 10, 9, 8)
    for table, a, b in ((q8_table, 1, 2), (g128_table, 8, 9)):
        duals = list(table.duals)
        duals[a], duals[b] = duals[b], duals[a]
        with pytest.raises(AssertionError, match=f"rows {a} and {a} are not orthogonal"):
            _checked(rebuild(table, duals=tuple(duals)))


def test_indicators_are_computed_once(g128_table):
    assert g128_table.indicators() is g128_table.indicators()


# ---------------------------------------------------------------------------
# Oracle: Dixon by trying every lambda and lifting over all of Z/n
# ---------------------------------------------------------------------------

def naive_dixon_table(G):
    """dixon_table's algorithm without its shortcuts: no central blocks,
    every class matrix, every lambda in F_p gets a nullspace solve, and each
    value is lifted by the length-n Fourier sum over t < exp G with one pow
    call per term.  The element orders come from walking each element's
    powers, and the classes of the inverses, which the degrees and the duals
    read, from G.inv: none of them from the group's power map."""
    classes = G.conjugacy_classes()
    reps = [cl[0] for cl in classes]
    sizes = [len(cl) for cl in classes]
    r = len(classes)
    orders = [len(power_walk(G, g)) for g in range(G.order)]
    n = lcm(*orders)
    p = dixon_prime(G.order, n)
    spaces = [_rref_mod([[int(i == j) for j in range(r)] for i in range(r)], p)]
    for cl in classes[1:]:
        # a[j][k] = #{x in cl : x^-1 g_k in C_j}, for central classes too
        A = [[sum(G.class_of(G.mul(G.inv(x), g)) == j for x in cl) for g in reps]
             for j in range(r)]
        new_spaces = []
        for basis, pivots in spaces:
            d = len(basis)
            if d == 1:
                new_spaces.append((basis, pivots))
                continue
            T = []
            for b in basis:
                w = [sum(A[j][k] * b[k] for k in range(r)) % p for j in range(r)]
                T.append([w[pc] for pc in pivots])
            M = [[T[m][l] for m in range(d)] for l in range(d)]
            split_total = 0
            for lam in range(p):
                shifted = [[(M[i][j] - (lam if i == j else 0)) % p
                            for j in range(d)] for i in range(d)]
                null = _nullspace_mod(shifted, p)
                if not null:
                    continue
                vecs = [[sum(c[m] * basis[m][k] for m in range(d)) % p
                         for k in range(r)] for c in null]
                new_spaces.append(_rref_mod(vecs, p))
                split_total += len(null)
            assert split_total == d
        spaces = new_spaces
    assert all(len(b) == 1 for b, _ in spaces)

    power_class = []
    for g in reps:
        x, row = 0, []
        for _ in range(n):              # x runs through g^0, ..., g^(n-1)
            row.append(G.class_of(x))
            x = G.mul(x, g)
        power_class.append(row)
    inv_class = tuple(G.class_of(G.inv(g)) for g in reps)
    omega = omega_mod(p, n)
    n_inv = pow(n, -1, p)
    chars = []
    for basis, _ in spaces:
        v = [(x * pow(basis[0][0], -1, p)) % p for x in basis[0]]
        s = sum(v[j] * v[inv_class[j]] * pow(sizes[j], -1, p) for j in range(r)) % p
        d_sq = (G.order * pow(s, -1, p)) % p
        deg = next(t for t in range(1, p) if t * t % p == d_sq and 2 * t < p)
        chi_mod = [(deg * v[j] * pow(sizes[j], -1, p)) % p for j in range(r)]
        values = []
        for j in range(r):
            powers = {}
            for k in range(n):
                m_k = sum(chi_mod[power_class[j][t]] * pow(omega, (-t * k) % (p - 1), p)
                          for t in range(n)) * n_inv % p
                if m_k:
                    powers[k] = m_k
            values.append(Cyclotomic.from_powers(n, powers))
        assert values[0] == deg
        chars.append(ClassFunction(G, tuple(values)))
    chars.sort(key=lambda c: (c.degree(), tuple(v.render() for v in c.values)))
    residues = lifted_residues(chars, p, n)
    return CharacterTable(
        group=G, irreducibles=tuple(chars),
        rendered=tuple(tuple(v.render() for v in c.values) for c in chars),
        residues=residues,
        duals=tuple(residues.index(tuple(row[j] for j in inv_class)) for row in residues),
        root_order=n, prime=p)


@pytest.fixture(scope="module")
def d30_table(d30_file):
    return dixon_table(load_group_file(str(d30_file)))


@pytest.fixture(scope="module")
def c30_table(c30_file):
    return dixon_table(load_group_file(str(c30_file)))


@pytest.fixture(scope="module")
def d60_file(tmp_path_factory):
    return cayley_file(tmp_path_factory, "d60", 60, dihedral_mul(30), seed=3)


@pytest.fixture(scope="module")
def d60_table(d60_file):
    return dixon_table(load_group_file(str(d60_file)))


# h16 has 16 classes and prime 11 (r > p); in C30, 22 of the 30 elements
# have order below exp G = 30, so most lifts are shorter than n.  D60 has
# a centre of order 2, so it splits from two blocks.
@pytest.mark.parametrize("name", ["q8_table", "h16_table", "g128_table",
                                  "d10_table", "d30_table", "c30_table",
                                  "d60_table"])
def test_dixon_matches_naive_oracle(name, request):
    table = request.getfixturevalue(name)
    assert fields(naive_dixon_table(table.group)) == fields(table)


def _brute_det(M, p):
    """Leibniz expansion of det(M) mod p."""
    d = len(M)
    total = 0
    for perm in permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total % p


@st.composite
def _square_mod_p(draw):
    p = draw(st.sampled_from([2, 3, 11, 13]))
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "zero", "scalar", "nilpotent"]))
    entry = st.integers(0, p - 1)
    if kind == "random":
        M = [[draw(entry) for _ in range(d)] for _ in range(d)]
    elif kind == "zero":
        M = [[0] * d for _ in range(d)]
    elif kind == "scalar":
        c = draw(entry)
        M = [[c * (i == j) for j in range(d)] for i in range(d)]
    else:
        # strictly upper triangular, conjugated by a random permutation
        U = [[draw(entry) if j > i else 0 for j in range(d)] for i in range(d)]
        perm = draw(st.permutations(range(d)))
        M = [[U[perm[i]][perm[j]] for j in range(d)] for i in range(d)]
    return M, p


@settings(max_examples=150, deadline=None)
@given(_square_mod_p())
def test_charpoly_matches_brute_force_determinant(case):
    M, p = case
    coeffs = _charpoly_mod(M, p)
    d = len(M)
    assert len(coeffs) == d + 1 and coeffs[-1] == 1
    for lam in range(p):
        value = sum(c * lam ** k for k, c in enumerate(coeffs)) % p
        shifted = [[(lam * (i == j) - M[i][j]) % p for j in range(d)]
                   for i in range(d)]
        assert value == _brute_det(shifted, p)


def _full_space(d, p):
    return _rref_mod([[int(i == j) for j in range(d)] for i in range(d)], p)


@pytest.mark.parametrize("M, p", [
    ([[3, 1], [0, 3]], 11),                    # Jordan block: one eigenvector
    ([[2, 1, 0], [0, 2, 1], [0, 0, 2]], 13),
    ([[0, 1], [0, 0]], 3),                     # nilpotent, not zero
    ([[0, 2], [1, 0]], 3),                     # x^2 + 1 has no root mod 3
])
def test_split_rejects_matrices_that_do_not_diagonalize(M, p):
    with pytest.raises(AssertionError, match="not diagonalizable"):
        _split_eigenspaces(M, *_full_space(len(M), p), p)


def _repeated_root_or_zero_krylov(shifted, p):
    """shifted = M - lambda I: lambda is a repeated root of M's characteristic
    polynomial (0 is a double root of det(xI - shifted)), or e_0 lies in
    im(M - lambda), the case where the Krylov vector q(M) e_0 is zero."""
    c = _charpoly_mod(shifted, p)
    if c[0] == 0 and c[1] == 0:
        return True
    with_e0 = [row + [int(i == 0)] for i, row in enumerate(shifted)]
    return len(_rref_mod(with_e0, p)[0]) == len(_rref_mod(shifted, p)[0])


def test_split_tries_only_charpoly_roots(monkeypatch, d30_file, c30_file):
    from fusionaudit import characters
    solved = []
    real = characters._nullspace_mod

    def spy(mat, p):
        null = real(mat, p)
        solved.append((mat, p, null))
        return null

    monkeypatch.setattr(characters, "_nullspace_mod", spy)
    # diag(5, 5, 7) mod 13: two roots, so two solves in increasing lambda;
    # e_0 lies in the 5-eigenspace, so the simple root 7 has a zero Krylov vector
    M = [[5, 0, 0], [0, 5, 0], [0, 0, 7]]
    parts = _split_eigenspaces(M, *_full_space(3, 13), 13)
    assert [len(b) for b, _ in parts] == [2, 1]
    assert [m[0][0] for m, _, _ in solved] == [0, 11]
    solved.clear()
    # diag(7, 5, 5): the simple root 7 comes from the Krylov basis, and
    # only the repeated root 5 is solved
    M = [[7, 0, 0], [0, 5, 0], [0, 0, 5]]
    parts = _split_eigenspaces(M, *_full_space(3, 13), 13)
    assert [len(b) for b, _ in parts] == [2, 1]
    assert parts[1] == ([[1, 0, 0]], [0])
    assert [m[0][0] for m, _, _ in solved] == [2]
    solved.clear()
    dixon_table(load_group_file(str(d30_file)))
    assert solved and all(null for _, _, null in solved)
    assert all(_repeated_root_or_zero_krylov(m, p) for m, p, _ in solved)
    solved.clear()
    dixon_table(load_group_file(str(c30_file)))
    assert solved == []


def test_lift_builds_each_distinct_value_once(monkeypatch, c30_file):
    G = load_group_file(str(c30_file))
    built = []
    real = Cyclotomic.from_powers

    def spy(n, powers):
        built.append(powers)
        return real(n, powers)

    monkeypatch.setattr(Cyclotomic, "from_powers", staticmethod(spy))
    table = dixon_table(G)
    distinct = {value_key(v) for chi in table.irreducibles for v in chi.values}
    assert len(built) == len(distinct) == 30


# In F2^4 every row has degree 1 and each class is its own Galois orbit,
# yet the 16 x 16 lifts see only three (order, power sums): the identity's
# [1], and [1] or [-1] at an involution.  In C30 a class of order o sees
# each o-th root of unity across the 30 rows: sum_{o | 30} o = 72 lifts, no
# more than one class per Galois orbit would need.
@pytest.mark.parametrize("name, calls",
                         [("h16_table", 3), ("c30_table", 72), ("g128_table", 20)])
def test_lift_runs_once_per_order_and_power_sums(monkeypatch, name, calls, request):
    from fusionaudit import characters
    G = request.getfixturevalue(name).group
    seen = []
    real = characters._eigenvalues
    monkeypatch.setattr(characters, "_eigenvalues",
                        lambda sums, *rest: seen.append(sums) or real(sums, *rest))
    dixon_table(G)
    assert len(seen) == calls


# ---------------------------------------------------------------------------
# Oracle: the closed-form table of a cyclic group
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def c60_file(tmp_path_factory):
    return cayley_file(tmp_path_factory, "c60", 60, lambda x, y: (x + y) % 60)


@pytest.fixture(scope="module")
def c120_file(tmp_path_factory):
    return cayley_file(tmp_path_factory, "c120", 120, lambda x, y: (x + y) % 120, seed=5)


@pytest.fixture(scope="module")
def c512_file(tmp_path_factory):
    return cayley_file(tmp_path_factory, "c512", 512, lambda x, y: (x + y) % 512, seed=3)


# In C60 the first class matrix is multiplication by a generator, so every
# root of the first split is simple and no nullspace is solved; the
# relabelled C120 splits through repeated roots as well.  The Galois orbits
# of classes are as large as phi(m).  The relabelled C512 takes the oracle
# near the cap.
@pytest.mark.parametrize("name", ["c60_file", "c120_file", "c512_file"])
def test_dixon_matches_closed_form_on_cyclic_groups(name, request):
    G = load_group_file(str(request.getfixturevalue(name)))
    m = G.order
    g = next(x for x in range(m) if G.element_order(x) == m)
    powers = [0]
    for _ in range(m - 1):
        powers.append(G.mul(powers[-1], g))
    # chi_a(g^b) = zeta_m^(ab), whichever generator g is picked
    zetas = [value_key(zeta(m, k)) for k in range(m)]     # shared: C512 has m^2 entries
    closed = {tuple(zetas[a * b % m] for b in range(m)) for a in range(m)}
    rows = {tuple(value_key(chi.value_at(x)) for x in powers)
            for chi in dixon_table(G).irreducibles}
    assert rows == closed


def _closed_forms(family, m):
    """(nu, values) for each irreducible of D_m (r^i s^e at index i + m e) or of
    Q_4m (a^i x^e at index i + 2m e): values(i, e) lists the k with chi = sum
    zeta_4m^k (Serre 1977, 5.3; the dicyclic rows are induced from <a> alike)."""
    if family == "dihedral":                # zeta_4m^2m = -1
        for br in range(1 + (m % 2 == 0)):
            for bs in range(2):
                yield 1, lambda i, e, br=br, bs=bs: [2 * m * (br * i + bs * e)]
        for h in range(1, (m + 1) // 2):
            yield 1, lambda i, e, h=h: [] if e else [4 * h * i, -4 * h * i]
    else:                                   # a -> (-1)^be, x -> zeta_4^j: x^2 = a^m, so j = be m mod 2
        for be in range(2):
            for j in range(be * m % 2, 4, 2):
                yield 1 - j % 2, lambda i, e, be=be, j=j: [2 * m * be * i + m * j * e]
        for h in range(1, m):
            yield (-1) ** h, lambda i, e, h=h: [] if e else [2 * h * i, -2 * h * i]


@pytest.mark.parametrize("family, m, seed", [("dihedral", 256, 2), ("dicyclic", 128, 4),
                                             ("dihedral", 512, 1)])
def test_dixon_matches_closed_form_on_dihedral_and_dicyclic_groups(family, m, seed,
                                                                   tmp_path_factory):
    # Relabelled D512, Q512 and D1024 (at the cap), value by value as rendered
    # strings, with the indicators: nu = 1 on D_m, and nu(chi_h) = (-1)^h on Q_4m.
    n_elems = 2 * m if family == "dihedral" else 4 * m
    mul = dihedral_mul(m) if family == "dihedral" else dicyclic_mul(m)
    path = cayley_file(tmp_path_factory, family, n_elems, mul, seed=seed)
    table = dixon_table(load_group_file(str(path)))
    n, half = table.root_order, n_elems // 2
    back = {px: x for x, px in enumerate(relabelling(n_elems, random.Random(seed)))}
    reps = [divmod(back[cl[0]], half)[::-1] for cl in table.group.conjugacy_classes()]

    @cache
    def render(ks):             # ks reduced mod 4m: D1024 has about 512 distinct values
        assert all(k * n % (4 * m) == 0 for k in ks)
        return Cyclotomic.from_powers(n, dict(Counter(k * n // (4 * m) for k in ks))).render()

    closed = {tuple(render(tuple(k % (4 * m) for k in values(i, e))) for i, e in reps): nu
              for nu, values in _closed_forms(family, m)}
    assert len(table.rendered) == len(closed) == (m // 2 + 3 if family == "dihedral" else m + 3)
    assert dict(zip(table.rendered, table.indicators())) == closed


@pytest.mark.parametrize("k, seed", [(4, 6), (10, 5)])
def test_dixon_matches_closed_form_on_elementary_abelian_groups(k, seed, tmp_path_factory):
    # Relabelled F2^k (F2^10 at the cap), as a set of rendered rows:
    # chi_u(v) = (-1)^popcount(u & v), read at each class's element mapped
    # back through the relabelling, and every indicator is 1.
    n_elems = 2 ** k
    path = cayley_file(tmp_path_factory, f"f2-{k}", n_elems, operator.xor, seed=seed)
    table = dixon_table(load_group_file(str(path)))
    back = {px: x for x, px in enumerate(relabelling(n_elems, random.Random(seed)))}
    reps = [back[cl[0]] for cl in table.group.conjugacy_classes()]
    signs = [Cyclotomic.from_rational(table.root_order, s).render() for s in (1, -1)]
    closed = {tuple(signs[(u & v).bit_count() % 2] for v in reps) for u in range(n_elems)}
    assert len(table.rendered) == len(closed) == n_elems
    assert set(table.rendered) == closed
    assert set(table.indicators()) == {1}


def test_dixon_takes_the_exponent_from_the_power_classes(monkeypatch, cg, d30_file):
    # Dixon reads the group's one cached power map: n is the lcm of its row
    # lengths, each class's element order is its row's length, and each row
    # ends at the class of the inverse and holds the class of the square,
    # against walks by G.table, G.inv and G.mul.  Each row's dual is the row
    # read at the inverses' classes.
    groups = [cg.group, load_group_file(str(d30_file))]
    calls = []
    real = FiniteGroup.power_classes
    monkeypatch.setattr(FiniteGroup, "power_classes",
                        lambda G: calls.append((G, real(G))) or calls[-1][1])
    tables = [dixon_table(G) for G in groups]
    monkeypatch.undo()
    assert {G for G, _ in calls} == set(groups)
    assert all(m is G.power_classes() for G, m in calls)
    assert [t.root_order for t in tables] == [G.exponent() for G in groups] == [4, 30]
    for G, t in zip(groups, tables):
        rows = G.power_classes()
        reps = [cl[0] for cl in G.conjugacy_classes()]
        assert tuple(map(len, rows)) == tuple(len(power_walk(G, g)) for g in reps)
        inverses = tuple(row[-1] for row in rows)
        assert inverses == tuple(G.class_of(G.inv(g)) for g in reps)
        assert tuple(row[2 % len(row)] for row in rows) \
            == tuple(G.class_of(G.mul(g, g)) for g in reps)
        assert [t.residues[d] for d in t.duals] \
            == [tuple(row[j] for j in inverses) for row in t.residues]


def _spy_class_rows(monkeypatch):
    """Record each (i, j, row) that dixon_table builds with _class_row."""
    from fusionaudit import characters
    built = []
    real = characters._class_row

    def spy(G, i, j):
        row = real(G, i, j)
        built.append((i, j, row))
        return row

    monkeypatch.setattr(characters, "_class_row", spy)
    return built


def _draws(built):
    """The drawn classes, in draw order, from the recorded rows."""
    return [i for at, (i, _, _) in enumerate(built) if at == 0 or built[at - 1][0] != i]


def test_dixon_draws_class_matrices_only_until_split(monkeypatch, cg, g128_table):
    # The class matrices come one at a time, each row at most once per draw,
    # and none is built once every eigenspace is 1-dimensional: 11 of
    # g128's 22 nonidentity classes.
    built = _spy_class_rows(monkeypatch)
    table = dixon_table(cg.group)
    drawn = _draws(built)
    assert len(cg.group.conjugacy_classes()) == 23
    assert len(drawn) == len(set(drawn)) == 11
    assert len({(i, j) for i, j, _ in built}) == len(built)
    assert table.residues == g128_table.residues


@pytest.mark.parametrize("name", ["q8_table", "g128_table", "d30_table", "d120_file"])
def test_pivot_rows_match_the_full_class_matrix(monkeypatch, name, request):
    # Each row is |C_i| #{y in C_j : g_i y in C_k} / |C_k|; on D120 the
    # reflection classes have size 30, so the division is not by 1.
    fixture = request.getfixturevalue(name)
    G = load_group_file(str(fixture)) if name == "d120_file" else fixture.group
    built = _spy_class_rows(monkeypatch)
    dixon_table(G)
    assert built
    matrices = {i: class_matrix(G, i) for i in _draws(built)}
    for i, j, row in built:
        assert row == matrices[i][j]
    if name == "d120_file":
        assert any(len(G.conjugacy_classes()[i]) == 30 for i in matrices)


def test_split_counts_do_not_depend_on_the_labelling(monkeypatch, tmp_path_factory):
    # Size-1 classes are never drawn, the others by decreasing element order
    # (ties by class index), which makes the work the same for every
    # labelling of D120: 30 draws, 60 splits, 2 nullspace solves.
    from fusionaudit import characters
    calls = {"split": 0, "solve": 0}
    real_split, real_solve = characters._split_eigenspaces, characters._nullspace_mod

    def split(*args):
        calls["split"] += 1
        return real_split(*args)

    def solve(*args):
        calls["solve"] += 1
        return real_solve(*args)

    monkeypatch.setattr(characters, "_split_eigenspaces", split)
    monkeypatch.setattr(characters, "_nullspace_mod", solve)
    built = _spy_class_rows(monkeypatch)
    counts = set()
    for seed in range(1, 6):
        path = cayley_file(tmp_path_factory, f"d120-{seed}", 120, dihedral_mul(60), seed)
        built.clear()
        calls.update(split=0, solve=0)
        G = load_group_file(str(path))
        dixon_table(G)
        drawn = _draws(built)
        classes = G.conjugacy_classes()
        order = sorted((i for i, cl in enumerate(classes) if len(cl) > 1),
                       key=lambda i: (-len(power_walk(G, classes[i][0])), i))
        assert drawn == order[:len(drawn)]
        counts.add((len(drawn), calls["split"], calls["solve"]))
    assert counts == {(30, 60, 2)}


def test_split_keeps_scalar_blocks_without_a_solve(monkeypatch, cg, d30_file):
    # A acting as a scalar on the subspace returns it as it is; every call
    # that reaches the characteristic polynomial splits into >= 2 spaces.
    # (A Jordan block, one root but not scalar, still raises: see
    # test_split_rejects_matrices_that_do_not_diagonalize.)
    from fusionaudit import characters
    M = [[4, 0, 0], [0, 4, 0], [0, 0, 4]]
    space = _full_space(3, 13)
    calls = []        # per _split_eigenspaces call: [reached the charpoly, spaces]
    real_charpoly, real_split = characters._charpoly_mod, characters._split_eigenspaces

    def charpoly(M, p):
        calls[-1][0] = True
        return real_charpoly(M, p)

    def split(*args):
        calls.append([False, 0])
        out = real_split(*args)
        calls[-1][1] = len(out)
        return out

    monkeypatch.setattr(characters, "_charpoly_mod", charpoly)
    monkeypatch.setattr(characters, "_split_eigenspaces", split)
    assert characters._split_eigenspaces(M, *space, 13) == [space]
    assert calls == [[False, 1]]
    calls.clear()
    dixon_table(cg.group)
    dixon_table(load_group_file(str(d30_file)))
    assert any(reached for reached, _ in calls)
    assert any(not reached for reached, _ in calls)
    assert all(n >= 2 if reached else n == 1 for reached, n in calls)


# ---------------------------------------------------------------------------
# Central blocks and the Newton lift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["q8_table", "g128_table", "d60_table"])
def test_central_blocks_are_the_eigenspaces_of_the_centre(name, request):
    # One block per linear character lambda of Z(G) mod p, read off the
    # vector at pivot 0 (the orbit of the central classes): every vector v
    # of the block has v(zC) = lambda(z) v(C), and the blocks fill r.
    table = request.getfixturevalue(name)
    G, p, n = table.group, table.prime, table.root_order
    classes = G.conjugacy_classes()
    center = [cl[0] for cl in classes if len(cl) == 1]
    omega = omega_mod(p, n)
    blocks = _central_blocks(G, [pow(omega, k, p) for k in range(n)])
    lams = set()
    for basis, pivots in blocks:
        assert (basis, pivots) == _rref_mod(basis, p)
        assert pivots[0] == 0
        lam = {z: basis[0][G.class_of(z)] for z in center}
        assert all(lam[G.mul(y, z)] == lam[y] * lam[z] % p for y in center for z in center)
        lams.add(tuple(lam.values()))
        for v in basis:
            for z in center:
                for c, cl in enumerate(classes):
                    assert v[G.class_of(G.mul(z, cl[0]))] == lam[z] * v[c] % p
    assert len(lams) == len(blocks) == len(center)
    assert sum(len(basis) for basis, _ in blocks) == len(classes)


def test_central_blocks_hold_one_character_of_the_centre_at_a_time():
    # On F2^8 the 256 characters of Z(G) = G, as lists of 256 exponents,
    # would take as much memory as the blocks built from them; they are
    # generated one at a time instead.
    G = FiniteGroup(cayley_table(256, lambda x, y: x ^ y))
    G.conjugacy_classes()
    p = dixon_prime(G.order, 2)
    omega_pows = [1, omega_mod(p, 2)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        blocks = _central_blocks(G, omega_pows)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blocks) == 256
    assert peak - start < 1.5 * (held - start)


def test_abelian_groups_draw_no_class_matrix(monkeypatch, h16, h16_table, c60_file):
    built = _spy_class_rows(monkeypatch)
    assert dixon_table(h16).residues == h16_table.residues
    assert len(dixon_table(load_group_file(str(c60_file))).irreducibles) == 60
    assert built == []


@st.composite
def _root_multiset(draw):
    p, o = draw(st.sampled_from([(13, 4), (31, 6), (61, 12), (181, 60)]))
    roots = [pow(omega_mod(p, o), j, p) for j in range(o)]
    js = draw(st.lists(st.integers(0, o - 1), min_size=1, max_size=min(8, p // 2)))
    return p, roots, js


@settings(max_examples=100, deadline=None)
@given(_root_multiset())
def test_eigenvalues_recover_multiplicities_from_power_sums(case):
    p, roots, js = case
    sums = [sum(pow(roots[j], t, p) for j in js) % p for t in range(1, len(js) + 1)]
    assert _eigenvalues(sums, roots, p, 1) == sorted((j, js.count(j)) for j in set(js))


def test_eigenvalues_reject_power_sums_of_no_character(q8_table):
    # Q8's degree-2 row at the class of i: eigenvalues +-i, so the power
    # sums are chi(i) = 0 and chi(-1) = -2.  Moving chi(i) to 1 gives
    # x^2 - x + 3/2, which has no root among the 4th roots of unity mod 13.
    p = q8_table.prime
    roots = [pow(omega_mod(p, 4), j, p) for j in range(4)]
    assert _eigenvalues([0, p - 2], roots, p, 2) == [(1, 1), (3, 1)]
    with pytest.raises(AssertionError, match=r"\[1, 11\] mod 13 at class 2: the eigenvalue "
                       r"polynomial does not split into roots of x\^4 - 1"):
        _eigenvalues([1, p - 2], roots, p, 2)
    with pytest.raises(AssertionError, match=r"at class 0: .* x\^1 - 1$"):
        _eigenvalues([2], roots[:1], p, 0)
