from dataclasses import replace
from fractions import Fraction

import pytest

from fusionaudit import audit
from fusionaudit.characters import (
    ClassFunction,
    dixon_prime,
    dixon_table,
    dual_character,
    fs_indicator,
    fusion_tensor,
    induce,
    inner_product,
    lift_from_quotient,
    pointwise_product,
    regular_character,
    restrict,
    trivial_character,
)
from fusionaudit.construction import compute_h0
from fusionaudit.cyclotomic import Cyclotomic, _power_reductions
from fusionaudit.groupfile import load_group_file
from fusionaudit.groups import subgroup_as_group


def test_induced_chi_values(cg, data):
    chi = data.chi
    assert chi.degree() == 8
    h_set = set(cg.h_subgroup)
    for g in range(cg.group.order):
        if g not in h_set:
            assert chi.value_at(g).is_zero()
    h0 = compute_h0(cg)
    assert chi.value_at(h0[1]) == -8


def test_inner_products(cg, data):
    G = cg.group
    one = trivial_character(G)
    assert inner_product(one, one) == 1
    assert inner_product(data.chi, data.chi) == 1


def test_regular_character_of_q8_contains_phi_twice(q8, q8_table):
    reg = regular_character(q8)
    phi = next(c for c in q8_table.irreducibles if c.degree() == 2)
    assert inner_product(reg, phi) == 2


def test_conjugate_stabilizer_check_matches_irreducibility(cg):
    # all 15 functionals: 8 give an irreducible induced character, 7 do not
    from fusionaudit import gf2
    from fusionaudit.construction import LambdaChoice
    G = cg.group
    n = G.exponent()
    h0 = compute_h0(cg)
    passing = 0
    for v in gf2.enumerate_functionals():
        lam = LambdaChoice(
            covector=v,
            kernel=tuple(8 * h for h in range(16) if gf2.dot(v, h) == 0),
            h0_element=h0[1])
        values = {g: Cyclotomic.from_rational(n, lam.value_sign(g))
                  for g in cg.h_subgroup}
        chi = induce(G, cg.h_subgroup, values, n=n)
        stab = audit.conjugate_stabilizer_check(cg, lam)
        assert (inner_product(chi, chi) == 1) == stab
        passing += stab
    assert passing == 8


def test_stabilizer_check_fails_for_trivial_lambda(cg):
    from fusionaudit.construction import LambdaChoice
    lam = LambdaChoice(covector=0, kernel=tuple(cg.h_subgroup),
                       h0_element=compute_h0(cg)[1])
    assert not audit.conjugate_stabilizer_check(cg, lam)


def test_stabilizer_check_fails_when_kernel_contains_h0(cg):
    from fusionaudit import gf2
    from fusionaudit.construction import LambdaChoice
    h0_bits = compute_h0(cg)[1] >> 3
    v = next(f for f in gf2.enumerate_functionals() if gf2.dot(f, h0_bits) == 0)
    lam = LambdaChoice(covector=v,
                       kernel=tuple(8 * h for h in range(16)
                                    if gf2.dot(v, h) == 0),
                       h0_element=compute_h0(cg)[1])
    # ^z(lambda) = lambda because [H, z] = H0 lies in the kernel
    G = cg.group
    assert all(lam.value_sign(G.conj(h, cg.z_lift)) == lam.value_sign(h)
               for h in cg.h_subgroup)
    assert not audit.conjugate_stabilizer_check(cg, lam)


def test_fs_indicator_basics(cg, data):
    assert fs_indicator(trivial_character(cg.group)) == 1
    assert fs_indicator(data.chi) == 1
    assert fs_indicator(data.phi) == -1


def test_fs_indicator_range_and_reality(g128_table, q8_table, h16_table):
    for table in (g128_table, q8_table, h16_table):
        for chi in table.irreducibles:
            nu = fs_indicator(chi)
            assert nu in (Fraction(-1), Fraction(0), Fraction(1))
            real = all(v.is_real() for v in chi.values)
            assert (nu == 0) == (not real)


def test_pointwise_square(cg, data):
    chi2 = pointwise_product(data.chi, data.chi)
    assert chi2.degree() == 64
    h_set = set(cg.h_subgroup)
    for g in range(cg.group.order):
        if g not in h_set:
            assert chi2.value_at(g).is_zero()
    mult = inner_product(chi2, data.phi)
    assert mult.as_rational() == 2


def test_lift_from_quotient(cg, data):
    G = cg.group
    lifted_triv = lift_from_quotient(
        trivial_character(data.quotient), G, data.proj)
    assert lifted_triv == trivial_character(G, n=lifted_triv.root_order())
    assert data.phi.degree() == 2
    for h in cg.h_subgroup:
        assert data.phi.value_at(h) == 2


def test_induced_square_constituent(cg, data):
    ind = audit.induced_square_constituent(data)
    assert ind.degree() == 8
    assert inner_product(ind, data.phi).as_rational() == 2
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
                acc = acc + chi.values[j] * chi.values[k].conjugate()
            expect = G.order // len(cj) if j == k else 0
            assert acc == expect


def test_constructive_rows_appear_in_dixon(data, g128_table):
    assert g128_table.row_of(data.chi) is not None
    for lift in data.lifts:
        assert g128_table.row_of(lift) is not None


def test_frobenius_reciprocity_exhaustive(cg, data, g128_table):
    H, embed = subgroup_as_group(cg.group, cg.h_subgroup)
    n = cg.group.exponent()
    lam_h = ClassFunction(H, tuple(
        Cyclotomic.from_rational(n, data.lam.value_sign(embed[cl[0]]))
        for cl in H.conjugacy_classes()))
    for theta in g128_table.irreducibles:
        lhs = inner_product(data.chi, theta)
        rhs = inner_product(lam_h, restrict(theta, H, embed))
        assert lhs == rhs


def test_involution_counting(cg, q8, h16, g128_table, q8_table, h16_table):
    for G, table in ((cg.group, g128_table), (q8, q8_table), (h16, h16_table)):
        lhs = sum(fs_indicator(chi) * chi.degree() for chi in table.irreducibles)
        rhs = sum(1 for g in range(G.order) if G.mul(g, g) == 0)
        assert lhs == rhs


def test_galois_action_permutes_rows(g128_table):
    n = g128_table.root_order
    rows = {chi.values for chi in g128_table.irreducibles}
    for k in range(1, n):
        from math import gcd
        if gcd(k, n) != 1:
            continue
        for chi in g128_table.irreducibles:
            assert tuple(v.galois(k) for v in chi.values) in rows


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
    sizes = table.class_sizes
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
                out[j] += c * red[k][j]
        return out

    rows = [[v.num for v in chi.values] for chi in table.irreducibles]
    assert all(v.den == 1 for chi in table.irreducibles for v in chi.values)
    conj_rows = [[v.conjugate().num for v in chi.values]
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


def _dihedral_table(m):
    """Cayley table of D_m: index i + m*e stands for r^i s^e."""
    def mul(x, y):
        (i, e), (j, f) = divmod(x, m)[::-1], divmod(y, m)[::-1]
        return (i + (j if e == 0 else -j)) % m + m * ((e + f) % 2)
    n = 2 * m
    return "table %d\n" % n + "\n".join(
        " ".join(str(mul(x, y)) for y in range(n)) for x in range(n)) + "\n"


@pytest.fixture(scope="module")
def d10_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("groups") / "d10.grp"
    path.write_text(_dihedral_table(10))
    return dixon_table(load_group_file(str(path)))


@pytest.mark.parametrize("name", ["q8_table", "h16_table", "g128_table",
                                  "d10_table"])
def test_fusion_tensor_matches_exact_oracle(name, request):
    table = request.getfixturevalue(name)
    assert fusion_tensor(table) == exact_fusion_tensor(table)


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


def _corrupt(table, row, cls, value):
    chi = table.irreducibles[row]
    values = list(chi.values)
    values[cls] = value
    rows = list(table.irreducibles)
    rows[row] = ClassFunction(chi.group, tuple(values))
    return replace(table, irreducibles=tuple(rows))


@pytest.mark.parametrize("row, cls, delta", [
    (4, 1, 1), (4, 2, -1), (0, 3, 2), (2, 4, 1),
])
def test_fusion_tensor_rejects_corrupted_q8_table(q8_table, row, cls, delta):
    old = q8_table.irreducibles[row].values[cls]
    bad = _corrupt(q8_table, row, cls, old + delta)
    with pytest.raises(AssertionError):
        fusion_tensor(bad)


def test_fusion_tensor_rejects_corrupted_g128_table(g128_table):
    n = g128_table.root_order
    last = len(g128_table.irreducibles) - 1
    for row, cls in ((last, 5), (8, 3), (1, 7)):
        old = g128_table.irreducibles[row].values[cls]
        bad = _corrupt(g128_table, row, cls, old + Cyclotomic.zeta(n))
        with pytest.raises(AssertionError):
            fusion_tensor(bad)


def test_fusion_tensor_rejects_non_integral_value(q8_table):
    bad = _corrupt(q8_table, 4, 1, Cyclotomic.from_rational(4, Fraction(1, 2)))
    with pytest.raises(AssertionError, match="algebraic integer"):
        fusion_tensor(bad)


def test_indicators_are_computed_once(g128_table):
    assert g128_table.indicators() is g128_table.indicators()
