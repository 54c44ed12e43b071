import ast
import pathlib
import random
from itertools import product
from math import lcm

import pytest
from conftest import cayley_table, dihedral_mul
from oracles import conjugacy_classes_sweep, power_walk, quotient_group, subgroup_as_group
from test_audit import LOOP5_TABLE
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fusionaudit import groups
from fusionaudit.groupfile import load_group_file
from fusionaudit.groups import (
    FiniteGroup,
    Q8_MINUS_ONE,
    Q8_TABLE,
    TableError,
    centralizer_of_set,
    commutator_span,
    is_subgroup,
    squares_in,
    subgroup_generated,
)


def test_q8_cayley_is_a_group():
    q8 = groups.q8_group()
    q8.check_axioms()
    assert q8.order == 8
    # unique inverses and the identity row/column come with the constructor
    assert sorted(q8.inverse) == list(range(8))


def test_q8_center():
    q8 = groups.q8_group()
    assert centralizer_of_set(q8, range(8)) == (0, Q8_MINUS_ONE)
    assert q8.mul(Q8_MINUS_ONE, Q8_MINUS_ONE) == 0


def test_q8_relations():
    # i^2 = j^2 = k^2 = -1 and ijk = -1
    i, j, k = 2, 4, 6
    q8 = groups.q8_group()
    assert q8.mul(i, i) == Q8_MINUS_ONE
    assert q8.mul(j, j) == Q8_MINUS_ONE
    assert q8.mul(k, k) == Q8_MINUS_ONE
    assert q8.mul(q8.mul(i, j), k) == Q8_MINUS_ONE
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == 7  # -k


def test_trivial_group_classes():
    t = FiniteGroup([[0]])
    assert t.conjugacy_classes() == ((0,),)


def test_q8_classes():
    q8 = groups.q8_group()
    sizes = sorted(len(c) for c in q8.conjugacy_classes())
    assert sizes == [1, 1, 2, 2, 2]
    assert q8.conjugacy_classes()[0] == (0,)


def test_class_equation(cg, q8, h16):
    for G in (cg.group, q8, h16):
        classes = G.conjugacy_classes()
        assert sum(len(c) for c in classes) == G.order
        for c in classes:
            assert G.order % len(c) == 0


def test_group_axioms_exhaustive(cg, q8, h16):
    for G in (cg.group, q8, h16):
        G.check_axioms()


def test_check_axioms_names_the_first_row_not_closed():
    # TableError is a ValueError alone: an input error, not a failed self-check.
    G = FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    G.table = ((0, 1, 2), (1, 2, 3), (2, -1, 1))
    with pytest.raises(TableError, match="not closed") as exc:
        G.check_axioms()
    assert exc.value.row == 1
    assert not isinstance(exc.value, AssertionError)


def test_closure_rounds_and_limit():
    # Z/10 from 0 under +1 gains one element a round; a limit stops the walk
    # after the first round that leaves more than limit reached.
    def add(x, g):
        return (x + g) % 10
    assert groups.closure(0, [1], add) == set(range(10))
    assert groups.closure(3, [4], add) == {1, 3, 5, 7, 9}
    assert groups.closure(0, [], add) == {0}
    assert groups.closure(0, [1], add, limit=4) == set(range(5))
    assert groups.closure(0, [1], add, limit=0) == {0}


def test_centralizer_of_identity(q8):
    assert centralizer_of_set(q8, [0]) == tuple(range(8))


def test_center_as_intersection_of_centralizers(q8):
    inter = set(range(q8.order))
    for g in range(q8.order):
        inter &= set(centralizer_of_set(q8, [g]))
    center = centralizer_of_set(q8, range(q8.order))
    assert tuple(sorted(inter)) == center
    assert len(center) == 2


def test_exponents(cg, q8, h16):
    assert h16.exponent() == 2
    assert q8.exponent() == 4
    assert cg.group.exponent() in (4, 8)


def test_squares_in(cg, q8):
    G = cg.group
    assert squares_in(G, range(G.order)) == tuple(range(G.order))
    hz = set(cg.h_subgroup) | {G.mul(h, cg.z_lift) for h in cg.h_subgroup}
    assert set(squares_in(G, cg.h_subgroup)) == hz
    assert len(hz) == 32
    assert squares_in(q8, (0,)) == (0, Q8_MINUS_ONE)


def test_subgroup_generated_empty_and_full(cg):
    G = cg.group
    assert subgroup_generated(G, []) == (0,)
    basis = [8 * (1 << b) for b in range(4)]
    H = subgroup_generated(G, basis)
    assert H == cg.h_subgroup
    assert len(H) == 16


def test_subgroup_generated_maps_onto_q8(cg):
    G = cg.group
    gens = [2, 4]  # lifts of i and j
    S = subgroup_generated(G, gens)
    assert {g & 7 for g in S} == set(range(8))
    assert is_subgroup(G, S)
    assert G.order % len(S) == 0  # Lagrange


def test_commutator_span_identity(cg):
    assert commutator_span(cg.group, cg.h_subgroup, 0) == (0,)


def test_commutator_span_z_and_order4(cg):
    G = cg.group
    h0 = commutator_span(G, cg.h_subgroup, cg.z_lift)
    assert len(h0) == 2
    for q in (2, 3, 4, 5, 6, 7):
        span = commutator_span(G, cg.h_subgroup, q)
        assert set(h0) <= set(span)


def test_commutator_span_depends_only_on_coset(cg):
    G = cg.group
    for q in range(1, 8):
        rep = q
        expected = commutator_span(G, cg.h_subgroup, rep)
        for h in range(16):
            x = G.mul(8 * h, rep)
            assert commutator_span(G, cg.h_subgroup, x) == expected


def test_commutator_map_is_homomorphism_on_abelian_h(cg):
    # h -> [h, x] is a homomorphism H -> H whose image is the span,
    # no closure iteration needed.
    G = cg.group
    for q in range(1, 8):
        x = q
        image = sorted({groups.commutator(G, h, x) for h in cg.h_subgroup})
        for h1, h2 in product(cg.h_subgroup, repeat=2):
            lhs = groups.commutator(G, G.mul(h1, h2), x)
            rhs = G.mul(groups.commutator(G, h1, x), groups.commutator(G, h2, x))
            assert lhs == rhs
        assert tuple(image) == commutator_span(G, cg.h_subgroup, x)


def test_centralizer_of_h_subgroup(cg):
    assert centralizer_of_set(cg.group, cg.h_subgroup) == cg.h_subgroup


def test_quotient_by_h_is_q8(cg):
    quot, proj = quotient_group(cg.group, cg.h_subgroup)
    assert quot.order == 8
    quot.check_axioms()
    sizes = sorted(len(c) for c in quot.conjugacy_classes())
    assert sizes == [1, 1, 2, 2, 2]
    assert proj[0] == 0


def test_quotient_rejects_non_normal(q8):
    # <i> is normal in Q8; use a non-subgroup set to hit validation instead
    with pytest.raises(ValueError, match="N is not a subgroup"):
        quotient_group(q8, (0, 2, 3))
    # {1, s} is a subgroup of S3 = D3 (r^i s^e at i + 3e), but not normal.
    with pytest.raises(ValueError, match="N is not normal"):
        quotient_group(FiniteGroup(cayley_table(6, dihedral_mul(3))), (0, 3))


def test_subgroup_as_group(cg):
    H, embed = subgroup_as_group(cg.group, cg.h_subgroup)
    assert H.order == 16
    H.check_axioms()
    assert H.exponent() == 2
    assert embed[0] == 0
    with pytest.raises(ValueError):
        subgroup_as_group(cg.group, (0, 1, 2))


def test_identity_must_be_index_zero():
    # swap rows so that index 0 is not the identity
    bad = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        FiniteGroup(bad)


def test_q8_table_symmetry_of_inverses():
    q8 = groups.q8_group()
    for g in range(8):
        assert q8.mul(g, q8.inv(g)) == 0
        assert q8.mul(q8.inv(g), g) == 0


def test_q8_associativity_exhaustive():
    for a, b, c in product(range(8), repeat=3):
        assert Q8_TABLE[Q8_TABLE[a][b]][c] == Q8_TABLE[a][Q8_TABLE[b][c]]


# ---------------------------------------------------------------------------
# Oracle: the exhaustive check over all n^3 triples
# ---------------------------------------------------------------------------

def exhaustive_check_axioms(G):
    """check_axioms before Light's test: closure, then every triple."""
    n = G.order
    for row in G.table:
        for v in row:
            if not 0 <= v < n:
                raise AssertionError("not closed")
    t = G.table
    for a in range(n):
        ta = t[a]
        for b in range(n):
            tab = ta[b]
            tb = t[b]
            for c in range(n):
                if t[tab][c] != ta[tb[c]]:
                    raise AssertionError(f"associativity fails at {(a, b, c)}")


_GROUPS = ([(n, lambda a, b, n=n: (a + b) % n) for n in range(1, 13)]
           + [(2 * m, dihedral_mul(m)) for m in range(1, 7)]
           + [(8, lambda a, b: Q8_TABLE[a][b])])


@st.composite
def _relabelled_groups(draw):
    n, mul = draw(st.sampled_from(_GROUPS))
    return cayley_table(n, mul, draw(st.randoms()))


@st.composite
def _corrupted_groups(draw):
    """One entry (a, b), a, b != 0, changed; the entries 0 stay where they
    are, so the identity and the inverses survive."""
    table = draw(_relabelled_groups().filter(lambda t: len(t) > 2))
    n = len(table)
    a, b = draw(st.tuples(st.integers(1, n - 1), st.integers(1, n - 1))
                .filter(lambda ab: table[ab[0]][ab[1]] != 0))
    table[a][b] = draw(st.integers(1, n - 1).filter(lambda v: v != table[a][b]))
    return table


def _inverse_pairing(rnd, n):
    """A random involution of 1..n-1 (g -> g^-1), 0 fixed."""
    rest = list(range(1, n))
    rnd.shuffle(rest)
    inv = list(range(n))
    while len(rest) > 1 and rnd.random() < 0.7:
        g, h = rest.pop(), rest.pop()
        inv[g], inv[h] = h, g
    return inv


@st.composite
def _magmas(draw):
    """Tables with identity 0 and two-sided inverses, otherwise random."""
    n = draw(st.integers(1, 8))
    inv = _inverse_pairing(draw(st.randoms()), n)
    return [[a + b if a == 0 or b == 0 else 0 if b == inv[a]
             else draw(st.integers(1, n - 1)) for b in range(n)] for a in range(n)]


@st.composite
def _loops(draw):
    """Latin squares with identity 0 and two-sided inverses: loops."""
    n = draw(st.integers(2, 7))
    rnd = draw(st.randoms())
    inv = _inverse_pairing(rnd, n)
    table = [[a + b if a == 0 or b == 0 else 0 if b == inv[a] else None
              for b in range(n)] for a in range(n)]
    cells = [(a, b) for a in range(n) for b in range(n) if table[a][b] is None]

    def fill(k):
        if k == len(cells):
            return True
        a, b = cells[k]
        values = list(range(1, n))
        rnd.shuffle(values)
        for v in values:
            if v not in table[a] and all(table[x][b] != v for x in range(n)):
                table[a][b] = v
                if fill(k + 1):
                    return True
                table[a][b] = None
        return False

    assume(fill(0))
    return table


def _failure(check):
    """The message of the TableError (check_axioms) or AssertionError (the
    oracle) check() raises, else None."""
    try:
        check()
    except (TableError, AssertionError) as exc:
        return str(exc)
    return None


LOOP5 = [[int(v) for v in line.split()]
         for line in LOOP5_TABLE.strip().splitlines()[1:]]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_magmas(), _loops(), _relabelled_groups(), _corrupted_groups()))
@example(LOOP5)
def test_light_check_agrees_with_exhaustive_oracle(table):
    G = FiniteGroup(table)
    light = _failure(G.check_axioms)
    oracle = _failure(lambda: exhaustive_check_axioms(G))
    assert (light is None) == (oracle is None)
    if light is not None:
        # the witness Light's test names is a real failure
        a, b, c = ast.literal_eval(light.split(" at ", 1)[1])
        t = G.table
        assert t[t[a][b]][c] != t[a][t[b][c]]


# ---------------------------------------------------------------------------
# Oracle: each class by conjugating its least member by every element
# ---------------------------------------------------------------------------

def _check_generators_and_classes(G):
    gens = G.generators()
    assert 2 ** len(gens) <= G.order
    for k, s in enumerate(gens):           # greedy: the least element not reached yet
        reached = set(subgroup_generated(G, gens[:k]))
        assert s == min(set(range(G.order)) - reached)
    assert subgroup_generated(G, gens) == tuple(range(G.order))
    classes = G.conjugacy_classes()
    assert classes == conjugacy_classes_sweep(G)
    assert all(G.class_of(g) == i for i, cl in enumerate(classes) for g in cl)
    walks = [power_walk(G, g) for g in range(G.order)]   # the power map, element by element
    assert G.power_classes() == tuple(tuple(map(G.class_of, walks[cl[0]])) for cl in classes)
    assert [G.element_order(g) for g in range(G.order)] == list(map(len, walks))
    assert G.exponent() == lcm(*map(len, walks))


@settings(max_examples=100, deadline=None)
@given(_relabelled_groups())
@example(cayley_table(1, lambda a, b: 0))
@example(cayley_table(2, lambda a, b: a ^ b))
@example(cayley_table(3, lambda a, b: (a + b) % 3))
def test_classes_match_the_sweep_oracle_on_relabelled_groups(table):
    _check_generators_and_classes(FiniteGroup(table))


EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"


@pytest.mark.parametrize("name", ["q8", "h16", "g128", "d120-1", "d120-2", "d120-3",
                                  "d120-4", "d120-5", "g128xc2", "g128xq8",
                                  "unitriangular-1024"])
def test_classes_match_the_sweep_oracle(name, request):
    if name == "g128":
        G = request.getfixturevalue("cg").group
    elif name.startswith("d120-"):
        seed = int(name.split("-")[1])
        G = FiniteGroup(cayley_table(120, dihedral_mul(60), random.Random(seed)))
    elif name.startswith("g128x"):
        G = load_group_file(str(request.getfixturevalue(f"{name}_file")))
    elif name == "unitriangular-1024":
        G = load_group_file(str(EXAMPLES / f"{name}.grp"))
    else:
        G = request.getfixturevalue(name)
    _check_generators_and_classes(G)
