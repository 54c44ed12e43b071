import random

import pytest

from fusionaudit import audit, construction
from fusionaudit.characters import dixon_table, fusion_tensor
from fusionaudit.groups import FiniteGroup, elementary_abelian_16, q8_group


@pytest.fixture(scope="session")
def cg():
    return construction.build_default()


@pytest.fixture(scope="session")
def data(cg):
    return audit.constructive_data(cg)


@pytest.fixture(scope="session")
def g128_table(cg):
    return dixon_table(cg.group)


@pytest.fixture(scope="session")
def g128_fusion(g128_table):
    return fusion_tensor(g128_table)


@pytest.fixture(scope="session")
def q8():
    return q8_group()


@pytest.fixture(scope="session")
def q8_table(q8):
    return dixon_table(q8)


@pytest.fixture(scope="session")
def h16():
    return elementary_abelian_16()


@pytest.fixture(scope="session")
def h16_table(h16):
    return dixon_table(h16)


def dihedral_mul(m):
    """Multiplication of D_m: index i + m*e stands for r^i s^e."""
    def mul(x, y):
        (e, i), (f, j) = divmod(x, m), divmod(y, m)
        return (i + (j if e == 0 else -j)) % m + m * ((e + f) % 2)
    return mul


def dicyclic_mul(m):
    """Multiplication of Q_4m = <a, x | a^2m = 1, x^2 = a^m, x a x^-1 = a^-1>:
    index k + 2m*e stands for a^k x^e."""
    def mul(u, v):
        (e, i), (f, j) = divmod(u, 2 * m), divmod(v, 2 * m)
        return (i + (j if e == 0 else -j) + m * e * f) % (2 * m) + 2 * m * ((e + f) % 2)
    return mul


def relabelling(n, rnd=None):
    """perm[x] is the new label of x: with a random.Random, a random
    permutation of range(n) that keeps 0 the identity; else the identity."""
    perm = list(range(n))
    if rnd is not None:
        rest = perm[1:]
        rnd.shuffle(rest)
        perm = [0] + rest
    return perm


def cayley_table(n, mul, rnd=None):
    """mul on range(n) as a table; with a random.Random, the elements
    relabelled at random, keeping 0 the identity."""
    perm = relabelling(n, rnd)
    back = [0] * n
    for x, px in enumerate(perm):
        back[px] = x
    return [[perm[mul(back[a], back[b])] for b in range(n)] for a in range(n)]


def direct_table(G, K):
    """The table of G x K: index g * |K| + k stands for (g, k)."""
    m = K.order
    return [[G.mul(a // m, b // m) * m + K.mul(a % m, b % m)
             for b in range(G.order * m)] for a in range(G.order * m)]


def cayley_file(tmp_path_factory, name, n, mul, seed=None):
    """Write mul on range(n) as a `table` group file; with a seed, relabel
    the elements at random, keeping 0 the identity."""
    table = cayley_table(n, mul, None if seed is None else random.Random(seed))
    rows = [" ".join(map(str, row)) for row in table]
    path = tmp_path_factory.mktemp("groups") / f"{name}.grp"
    path.write_text(f"table {n}\n" + "\n".join(rows) + "\n")
    return path


@pytest.fixture(scope="session")
def d10_file(tmp_path_factory):
    return cayley_file(tmp_path_factory, "d10", 20, dihedral_mul(10))


@pytest.fixture(scope="session")
def d30_file(tmp_path_factory):
    return cayley_file(tmp_path_factory, "d30", 30, dihedral_mul(15), seed=7)


@pytest.fixture(scope="session")
def c30_file(tmp_path_factory):
    return cayley_file(tmp_path_factory, "c30", 30, lambda x, y: (x + y) % 30)


@pytest.fixture(scope="session")
def d120_file(tmp_path_factory):
    return cayley_file(tmp_path_factory, "d120", 120, dihedral_mul(60), seed=5)


@pytest.fixture(scope="session")
def g128xc2_file(tmp_path_factory, cg):
    table = direct_table(cg.group, FiniteGroup([[0, 1], [1, 0]]))
    return cayley_file(tmp_path_factory, "g128xc2", 256, lambda x, y: table[x][y], seed=3)


@pytest.fixture(scope="session")
def g128xq8_file(tmp_path_factory, cg, q8):
    table = direct_table(cg.group, q8)
    return cayley_file(tmp_path_factory, "g128xq8", 1024, lambda x, y: table[x][y])
