"""Test-side helpers: small reference functions with no production caller,
and field-by-field access to the program's record classes."""
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Iterator, List, Sequence, Tuple

from fusionaudit import gf2
from fusionaudit.characters import ClassFunction
from fusionaudit.cyclotomic import Cyclotomic
from fusionaudit.groups import FiniteGroup, is_subgroup


# ---------------------------------------------------------------------------
# Record classes
# ---------------------------------------------------------------------------

def fields(obj) -> Tuple[Tuple[str, object], ...]:
    """Every constructor field of a record class, as (name, value) pairs.

    The record classes keep their fields in __slots__; slots starting with
    an underscore are caches, not fields.
    """
    return tuple((name, getattr(obj, name))
                 for name in type(obj).__slots__ if not name.startswith("_"))


def rebuild(obj, **changes):
    """A copy of obj through its constructor, with some fields replaced."""
    values = dict(fields(obj))
    unknown = set(changes) - set(values)
    if unknown:
        raise TypeError(f"not a field of {type(obj).__name__}: {sorted(unknown)}")
    values.update(changes)
    return type(obj)(**values)


# ---------------------------------------------------------------------------
# Cyclotomic values: the operations no production path needs
# ---------------------------------------------------------------------------

def zeta(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k."""
    return Cyclotomic.from_powers(n, {k: 1})


def galois(v: Cyclotomic, k: int) -> Cyclotomic:
    """The automorphism zeta -> zeta^k of Q(zeta_n), gcd(k, n) = 1."""
    if gcd(k, v.n) != 1:
        raise ValueError(f"zeta -> zeta^{k} is not an automorphism for n={v.n}")
    return Cyclotomic.from_powers(v.n, {i * k: c for i, c in enumerate(v.num)}) / v.den


def conjugate(v: Cyclotomic) -> Cyclotomic:
    """Complex conjugation zeta -> zeta^-1; an involutive automorphism."""
    return galois(v, v.n - 1) if v.n > 1 else v


def neg(v: Cyclotomic) -> Cyclotomic:
    return v * -1


def sub(a, b):
    """a - b for a Cyclotomic or an int on either side."""
    return a + b * -1


def value_key(v: Cyclotomic) -> Tuple[int, Tuple[int, ...], int]:
    """The canonical form as a tuple: Cyclotomic compares by value but is
    not hashable, so sets and dicts of values are keyed by this."""
    return v.n, v.num, v.den


# ---------------------------------------------------------------------------
# Characters and groups
# ---------------------------------------------------------------------------

def trivial_character(G: FiniteGroup) -> ClassFunction:
    one = Cyclotomic.from_rational(G.exponent(), 1)
    return ClassFunction(G, tuple(one for _ in G.conjugacy_classes()))


def dual_character(a: ClassFunction) -> ClassFunction:
    return ClassFunction(a.group, tuple(conjugate(v) for v in a.values))


def restrict(a: ClassFunction, H: FiniteGroup, embed: Sequence[int]) -> ClassFunction:
    """Restrict along an embedding H -> G given by G-indices, into Q(zeta_exp H);
    raises ValueError if a value does not lie there."""
    e = H.exponent()
    return ClassFunction(H, tuple(
        a.value_at(embed[cl[0]]).to_order(e) for cl in H.conjugacy_classes()))


def subgroup_as_group(G: FiniteGroup, S) -> Tuple[FiniteGroup, List[int]]:
    """Reindex a subgroup as a standalone FiniteGroup.

    Returns (H, embed) with embed[i] the G-index of H's element i; embed is
    sorted, so the identity (element 0 of G) comes first.
    """
    members = sorted(set(S))
    if not is_subgroup(G, members):
        raise ValueError("not a subgroup")
    pos = {g: i for i, g in enumerate(members)}
    table = [[pos[G.mul(a, b)] for b in members] for a in members]
    return FiniteGroup(table), members


def quotient_group(G: FiniteGroup, N) -> Tuple[FiniteGroup, List[int]]:
    """G/N by a normal subgroup N, with projection[g] the index of gN;
    cosets are indexed by their least member, identity coset first.  The
    reference for construction.q8_quotient, computed from the table alone."""
    members = set(N)
    n_set = sorted(members)
    if not is_subgroup(G, n_set):
        raise ValueError("N is not a subgroup")
    if any(G.conj(h, g) not in members for g in range(G.order) for h in n_set):
        raise ValueError("N is not normal")
    proj = [-1] * G.order
    reps: List[int] = []
    for g in range(G.order):
        if proj[g] < 0:
            for x in (G.mul(g, h) for h in n_set):
                proj[x] = len(reps)
            reps.append(g)
    table = [[proj[G.mul(a, b)] for b in reps] for a in reps]
    return FiniteGroup(table), proj


def power_walk(G: FiniteGroup, g: int) -> List[int]:
    """g^0, g^1, ..., g^(ord(g) - 1), walked one product at a time up to the
    identity: the reference for FiniteGroup.power_classes, element_order and
    exponent."""
    walk, x = [0], g
    while x != 0:
        walk.append(x)
        x = G.table[x][g]
    return walk


def conjugacy_classes_sweep(G: FiniteGroup) -> Tuple[Tuple[int, ...], ...]:
    """The classes as FiniteGroup.conjugacy_classes orders them, each one
    found by conjugating its least member by all n elements: r n products."""
    seen = [False] * G.order
    classes = []
    for g in range(G.order):
        if not seen[g]:
            orbit = tuple(sorted({G.conj(g, x) for x in range(G.order)}))
            for h in orbit:
                seen[h] = True
            classes.append(orbit)
    return tuple(classes)


def is_real(v: Cyclotomic) -> bool:
    return conjugate(v) == v


def parse_cyclotomic(n: int, text: str) -> Cyclotomic:
    """Inverse of Cyclotomic.render (round-trip exact) in Q(zeta_n);
    coefficients read `a` or `a/b`."""
    s = text.replace(" ", "").replace("-", "+-")
    total = Cyclotomic.zero(n)
    for term in s.split("+"):
        if not term:
            continue
        coeff_s, z, pow_s = term.partition("z")
        k = int(pow_s[1:]) if pow_s else (1 if z else 0)
        coeff_s = coeff_s.rstrip("*")
        if coeff_s in ("", "-"):        # a bare z^k or -z^k
            coeff_s += "1"
        a, _, b = coeff_s.partition("/")
        total = total + zeta(n, k) * int(a) / int(b or 1)
    return total


def conjugate_inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    """<a, b> = |G|^-1 sum_g a(g) conj(b(g)), classwise, with conj the field
    automorphism: the reference for constructive.inner_product on characters."""
    G = a.group
    return sum(len(cl) * av * conjugate(bv) for cl, av, bv in
               zip(G.conjugacy_classes(), a.values, b.values)) / G.order


def squaring_fs_indicator(a: ClassFunction) -> int:
    """|G|^-1 sum_g a(g^2), each class's square taken by one product: the
    reference for constructive.fs_indicator."""
    G = a.group
    return (sum(len(cl) * a.value_at(G.mul(cl[0], cl[0])) for cl in G.conjugacy_classes())
            / G.order).as_integer()


def fusion_residues(table) -> List[List[List[int]]]:
    """N[p][q][r] = |G|^-1 sum_j |C_j| chi_p(g_j) chi_q(g_j) chi_r*(g_j) mod P,
    one dot product over the classes per entry, read from the table's fields
    alone: the reference for characters.fusion_tensor's lookups and packed sums."""
    P, rows, G = table.prime, table.residues, table.group
    order_inv = pow(G.order, -1, P)
    weights = [len(cl) * order_inv % P for cl in G.conjugacy_classes()]
    dual_rows = [rows[d] for d in table.duals]
    N = [[None] * len(rows) for _ in rows]
    for p, x in enumerate(rows):
        for q in range(p, len(rows)):
            prod = [w * a * b % P for w, a, b in zip(weights, x, rows[q])]
            N[p][q] = N[q][p] = [sum(map(mul, prod, z)) % P for z in dual_rows]
    return N


def class_matrix(G: FiniteGroup, i: int) -> List[List[int]]:
    """The structure constants of class C_i in full: a[j][k] = #{x in C_i :
    x^-1 g_k in C_j}, from |C_i| r products."""
    classes = G.conjugacy_classes()
    reps = [cl[0] for cl in classes]
    r = len(classes)
    m = [[0] * r for _ in range(r)]
    for x in classes[i]:
        xin = G.inv(x)
        for k, gk in enumerate(reps):
            m[G.class_of(G.mul(xin, gk))][k] += 1
    return m


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------

def vec_bits(v: gf2.GF2Vector) -> Tuple[int, int, int, int]:
    """Unpack to the bit tuple (b0, b1, b2, b3)."""
    return ((v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1)


def vec_from_bits(bits) -> gf2.GF2Vector:
    b = tuple(bits)
    if len(b) != gf2.DIM or any(x not in (0, 1) for x in b):
        raise ValueError(f"need 4 bits in {{0,1}}, got {bits!r}")
    return (b[0] << 3) | (b[1] << 2) | (b[2] << 1) | b[3]


def mat_order(a: gf2.GF2Matrix) -> int:
    if not gf2.is_invertible(a):
        raise ValueError(f"matrix {a} is not invertible")
    k, b = 1, a
    while b != gf2.IDENTITY:
        b = gf2.mat_mul(b, a)
        k += 1
        if k > 1 << 16:
            raise AssertionError("order exceeds the number of matrices; broken matrix")
    return k


def mat_pow(a: gf2.GF2Matrix, e: int) -> gf2.GF2Matrix:
    """a^e for e >= 0, one product at a time; a^-1 is a^(mat_order(a) - 1)."""
    b = gf2.IDENTITY
    for _ in range(e):
        b = gf2.mat_mul(b, a)
    return b


def kernel_of(f: int) -> list:
    """Vectors annihilated by the covector; a hyperplane when f != 0."""
    return [v for v in range(16) if gf2.dot(f, v) == 0]


def fixed_space(a: gf2.GF2Matrix) -> list:
    """All v with a.v = v; a subspace of F2^4."""
    return [v for v in range(16) if gf2.mat_vec(a, v) == v]


def mat_from_key(key: int) -> gf2.GF2Matrix:
    """The matrix whose gf2.mat_key is key."""
    return ((key >> 12) & 15, (key >> 8) & 15, (key >> 4) & 15, key & 15)


def iter_matrices() -> Iterator[gf2.GF2Matrix]:
    """All 65536 matrices in canonical order."""
    for key in range(1 << 16):
        yield mat_from_key(key)


@lru_cache(maxsize=1)
def invertible_matrices() -> tuple:
    """All of GL4(2), canonically ordered; |GL4(2)| = 20160."""
    mats = tuple(m for m in iter_matrices() if gf2.is_invertible(m))
    if len(mats) != 20160:
        raise AssertionError(f"found {len(mats)} invertible matrices, not 20160")
    return mats
