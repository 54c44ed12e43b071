"""Test-side helpers: small reference functions with no production caller,
and field-by-field access to the program's record classes."""
from functools import lru_cache
from math import gcd
from operator import itemgetter, mul
from typing import Iterator, List, Optional, Sequence, Tuple

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
    return Cyclotomic.from_powers(v.n, {i * k: c for i, c in v.terms()}) / v.den


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
    return v.n, tuple(v.terms()), v.den


def to_order(v: Cyclotomic, m: int) -> Cyclotomic:
    """v re-expressed in Q(zeta_m): zeta_n^k -> zeta_m^(k m/n) when n | m.
    Otherwise v must lie in Q(zeta_n) & Q(zeta_m) = Q(zeta_g), g = gcd(n, m),
    and it is its relative trace down to Q(zeta_g) over the degree, moved up
    to m; raises ValueError if v does not lie there."""
    n = v.n
    if m % n == 0:
        return Cyclotomic.from_powers(m, {k * (m // n): c for k, c in v.terms()}) / v.den
    g = gcd(n, m)
    down = sum((relative_trace(n, k, g) * c for k, c in v.terms()),
               Cyclotomic.zero(g)) / (v.den * (totient(n) // totient(g)))
    if to_order(down, n) != v:
        raise ValueError(f"cannot move {v.render()} from order {n} to {m}")
    return to_order(down, m)


def relative_trace(n: int, k: int, g: int) -> Cyclotomic:
    """The trace of zeta_n^k from Q(zeta_n) down to Q(zeta_g), g | n.

    zeta_n^k is a primitive e-th root, e = n / gcd(n, k), and the Galois group
    of Q(zeta_n) / Q(zeta_g) maps onto that of Q(zeta_e) / Q(zeta_h),
    h = gcd(g, e), each fibre of size [n : g] / [e : h].  Prime by prime, the
    trace of a primitive p^a-th root down to Q(zeta_p^b), b < a, is 0 unless
    b = 0 and a = 1, where it is -1.  So with s = e / h, the trace is 0 unless
    s is squarefree and prime to h, and then mu(s) times the Q(zeta_h) part of
    zeta_n^k, zeta_h^x with x = (k / gcd(n, k)) s^-1 mod h.
    """
    e = n // gcd(n, k)
    h = gcd(g, e)
    s = e // h
    if gcd(s, h) != 1 or mobius(s) == 0:
        return Cyclotomic.zero(g)
    fibre = (totient(n) // totient(g)) // (totient(e) // totient(h))
    x = (k // (n // e)) * pow(s, -1, h) % h
    return zeta(g, x * (g // h)) * (fibre * mobius(s))


# ---------------------------------------------------------------------------
# The power basis of Z[zeta_n], with Phi_n and its reduction computed here
# ---------------------------------------------------------------------------

def mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(n, k) == 1)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of a by a monic b, low degree first."""
    rem, d = list(a), len(b) - 1
    quot = [0] * max(len(a) - d, 1)
    for i in range(len(a) - 1, d - 1, -1):
        c = rem[i]
        if c:
            quot[i - d] = c
            for j, y in enumerate(b):
                rem[i - d + j] -= c * y
    return quot, rem[:d]


@lru_cache(maxsize=None)
def phi_by_mobius(n: int) -> Tuple[int, ...]:
    """Phi_n = prod_{d | n} (x^d - 1)^mu(n/d), low degree first: the factors
    with mu = 1 multiplied, then divided exactly by those with mu = -1."""
    top, bottom = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0 and mobius(n // d):
            factor = [-1] + [0] * (d - 1) + [1]
            if mobius(n // d) == 1:
                top = poly_mul(top, factor)
            else:
                bottom = poly_mul(bottom, factor)
    quot, rem = _poly_divmod(top, bottom)
    if any(rem):
        raise AssertionError(f"the Moebius product for Phi_{n} leaves a remainder")
    return tuple(quot)


def power_basis_reduce(n: int, poly: Sequence[int]) -> List[int]:
    """sum poly[k] z^k in the power basis of Z[zeta_n]: its remainder mod Phi_n."""
    phi = phi_by_mobius(n)
    rem = _poly_divmod(poly, phi)[1]
    return rem + [0] * (len(phi) - 1 - len(rem))


def power_basis(v: Cyclotomic) -> List[int]:
    """The numerator of v (over v.den) in the power basis, from its terms."""
    poly = [0] * v.n
    for k, c in v.terms():
        poly[k % v.n] += c
    return power_basis_reduce(v.n, poly)


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
        to_order(a.value_at(embed[cl[0]]), e) for cl in H.conjugacy_classes()))


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
    reference for the quotient and projection fields that build_g certifies,
    computed from the table alone."""
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


def permutation_group(gens: Sequence[Sequence[int]]) -> Tuple[FiniteGroup, List[Tuple[int, ...]]]:
    """The group generated by permutations of range(m), each the tuple of its
    images, as (G, perms): perms[i] is element i, found by a closure from the
    identity (element 0) under right products by gens, and G's table is read
    off the tuples, (a b)(x) = a(b(x))."""
    perms = [tuple(range(len(gens[0])))]
    index = {perms[0]: 0}
    for a in perms:                     # grows while it is read
        for g in gens:
            ag = tuple(a[x] for x in g)
            if ag not in index:
                index[ag] = len(perms)
                perms.append(ag)
    after = [itemgetter(*b) for b in perms]          # after[j](a) = a o perms[j]
    table = [[index[get(a)] for get in after] for a in perms]
    return FiniteGroup(table), perms


def psl2(p: int) -> Tuple[FiniteGroup, List[Tuple[int, ...]]]:
    """PSL(2, p), p an odd prime, on the projective line 0, ..., p - 1 and
    p = infinity, generated by x -> x + 1 and x -> -1/x."""
    shift = tuple(range(1, p)) + (0, p)
    invert = (p,) + tuple(-pow(x, -1, p) % p for x in range(1, p)) + (0,)
    return permutation_group([shift, invert])


def cycle_type(perm: Sequence[int]) -> Tuple[int, ...]:
    """The cycle lengths of a permutation, largest first: a partition."""
    seen, lengths = set(), []
    for x in range(len(perm)):
        length = 0
        while x not in seen:
            seen.add(x)
            x, length = perm[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def partitions(n: int, top: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """The partitions of n with parts at most top, largest part first."""
    if n == 0:
        yield ()
    for part in range(min(n, top or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def symmetric_character(shape: Sequence[int], mu: Sequence[int]) -> int:
    """chi^shape(mu) for S_n by the Murnaghan-Nakayama rule (James and
    Kerber 1981, ch. 2).  shape is held as its beta-set, the first-column
    hook lengths; removing a border strip of length r moves a bead b to an
    empty b - r >= 0, with sign (-1)^(beads passed)."""
    k = len(shape)
    return _border_strips(frozenset(part + k - 1 - i for i, part in enumerate(shape)),
                          tuple(mu))


@lru_cache(maxsize=None)
def _border_strips(beta: frozenset, mu: Tuple[int, ...]) -> int:
    if not mu:
        return 1
    r, total = mu[0], 0
    for b in beta:
        if b >= r and b - r not in beta:
            passed = sum(1 for c in beta if b - r < c < b)
            total += (-1) ** passed * _border_strips(beta - {b} | {b - r}, mu[1:])
    return total


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
