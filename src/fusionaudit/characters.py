"""Character tables by the Burnside-Dixon method, and fusion tensors.

dixon_table computes the table of residues chi(g) mod a suitable prime
from the class-multiplication coefficients, checks it, and renders each
value exactly in Z[zeta_n]; fusion_tensor reads the multiplicities
N_pq^r off the residues.  All arithmetic is exact.  The class-function
arithmetic of the constructive route lives in `constructive`.
"""
from __future__ import annotations

from itertools import compress, repeat
from math import isqrt
from operator import itemgetter, mod, mul
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .cyclotomic import Cyclotomic
from .groups import DEFAULT_ORDER_CAP, FiniteGroup


class ClassFunction:
    """A function constant on conjugacy classes, one Cyclotomic per class."""
    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: Tuple[Cyclotomic, ...]):
        if len(values) != len(group.conjugacy_classes()):
            raise ValueError("one value per conjugacy class required")
        self.group = group
        self.values = values

    def value_at(self, g: int) -> Cyclotomic:
        return self.values[self.group.class_of(g)]

    def degree(self) -> int:
        """The value at the identity; raises unless it is a rational integer."""
        return self.values[0].as_integer()

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.group is other.group
                and self.values == other.values)


# ---------------------------------------------------------------------------
# Burnside-Dixon character table
# ---------------------------------------------------------------------------
# pow(a, -1, p) raises ValueError at a = 0 mod p; every a this module inverts is
# nonzero: |G| or a class size (p does not divide |G|), a pivot, s = |G| / d^2,
# or Newton's k <= deg < p.

class CharacterTable:
    __slots__ = ("group", "irreducibles", "rendered", "residues", "duals", "root_order",
                 "prime", "_indicators")

    def __init__(self, group: FiniteGroup, irreducibles: Tuple[ClassFunction, ...],
                 rendered: Tuple[Tuple[str, ...], ...],
                 residues: Tuple[Tuple[int, ...], ...], duals: Tuple[int, ...],
                 root_order: int, prime: int):
        self.group = group
        self.irreducibles = irreducibles  # lifted to Z[zeta_root_order]: row order, rendering
        self.rendered = rendered  # per row, each value's render(), as the row order reads it
        self.residues = residues  # Dixon's rows chi(g_j) mod prime: the table itself
        self.duals = duals        # duals[a] = the row of chi_a*(g) = chi_a(g^-1)
        self.root_order = root_order
        self.prime = prime
        self._indicators: Optional[Tuple[int, ...]] = None  # set by indicators()

    def degrees(self) -> Tuple[int, ...]:
        return tuple(row[0] for row in self.residues)  # chi(1) < prime / 2

    def indicators(self) -> Tuple[int, ...]:
        """Frobenius-Schur indicators |G|^-1 sum_j |C_j| chi(g_j^2) mod prime, one
        per row, computed once.  Exact: nu is -1, 0 or 1 and prime >= 3."""
        if self._indicators is None:
            G, p = self.group, self.prime
            inverse_order = pow(G.order, -1, p)
            weights = [(len(cl) * inverse_order, pw[2 % len(pw)])
                       for cl, pw in zip(G.conjugacy_classes(), G.power_classes())]
            nus = [sum(w * row[c] for w, c in weights) % p for row in self.residues]
            if any(nu not in (0, 1, p - 1) for nu in nus):
                raise AssertionError(f"indicator residues {nus} mod {p} are not all 0, +-1")
            self._indicators = tuple(nu if nu < 2 else -1 for nu in nus)
        return self._indicators

    def row_of(self, c: ClassFunction) -> Optional[int]:
        """Index of an irreducible equal to c as a class function, if any."""
        for i, chi in enumerate(self.irreducibles):
            if chi.values == c.values:
                return i
        return None


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % d for d in range(2, isqrt(m) + 1))


def dixon_prime(order: int, exponent: int) -> int:
    """Least prime p = 1 mod exponent with p > 2 * ceil(sqrt(order))."""
    c = isqrt(order)
    if c * c < order:
        c += 1
    p = 2 * c + 1
    while not (_is_prime(p) and (p - 1) % exponent == 0):
        p += 1
    return p


def _primitive_root(p: int) -> int:
    factors = [f for f in range(2, p) if (p - 1) % f == 0 and _is_prime(f)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError(f"no primitive root mod {p}")


def _rref_mod(rows: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    rows = [r[:] for r in rows]
    pivots: List[int] = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        if rank == len(rows):
            break
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return [r for r in rows[:rank]], pivots


def _nullspace_mod(mat: List[List[int]], p: int) -> List[List[int]]:
    n = len(mat)
    red, pivots = _rref_mod(mat, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        basis.append(v)
    return basis


def _class_row(G: FiniteGroup, i: int, j: int) -> List[int]:
    """Row j of class C_i's matrix, a[j][k] = #{x in C_i : x^-1 g_k in C_j}, from
    |C_j| products (Schneider 1990): conjugation permutes C_i, C_j and C_k, so
    |C_k| a[j][k] = #{(x, y) in C_i x C_j : x y in C_k} = |C_i| #{y in C_j :
    g_i y in C_k}.  Raises AssertionError if a division is not exact."""
    classes = G.conjugacy_classes()
    x_row, size_i = G.table[classes[i][0]], len(classes[i])
    hits = [G.class_of(x_row[y]) for y in classes[j]]
    row = [0] * len(classes)
    for k in hits:
        row[k] += size_i
    for k in set(hits):
        row[k], rem = divmod(row[k], len(classes[k]))
        if rem:
            raise AssertionError(f"class {i}, row {j}: |C_{k}| does not divide its count")
    return row


def _charpoly_mod(M: List[List[int]], p: int) -> List[int]:
    """Coefficients of det(xI - M) over F_p, constant term first.

    M is reduced to upper Hessenberg form H by similarity transforms, then
    q_0 = 1 and, 1-indexed,
        q_m = (x - h_mm) q_{m-1} - sum_{i<m} h_im h_{i+1,i} ... h_{m,m-1} q_{i-1},
    so q_d = det(xI - M).  Only nonzero pivots are inverted, never the
    integers 1..d that Faddeev-LeVerrier divides by, so it holds for d >= p.
    """
    d = len(M)
    H = [[x % p for x in row] for row in M]
    for m in range(d - 2):
        piv = next((i for i in range(m + 1, d) if H[i][m]), None)
        if piv is None:
            continue
        if piv != m + 1:
            H[piv], H[m + 1] = H[m + 1], H[piv]
            for row in H:
                row[piv], row[m + 1] = row[m + 1], row[piv]
        inv = pow(H[m + 1][m], -1, p)
        for i in range(m + 2, d):
            u = H[i][m] * inv % p
            if u:
                H[i] = [(a - u * b) % p for a, b in zip(H[i], H[m + 1])]
                for row in H:
                    row[m + 1] = (row[m + 1] + u * row[i]) % p
    polys = [[1]]
    for m in range(1, d + 1):
        prev, h = polys[-1], H[m - 1][m - 1]
        q = [0] + prev
        for k, c in enumerate(prev):
            q[k] = (q[k] - h * c) % p
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * H[i][i - 1] % p
            if not t:
                break
            c = H[i - 1][m - 1] * t % p
            for k, a in enumerate(polys[i - 1]):
                q[k] = (q[k] - c * a) % p
        polys.append(q)
    return polys[d]


def _roots_mod(coeffs: List[int], p: int) -> List[int]:
    """Roots in F_p, ascending, of the polynomial with these coefficients."""
    roots = []
    for lam in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * lam + c) % p
        if not acc:
            roots.append(lam)
    return roots


def _split_eigenspaces(rows: List[List[int]], basis: List[List[int]],
                       pivots: List[int], p: int) -> List[Tuple[List[List[int]], List[int]]]:
    """Eigenspaces, in increasing eigenvalue, of A on an A-invariant subspace.

    The subspace is given by its rref basis, and M is A on it, read off
    rows[l] = A[pivots[l]] alone.  Only the
    roots of M's characteristic polynomial f are tried: any other lambda has
    a trivial nullspace.  At a root lambda, q = f / (x - lambda) by
    synthetic division, and (M - lambda) q(M) = f(M) = 0 by Cayley-Hamilton,
    so v = q(M) e_0 lies in the lambda-eigenspace.  If q(lambda) != 0, the
    root is simple, so the eigenspace is 1-dimensional and v spans it unless
    v = 0 (which happens exactly when e_0 lies in im(M - lambda) = ker q(M)).
    v is read off the Krylov basis [e_0, M e_0, ..., M^(d-1) e_0], built at
    the first simple root only.  A nullspace is solved only at a repeated
    root or a zero v.  Either way the space is stored in rref, which does
    not depend on the spanning vectors found.  Raises AssertionError unless
    the eigenspaces fill the subspace, i.e. unless A splits and is
    diagonalizable on it mod p.

    If M = c I, A acts on the subspace as the scalar c: the subspace is the
    one eigenspace, already in rref, and is returned without a solve.  Any
    other M with a single root lambda has ker(M - lambda) smaller than the
    subspace, so it still reaches the fill check and raises.

    Supports: each basis vector is read at its nonzero entries alone.  A
    block's first split runs on the b_O of _central_blocks, and b_O vanishes
    off its Z-orbit O, so rows[l] . b_O needs |O| <= |Z| products, not r,
    and an eigenvector sum_m c_m b_m needs one product per class of the
    block's orbits.  The eigenspaces found are dense and cost r per entry.
    """
    d = len(basis)
    # A b_m = sum_l (A b_m)[pivot_l] b_l, so M[l][m] = (A b_m)[pivot_l] = rows[l] . b_m.
    support = [list(compress(range(len(b)), b)) for b in basis]
    M = [[sum(row[k] * b[k] for k in at) % p for b, at in zip(basis, support)] for row in rows]
    if all(x == (M[0][0] if i == j else 0) for i, row in enumerate(M)
           for j, x in enumerate(row)):
        return [(basis, pivots)]
    f = _charpoly_mod(M, p)
    krylov = None                       # krylov[l][i] = (M^i e_0)[l]
    out = []
    split_total = 0
    for lam in _roots_mod(f, p):
        # q = f / (x - lambda), top coefficient first, and q(lambda) by Horner.
        q, acc, q_at_lam = [0] * d, 0, 0
        for k in range(d, 0, -1):
            acc = (acc * lam + f[k]) % p
            q[k - 1] = acc
            q_at_lam = (q_at_lam * lam + acc) % p
        null = []
        if q_at_lam:
            if krylov is None:
                powers = [[1] + [0] * (d - 1)]
                for _ in range(d - 1):
                    powers.append([sum(map(mul, row, powers[-1])) % p for row in M])
                krylov = list(zip(*powers))
            v = [sum(map(mul, q, row)) % p for row in krylov]
            if any(v):
                null = [v]
        if not null:
            shifted = [[(M[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                       for i in range(d)]
            null = _nullspace_mod(shifted, p)
        vecs = []
        for c in null:
            vec = [0] * len(basis[0])
            for cm, b, at in zip(c, basis, support):
                for k in at:
                    vec[k] += cm * b[k]
            vecs.append([x % p for x in vec])
        out.append(_rref_mod(vecs, p))
        split_total += len(null)
    if split_total != d:
        raise AssertionError("class matrix not diagonalizable mod p")
    return out


def _center_span(G: FiniteGroup) -> Tuple[List[Tuple[int, int, int]], List[int]]:
    """Generators of Z(G) (the size-1 classes) as (z, k, at), z^k = elems[at] the least
    power of z in the span H before it, and elems = Z(G) as z^i h (i < k), H first."""
    elems, index, gens = [0], {0: 0}, []
    for z in (cl[0] for cl in G.conjugacy_classes() if len(cl) == 1):
        if z in index:
            continue
        powers, zk = [0], z
        while zk not in index:
            powers.append(zk)
            zk = G.mul(zk, z)
        gens.append((z, len(powers), index[zk]))
        elems = [G.mul(y, h) for y in powers for h in elems]
        index = {x: i for i, x in enumerate(elems)}
    return gens, elems


def _extend(lams: Iterable[List[int]], k: int, at: int, n: int) -> Iterator[List[int]]:
    """The extensions of each lambda in turn to <H, z>, where z^k = elems[at]
    is the least power of z in H (see _center_span)."""
    for lam in lams:
        for e in range(lam[at] // k, n, n // k):
            yield [(a + i * e) % n for i in range(k) for a in lam]


def _central_blocks(G: FiniteGroup, omega_pows: List[int]) -> List[Tuple[List[List[int]], List[int]]]:
    """The rref bases b_O of dixon_table's blocks, one block per linear
    character lambda of Z(G) mod p; omega_pows[k] = omega^k, k < exp G."""
    classes = G.conjugacy_classes()
    n = len(omega_pows)
    # lambda(elems[i]) = omega^lam[i], over _center_span's stages: with z^k
    # the least power in the span H so far, lambda extends to <H, z> by
    # lambda(z) = omega^e for the k solutions e of k e = lambda(z^k) mod n
    # (z^k has order ord(z) / k, so k n / ord(z) divides lam[z^k] and k | n).
    # The lambdas are generated one at a time through the stages: only the
    # blocks are held.
    gens, elems = _center_span(G)
    lams: Iterable[List[int]] = [[0]]
    for _, k, at in gens:
        lams = _extend(lams, k, at, n)
    # Z-orbits of classes, each from its least class c: moved[d] is the index
    # of a z with z C_c = C_d (any one: lambda is trivial on the stabilizer
    # wherever it is read), stab the indices of the z with z C_c = C_c.
    orbits, seen = [], set()
    for c, cl in enumerate(classes):
        if c not in seen:
            images = [G.class_of(G.mul(z, cl[0])) for z in elems]
            moved = {d: i for i, d in enumerate(images)}
            seen.update(moved)
            orbits.append((c, moved, [i for i, d in enumerate(images) if d == c]))
    blocks = []
    for lam in lams:
        kept = [(c, moved) for c, moved, stab in orbits if not any(lam[i] for i in stab)]
        blocks.append(([[omega_pows[lam[moved[d]]] if d in moved else 0
                         for d in range(len(classes))] for _, moved in kept],
                       [c for c, _ in kept]))
    return blocks


def _eigenvalues(sums: List[int], roots: List[int], p: int,
                 cls: int) -> List[Tuple[int, int]]:
    """(j, m) for each roots[j] of multiplicity m > 0 in f = prod_i (x - eps_i),
    from the power sums sums[t - 1] = sum_i eps_i^t mod p, t = 1..deg, by
    Newton's identities k e_k = sum_{i<=k} (-1)^(i-1) e_{k-i} s_i.  For the
    coefficients c_k = (-1)^k e_k of f = sum_k c_k x^(deg-k) they read
    k c_k = -sum_{i<k} c_i s_{k-i}.  Raises AssertionError, naming class
    cls, unless f splits into the roots listed."""
    f = [1]                                             # top coefficient first
    for k in range(1, len(sums) + 1):
        f.append(-sum(map(mul, f, reversed(sums[:k]))) * pow(k, -1, p) % p)
    out: Dict[int, int] = {}
    for j, c in enumerate(roots):
        if len(f) <= 2:
            break
        while len(f) > 2:
            q, acc = [], 0                  # f = (x - c) q + f(c), by Horner
            for a in f:
                acc = (acc * c + a) % p
                q.append(acc)
            if q.pop():
                break
            f, out[j] = q, out.get(j, 0) + 1
    if len(f) == 2 and -f[1] % p in roots:  # f = x - c: the last root is c
        j = roots.index(-f[1] % p)
        f, out[j] = [1], out.get(j, 0) + 1
    if len(f) > 1:
        raise AssertionError(f"power sums {sums} mod {p} at class {cls}: the eigenvalue "
                             f"polynomial does not split into roots of x^{len(roots)} - 1")
    return sorted(out.items())


def dixon_table(G: FiniteGroup) -> CharacterTable:
    """Exact character table via the Burnside-Dixon method.

    Common eigenvectors of the class matrices over F_p give the central
    characters mod p; degrees come from the orthogonality relation and
    values are lifted to Z[zeta_n] from the eigenvalue multiplicities.

    Blocks: the class matrix of {z}, z in Z = Z(G), maps v to v'(C) = v(zC),
    and z acts on chi's module as the scalar lambda_chi(z) (Schur's lemma),
    a linear character of Z.  So chi's vector v_C ~ |C| chi(g_C) / chi(1)
    has v(zC) = lambda_chi(z) v(C), and the common eigenspace of a lambda
    in Irr(Z) mod p is spanned by the b_O = sum_z lambda(z) e_{zC_O}, one
    per Z-orbit O of classes on whose stabilizer S_O lambda is trivial.
    Scaled to 1 at the orbit's least class, the b_O are in rref, as the
    orbits are disjoint: no matrix is built and nothing is solved.  O
    carries |Z / S_O| = |O| of the lambdas, so the blocks fill
    sum_O |O| = r dimensions.  The orbit of {1} has S = 1: v[0] = 1 on
    every row.

    Split: each subspace of dimension d > 1 is split by the next class matrix
    of size > 1 (by decreasing element order, its rows built at the pivots
    only) only at the roots in F_p of its characteristic polynomial on the
    subspace (Hessenberg form, O(d^3), then Horner at every lambda, O(p d)).
    This is exact: lambda has a nontrivial nullspace iff det(lambda I - M)
    = 0.  A simple root's eigenvector comes from a Krylov basis without a
    solve (see _split_eigenspaces).  If the eigenspaces found do not fill the
    subspace, the matrix does not split or is not diagonalizable mod p, and
    an AssertionError is raised.  No matrix is drawn once the r spaces are
    1-dimensional: none for abelian G.

    Lift: with omega of order n in F_p and o = ord(g), g has deg = chi(1)
    eigenvalues eps_i, o-th roots of unity with power sums chi(g^t), and
    Newton's identities give f = prod (x - eps_i) from chi(g^t) mod p,
    t = 1..deg (_eigenvalues); division by k <= deg < p is exact.  The
    coefficients lie in Z[zeta_o], and zeta_o^j -> omega^(j n/o) is
    injective on j < o, so dividing each omega^(j n/o) out of f mod p gives
    the multiplicities m_j exactly.  If f does not split into these roots,
    the residues are not a character's, and an AssertionError is raised.

    Galois orbits: the lift is memoized on (ord(g), power sums), which
    lifts only once per orbit {g^t : t coprime to o}.  (Z/n)* -> (Z/o)* is
    onto, so t = t' mod o for some t' coprime to n; chi' = chi^(zeta ->
    zeta^t') is also a row, and chi'(g^k) = chi(g^(kt)).  So the class of
    g^t under chi has the memo key of g's class under chi'.  Each distinct
    (ord(g), power sums) is lifted, and each distinct multiplicity dict
    built and rendered (table.rendered, which fixes the canonical row
    order), once per call.
    """
    if G.order > DEFAULT_ORDER_CAP:
        raise ValueError(f"|G| = {G.order} exceeds size cap {DEFAULT_ORDER_CAP}")
    classes = G.conjugacy_classes()
    r = len(classes)

    power_class, n = G.power_classes(), G.exponent()  # the group's power map, and exp G
    p = dixon_prime(G.order, n)
    omega = pow(_primitive_root(p), (p - 1) // n, p)
    omega_pows = [1]
    for _ in range(n - 1):
        omega_pows.append(omega_pows[-1] * omega % p)

    # Split by the class matrices of size > 1, by decreasing element order (ties by
    # index), while some space has d > 1; only the rows at its pivots are built.
    spaces = _central_blocks(G, omega_pows)
    draws = iter(sorted((i for i, cl in enumerate(classes) if len(cl) > 1),
                        key=lambda i: (-len(power_class[i]), i)))
    while len(spaces) < r:
        i = next(draws, None)
        if i is None:
            raise AssertionError("eigenspace splitting did not terminate")
        A = {pc: _class_row(G, i, pc)
             for pc in {pc for basis, pivots in spaces if len(basis) > 1 for pc in pivots}}
        spaces = [part for basis, pivots in spaces
                  for part in ([(basis, pivots)] if len(basis) == 1 else _split_eigenspaces(
                      [A[pc] for pc in pivots], basis, pivots, p))]

    size_inv = [pow(len(cl), -1, p) for cl in classes]

    # getters[deg][j] = (n / ord(g_j), getter of chi(g_j^t) for t = 0..deg).
    getters: Dict[int, List[Tuple[int, itemgetter]]] = {}
    lifted: Dict[Tuple[int, Tuple[int, ...]], Tuple[Cyclotomic, str]] = {}
    built: Dict[Tuple[Tuple[int, int], ...], Tuple[Cyclotomic, str]] = {}
    rows = []
    for basis, _ in spaces:
        # v is in rref and v_j ~ |C_j| chi(g_j) / chi(1) is nonzero at j = 0: v[0] = 1.
        v = basis[0]
        s = sum(x * v[row[-1]] * si
                for x, row, si in zip(v, power_class, size_inv)) % p
        d_sq = G.order * pow(s, -1, p) % p
        deg = next((t for t in range(1, (p + 1) // 2) if t * t % p == d_sq), None)
        if deg is None:
            raise AssertionError(f"|G| / s = {d_sq} mod {p} is not the square of a degree "
                                 f"below {p} / 2")
        chi_mod = [deg * x * si % p for x, si in zip(v, size_inv)]
        if deg not in getters:
            getters[deg] = [(n // len(pw), itemgetter(*(pw[t % len(pw)] for t in range(deg + 1))))
                            for pw in power_class]
        pairs = []
        for cls, (step, getter) in enumerate(getters[deg]):
            memo = (step, getter(chi_mod))
            pair = lifted.get(memo)
            if pair is None:            # _eigenvalues raises before a bad lift is kept
                key = tuple((j * step, m) for j, m in
                            _eigenvalues(list(memo[1][1:]), omega_pows[::step], p, cls))
                if key not in built:
                    value = Cyclotomic.from_powers(n, dict(key))
                    built[key] = (value, value.render())
                pair = lifted[memo] = built[key]
            pairs.append(pair)
        values, names = zip(*pairs)
        if values[0] != deg:
            raise AssertionError(f"lifted degree {names[0]} != {deg}")
        rows.append((deg, names, ClassFunction(G, values), tuple(chi_mod)))

    rows.sort(key=lambda row: row[:2])
    _, rendered, chars, residues = zip(*rows)
    # chi_a* is row a read at the classes of g^-1; a missing row is left to _checked.
    index = {row: a for a, row in enumerate(residues)}
    inverse = itemgetter(*(pw[-1] for pw in power_class)) if r > 1 else tuple  # G = 1
    duals = tuple(index.get(inverse(row)) for row in residues)
    return _checked(CharacterTable(
        group=G, irreducibles=chars, rendered=rendered, residues=residues, duals=duals,
        root_order=n, prime=p))


def _checked(table: CharacterTable) -> CharacterTable:
    """The table, once sum d^2 = |G|, the duals permute the rows, sum_j |C_j|
    chi_a*(g_j) chi_b(g_j) = |G| delta_ab mod p (a* = duals[a], p does not divide
    |G|, and b = a catches a wrong a*) and sum nu(chi) chi(1) = #{g : g^2 = 1}
    hold (Isaacs, ch. 4).  Failures raise AssertionError explicitly, kept by python -O.

    Orthogonality is summed only within a central block.  Each row must have
    chi(z g_j) = lambda(z) chi(g_j) mod p, lambda(z) = chi(z) / chi(1), at every
    class j and generator z of Z(G) (_center_span), hence at every g (z g is
    conjugate to z g_j for g in C_j); lambda(z) chi(z^-1) = chi(1) makes
    lambda(z) a unit.  Rows are grouped by lambda at the generators.  If
    lambda_a(z) != lambda_b(z), substituting g -> zg in S = sum_g chi_a(g^-1)
    chi_b(g) gives S = lambda_a(z)^-1 lambda_b(z) S, so S = 0 mod p.
    """
    G, p, res, duals = table.group, table.prime, table.residues, table.duals
    degrees = table.degrees()
    if sum(d * d for d in degrees) != G.order:
        raise AssertionError(f"sum of squared degrees {degrees} is not |G| = {G.order}")
    if not all(degrees):
        raise AssertionError(f"a degree in {degrees} is 0 mod {p}")
    if len(duals) != len(res) or set(duals) != set(range(len(res))):
        raise AssertionError(f"duals {duals} are not a permutation of the {len(res)} rows")
    classes = G.conjugacy_classes()
    shifts = [(G.class_of(z), itemgetter(*(G.class_of(G.mul(z, cl[0])) for cl in classes)))
              for z, _, _ in _center_span(G)[0]]
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for a, (row, d) in enumerate(zip(res, degrees)):
        lams = tuple(row[cz] * pow(d, -1, p) % p for cz, _ in shifts)
        if any(list(shifted(row)) != [lam * x % p for x in row]
               for lam, (_, shifted) in zip(lams, shifts)):
            raise AssertionError(f"row {a} is not covariant under the centre mod {p}")
        groups.setdefault(lams, []).append(a)
    for members in groups.values():
        for at, a in enumerate(members):
            weighted = [len(cl) * x % p for cl, x in zip(classes, res[duals[a]])]
            for b in members[at:]:
                if sum(map(mul, weighted, res[b])) % p != (G.order % p if a == b else 0):
                    raise AssertionError(f"rows {a} and {b} are not orthogonal mod {p}")
    involutions = sum(len(cl) for cl, pw in zip(classes, G.power_classes()) if len(pw) <= 2)
    if sum(map(mul, table.indicators(), degrees)) != involutions:
        raise AssertionError(f"Frobenius-Schur count fails: {involutions} elements square to 1")
    return table


# ---------------------------------------------------------------------------
# Fusion rules
# ---------------------------------------------------------------------------

def fusion_tensor(table: CharacterTable) -> List[List[List[int]]]:
    """N[p][q][r] = <chi_p chi_q, chi_r>, computed exactly in F_P.

    P = table.prime, the rows are Dixon's residues chi(g_j) mod P, and
    chi_r*(g) = chi_r(g^-1) is row table.duals[r].  P = 1 mod exp G does not
    divide |G|, so

        N_pq^r = |G|^-1 sum_j |C_j| chi_p(g_j) chi_q(g_j) chi_r*(g_j)  mod P.

    Exactness bound: N_pq^r = N_{r q*}^p gives N <= d_p d_q / d_r and
    N <= d_r d_q / d_p, so N <= d_q, and N <= d_p by symmetry.  As
    sum d^2 = |G|, 0 <= N <= min(d_p, d_q) <= sqrt|G| < P: the residue is N.

    Lookup: if d_p = 1 or d_q = 1, chi_p chi_q is irreducible (a linear
    character times an irreducible one), so N_pq^r is 1 at one row r and 0
    elsewhere.  Reduction mod P is a ring map, so that row's residues are
    the pointwise product of rows p and q, and the lookup finds no other
    row: two rows a != b are distinct mod P, since _checked requires
    <chi_a*, chi_b> = 0 and <chi_a*, chi_a> = |G| != 0 mod P within a
    central block, and equal residue rows share a block.

    Packing (Kronecker substitution): every other pair takes one sum
    s = sum_j prod_j D_j, with prod_j = |C_j| chi_p(g_j) chi_q(g_j) / |G|
    and D_j = sum_r chi_r*(g_j) 2^(w r), every operand reduced into [0, P).
    Slot r of s is sum_j prod_j chi_r*(g_j) <= r_count (P - 1)^2 < 2^w, so
    no slot carries into the next, and slot r mod P is N_pq^r.

    Two exact checks per (p, q), lookups included, guard the table: every
    residue satisfies N d_r <= d_p d_q, and the sum rule sum_r N_pq^r d_r =
    d_p d_q holds, which a product row missing from the table fails.
    """
    P, rows, degrees = table.prime, table.residues, table.degrees()
    r_count = len(degrees)
    order_inv = pow(table.group.order, -1, P)
    weights = [len(cl) * order_inv % P for cl in table.group.conjugacy_classes()]
    index = {row: a for a, row in enumerate(rows)}
    w = _slot_width(r_count, P)
    packed = [sum(x % P << w * k for k, x in enumerate(col))
              for col in zip(*(rows[d] for d in table.duals))]
    N = [[None] * r_count for _ in range(r_count)]
    for pi in range(r_count):
        for qi in range(pi, r_count):
            pointwise = map(mod, map(mul, rows[pi], rows[qi]), repeat(P))
            if degrees[pi] == 1 or degrees[qi] == 1:
                vals = [0] * r_count
                at = index.get(tuple(pointwise))
                if at is not None:
                    vals[at] = 1
            else:
                prod = map(mod, map(mul, pointwise, weights), repeat(P))
                vals = _slots(sum(map(mul, prod, packed)), w, r_count, P)
            bound, weighted = degrees[pi] * degrees[qi], list(map(mul, vals, degrees))
            if max(weighted) > bound:
                ri = weighted.index(max(weighted))
                raise AssertionError(
                    f"fusion multiplicity at ({pi},{qi},{ri}) exceeds d_p d_q / d_r")
            if sum(weighted) != bound:
                raise AssertionError(
                    f"sum rule fails at ({pi},{qi}): {sum(weighted)} != {bound}")
            N[pi][qi], N[qi][pi] = vals[:], vals[:]      # copies hold no spare capacity
    return N


def _slot_width(terms: int, P: int) -> int:
    """The least w with 2^w > terms (P - 1)^2: a sum of that many products of
    residues in [0, P) fits in a w-bit slot."""
    return (terms * (P - 1) ** 2).bit_length()


def _slots(s: int, w: int, count: int, P: int) -> List[int]:
    """The first count w-bit slots of s, lowest first, each mod P."""
    mask = (1 << w) - 1
    return [(s >> w * k & mask) % P for k in range(count)]
