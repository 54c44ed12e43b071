"""Generic finite-group machinery over indexed element lists.

A FiniteGroup is a multiplication table on indices 0..n-1 with index 0 the
identity.  Everything here is brute force by design: the groups of interest
have order at most a configurable cap (default 1024), where O(n^2) orbit
computations are instant and correctness is auditable.
"""
from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

DEFAULT_ORDER_CAP = 1024

# Quaternion group: indices 0..7 = 1, -1, i, -i, j, -j, k, -k.
# Encoded as (axis, sign) with axis 0..3 = 1, i, j, k.
Q8_MINUS_ONE = 1

_AXIS_MUL = {
    # (axis_a, axis_b) -> (axis, sign) for the unit quaternions 1,i,j,k
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def _q8_mul(a: int, b: int) -> int:
    axis, sign = _AXIS_MUL[(a >> 1, b >> 1)]
    if a & 1:
        sign = -sign
    if b & 1:
        sign = -sign
    return (axis << 1) | (0 if sign > 0 else 1)


Q8_TABLE: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(_q8_mul(a, b) for b in range(8)) for a in range(8)
)


class TableError(ValueError, AssertionError):
    """A table that is not a group's, and the row that holds the entry at
    fault.  Both a ValueError and an AssertionError, as the constructor's
    and check_axioms' checks raised before it carried the row."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class FiniteGroup:
    """Finite group given by an explicit multiplication table on indices."""

    def __init__(self, table: Sequence[Sequence[int]]):
        n = len(table)
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table is not square")
        for g, row in enumerate(self.table):              # the first row at fault
            if row[0] != g or g == 0 and row != tuple(range(n)):
                raise TableError("index 0 is not the identity", g)
        self.inverse = self._compute_inverses()
        self._classes: Tuple[Tuple[int, ...], ...] | None = None
        self._class_index: List[int] | None = None
        self._power_classes: Tuple[Tuple[int, ...], ...] | None = None
        self._generators: Tuple[int, ...] | None = None

    def _compute_inverses(self) -> Tuple[int, ...]:
        inv = []
        for g, row in enumerate(self.table):
            if 0 not in row:
                raise TableError(f"element {g} has no inverse", g)
            h = row.index(0)
            if self.table[h][g] != 0:
                raise TableError(f"one-sided inverse at element {g}", h)
            inv.append(h)
        return tuple(inv)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """x^-1 g x."""
        return self.table[self.table[self.inverse[x]][g]][x]

    def power_classes(self) -> Tuple[Tuple[int, ...], ...]:
        """The power map, computed once per group: row j holds the class of g_j^t
        for t < ord(g_j), g_j the least member of class j.  So it ends at the class
        of g_j^-1, and its length is the order of class j (a class function)."""
        if self._power_classes is None:
            rows = []
            for g in (cl[0] for cl in self.conjugacy_classes()):
                row, x = [0], g
                while x != 0:
                    row.append(self.class_of(x))
                    x = self.mul(x, g)
                rows.append(tuple(row))
            self._power_classes = tuple(rows)
        return self._power_classes

    def element_order(self, g: int) -> int:
        return len(self.power_classes()[self.class_of(g)])

    def exponent(self) -> int:
        """lcm of the element orders."""
        return lcm(*map(len, self.power_classes()))

    def generators(self) -> Tuple[int, ...]:
        """The greedy generators, computed once per group: each is the least
        element not reached from the identity by right multiplication by
        the ones before it.

        The walk ends in any table with identity 0, as 0 s = s reaches each
        new generator s.  If the table is a group, the reached set is the
        subgroup the generators so far generate, and each new generator lies
        outside it, so it at least doubles: there are at most log2(n)
        generators.
        """
        if self._generators is None:
            gens: List[int] = []
            reached = {0}
            while len(reached) < self.order:
                gens.append(next(x for x in range(self.order) if x not in reached))
                reached = closure(0, gens, self.mul)
            self._generators = tuple(gens)
        return self._generators

    def conjugacy_classes(self) -> Tuple[Tuple[int, ...], ...]:
        """Partition into conjugacy classes, ordered by least member.

        Class 0 is always {identity}.  Each class is sorted ascending.  The
        class of g is its orbit under x -> s^-1 x s for the generators s:
        that is a right action, so the orbit under G is its closure.
        """
        if self._classes is None:
            gens = self.generators()
            index = [-1] * self.order
            classes: List[Tuple[int, ...]] = []
            for g in range(self.order):
                if index[g] < 0:
                    orbit = tuple(sorted(closure(g, gens, self.conj)))
                    for h in orbit:
                        index[h] = len(classes)
                    classes.append(orbit)
            self._classes = tuple(classes)
            self._class_index = index
        return self._classes

    def class_of(self, g: int) -> int:
        self.conjugacy_classes()
        return self._class_index[g]

    def check_axioms(self) -> None:
        """Closure and associativity check by Light's test.

        The constructor has checked the two-sided identity 0 and the
        inverses.  The set S of elements s with (a*s)*c = a*(s*c) for all
        a, c contains 0 and is closed under multiplication, in any table
        with a two-sided identity.  So the identity is checked only for
        the greedy generators, in order: every element is a product of
        them, so it lies in S.  In a group that is at most log2(n) rounds
        of n^2 lookups.
        """
        n = self.order
        t = self.table
        if min(map(min, t)) < 0 or max(map(max, t)) >= n:
            raise AssertionError("not closed")
        for s in self.generators():
            right = itemgetter(*t[s])      # a row ta -> (ta[s*c] for all c)
            for a, ta in enumerate(t):
                lhs, rhs = t[ta[s]], right(ta)
                if lhs != rhs:
                    c = next(c for c in range(n) if lhs[c] != rhs[c])
                    raise TableError(f"associativity fails at {(a, s, c)}", a)


def closure(start, gens: Sequence, mul: Callable, limit: Optional[int] = None) -> set:
    """Everything reached from start by right multiplication by gens, found
    breadth first: the orbit of start when mul is a right action.  With a
    limit, no round starts once more than limit are reached.
    """
    members, frontier = {start}, {start}
    while frontier and (limit is None or len(members) <= limit):
        frontier = {mul(x, g) for x in frontier for g in gens} - members
        members |= frontier
    return members


def q8_group() -> FiniteGroup:
    return FiniteGroup(Q8_TABLE)


def elementary_abelian_16() -> FiniteGroup:
    """Z2^4 with XOR multiplication on indices 0..15."""
    return FiniteGroup([[a ^ b for b in range(16)] for a in range(16)])


def is_subgroup(G: FiniteGroup, S: Iterable[int]) -> bool:
    s = set(S)
    if 0 not in s:
        return False
    return all(G.mul(a, b) in s for a in s for b in s)


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Tuple[int, ...]:
    """Least subgroup containing gens: their products, as G is finite."""
    return tuple(sorted(closure(0, tuple(gens), G.mul)))


def centralizer_of_set(G: FiniteGroup, S: Iterable[int]) -> Tuple[int, ...]:
    s = list(S)
    return tuple(x for x in range(G.order)
                 if all(G.mul(x, g) == G.mul(g, x) for g in s))


def commutator(G: FiniteGroup, a: int, b: int) -> int:
    """[a, b] = a^-1 b^-1 a b."""
    return G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))


def commutator_span(G: FiniteGroup, Hsub: Iterable[int], x: int) -> Tuple[int, ...]:
    """Subgroup generated by all [h, x], h in Hsub."""
    return subgroup_generated(G, [commutator(G, h, x) for h in Hsub])


def squares_in(G: FiniteGroup, S: Iterable[int]) -> Tuple[int, ...]:
    s = set(S)
    return tuple(g for g in range(G.order) if G.mul(g, g) in s)


def quotient_group(G: FiniteGroup, N: Iterable[int]) -> Tuple[FiniteGroup, List[int]]:
    """Quotient by a normal subgroup.

    Returns (G/N, projection) where projection[g] is the index of gN.
    Cosets are indexed by their least member, identity coset first.
    """
    members = set(N)
    n_set = sorted(members)
    if not is_subgroup(G, n_set):
        raise ValueError("N is not a subgroup")
    for g in range(G.order):
        if any(G.conj(h, g) not in members for h in n_set):
            raise ValueError("N is not normal")
    proj = [-1] * G.order
    cosets: List[Tuple[int, ...]] = []
    for g in range(G.order):
        if proj[g] >= 0:
            continue
        coset = sorted(G.mul(g, h) for h in n_set)
        idx = len(cosets)
        cosets.append(tuple(coset))
        for x in coset:
            proj[x] = idx
    reps = [c[0] for c in cosets]
    table = [[proj[G.mul(a, b)] for b in reps] for a in reps]
    return FiniteGroup(table), proj
