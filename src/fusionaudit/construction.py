"""The order-128 counterexample group and its distinguished data.

Builds G = H x| Q with H = Z2^4 and Q the quaternion group acting
faithfully through one embedding Q8 -> GL4(2), given by the images of
i and j and checked to be a faithful homomorphism before it is used.
build_g also certifies G/H = Q8 with its projection, H0 = [H, z], the
covectors that cut H0 and the spans [H, x], once per group; only the
linear character lambda of H, chosen by covector, varies.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from . import gf2
from .groups import (
    FiniteGroup,
    Q8_MINUS_ONE,
    Q8_TABLE,
    centralizer_of_set,
    commutator_span,
    q8_group,
)

Permutation = Tuple[int, ...]


def q8_regular_embedding() -> Dict[int, Permutation]:
    """Left-multiplication action of Q8 on its own 8 elements."""
    return {q: tuple(Q8_TABLE[q][x] for x in range(8)) for q in range(8)}


def cycle_type(perm: Permutation) -> Tuple[int, ...]:
    """Lengths of the cycles of length > 1, longest first."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length > 1:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def permutation_is_even(perm: Permutation) -> bool:
    return sum(length - 1 for length in cycle_type(perm)) % 2 == 0


class Q8Embedding:
    """A faithful homomorphism Q8 -> GL4(2), indexed by Q8 element."""
    __slots__ = ("rho",)

    def __init__(self, rho: Tuple[gf2.GF2Matrix, ...]):
        self.rho = rho

    def check(self) -> None:
        if self.rho[0] != gf2.IDENTITY:
            raise AssertionError("rho(1) is not the identity matrix")
        if self.rho[Q8_MINUS_ONE] == gf2.IDENTITY:
            raise AssertionError("rho(-1) is the identity; the kernel is nontrivial")
        for a in range(8):
            for b in range(8):
                if gf2.mat_mul(self.rho[a], self.rho[b]) != self.rho[Q8_TABLE[a][b]]:
                    raise AssertionError(f"not a homomorphism at pair ({a}, {b})")
        if len(set(self.rho)) != 8:
            raise AssertionError("embedding is not faithful")


# The images of i and j, as in docs/examples/g128.grp. They are the least
# pair (A, B) in gf2.mat_key order with A^4 = I, A^2 != I, B^2 = A^2 and
# A*B = B*A^-1; the tests confirm it by a sweep over GL4(2).
RHO_I: gf2.GF2Matrix = (0b0001, 0b0010, 0b0100, 0b1110)
RHO_J: gf2.GF2Matrix = (0b0011, 0b0100, 0b0010, 0b1100)


def find_q8_in_gl42() -> Q8Embedding:
    """The embedding Q8 -> GL4(2) generated by i -> RHO_I and j -> RHO_J.

    The quaternion presentation forces <RHO_I, RHO_J> to be a faithful copy
    of Q8; check() certifies the result as a faithful homomorphism.
    """
    # Q8 index order: 1, -1, i, -i, j, -j, k, -k with i -> a, j -> b.
    a, b = RHO_I, RHO_J
    a2 = gf2.mat_mul(a, a)
    rho = (
        gf2.IDENTITY,
        a2,
        a,
        gf2.mat_mul(a2, a),
        b,
        gf2.mat_mul(a2, b),
        gf2.mat_mul(a, b),
        gf2.mat_mul(a2, gf2.mat_mul(a, b)),
    )
    emb = Q8Embedding(rho)
    emb.check()
    return emb


class ConstructedGroup:
    """The 128-element group H x| Q with the facts build_g certifies once.

    Element index = 8 * (vector bits as 0..15) + (Q8 index 0..7); the
    identity (0, 1) is index 0.  No field depends on a covector.
    """
    __slots__ = ("group", "embedding", "h_subgroup", "q_subgroup", "z_lift",
                 "quotient", "projection", "h0", "covectors", "spans")

    def __init__(self, group: FiniteGroup, embedding: Q8Embedding,
                 h_subgroup: Tuple[int, ...], q_subgroup: Tuple[int, ...], z_lift: int,
                 quotient: FiniteGroup, projection: List[int], h0: Tuple[int, ...],
                 covectors: Tuple[int, ...], spans: Tuple[frozenset, ...]):
        self.group = group
        self.embedding = embedding
        self.h_subgroup = h_subgroup      # all (h, 1)
        self.q_subgroup = q_subgroup      # all (0, q)
        self.z_lift = z_lift              # (0, -1)
        self.quotient = quotient          # G/H = Q8
        self.projection = projection      # pi: g -> g & 7, onto quotient with kernel H
        self.h0 = h0                      # H0 = [H, z], of order 2
        self.covectors = covectors        # the 8 v with lambda_v(H0) = -1, ascending
        self.spans = spans                # [H, x] for each nontrivial coset xH


def build_g(embedding: Q8Embedding) -> ConstructedGroup:
    """Semidirect product with (h1,q1)(h2,q2) = (h1 + rho(q1)h2, q1q2).

    The checked embedding is a faithful homomorphism, so gf2.semidirect_table
    on rho multiplies the Q8 parts by Q8_TABLE and puts (h, q) at 8h + q.
    """
    embedding.check()
    G = FiniteGroup(gf2.semidirect_table(embedding.rho))
    H, Q, z = tuple(8 * h for h in range(16)), tuple(range(8)), Q8_MINUS_ONE
    if centralizer_of_set(G, H) != H:
        raise AssertionError("C_G(H) != H; the action is not faithful")
    if not check_quotient_is_q8(G):
        raise AssertionError("G/H does not multiply like Q8")
    h0 = commutator_span(G, H, z)
    if len(h0) != 2:
        raise AssertionError(f"|[H, z]| = {len(h0)}, expected 2")
    return ConstructedGroup(
        G, embedding, H, Q, z, quotient=q8_group(), projection=[g & 7 for g in range(G.order)],
        h0=h0, covectors=tuple(v for v in range(1, 16) if gf2.dot(v, h0[1] >> 3) == 1),
        spans=tuple(frozenset(commutator_span(G, H, x)) for x in Q[1:]))


def check_quotient_is_q8(G: FiniteGroup) -> bool:
    """True iff pi: g -> g & 7 is a homomorphism from G onto Q8 with kernel H,
    so that H is normal and G/H is Q8 with projection pi.

    It checks pi(a s) = pi(a) pi(s) in Q8_TABLE for every a in G and every
    s in G.generators(), |G| log2|G| lookups at most.  That suffices: every
    g is a word w = s_1 ... s_k in the generators, and pi(a w) = pi(a) pi(w)
    for all a by induction on k.  For k = 0, pi(1) = 1.  For w = v s,
    pi(a v s) = pi(a v) pi(s) = pi(a) pi(v) pi(s) = pi(a) pi(v s), by the
    check at a v, the induction at v, and the check at v.  pi is onto, as
    it fixes 0..7, and its kernel is {g : g & 7 = 0}, the 16 indices 8h of
    H.  A kernel is normal, and G/ker pi is the image: gH goes to pi(g).
    """
    return all(G.mul(a, s) & 7 == Q8_TABLE[a & 7][s & 7]
               for s in G.generators() for a in range(G.order))


class LambdaChoice:
    """A linear character lambda_v of H with h -> (-1)^(v.h)."""
    __slots__ = ("covector",)

    def __init__(self, covector: int):
        self.covector = covector

    def value_sign(self, g: int) -> int:
        """+1/-1 on H (g must be an H index, i.e. q-part trivial)."""
        if g & 7:
            raise ValueError(f"element {g} is not in H")
        return -1 if gf2.dot(self.covector, g >> 3) else 1


def choose_lambda(cg: ConstructedGroup, covector: int | None = None) -> LambdaChoice:
    """Deterministic lambda: least valid covector unless one is supplied.

    Verifies the defining condition directly: [H, x] is not inside
    ker(lambda) for any nontrivial coset xH.
    """
    if covector is None:
        covector = cg.covectors[0]
    elif covector not in cg.covectors:
        raise ValueError(f"covector {covector} does not cut H0")
    kernel = {8 * h for h in range(16) if gf2.dot(covector, h) == 0}
    for x, span in zip(cg.q_subgroup[1:], cg.spans):  # the nontrivial cosets
        if span <= kernel:
            raise AssertionError(f"[H, x] lies in ker lambda for coset of {x}")
    return LambdaChoice(covector)


def build_default() -> ConstructedGroup:
    """The canonical construction used by the audit pipeline."""
    return build_g(find_q8_in_gl42())
