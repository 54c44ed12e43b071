"""Exact linear algebra over GF(2) in dimension 4.

Vectors are packed as 4-bit integers 0..15 with coordinate 0 in the most
significant bit, so numeric order on packed values equals lexicographic
order on bit tuples.  Matrices are 4-tuples of packed row integers; the
16-bit row concatenation (row0 most significant) is the canonical matrix
ordering.
"""
from __future__ import annotations

from itertools import chain
from typing import Sequence, Tuple

GF2Vector = int                      # 0..15
GF2Matrix = Tuple[int, int, int, int]

DIM = 4
IDENTITY: GF2Matrix = (0b1000, 0b0100, 0b0010, 0b0001)


def dot(u: GF2Vector, v: GF2Vector) -> int:
    """Standard bilinear form, value in {0, 1}."""
    return bin(u & v).count("1") & 1


def mat_vec(a: GF2Matrix, v: GF2Vector) -> GF2Vector:
    r = 0
    for row in a:
        r = (r << 1) | (bin(row & v).count("1") & 1)
    return r


def mat_mul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    rows = []
    for arow in a:
        acc = 0
        for j in range(DIM):
            if (arow >> (DIM - 1 - j)) & 1:
                acc ^= b[j]
        rows.append(acc)
    return tuple(rows)


def is_invertible(a: GF2Matrix) -> bool:
    """True when a sends no nonzero vector to 0."""
    return all(mat_vec(a, v) for v in range(1, 16))


def mat_order(a: GF2Matrix) -> int:
    """The least k >= 1 with a^k = I, for invertible a, in at most 14 products.

    k <= 15: GL(4,2) is isomorphic to A8, whose elements have order at most 15,
    so a matrix with no such k is singular.
    """
    b = a
    for k in range(1, 16):
        if b == IDENTITY:
            return k
        b = mat_mul(b, a)
    raise ValueError(f"matrix {a} is singular")


def mat_key(a: GF2Matrix) -> int:
    """16-bit row concatenation; the canonical ordering key."""
    return (a[0] << 12) | (a[1] << 8) | (a[2] << 4) | a[3]


def semidirect_table(mats: Sequence[GF2Matrix]) -> Tuple[Tuple[int, ...], ...]:
    """Multiplication table of F2^4 x| K for a list of matrices K.

    mats must be closed under multiplication with mats[0] the identity;
    element h * k + m (k = len(mats)) stands for (h, mats[m]), and
    (h1, A)(h2, B) = (h1 + A h2, A B).  Each matrix acts once on each
    vector and each pair of matrices is multiplied once: 16k + k^2 GF(2)
    products, after which every entry of the table is a lookup.
    """
    k = len(mats)
    index_of = {m: i for i, m in enumerate(mats)}
    act = [[mat_vec(m, h) for h in range(16)] for m in mats]
    ktab = [[index_of[mat_mul(a, b)] for b in mats] for a in mats]
    # blocks[m1][v] is the run of entries (v, mats[m1] mats[m2]) over m2.
    blocks = [[[v * k + t for t in row] for v in range(16)] for row in ktab]
    return tuple(tuple(chain.from_iterable(blocks[m1][h1 ^ v] for v in act[m1]))
                 for h1 in range(16) for m1 in range(k))
