"""Exact arithmetic in Z[zeta_n] with rational coefficients.

A value is an integer coefficient vector over a common positive denominator,
gcd-reduced, in the basis below.  Its coordinates are unique, so equality is
tuple comparison.  This is the program's one exact number type: no floating
point anywhere.  The basis is private to this module: `terms()` is its one
outside reader, and gives a value as sum c z^k / den over basis exponents k.

The basis.  For each prime power q = p^a that exactly divides n, zeta_q =
z^(n/q) is a primitive q-th root of unity, and z^k = prod_q zeta_q^c_q(k)
with c_q(k) = k (n/q)^-1 mod q (Chinese remainders).  Z[zeta_n] is the tensor
product of the Z[zeta_q] over these coprime q, so the products of their power
bases 1, zeta_q, ..., zeta_q^(phi(q)-1) form a Z-basis of Z[zeta_n]
(Washington, Introduction to Cyclotomic Fields, ch. 2): z^k is a basis
element iff every c_q(k) < phi(q).  A component c >= phi(q) is rewritten in
one step by Phi_q(zeta_q) = 0, zeta_q^c = -sum_{j=1}^{p-1} zeta_q^(c - j q/p),
each new exponent below phi(q).  So z^k is prod (p - 1) terms over its high
components, each -1 or +1, and no Phi_n is ever computed.  When n is a prime
power the basis is the power basis 1, z, ..., z^(phi(n)-1).
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, List, Sequence, Tuple


@lru_cache(maxsize=None)
def _basis(n: int) -> Tuple[Tuple[int, ...], Tuple[Tuple[Tuple[int, int], ...], ...]]:
    """The basis exponents k of Q(zeta_n), ascending, and each z^k, k < n, as
    its sparse row of (basis position, +-1) pairs."""
    factors, m, p = [], n, 2            # (p, q, (n/q)^-1 mod q) for each q = p^a || n
    while m > 1:
        q = 1
        while m % p == 0:
            m, q = m // p, q * p
        if q > 1:
            factors.append((p, q, pow(n // q, -1, q)))
        p += 1
    rows = []
    for k in range(n):
        row = [(0, 1)]                              # (exponent, sign) pairs
        for p, q, inv in factors:
            c, step = k * inv % q, q // p           # c = c_q(k), and phi(q) = q - step
            parts = ([(c, 1)] if c < q - step else
                     [(c - j * step, -1) for j in range(1, p)])
            row = [((e + x * (n // q)) % n, s * t) for e, s in row for x, t in parts]
        rows.append(row)
    # z^k is a basis element iff no component is high, that is, iff it is its own row.
    exponents = tuple(k for k, row in enumerate(rows) if row == [(k, 1)])
    position = {k: i for i, k in enumerate(exponents)}
    return exponents, tuple(tuple((position[e], s) for e, s in row) for row in rows)


def _reduce(n: int, terms: Iterable[Tuple[int, int]]) -> List[int]:
    """Basis coefficients of sum c * z^k over the (k, c) in terms, k any int."""
    exponents, rows = _basis(n)
    num = [0] * len(exponents)
    for k, c in terms:
        if c:
            for i, s in rows[k % n]:
                num[i] += c * s
    return num


class Cyclotomic:
    """An element of Q(zeta_n), canonical, compared by value."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num: Sequence[int], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        d = len(_basis(n)[0])
        if len(num) != d:
            raise ValueError(f"need {d} reduced coefficients for n={n}")
        if den < 0:
            num, den = [-c for c in num], -den
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            num = [c // g for c in num]
            den //= g
        self.n = n
        self.num = tuple(num)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Cyclotomic":
        return Cyclotomic.from_rational(n, 0)

    @staticmethod
    def from_rational(n: int, value: int) -> "Cyclotomic":
        """The integer value as an element of Q(zeta_n)."""
        return Cyclotomic(n, [value] + [0] * (len(_basis(n)[0]) - 1))

    @staticmethod
    def from_powers(n: int, powers: dict) -> "Cyclotomic":
        """Sum of c_k * zeta_n^k from a {k: c_k} dict (k arbitrary ints)."""
        return Cyclotomic(n, _reduce(n, powers.items()))

    # -- ring operations ----------------------------------------------
    # Operands are a Cyclotomic of the same n or an int; an int is added to
    # the constant term or scales the coefficients, with no convolution.

    def _check_field(self, other: "Cyclotomic") -> None:
        if other.n != self.n:
            raise ValueError(f"incompatible root orders {self.n} and {other.n}")

    def __add__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.n, (self.num[0] + other * self.den,) + self.num[1:],
                              self.den)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check_field(other)
        da, db = self.den, other.den
        num = [a * db + b * da for a, b in zip(self.num, other.num)]
        return Cyclotomic(self.n, num, da * db)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.n, [c * other for c in self.num], self.den)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check_field(other)
        theirs = list(other.terms())
        conv = [0] * (2 * _basis(self.n)[0][-1] + 1)     # up to twice the top exponent
        for i, a in self.terms():
            for j, b in theirs:
                conv[i + j] += a * b
        return Cyclotomic(self.n, _reduce(self.n, enumerate(conv)), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return Cyclotomic(self.n, self.num, self.den * other)

    # -- predicates / conversions ---------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    def as_integer(self) -> int:
        if self.den != 1 or any(self.num[1:]):
            raise ValueError(f"{self} is not a rational integer")
        return self.num[0]

    def __eq__(self, other):
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and not any(self.num[1:])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self.n, self.num, self.den) == (other.n, other.num, other.den)

    # -- rendering -------------------------------------------------------

    def terms(self) -> Iterator[Tuple[int, int]]:
        """(k, c) for each nonzero numerator coefficient c of the basis element
        z^k, in ascending k, so that the value is sum c z^k / den."""
        return ((k, c) for k, c in zip(_basis(self.n)[0], self.num) if c)

    def render(self) -> str:
        """Canonical string `a0 + a1*z + ...` with z = zeta_n."""
        parts = []
        for k, c in self.terms():
            g = gcd(c, self.den)
            coeff = f"{c // g}/{self.den // g}" if self.den > g else str(c // g)
            if k == 0:
                parts.append(coeff)
            elif coeff == "1":
                parts.append(f"z^{k}" if k > 1 else "z")
            elif coeff == "-1":
                parts.append(f"-z^{k}" if k > 1 else "-z")
            else:
                parts.append(f"{coeff}*z^{k}" if k > 1 else f"{coeff}*z")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"Cyclotomic({self.n}, {self.render()!r})"
