"""Exact arithmetic in Z[zeta_n] with rational coefficients.

Values are stored in the power basis 1, z, ..., z^(d-1) modulo the n-th
cyclotomic polynomial (d = deg Phi_n), as an integer coefficient vector over
a common positive denominator, gcd-reduced.  Canonical form is unique, so
equality is tuple comparison.  This is the program's one exact number type:
no floating point anywhere.  The basis is private to this module: `terms()`
is its one outside reader, and gives a value as sum c z^k / den.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, List, Sequence, Tuple


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Coefficients of Phi_n, low degree first, monic."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 divided by Phi_d for proper divisors d.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _poly_divexact(num: List[int], den: List[int]) -> List[int]:
    # Exact division of integer polynomials, den monic up to sign.
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] // lead
        if c * lead != num[i]:
            raise AssertionError("polynomial division is not exact")
        quot[i - dd] = c
        for j in range(dd + 1):
            num[i - dd + j] -= c * den[j]
    if any(num):
        raise AssertionError("polynomial division leaves a remainder")
    return quot


@lru_cache(maxsize=None)
def _power_reductions(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Reduced coefficient vectors of z^k mod Phi_n, k < n."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows: List[Tuple[int, ...]] = []
    cur = [0] * d
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(n - 1):
        nxt = [0] + cur[:-1]
        top = cur[-1]
        if top:
            for j in range(d):
                nxt[j] -= top * phi[j]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


def _reduce(n: int, terms: Iterable[Tuple[int, int]]) -> List[int]:
    """Reduced coefficients of sum c * z^k over the (k, c) in terms, k any int."""
    red = _power_reductions(n)
    num = [0] * len(red[0])
    for k, c in terms:
        if c:
            for j, x in enumerate(red[k % n]):
                num[j] += c * x
    return num


class Cyclotomic:
    """An element of Q(zeta_n), canonical, compared by value."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num: Sequence[int], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        d = len(cyclotomic_polynomial(n)) - 1
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
        d = len(cyclotomic_polynomial(n)) - 1
        return Cyclotomic(n, [value] + [0] * (d - 1))

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
        conv = [0] * (2 * len(self.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
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
        """(k, c) for each nonzero numerator coefficient c of z^k, in ascending
        k, so that the value is sum c z^k / den."""
        return ((k, c) for k, c in enumerate(self.num) if c)

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
