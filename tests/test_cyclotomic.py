import cmath
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionaudit.cyclotomic import Cyclotomic
from oracles import (conjugate, galois, neg, parse_cyclotomic, phi_by_mobius, sub, to_order,
                     totient, zeta)


def basis_exponents(n):
    """The basis of Q(zeta_n) as terms() reads it: every exponent that some
    zeta_n^k is written in."""
    return sorted({j for k in range(n) for j, _ in zeta(n, k).terms()})


def prime_powers(n):
    """(p, q) for each prime power q = p^a exactly dividing n."""
    out, p = [], 2
    while n > 1:
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        if q > 1:
            out.append((p, q))
        p += 1
    return out


def test_basis_size_is_the_degree_of_phi_n():
    # phi(n) exponents, each its own one term; for a prime power the power basis.
    for n in range(1, 121):
        basis = basis_exponents(n)
        assert len(basis) == len(phi_by_mobius(n)) - 1 == totient(n)
        assert all(list(zeta(n, k).terms()) == [(k, 1)] for k in basis)
        if len(prime_powers(n)) <= 1:
            assert basis == list(range(totient(n)))
    assert basis_exponents(30) == [0, 6, 10, 12, 16, 18, 22, 28]


def test_every_root_of_unity_is_sparse():
    # zeta_n^k = prod_q zeta_q^c_q(k), zeta_q = zeta_n^(n/q): a component
    # c_q >= phi(q) becomes p - 1 terms, a lower one stays one term.
    for n in (105, 210, 1001):
        factors = prime_powers(n)
        for k in range(n):
            high = [p for p, q in factors
                    if k * pow(n // q, -1, q) % q >= q - q // p]
            terms = list(zeta(n, k).terms())
            assert len(terms) == prod(p - 1 for p in high)
            assert {c for _, c in terms} == {(-1) ** len(high)}


def test_zeta8_relations():
    z = zeta(8)
    assert z * z * z * z == -1
    assert z * zeta(8, 7) == 1
    assert (1 + z) * sub(1, z) == sub(1, z * z)


def test_conjugation():
    three_halves = Cyclotomic.from_rational(8, 3) / 2
    assert conjugate(three_halves) == three_halves
    assert conjugate(zeta(8)) == zeta(8, 7)
    z = zeta(8, 3)
    assert conjugate(conjugate(z)) == z


def test_rational_reads():
    assert Cyclotomic.from_rational(8, -1).as_integer() == -1
    with pytest.raises(ValueError):
        zeta(8).as_integer()
    half = Cyclotomic.from_rational(4, 1) / 2
    assert half * 2 == 1 and (list(half.terms()), half.den) == ([(0, 1)], 2)
    with pytest.raises(ValueError):
        half.as_integer()
    assert Cyclotomic.from_rational(4, -6) / -4 == Cyclotomic.from_rational(4, 3) / 2
    with pytest.raises(ZeroDivisionError):
        half / 0
    for text in ("1/2*z", "-3/4"):
        assert parse_cyclotomic(8, text).render() == text
    assert parse_cyclotomic(8, "1/2*z") == zeta(8) / 2
    assert parse_cyclotomic(8, "-3/4") == Cyclotomic.from_rational(8, -3) / 4


def test_canonical_form_unique():
    # same value assembled two ways reduces identically
    a = Cyclotomic.from_powers(8, {4: 1})
    b = Cyclotomic.from_rational(8, -1)
    assert a == b and list(a.terms()) == list(b.terms()) and a.den == b.den


def test_incompatible_orders_rejected():
    with pytest.raises(ValueError):
        zeta(8) + zeta(12)


def test_to_order_promotion():
    # The tests' field change: up along n | m, and rationals to any order.
    assert to_order(zeta(4), 8) == zeta(8, 2)
    assert to_order(Cyclotomic.from_rational(2, 5), 8) == 5
    assert to_order(Cyclotomic.from_rational(12, -3) / 4, 8) == Cyclotomic.from_rational(8, -3) / 4
    assert to_order(zeta(3) + zeta(3, 2), 4) == -1
    with pytest.raises(ValueError):
        to_order(zeta(8), 4)


def test_to_order_moves_down_every_value_of_the_subfield():
    # Down by the relative trace: zeta_8^2 = i lies in Q(zeta_4), zeta_12^2
    # in Q(zeta_6) and so in Q(zeta_18); i does not lie in Q(zeta_18).
    assert to_order(zeta(8, 2), 4) == zeta(4)
    assert to_order(zeta(12, 2) * 3 + zeta(12, 4), 18) == zeta(18, 3) * 3 + zeta(18, 6)
    with pytest.raises(ValueError):
        to_order(zeta(12, 3), 18)
    for n in range(1, 61):
        for m in (m for m in range(1, n + 1) if n % m == 0):
            assert all(to_order(zeta(n, j * (n // m)), m) == zeta(m, j) for j in range(m))


def _random_value(rng, n):
    d = totient(n)
    num = [rng.randint(-4, 4) for _ in range(d)]
    return Cyclotomic(n, num, rng.randint(1, 3))


def test_ring_axioms_randomized():
    # 10^4 exact triples across a few root orders, fixed seed.  At n = 5, 7
    # and 9 a product reaches z^k with k >= n (2d - 2 is 6, 10 and 10).
    rng = random.Random(20260823)
    orders = (1, 2, 4, 5, 7, 8, 9, 12)
    for trial in range(10_000):
        n = orders[trial % len(orders)]
        a, b, c = (_random_value(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + neg(a) == Cyclotomic.zero(n)
        assert a * 1 == a


@st.composite
def cyclotomic_values(draw, n=8):
    d = totient(n)
    num = draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d))
    den = draw(st.integers(1, 12))
    return Cyclotomic(n, num, den)


@st.composite
def values_and_ints(draw):
    """A value of Q(zeta_n), n drawn, sometimes a rational integer, and an int."""
    n = draw(st.sampled_from((1, 2, 4, 5, 7, 8, 12)))
    x = draw(st.one_of(cyclotomic_values(n),
                       st.integers(-9, 9).map(lambda j: Cyclotomic.from_rational(n, j))))
    return x, draw(st.integers(-9, 9))


@settings(max_examples=300)
@given(values_and_ints())
def test_int_operands_match_the_general_path(pair):
    # An int is added to the constant term or scales the coefficients in
    # place; the result must be what the same-field Cyclotomic gives.
    x, k = pair
    ck = Cyclotomic.from_rational(x.n, k)
    assert x * k == k * x == x * ck
    assert x + k == k + x == x + ck
    assert sub(x, k) == sub(x, ck) and sub(k, x) == sub(ck, x)
    assert (x == k) == (x == ck) == (k == x)


@given(cyclotomic_values(), cyclotomic_values())
def test_conjugation_is_ring_homomorphism(a, b):
    assert conjugate(a + b) == conjugate(a) + conjugate(b)
    assert conjugate(a * b) == conjugate(a) * conjugate(b)
    assert conjugate(conjugate(a)) == a


@given(cyclotomic_values())
def test_galois_automorphisms(a):
    for k in (1, 3, 5, 7):
        assert galois(galois(a, k), pow(k, -1, 8)) == a
    with pytest.raises(ValueError):
        galois(a, 2)


@settings(max_examples=50)
@given(cyclotomic_values(), cyclotomic_values(), cyclotomic_values(7), cyclotomic_values(7))
def test_numeric_oracle(a, b, a7, b7):
    # floating-point evaluation as an independent oracle, never in the
    # exact path; at n = 7 the product reaches z^k with k >= n
    def as_complex(x):
        z = cmath.exp(2j * cmath.pi / x.n)
        return sum(c * z ** k for k, c in x.terms()) / x.den

    for x, y in ((a, b), (a7, b7)):
        approx = as_complex(x) * as_complex(y)
        assert abs(as_complex(x * y) - approx) < 1e-6


@given(cyclotomic_values())
def test_norm_is_nonnegative_real(a):
    norm = a * conjugate(a)

    def as_complex(x):
        z = cmath.exp(2j * cmath.pi / x.n)
        return sum(c * z ** k for k, c in x.terms()) / x.den

    val = as_complex(norm)
    assert abs(val.imag) < 1e-7
    assert val.real >= -1e-7


@given(cyclotomic_values())
def test_render_parse_roundtrip(a):
    assert parse_cyclotomic(8, a.render()) == a


def test_render_examples():
    assert Cyclotomic.zero(8).render() == "0"
    assert Cyclotomic.from_rational(8, -1).render() == "-1"
    z = zeta(8)
    assert (1 + z).render() == "1 + z"
    assert (z / 2).render() == "1/2*z"
