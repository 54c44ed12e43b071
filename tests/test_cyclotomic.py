import cmath
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionaudit.cyclotomic import Cyclotomic, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta8_relations():
    z = Cyclotomic.zeta(8)
    assert z * z * z * z == -1
    assert z * Cyclotomic.zeta(8, 7) == 1
    assert (1 + z) * (1 - z) == 1 - z * z


def test_conjugation():
    three_halves = Cyclotomic.from_rational(8, 3) / 2
    assert three_halves.conjugate() == three_halves
    assert Cyclotomic.zeta(8).conjugate() == Cyclotomic.zeta(8, 7)
    z = Cyclotomic.zeta(8, 3)
    assert z.conjugate().conjugate() == z


def test_rational_reads():
    assert Cyclotomic.from_rational(8, -1).as_integer() == -1
    with pytest.raises(ValueError):
        Cyclotomic.zeta(8).as_integer()
    half = Cyclotomic.from_rational(4, 1) / 2
    assert half * 2 == 1 and (half.num, half.den) == ((1, 0), 2)
    with pytest.raises(ValueError):
        half.as_integer()
    assert Cyclotomic.from_rational(4, -6) / -4 == Cyclotomic.from_rational(4, 3) / 2
    with pytest.raises(ZeroDivisionError):
        half / 0
    for text in ("1/2*z", "-3/4"):
        assert Cyclotomic.parse(8, text).render() == text
    assert Cyclotomic.parse(8, "1/2*z") == Cyclotomic.zeta(8) / 2
    assert Cyclotomic.parse(8, "-3/4") == Cyclotomic.from_rational(8, -3) / 4


def test_canonical_form_unique():
    # same value assembled two ways reduces identically
    a = Cyclotomic.from_powers(8, {4: 1})
    b = Cyclotomic.from_rational(8, -1)
    assert a == b and a.num == b.num and a.den == b.den


def test_incompatible_orders_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(8) + Cyclotomic.zeta(12)


def test_to_order_promotion():
    z4 = Cyclotomic.zeta(4)
    z8sq = Cyclotomic.zeta(8, 2)
    assert z4.to_order(8) == z8sq
    assert Cyclotomic.from_rational(2, 5).to_order(8) == 5
    with pytest.raises(ValueError):
        Cyclotomic.zeta(8).to_order(4)


def _random_value(rng, n):
    d = len(cyclotomic_polynomial(n)) - 1
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
        assert a + (-a) == Cyclotomic.zero(n)
        assert a * 1 == a


@st.composite
def cyclotomic_values(draw, n=8):
    d = len(cyclotomic_polynomial(n)) - 1
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
    assert x - k == x - ck and k - x == ck - x
    assert (x == k) == (x == ck) == (k == x)


@given(cyclotomic_values(), cyclotomic_values())
def test_conjugation_is_ring_homomorphism(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(cyclotomic_values())
def test_galois_automorphisms(a):
    for k in (1, 3, 5, 7):
        g = a.galois(k)
        assert g.galois(pow(k, -1, 8)) == a
    with pytest.raises(ValueError):
        a.galois(2)


@settings(max_examples=50)
@given(cyclotomic_values(), cyclotomic_values(), cyclotomic_values(7), cyclotomic_values(7))
def test_numeric_oracle(a, b, a7, b7):
    # floating-point evaluation as an independent oracle, never in the
    # exact path; at n = 7 the product reaches z^k with k >= n
    def as_complex(x):
        z = cmath.exp(2j * cmath.pi / x.n)
        return sum(c * z ** k for k, c in enumerate(x.num)) / x.den

    for x, y in ((a, b), (a7, b7)):
        approx = as_complex(x) * as_complex(y)
        assert abs(as_complex(x * y) - approx) < 1e-6


@given(cyclotomic_values())
def test_norm_is_nonnegative_real(a):
    norm = a * a.conjugate()

    def as_complex(x):
        z = cmath.exp(2j * cmath.pi / x.n)
        return sum(c * z ** k for k, c in enumerate(x.num)) / x.den

    val = as_complex(norm)
    assert abs(val.imag) < 1e-7
    assert val.real >= -1e-7


@given(cyclotomic_values())
def test_render_parse_roundtrip(a):
    assert Cyclotomic.parse(8, a.render()) == a


def test_render_examples():
    assert Cyclotomic.zero(8).render() == "0"
    assert Cyclotomic.from_rational(8, -1).render() == "-1"
    z = Cyclotomic.zeta(8)
    assert (1 + z).render() == "1 + z"
    assert (z / 2).render() == "1/2*z"
