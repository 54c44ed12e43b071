from itertools import product

import pytest

from fusionaudit import gf2
from fusionaudit.construction import find_q8_in_gl42
from oracles import (
    fixed_space,
    invertible_matrices,
    iter_matrices,
    kernel_of,
    mat_from_key,
    mat_order,
    mat_pow,
    vec_bits,
    vec_from_bits,
)


def test_identity_is_neutral():
    assert gf2.mat_mul(gf2.IDENTITY, gf2.IDENTITY) == gf2.IDENTITY
    for m in ((0x1, 0x2, 0x3, 0x4), (0x8, 0x4, 0x2, 0x1), (0xf, 0xe, 0xd, 0xc)):
        assert gf2.mat_mul(gf2.IDENTITY, m) == m
        assert gf2.mat_mul(m, gf2.IDENTITY) == m


def test_inverse_roundtrip():
    # gf2.mat_order finds the order of every matrix of GL(4,2), each one of
    # A8's element orders, and agrees with the oracle; a^(ord a - 1) is a
    # two-sided inverse.
    assert {gf2.mat_order(m) for m in invertible_matrices()} == {1, 2, 3, 4, 5, 6, 7, 15}
    for m in invertible_matrices()[::97]:
        k = gf2.mat_order(m)
        assert k == mat_order(m)
        inv = mat_pow(m, k - 1)
        assert gf2.mat_mul(m, inv) == gf2.IDENTITY == gf2.mat_mul(inv, m)


def test_singular_matrix_rejected():
    # Neither has a zero row: the first repeats a row, the second's rows sum to 0.
    for singular in ((0b1000, 0b1000, 0b0010, 0b0001), (0b1100, 0b0110, 0b0011, 0b1001)):
        assert not gf2.is_invertible(singular)
        with pytest.raises(ValueError):
            gf2.mat_order(singular)
        with pytest.raises(ValueError):
            mat_order(singular)


def test_mat_order_basics():
    assert mat_order(gf2.IDENTITY) == 1
    four_cycle = (0b0100, 0b0010, 0b0001, 0b1000)  # permutation of basis vectors
    assert mat_order(four_cycle) == 4


def test_embedding_generator_has_order_four():
    emb = find_q8_in_gl42()
    a = emb.rho[2]
    assert mat_order(a) == 4
    assert gf2.mat_mul(gf2.mat_mul(a, a), gf2.mat_mul(a, a)) == gf2.IDENTITY


def test_functional_counts():
    # Of the 15 nonzero covectors, 7 vanish on a nonzero vector and 8 do not.
    v = 0b1010
    vanishing = [f for f in range(1, 16) if gf2.dot(f, v) == 0]
    assert len(vanishing) == 7
    assert sum(gf2.dot(f, v) for f in range(1, 16)) == 8


def test_every_nonzero_functional_has_hyperplane_kernel():
    for f in range(1, 16):
        ker = kernel_of(f)
        assert len(ker) == 8
        assert 0 in ker


def test_fixed_space_identity_and_z():
    assert len(fixed_space(gf2.IDENTITY)) == 16
    emb = find_q8_in_gl42()
    z_mat = emb.rho[1]
    assert len(fixed_space(z_mat)) == 8


def test_fixed_space_of_order_four_elements():
    emb = find_q8_in_gl42()
    for q in (2, 3, 4, 5, 6, 7):
        fs = fixed_space(emb.rho[q])
        assert 2 <= len(fs) and 8 % len(fs) == 0 and len(fs) <= 8


def test_fixed_spaces_closed_under_addition():
    emb = find_q8_in_gl42()
    for m in emb.rho:
        fs = set(fixed_space(m))
        for u in fs:
            for v in fs:
                assert u ^ v in fs


def test_xor_makes_every_vector_an_involution():
    for v in range(16):
        assert v ^ v == 0


def test_mat_mul_associative_on_embedded_q8():
    emb = find_q8_in_gl42()
    for a, b, c in product(emb.rho, repeat=3):
        assert gf2.mat_mul(gf2.mat_mul(a, b), c) == gf2.mat_mul(a, gf2.mat_mul(b, c))


def test_vec_bits_roundtrip():
    for v in range(16):
        assert vec_from_bits(vec_bits(v)) == v
    with pytest.raises(ValueError):
        vec_from_bits((1, 0, 2, 0))


def test_mat_key_roundtrip_and_order():
    keys = [gf2.mat_key(m) for m in iter_matrices()]
    assert keys == list(range(1 << 16))
    assert mat_from_key(gf2.mat_key((1, 2, 4, 8))) == (1, 2, 4, 8)


def test_gl42_size():
    assert len(invertible_matrices()) == 20160

