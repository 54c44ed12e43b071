import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionaudit
from fusionaudit import construction, gf2
from fusionaudit.construction import (
    LambdaChoice,
    Q8Embedding,
    build_g,
    check_quotient_is_q8,
    choose_lambda,
    find_q8_in_gl42,
    permutation_is_even,
    q8_regular_embedding,
)
from fusionaudit.groups import Q8_TABLE, FiniteGroup, centralizer_of_set, q8_group
from oracles import (
    fields,
    fixed_space,
    invertible_matrices,
    mat_order,
    mat_pow,
    quotient_group,
    rebuild,
)


def test_regular_embedding_is_left_multiplication():
    reg = q8_regular_embedding()
    assert reg[0] == tuple(range(8))
    for q, perm in reg.items():
        assert sorted(perm) == list(range(8))
        for x in range(8):
            assert perm[x] == Q8_TABLE[q][x]


def test_regular_embedding_is_injective_homomorphism():
    reg = q8_regular_embedding()
    assert len(set(reg.values())) == 8
    for a in range(8):
        for b in range(8):
            composed = tuple(reg[a][reg[b][x]] for x in range(8))
            assert composed == reg[Q8_TABLE[a][b]]


def test_order4_elements_give_double_four_cycles():
    reg = q8_regular_embedding()
    q8 = q8_group()
    for q in range(8):
        if q8.element_order(q) != 4:
            continue
        perm = reg[q]
        cycle_lengths = sorted(_cycles(perm), reverse=True)
        assert cycle_lengths == [4, 4]


def test_all_images_even():
    for perm in q8_regular_embedding().values():
        assert permutation_is_even(perm)


def _cycles(perm):
    seen = [False] * len(perm)
    out = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        ln, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            ln += 1
        if ln > 1:
            out.append(ln)
    return out


def test_witness_is_reproducible():
    assert fields(find_q8_in_gl42()) == fields(find_q8_in_gl42())


def test_witness_is_the_least_pair_of_a_gl42_sweep():
    """Oracle: the least (A, B) of a sweep over all of GL4(2), by key order."""
    candidates = invertible_matrices()
    by_square = {}
    for m in candidates:
        by_square.setdefault(gf2.mat_mul(m, m), []).append(m)

    def sweep():
        for a in candidates:
            a2 = gf2.mat_mul(a, a)
            if a2 == gf2.IDENTITY or gf2.mat_mul(a2, a2) != gf2.IDENTITY:
                continue
            a_inv = mat_pow(a, mat_order(a) - 1)
            for b in by_square.get(a2, ()):
                if gf2.mat_mul(a, b) == gf2.mat_mul(b, a_inv):
                    return a, b

    emb = find_q8_in_gl42()
    assert (emb.rho[2], emb.rho[4]) == sweep()


def test_witness_is_the_docs_example_pair():
    # docs/examples/g128.grp writes out the same generators as the builtin.
    lines = [line.split("#")[0].split() for line in
             (Path(__file__).resolve().parents[1] / "docs" / "examples" / "g128.grp")
             .read_text().splitlines()]
    rows = {}
    for n, words in enumerate(lines):
        if words[:1] == ["gen"]:
            rows[words[1]] = [w for (w,) in lines[n + 1:n + 5]]
    emb = find_q8_in_gl42()
    assert rows == {"A": [format(r, "04b") for r in emb.rho[2]],
                    "B": [format(r, "04b") for r in emb.rho[4]]}


def test_embedding_satisfies_presentation():
    emb = find_q8_in_gl42()
    a, b = emb.rho[2], emb.rho[4]
    a2 = gf2.mat_mul(a, a)
    assert a2 != gf2.IDENTITY
    assert gf2.mat_mul(a2, a2) == gf2.IDENTITY
    assert gf2.mat_mul(b, b) == a2
    assert gf2.mat_mul(gf2.mat_mul(mat_pow(b, mat_order(b) - 1), a), b) \
        == mat_pow(a, mat_order(a) - 1)
    assert emb.rho[0] == gf2.IDENTITY
    assert emb.rho[1] == a2
    assert mat_order(a) == 4


def test_embedding_homomorphism_table(cg):
    for a in range(8):
        for b in range(8):
            lhs = gf2.mat_mul(cg.embedding.rho[a], cg.embedding.rho[b])
            assert lhs == cg.embedding.rho[Q8_TABLE[a][b]]


def test_build_g_structure(cg):
    G = cg.group
    assert G.order == 128
    assert centralizer_of_set(G, cg.h_subgroup) == cg.h_subgroup
    for q1 in range(8):
        for q2 in range(8):
            assert G.mul(q1, q2) & 7 == Q8_TABLE[q1][q2]


def test_h0(cg):
    h0 = cg.h0
    assert len(h0) == 2
    assert set(h0) <= set(centralizer_of_set(cg.group, range(cg.group.order)))
    c_h_z = [g for g in centralizer_of_set(cg.group, [cg.z_lift])
             if g in set(cg.h_subgroup)]
    assert len(c_h_z) == 8


def test_h0_order_is_checked_where_it_is_computed(cg, monkeypatch):
    # With z = 1, [H, z] = {1}; build_g checks |H0| before it stores the field.
    # check() reads rho at Q8_MINUS_ONE too, and rho(1) = I would fail it first.
    monkeypatch.setattr(Q8Embedding, "check", lambda self: None)
    monkeypatch.setattr(construction, "Q8_MINUS_ONE", 0)
    with pytest.raises(AssertionError, match=r"\|\[H, z\]\| = 1, expected 2"):
        build_g(cg.embedding)


def test_commutator_intersection_identity(cg):
    assert sorted(frozenset.intersection(*cg.spans)) == list(cg.h0)


def test_intersection_over_order4_cosets_contains_h0(cg):
    q8 = q8_group()
    h0 = set(cg.h0)
    common = set(range(cg.group.order))
    from fusionaudit.groups import commutator_span
    for q in range(1, 8):
        if q8.element_order(q) != 4:
            continue
        common &= set(commutator_span(cg.group, cg.h_subgroup, q))
    assert h0 <= common


def test_choose_lambda(cg):
    lam = choose_lambda(cg)
    assert lam.value_sign(cg.h0[1]) == -1
    assert sum(lam.value_sign(8 * h) == 1 for h in range(16)) == 8
    assert lam.covector == cg.covectors[0]
    with pytest.raises(ValueError):
        lam.value_sign(2)  # not an element of H


def test_valid_covectors_count(cg):
    valid = cg.covectors
    assert len(valid) == 8 and list(valid) == sorted(valid)
    h0_bits = cg.h0[1] >> 3
    for v in range(1, 16):
        assert (v in valid) == (gf2.dot(v, h0_bits) == 1)


def test_invalid_covector_rejected(cg):
    valid = set(cg.covectors)
    bad = next(v for v in range(1, 16) if v not in valid)
    with pytest.raises(ValueError):
        choose_lambda(cg, bad)


def test_lambda_kernel_misses_all_commutator_spans(cg):
    from fusionaudit.groups import commutator_span
    lam = choose_lambda(cg)
    kernel = {8 * h for h in range(16) if gf2.dot(lam.covector, h) == 0}
    for q in range(1, 8):
        span = set(commutator_span(cg.group, cg.h_subgroup, q))
        assert not span <= kernel


def test_choose_lambda_checks_each_commutator_span(cg):
    # The spans are computed once per group; the kernel check still reads
    # every one of them for each covector.
    broken = rebuild(cg, spans=cg.spans[:3] + (frozenset({0}),) + cg.spans[4:])
    with pytest.raises(AssertionError, match="lies in ker lambda"):
        choose_lambda(broken, cg.covectors[-1])
    assert choose_lambda(cg, cg.covectors[-1]).covector == cg.covectors[-1]


def test_every_presentation_pair_yields_the_counterexample_structure():
    """Claims 4, 5 and the intersection identity hold for every valid (A, B).

    Checked directly in GF(2) terms: H0 is the image of I + rho(z), the
    centralizer of z in H is the fixed space of rho(z), and [H, x-lift]
    is the image of I + rho(x).
    """
    candidates = invertible_matrices()
    by_square = {}
    for m in candidates:
        by_square.setdefault(gf2.mat_mul(m, m), []).append(m)
    pairs = 0
    for a in candidates:
        a2 = gf2.mat_mul(a, a)
        if a2 == gf2.IDENTITY or gf2.mat_mul(a2, a2) != gf2.IDENTITY:
            continue
        a_inv = mat_pow(a, mat_order(a) - 1)
        for b in by_square.get(a2, ()):
            if gf2.mat_mul(a, b) != gf2.mat_mul(b, a_inv):
                continue
            pairs += 1
            rho = {
                1: gf2.IDENTITY, -1: a2,
                "i": a, "j": b, "k": gf2.mat_mul(a, b),
            }
            image_z = {gf2.mat_vec(a2, v) ^ v for v in range(16)}
            assert len(image_z) == 2
            assert len(fixed_space(a2)) == 8
            inter = set(range(16))
            for m in (a, b, rho["k"], a2,
                      gf2.mat_mul(a2, a), gf2.mat_mul(a2, b),
                      gf2.mat_mul(a2, rho["k"])):
                inter &= {gf2.mat_vec(m, v) ^ v for v in range(16)}
            # images are subgroups here (linear maps), so the span is the image
            assert inter == image_z
            h0_bits = max(image_z)
            assert sum(1 for f in range(1, 16)
                       if gf2.dot(f, h0_bits) == 1) == 8
    assert pairs > 0


def test_lambda_choice_direct_construction(cg):
    # a hand-built all-ones covector behaves like the library's choice
    lam = LambdaChoice(covector=0b1111)
    signs = {lam.value_sign(8 * h) for h in range(16)}
    assert signs == {1, -1}


def test_build_rejects_broken_embedding(cg):
    rho = list(cg.embedding.rho)
    rho[1] = gf2.IDENTITY  # kill faithfulness
    with pytest.raises(AssertionError):
        build_g(Q8Embedding(tuple(rho)))


@pytest.mark.parametrize("index, replacement, message", [
    (0, 1, "rho(1) is not the identity"),
    (1, 0, "rho(-1) is the identity"),
    (2, 3, "not a homomorphism"),
])
def test_embedding_check_survives_python_O(cg, index, replacement, message):
    rho = list(cg.embedding.rho)
    rho[index] = rho[replacement]
    code = ("from fusionaudit.construction import Q8Embedding\n"
            f"Q8Embedding({tuple(rho)!r}).check()\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(fusionaudit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr and message in proc.stderr


def test_quotient_check_is_a_verdict(cg):
    assert check_quotient_is_q8(cg.group) is True
    cyclic = FiniteGroup([[(x + y) % 128 for y in range(128)] for x in range(128)])
    assert check_quotient_is_q8(cyclic) is False
    # Swapping labels 8 = (e1, 1) and 9 = (e1, -1) leaves the products of
    # 0..7 alone, so the 64 products inside Q still multiply like Q8.  But
    # label 8 is now (e1, -1), and 8 * i = (e1, -i) = 11: pi(8 * i) = -i,
    # not pi(8) pi(i) = i, so g -> g & 7 is no longer a homomorphism.
    swap = list(range(128))
    swap[8], swap[9] = 9, 8
    T = cg.group.table
    relabelled = FiniteGroup([[swap[T[swap[a]][swap[b]]] for b in range(128)]
                              for a in range(128)])
    relabelled.check_axioms()
    assert all(relabelled.mul(q1, q2) & 7 == Q8_TABLE[q1][q2]
               for q1 in range(8) for q2 in range(8))
    assert relabelled.mul(8, 2) == 11
    assert check_quotient_is_q8(relabelled) is False


def test_q8_quotient_matches_the_general_quotient(cg):
    # The construction's G/H and pi, against G/H computed from the table.
    quot, proj = cg.quotient, cg.projection
    reference, reference_proj = quotient_group(cg.group, cg.h_subgroup)
    assert quot.table == reference.table == Q8_TABLE
    assert proj == reference_proj == [g & 7 for g in range(128)]
