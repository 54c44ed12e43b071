"""Acceptance suite: the seven headline criteria, one printed line each.

Each test prints exactly one `ACCEPTANCE <name>: PASS|FAIL` line (run
pytest with -s or rely on captured output on failure).  Everything is
exact integer/rational arithmetic; the only threshold is the wall-clock
budget on the headline run.
"""
import random
import time

from fusionaudit import audit, construction, constructive
from fusionaudit.characters import ClassFunction, fusion_tensor
from fusionaudit.constructive import fs_indicator, inner_product
from fusionaudit.cli import main
from fusionaudit.cyclotomic import Cyclotomic
from oracles import conjugate, restrict, subgroup_as_group, to_order, totient


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_acceptance_headline_reproduction(capsys):
    t0 = time.monotonic()
    exit_code = main(["verify", "--group", "builtin:g128"])
    elapsed = time.monotonic() - t0
    cg = construction.build_default()
    data = audit.constructive_data(cg)
    nu_chi = fs_indicator(data.chi)
    nu_phi = fs_indicator(data.phi)
    ok = (exit_code == 0
          and nu_chi == 1
          and nu_phi == -1
          and data.phi.degree() == 2
          and inner_product(constructive.pointwise_product(data.chi, data.chi),
                            data.phi).as_integer() >= 1
          and elapsed < 10.0)
    capsys.readouterr()  # drop the CLI's own report text
    with capsys.disabled():
        _report("headline_reproduction", ok)


def test_acceptance_claim6_ledger(data, capsys):
    b = constructive.claim6_breakdown(data)
    ok = (b["counts"] == [16, 8, 8]
          and b["contributions"] == [8, 8, -8]
          and sum(c * v for c, v in zip(b["counts"], b["contributions"])) == 128
          and b["total"] == 128)
    with capsys.disabled():
        _report("claim6_ledger", ok)


def test_acceptance_structural_checks(cg, capsys):
    from fusionaudit.groups import centralizer_of_set
    G = cg.group
    h0 = cg.h0
    c_h_z = [g for g in centralizer_of_set(G, [cg.z_lift]) if g in set(cg.h_subgroup)]
    all_lam = audit.verify_all_lambdas(cg)
    ok = (G.order == 128
          and len(h0) == 2
          and len(c_h_z) == 8
          and centralizer_of_set(G, cg.h_subgroup) == cg.h_subgroup
          and sorted(frozenset.intersection(*cg.spans)) == list(h0)
          and len(cg.covectors) == 8
          and all_lam.ok)
    with capsys.disabled():
        _report("structural_checks", ok)


def test_acceptance_table_integrity(cg, data, g128_table, capsys):
    table = g128_table
    irr = table.irreducibles
    classes = cg.group.conjugacy_classes()
    row_orth = all(
        inner_product(a, b) == (1 if i == j else 0)
        for i, a in enumerate(irr) for j, b in enumerate(irr))
    n = table.root_order
    col_orth = True
    for j, cj in enumerate(classes):
        for k in range(len(classes)):
            acc = Cyclotomic.zero(n)
            for chi in irr:
                acc = acc + chi.values[j] * conjugate(chi.values[k])
            expect = cg.group.order // len(cj) if j == k else 0
            col_orth = col_orth and acc == expect
    constructive = [data.chi, *data.lifts]
    ok = (row_orth and col_orth
          and sum(d * d for d in table.degrees()) == 128
          and len(irr) == len(classes)
          and all(table.row_of(c) is not None for c in constructive))
    with capsys.disabled():
        _report("table_integrity", ok)


def test_acceptance_global_indicator_identity(cg, q8, h16, g128_table,
                                              q8_table, h16_table, capsys):
    ok = True
    for G, table in ((cg.group, g128_table), (q8, q8_table), (h16, h16_table)):
        lhs = sum(fs_indicator(chi) * chi.degree() for chi in table.irreducibles)
        rhs = sum(1 for g in range(G.order) if G.mul(g, g) == 0)
        ok = ok and lhs == rhs
    with capsys.disabled():
        _report("global_indicator_identity", ok)


def test_acceptance_conjecture_scans(data, g128_table, q8_table, h16_table,
                                     g128_fusion, capsys):
    pos = audit.positivity_scan(g128_table, g128_fusion)
    wang = audit.wang_scan(g128_table, g128_fusion)
    ichi = g128_table.row_of(data.chi)
    iphi = g128_table.row_of(data.phi)
    headline = [r for r in pos if (r["p"], r["q"], r["r"]) == (ichi, ichi, iphi)]
    odd_empty = all(
        audit.odd_rule_scan(audit.positivity_scan(t, fusion_tensor(t))) == []
        for t in (g128_table, q8_table, h16_table))
    ok = (bool(pos) and len(headline) == 1
          and bool(wang) and any(r["self_dual"] for r in wang)
          and odd_empty
          and headline[0]["N"] == 2 and headline[0]["N"] % 2 == 0)
    with capsys.disabled():
        _report("conjecture_scans", ok)


def test_acceptance_property_suites(cg, q8, h16, data, g128_table, capsys):
    ok = True
    # exhaustive group axioms for every built-in
    for G in (cg.group, q8, h16):
        try:
            G.check_axioms()
        except ValueError:
            ok = False
    # Frobenius reciprocity across the whole g128 table
    H, embed = subgroup_as_group(cg.group, cg.h_subgroup)
    n = H.exponent()
    lam_h = ClassFunction(H, tuple(
        Cyclotomic.from_rational(n, data.lam.value_sign(embed[cl[0]]))
        for cl in H.conjugacy_classes()))
    for theta in g128_table.irreducibles:
        rhs = inner_product(lam_h, restrict(theta, H, embed))    # in Q(zeta_exp H)
        if inner_product(data.chi, theta) != to_order(rhs, cg.group.exponent()):
            ok = False
    # >= 10^4 randomized exact ring-axiom triples
    rng = random.Random(20260823)
    trials = 10_000
    for trial in range(trials):
        m = (1, 2, 4, 8, 12)[trial % 5]
        d = totient(m)
        a, b, c = (Cyclotomic(m, [rng.randint(-4, 4) for _ in range(d)],
                              rng.randint(1, 3)) for _ in range(3))
        if not ((a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c and a * b == b * a):
            ok = False
            break
    # indicators stay in {-1, 0, +1} everywhere
    for chi in g128_table.irreducibles:
        if fs_indicator(chi) not in (-1, 0, 1):
            ok = False
    with capsys.disabled():
        _report("property_suites", ok)
