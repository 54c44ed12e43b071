import hashlib
import json
import operator
import pathlib
import random
import tracemalloc

import pytest
from conftest import cayley_file, cayley_table, dihedral_mul
from oracles import parse_cyclotomic
from test_cli_fuzz import ODD_TOKENS

from fusionaudit import audit, cli, gf2
from fusionaudit.characters import fusion_tensor
from fusionaudit.cli import main
from fusionaudit.groups import Q8_TABLE
from fusionaudit.groupfile import GroupFileError, _decimal, _integer, _matrix_closure, \
    load_group, load_group_file

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"

CLAIM_NAMES = [
    "claim3_embedding_exists",
    "setup_group_structure",
    "claim4_h0",
    "claim5_lambda_exists",
    "claim1_chi_irreducible",
    "claim2_constituent_phi",
    "claim6_indicator",
]

Z4_TABLE = """
# cyclic group of order 4
table 4
0 1 2 3
1 2 3 0
2 3 0 1
3 0 1 2
"""

# identity and two-sided inverses, but not associative
LOOP5_TABLE = """
table 5
0 1 2 3 4
1 0 3 4 2
2 4 0 1 3
3 2 4 0 1
4 3 1 2 0
"""

G128_SEMIDIRECT = """
# F2^4 semidirect the quaternion matrix group <A, B>
semidirect-gf2
gen A
0001
0010
0100
1110
gen B
0011
0100
0010
1100
rel A^4
rel B^2*A^-2
rel B^-1*A*B*A
"""


# ---------------------------------------------------------------------------
# verify_claims / AuditReport
# ---------------------------------------------------------------------------

def test_verify_claims_all_pass(cg):
    report = audit.verify_claims(cg=cg)
    assert report.ok
    claims = report.sections["claims"]
    assert [c["name"] for c in claims] == CLAIM_NAMES
    assert all(c["passed"] for c in claims)


def test_verify_claims_witnesses(cg):
    report = audit.verify_claims(cg=cg)
    by_name = {c["name"]: c["witness"] for c in report.sections["claims"]}
    assert by_name["setup_group_structure"]["order"] == 128
    assert len(by_name["claim4_h0"]["h0"]) == 2
    assert len(by_name["claim5_lambda_exists"]["valid_covectors"]) == 8
    assert by_name["claim1_chi_irreducible"]["degree"] == 8
    assert by_name["claim2_constituent_phi"]["nu2_phi"] == "-1"
    c6 = by_name["claim6_indicator"]
    assert c6["counts"] == [16, 8, 8]
    assert c6["contributions"] == [8, 8, -8]
    assert c6["total"] == 128


def test_verify_all_lambdas(cg):
    report = audit.verify_all_lambdas(cg)
    assert report.ok
    runs = report.sections["lambda_runs"]
    assert len(runs) == 8
    assert all(r["ok"] for r in runs)


def test_each_verify_command_builds_one_report(monkeypatch):
    # constructive returns each covector's claims as dicts; audit wraps them
    # in the command's one AuditReport, with no report per covector.
    built = []
    real = audit.AuditReport.__init__

    def spy(self, command, group_label, **sections):
        built.append((command, group_label, sorted(sections)))
        real(self, command, group_label, **sections)

    monkeypatch.setattr(audit.AuditReport, "__init__", spy)
    assert main(["verify", "--all-lambdas", "--report", "json"]) == 0
    assert built == [("verify", "builtin:g128", ["claims", "lambda_runs"])]
    built.clear()
    assert main(["verify", "--report", "json"]) == 0
    assert built == [("verify", "builtin:g128", ["claims", "lambda_covector"])]


def test_all_lambdas_runs_match_single_covector_runs(cg):
    runs = audit.verify_all_lambdas(cg).sections["lambda_runs"]
    for run in runs:
        single = audit.verify_claims(covector=run["covector"], cg=cg)
        assert run["claims"] == single.sections["claims"]


def test_report_json_is_deterministic(cg):
    a = audit.verify_claims(cg=cg).to_json()
    b = audit.verify_claims(cg=cg).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["schema"] == audit.SCHEMA_VERSION
    assert parsed["ok"] is True


def test_report_ok_logic():
    assert audit.AuditReport(command="scan", group_label="x").ok
    positivity = {"positivity": [{"p": 0}]}
    # positivity findings are reported, not failures
    assert audit.AuditReport("scan", "x", scans=positivity).ok
    assert not audit.AuditReport("scan", "x", scans={**positivity, "odd_rule": [{"p": 0}]}).ok
    assert not audit.AuditReport("scan", "x", scans={**positivity, "odd_rule": []},
                                 claims=[{"name": "x", "passed": False, "witness": {}}]).ok


def test_report_text_rendering(cg):
    text = audit.verify_claims(cg=cg).to_text()
    assert text.endswith("result: OK\n")
    for name in CLAIM_NAMES:
        assert f"[PASS] {name}" in text


def test_lambda_runs_text_lists_each_run_verdict(cg):
    # One line per covector and per claim; the witnesses stay in the JSON.
    text = audit.verify_all_lambdas(cg).to_text()
    assert "\nlambda_runs: 8\n" in text
    assert len([ln for ln in text.splitlines() if ln.startswith("    covector ")]) == 8
    assert "\n    covector 1: OK\n        [PASS] claim3_embedding_exists\n" in text
    assert "'passed'" not in text
    failed = audit.AuditReport("verify", "x", lambda_runs=[
        {"covector": 3, "ok": False,
         "claims": [{"name": "claim6_indicator", "passed": False, "witness": {}}]}])
    assert "\n    covector 3: FAILED\n        [FAIL] claim6_indicator\n" in failed.to_text()


# Each command's report, built in process, with the sections its JSON
# document holds besides the header.
DOCUMENT_REPORTS = {
    "verify": (lambda r: audit.verify_claims(cg=r.getfixturevalue("cg")),
               {"claims", "lambda_covector"}),
    "verify-all-lambdas": (lambda r: audit.verify_all_lambdas(r.getfixturevalue("cg")),
                           {"claims", "lambda_runs"}),
    "scan-g128": (lambda r: audit.scan_report("builtin:g128", r.getfixturevalue("cg").group),
                  {"scans", "degrees", "indicators"}),
    "scan-q8": (lambda r: audit.scan_report("builtin:q8", r.getfixturevalue("q8")),
                {"scans", "degrees", "indicators"}),
    "table-d30": (lambda r: audit.table_report(
        "file:d30.grp", load_group_file(str(r.getfixturevalue("d30_file")))), {"table"}),
    "table-g128-both": (lambda r: audit.table_report(
        "builtin:g128", r.getfixturevalue("cg").group, method="both",
        cg=r.getfixturevalue("cg")), {"table", "constructive_rows", "claims"}),
    "table-g128-constructive": (lambda r: audit.table_report(
        "builtin:g128", r.getfixturevalue("cg").group, method="constructive",
        cg=r.getfixturevalue("cg")), {"table"}),
}


@pytest.mark.parametrize("name", list(DOCUMENT_REPORTS))
def test_reports_are_their_json_documents(name, request):
    # A report's dict is what its JSON says: the header keys, then its sections.
    build, sections = DOCUMENT_REPORTS[name]
    report = build(request)
    doc = report.to_dict()
    assert json.loads(report.to_json()) == doc
    assert list(doc) == ["schema", "command", "group", "ok", *report.sections]
    assert set(report.sections) == sections


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def test_g128_scans(data, g128_table, g128_fusion):
    pos = audit.positivity_scan(g128_table, g128_fusion)
    assert pos
    ichi = g128_table.row_of(data.chi)
    iphi = g128_table.row_of(data.phi)
    headline = [r for r in pos if (r["p"], r["q"], r["r"]) == (ichi, ichi, iphi)]
    assert len(headline) == 1
    assert headline[0]["N"] == 2
    assert headline[0]["nu_p"] == headline[0]["nu_q"] == 1
    assert headline[0]["nu_r"] == -1
    # every violating multiplicity is even: the odd rule survives
    assert all(r["N"] % 2 == 0 for r in pos)
    assert audit.odd_rule_scan(pos) == []

    wang = audit.wang_scan(g128_table, g128_fusion)
    assert wang
    assert any(r["self_dual"] and r["p"] == ichi for r in wang)


def test_clean_groups_have_empty_scans(q8_table, h16_table):
    for table in (q8_table, h16_table):
        N = fusion_tensor(table)
        assert audit.positivity_scan(table, N) == []
        assert audit.wang_scan(table, N) == []
        assert audit.odd_rule_scan(audit.positivity_scan(table, N)) == []


def test_odd_rule_scan_keeps_only_odd_violations(q8_table):
    # q8's indicators are (1, 1, 1, 1, -1); the only row with nu = -1 is 4.
    assert q8_table.indicators() == (1, 1, 1, 1, -1)
    N = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    N[0][1][4] = 3                    # odd violation: 1 * 1 * (-1) < 0
    N[1][2][4] = 2                    # even violation
    N[4][4][0] = 1                    # nu product 1: not a violation
    pos = audit.positivity_scan(q8_table, N)
    assert [(r["p"], r["q"], r["r"]) for r in pos] == [(0, 1, 4), (1, 2, 4)]
    assert audit.odd_rule_scan(pos) == [
        {"tag": "odd_rule", "p": 0, "q": 1, "r": 4, "N": 3,
         "nu_p": 1, "nu_q": 1, "nu_r": -1}]


def test_scan_report_q8(q8):
    report = audit.scan_report("builtin:q8", q8)
    assert report.ok
    assert report.sections["scans"]["positivity"] == []
    assert report.sections["degrees"] == [1, 1, 1, 1, 2]
    assert report.sections["indicators"] == [1, 1, 1, 1, -1]


def test_builtin_group_names():
    G, cg = cli._resolve_group("builtin:q8", 1024)
    assert G.order == 8 and cg is None
    with pytest.raises(ValueError):
        cli.parse_args(["scan", "--group", "builtin:nope"])


def test_table_report_methods(cg):
    both = audit.table_report("builtin:g128", cg.group, method="both", cg=cg)
    assert both.ok
    matches = both.sections["constructive_rows"]
    assert len(matches) == 6
    assert all(v is not None for v in matches.values())
    cons = audit.table_report("builtin:g128", cg.group, method="constructive", cg=cg)
    assert len(cons.sections["table"]["irreducibles"]) == 6
    # The command line refuses another method, and the constructive route off
    # g128, before any group is built.
    with pytest.raises(ValueError):
        cli.parse_args(["table", "--group", "builtin:q8", "--table-method", "constructive"])
    with pytest.raises(ValueError):
        cli.parse_args(["table", "--table-method", "bogus"])


def test_constructive_table_text_names_its_rows(cg):
    # The text names each row as the JSON does; Dixon's rows have no name.
    text = audit.table_report("builtin:g128", cg.group, method="constructive", cg=cg).to_text()
    assert "\n    induced_chi: deg   8  nu2  1  8  " in text
    assert "\n    quotient_lift_4: deg   2  nu2 -1  2  -2  " in text


def test_table_both_builds_no_constructive_rows(monkeypatch, cg):
    # "both" reports the Dixon table and the row matches only: the
    # constructive rows' indicators and renders are for "constructive".
    from fusionaudit import constructive
    calls = []
    real = constructive.fs_indicator
    monkeypatch.setattr(constructive, "fs_indicator", lambda c: calls.append(c) or real(c))
    both = audit.table_report("builtin:g128", cg.group, method="both", cg=cg)
    assert both.ok and calls == []
    audit.table_report("builtin:g128", cg.group, method="constructive", cg=cg)
    assert len(calls) == 6


def test_table_to_dict_renders_every_value(g128_table):
    rows = audit.table_to_dict(g128_table)["irreducibles"]
    assert len(rows) == len(g128_table.irreducibles)
    for row, chi in zip(rows, g128_table.irreducibles):
        assert [parse_cyclotomic(g128_table.root_order, s) for s in row["values"]] \
            == list(chi.values)


# ---------------------------------------------------------------------------
# Group files
# ---------------------------------------------------------------------------

def test_load_table_dialect():
    G = load_group(Z4_TABLE)
    assert G.order == 4
    assert G.element_order(1) == 4
    assert G.exponent() == 4


def test_load_semidirect_dialect():
    G = load_group(G128_SEMIDIRECT)
    assert G.order == 128
    assert G.exponent() == 4
    assert len(G.conjugacy_classes()) == 23


def test_loaded_g128_scans_like_the_builtin(g128_table):
    from fusionaudit.characters import dixon_table, fusion_tensor
    G = load_group(G128_SEMIDIRECT)
    table = dixon_table(G)
    # isomorphic but differently indexed, so compare as multisets
    assert table.degrees() == g128_table.degrees()
    assert sorted(table.indicators()) == sorted(g128_table.indicators())
    N, g128_N = fusion_tensor(table), fusion_tensor(g128_table)
    assert audit.odd_rule_scan(audit.positivity_scan(table, N)) == []
    assert len(audit.positivity_scan(table, N)) == len(audit.positivity_scan(g128_table, g128_N))


def semidirect_mul(mats):
    """The product of F2^4 x| mats, one mat_vec and one mat_mul per call:
    the loader's multiplication before gf2.semidirect_table."""
    index_of = {m: i for i, m in enumerate(mats)}
    k = len(mats)

    def mul(x, y):
        h1, m1 = divmod(x, k)
        h2, m2 = divmod(y, k)
        h = h1 ^ gf2.mat_vec(mats[m1], h2)
        return h * k + index_of[gf2.mat_mul(mats[m1], mats[m2])]
    return mul


def file_matrices(text):
    """The matrix group of a semidirect-gf2 file, listed as the loader
    lists it."""
    toks = [tok for line in text.splitlines() for tok in line.split("#")[0].split()]
    gens = [tuple(int(row, 2) for row in toks[i + 2:i + 6])
            for i, tok in enumerate(toks) if tok == "gen"]
    return _matrix_closure(gens, 1024)


def test_semidirect_table_matches_per_product_oracle(cg):
    rho = cg.embedding.rho
    mul = semidirect_mul(rho)
    expected = tuple(tuple(mul(x, y) for y in range(128)) for x in range(128))
    assert gf2.semidirect_table(rho) == expected
    assert cg.group.table == expected
    mul = semidirect_mul(file_matrices(G128_SEMIDIRECT))
    assert load_group(G128_SEMIDIRECT).table \
        == tuple(tuple(mul(x, y) for y in range(128)) for x in range(128))


def test_unitriangular_1024_example():
    path = EXAMPLES / "unitriangular-1024.grp"
    G = load_group_file(str(path))
    assert G.order == 1024
    assert len(G.conjugacy_classes()) == 61
    mul = semidirect_mul(file_matrices(path.read_text()))
    rnd = random.Random(1024)
    for _ in range(10_000):
        x, y = rnd.randrange(1024), rnd.randrange(1024)
        assert G.mul(x, y) == mul(x, y)


@pytest.mark.parametrize("text,fragment", [
    ("rubbish 4", "unknown format"),
    ("table x", "must be an integer"),
    ("table 2\n0 1\n1 9", "out of range"),
    ("table 2\n0 1\n1 0\n7", "trailing token"),
    ("table 2\n0 1", "unexpected end of file"),
    ("table 2\n1 0\n0 1", "not a group table"),
    ("table 3\n0 1 2\n1 2 0\n2 1 1", "one-sided inverse at element 1"),
    ("table 3\n0 1 2\n1 0 2\n2 2 1", "element 2 has no inverse"),
    (LOOP5_TABLE, "not a group table: associativity fails"),
    ("semidirect-gf2\ngen A\n0001\n0010\n0100\n1110\nrel C^2",
     "unknown generator"),
    ("semidirect-gf2\ngen A\n0001\n0010\n0100\n1110\nrel A^3",
     "does not hold"),
    ("semidirect-gf2\ngen A\n0000\n0010\n0100\n1000", "not invertible"),
    ("semidirect-gf2\ngen A\n0001\n0010\n01x0\n1000", "4 bits of 0/1"),
    ("semidirect-gf2", "no generators"),
])
def test_group_file_errors(text, fragment):
    with pytest.raises(GroupFileError) as exc:
        load_group(text)
    assert fragment in str(exc.value)
    assert str(exc.value).startswith("line ")


def test_group_file_error_line_numbers():
    with pytest.raises(GroupFileError) as exc:
        load_group("table 2\n0 1\n1 9")
    assert exc.value.line == 3


@pytest.mark.parametrize("text, message", [
    ("table 2\n1 0\n0 1", "line 2: not a group table: index 0 is not the identity"),
    ("table 2\n0 1\n0 1", "line 3: not a group table: index 0 is not the identity"),
    ("table 3\n0 1 2\n1 0 2\n2 2 1", "line 4: not a group table: element 2 has no inverse"),
    ("table 3\n0 1 2\n1 0 2\n2\n2 1", "line 4: not a group table: element 2 has no inverse"),
    ("table 3\n0 1 2\n1 2 0\n2 1 1",
     "line 4: not a group table: one-sided inverse at element 1"),
    ("table 3\n0 1 2\n1 2\n0\n2 1 1",
     "line 5: not a group table: one-sided inverse at element 1"),
    (LOOP5_TABLE, "line 4: not a group table: associativity fails at (1, 1, 2)"),
], ids=["row 0", "column 0", "no inverse", "no inverse, split row", "one-sided",
        "one-sided, split row", "associativity"])
def test_not_a_group_names_the_row_at_fault(text, message):
    # The line where the row holding the entry at fault starts: the first
    # row that 0 is not the identity for, the row without a 0, row h for a
    # one-sided inverse (h, g), and row a for associativity at (a, s, c).
    with pytest.raises(GroupFileError) as exc:
        load_group(text)
    assert str(exc.value) == message


def test_huge_relation_exponents_are_cheap(tmp_path, capsys):
    # A has order 4: A^99999999999 = A^3 fails, A^400000000000 = I holds.
    # A power walk would take |exp| products; the order rule takes 3 to find
    # ord A = 4 and at most 3 more for A^(e mod 4).
    text = (EXAMPLES / "g128.grp").read_text()
    bad, good = tmp_path / "bad.grp", tmp_path / "good.grp"
    bad.write_text(text + "rel A^99999999999\n")
    good.write_text(text + "rel A^400000000000\n")
    assert main(["scan", "--group", f"file:{bad}"]) == 2
    err = capsys.readouterr().err
    assert "relation 'A^99999999999' does not hold" in err
    assert "line 22" in err
    assert load_group(good.read_text()).order == 128


@pytest.mark.parametrize("word, holds", [
    ("A^0", True), ("A^-4", True), ("A^-400000000000", True), ("B^-1*A^-1*B*A^-1", True),
    ("A^-3", False), ("A^-1", False), ("A^-400000000001", False), ("B^-2*A^-1", False),
    ("A^-0", True), ("A^004", True), ("A^-04", True), ("A^0000000000000000000012", True),
    ("A^-05", False),
])
def test_negative_and_zero_relation_exponents(word, holds):
    # A and B have order 4, so a power is its exponent mod 4: A^-3 = A, and
    # A^-400000000001 = A^3; B^-2 = A^2 makes B^-2*A^-1 = A.  -0 is the
    # integer 0, and leading zeros do not change an exponent.
    text = (EXAMPLES / "g128.grp").read_text() + f"rel {word}\n"
    if holds:
        assert load_group(text).order == 128
        return
    with pytest.raises(GroupFileError) as exc:
        load_group(text)
    assert str(exc.value) == f"line 22: relation {word!r} does not hold"
    assert exc.value.line == 22


@pytest.mark.parametrize("name", [
    "rel", "gen", "0001", "1A", "A^2", "A*B", "A-1", "\u00c4", "A\u0664", "\uff21"])
def test_generator_names_are_ascii_identifiers(name):
    # A name that no relation word could spell, or that reads as a keyword
    # or a matrix row, is rejected at its own line.
    def text(gen):
        return f"semidirect-gf2\n# A^4 = I\ngen\n{gen}\n0001\n0010\n0100\n1110\n"

    with pytest.raises(GroupFileError) as exc:
        load_group(text(name))
    assert str(exc.value).startswith(f"line 4: bad generator name {name!r} ")
    for good in ("A", "a_1", "_x", "Gen", "REL", "rel2"):
        assert load_group(text(good) + f"rel {good}^4\n").order == 64


@pytest.mark.parametrize("exp", ["+4", "1_5", "\u0664", "", "4.0", "0x4", "--4", "4-", "-",
                                 "-+4", "\uff14"])
def test_exponents_are_an_optional_minus_and_ascii_digits(exp):
    # int() would read +4, 1_5 (as 15) and the Arabic-Indic and full-width
    # digits; the grammar takes none of them.
    word = f"B^2*A^{exp}"
    text = (EXAMPLES / "g128.grp").read_text() + f"rel {word}\n"
    with pytest.raises(GroupFileError) as exc:
        load_group(text)
    assert str(exc.value) == f"line 22: bad exponent {exp!r} in relation {word!r}"


@pytest.mark.parametrize("exp, holds", [
    ("9" * 5000, False), ("-" + "9" * 5000, False), ("4" + "0" * 5000, True),
    ("0" * 5000 + "4", True), ("-" + "0" * 5000 + "3", False)])
def test_exponents_past_the_int_digit_limit(exp, holds, capsys):
    # int() refuses more than 4,300 digits; the exponent is still reduced
    # mod ord A = 4 exactly (10^5000 - 1 = 3 mod 4), with leading zeros.
    text = (EXAMPLES / "g128.grp").read_text() + f"rel A^{exp}\n"
    if holds:
        assert load_group(text).order == 128
        return
    with pytest.raises(GroupFileError) as exc:
        load_group(text)
    assert str(exc.value) == f"line 22: relation 'A^{exp}' does not hold"


def test_integer_tokens_of_any_length():
    # The values are checked by arithmetic: str() and int() stop at 4,300 digits.
    assert _integer("1" + "0" * 5000) == 10 ** 5000
    assert _integer("9" * 8001) == 10 ** 8001 - 1
    assert _integer("-" + "0" * 5000 + "12") == -12
    assert _integer("-0") == 0 and _integer("007") == 7
    assert _decimal("-" + "0" * 5000 + "12") == "-12" and _decimal("-00") == "0"


def test_table_integers_past_the_int_digit_limit():
    # A 5,000-digit entry is out of range and a 5,000-digit order is over the
    # cap, each at its own line; 5,000 leading zeros leave a value as it is.
    huge = "9" * 5000
    with pytest.raises(GroupFileError) as exc:
        load_group(Z4_TABLE.replace("1 2 3 0", f"1 2 {huge} 0"))
    assert str(exc.value) == f"line 5: entry (1,2) = {huge} out of range 0..3"
    with pytest.raises(GroupFileError) as exc:
        load_group(f"table\n{huge}\n0")
    assert str(exc.value) == f"line 2: group order {huge} exceeds the cap 1024"
    with pytest.raises(GroupFileError) as exc:
        load_group(f"table\n-{huge}\n0")
    assert str(exc.value) == f"line 2: group order must be positive, got -{huge}"
    zeros = "0" * 5000
    G = load_group(Z4_TABLE.replace("table 4", f"table {zeros}4")
                   .replace("1 2 3 0", f"1 2 {zeros}3 -{zeros}"))
    assert G.order == 4 and G.table[1] == (1, 2, 3, 0)


def test_cli_reports_a_huge_exponent_at_its_line(tmp_path, capsys):
    path = tmp_path / "huge.grp"
    path.write_text((EXAMPLES / "g128.grp").read_text() + f"rel A^{'9' * 5000}\n")
    assert main(["scan", "--group", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 22: relation 'A^999") and "does not hold" in err


@pytest.mark.parametrize("text, message", [
    ("table +2\n0 1\n1 0", "line 1: group order must be an integer, got '+2'"),
    ("table 2\n0 1\n1 +0", "line 3: entry (1,1) is not an integer: '+0'"),
    ("table 2\n0 1\n1 0_0", "line 3: entry (1,1) is not an integer: '0_0'"),
    ("table \u0662\n0 1\n1 0", "line 1: group order must be an integer, got '\u0662'"),
    ("table 2\n0 \uff11\n1 0", "line 2: entry (0,1) is not an integer: '\uff11'"),
    ("table 2\n0 1\n1 -1", "line 3: entry (1,1) = -1 out of range 0..1"),
    ("table 2\n0 1\n1 x", "line 3: entry (1,1) is not an integer: 'x'"),
    ("table 2\n0 1\n1", "line 3: unexpected end of file, expected table entry (1,1)"),
    ("table 2\n0 1\n1 0 1", "line 3: unexpected trailing token '1'"),
])
def test_table_integers_follow_the_grammar(text, message):
    # The order and the entries are read by the one integer grammar, an
    # optional minus and ASCII digits; int() would read +2, 0_0 and the
    # Arabic-Indic and full-width digits.
    with pytest.raises(GroupFileError) as exc:
        load_group(text)
    assert str(exc.value) == message
    assert load_group("table 02\n-0 001\n01 -00").order == 2


def table_layouts(rows):
    """The `table` text of rows, lists of tokens, in five layouts."""
    n, lines = len(rows), [" ".join(row) for row in rows]
    return {
        "crlf": "\r\n".join([f"table {n}"] + lines) + "\r\n",
        "split rows": "\n".join([f"table {n}"] + [
            " ".join(row[:1 + i % (n - 1)]) + "\n  " + " ".join(row[1 + i % (n - 1):])
            for i, row in enumerate(rows)]),
        "two rows a line": "\n".join([f"table {n}"] + [
            lines[i] + "   " + lines[i + 1] for i in range(0, n, 2)]),
        "comments": "\n".join(["# a header", f"table {n}  # the order"] + [
            f"# row {i}: 0 1 2\n\n{line}  # {i} {i}" for i, line in enumerate(lines)]),
        "one line": f"table {n} " + " ".join(lines),
    }


@pytest.mark.parametrize("layout", ["crlf", "split rows", "two rows a line", "comments",
                                    "one line"])
def test_table_layouts_load_alike_and_name_the_bad_entry(layout):
    # The file is read a line at a time, whatever its layout: each loads the
    # same table (a leading zero included), and a bad entry is reported at
    # the line it sits on.
    table = cayley_table(12, dihedral_mul(6), random.Random(5))
    rows = [[str(v) for v in row] for row in table]
    rows[4][2] = "00" + rows[4][2]
    assert load_group(table_layouts(rows)[layout]).table == tuple(map(tuple, table))
    for i, j in [(0, 0), (5, 11), (6, 3), (6, 9), (11, 11)]:
        bad = [row[:] for row in rows]
        bad[i][j] = "-1"
        text = table_layouts(bad)[layout]
        line = next(k for k, text_line in enumerate(text.splitlines(), 1)
                    if "-1" in text_line.split("#")[0].split())
        with pytest.raises(GroupFileError) as exc:
            load_group(text)
        assert str(exc.value) == f"line {line}: entry ({i},{j}) = -1 out of range 0..11"


def test_table_entries_are_interned():
    # Every entry is one of n shared ints, those past the small-int cache
    # and those written with leading zeros included.
    table = cayley_table(300, dihedral_mul(150), random.Random(3))
    rows = [" ".join(map(str, row)) for row in table]
    rows[7] = " ".join("000" + tok for tok in rows[7].split())
    G = load_group("table 300\n" + "\n".join(rows))
    assert G.table == tuple(map(tuple, table))
    assert len({id(v) for row in G.table for v in row}) == 300


def test_loading_a_table_at_the_cap_stays_small(tmp_path):
    # No token list of the whole file: the peak is the text, the lines and
    # the table, about 16 MB for a 4 MB file.
    n = 1024
    path = tmp_path / "c1024.grp"
    path.write_text(f"table {n}\n" + "".join(
        " ".join(str((a + b) % n) for b in range(n)) + "\n" for a in range(n)))
    tracemalloc.start()
    try:
        G = load_group_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == n and G.table[1][n - 1] == 0
    assert peak < 40 * 2 ** 20


def test_singular_generator_error_names_its_line():
    # Rank 3 with no zero row: the rows of B sum to 0.
    text = ("semidirect-gf2\ngen A\n0001\n0010\n0100\n1110\n"
            "gen\nB\n1100\n0110\n0011\n1001\nrel A^4\n")
    with pytest.raises(GroupFileError) as exc:
        load_group(text)
    assert str(exc.value) == "line 8: generator B is not invertible"


def test_order_cap_enforced():
    with pytest.raises(GroupFileError) as exc:
        load_group(Z4_TABLE, max_order=2)
    assert "exceeds the cap" in str(exc.value)
    with pytest.raises(GroupFileError):
        load_group(G128_SEMIDIRECT, max_order=64)


# Generators of GL(4,2): the companion matrix of x^4 + x + 1 and a transvection.
GL42_SEMIDIRECT = """semidirect-gf2
gen A
0001
1000
0100
0011
gen B
1100
0100
0010
0001
"""


def test_matrix_closure_stops_at_the_cap(monkeypatch, tmp_path, capsys):
    # The closure stops once 16 |members| passes the cap, instead of listing
    # all 20,160 matrices of GL(4,2); the message claims no partial order.
    path = tmp_path / "gl42.grp"
    path.write_text(GL42_SEMIDIRECT)
    calls = []
    real = gf2.mat_mul
    monkeypatch.setattr(gf2, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
    assert main(["scan", "--group", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 1: group order exceeds the cap 1024\n"
    assert 0 < len(calls) < 1000
    # 64 matrices reach the cap exactly and still load.
    assert load_group_file(str(EXAMPLES / "unitriangular-1024.grp")).order == 1024
    assert load_group_file(str(EXAMPLES / "g128.grp")).order == 128


# The mutation sweep's seeds: the paper's group; the cyclic group of order 15
# (A has the largest element order in GL(4,2)); and GL(4,2), whose relations
# are checked before its order is found to exceed the cap.
SWEEP_BASES = [
    G128_SEMIDIRECT,
    "semidirect-gf2\ngen A\n0001\n1000\n0100\n0011\nrel A^15\nrel A^-14*A^-16",
    GL42_SEMIDIRECT + "rel A^15\nrel B^2\n",
]
SWEEP_EXPONENTS = ["", "0", "-0", "1", "-1", "2", "-2", "3", "-3", "4", "-4", "5", "7", "-14",
                   "15", "-15", "16", "400000000000", "-400000000001", "99999999999", "+3",
                   "1_5", "x", "1.5", "^2"]
SWEEP_TOKENS = ["gen", "rel", "A", "B", "C", "0000", "1111", "10", "10x0", "semidirect-gf2",
                "table"]


def mutated_semidirect_texts(count=1500, seed=16):
    """Deterministic semidirect-gf2 texts, each a base with one to three
    token mutations, most of them in relation words and matrix rows."""
    rnd = random.Random(seed)

    def word():
        return "*".join(rnd.choice("AAABBBC") + (f"^{exp}" if exp else "")
                        for exp in rnd.choices(SWEEP_EXPONENTS, k=rnd.randint(1, 4)))

    for _ in range(count):
        tokens = [tok for line in rnd.choice(SWEEP_BASES).splitlines()
                  for tok in line.split("#")[0].split()]
        for _ in range(rnd.randint(1, 3)):
            kind = rnd.choice(["word", "word", "word", "rel", "rel", "row", "row",
                               "token", "drop", "swap", "truncate"])
            words = [i for i in range(1, len(tokens)) if tokens[i - 1] == "rel"]
            rows = [i for i, tok in enumerate(tokens) if len(tok) == 4 and set(tok) <= set("01")]
            i = rnd.randrange(1, len(tokens)) if len(tokens) > 1 else 0
            if kind == "word" and words:
                tokens[rnd.choice(words)] = word()
            elif kind == "rel":
                tokens[i:i] = ["rel", word()]
            elif kind == "row" and rows:
                tokens[rnd.choice(rows)] = format(rnd.randrange(16), "04b")
            elif kind == "token" and tokens:
                tokens[i] = rnd.choice(SWEEP_TOKENS)
            elif kind == "drop" and tokens:
                del tokens[i]
            elif kind == "swap" and tokens:
                j = rnd.randrange(len(tokens))
                tokens[i], tokens[j] = tokens[j], tokens[i]
            elif kind == "truncate":
                del tokens[i:]
        yield "".join(tok + rnd.choice(["\n", "\n", " "]) for tok in tokens)


def load_outcome(text):
    """The loaded group's order, or the error with its line."""
    try:
        return f"order {load_group(text).order}"
    except GroupFileError as exc:
        return str(exc)


def test_semidirect_mutations_keep_their_outcomes():
    # Every outcome, group order or error message with its line, is pinned
    # in tests/golden/semidirect-mutations.json.
    expected = json.loads((GOLDEN / "semidirect-mutations.json").read_text())
    assert len(expected) >= 1000
    assert [load_outcome(text) for text in mutated_semidirect_texts()] == expected


def _table_text(n, mul, seed=None):
    table = cayley_table(n, mul, None if seed is None else random.Random(seed))
    return f"table {n}\n" + "\n".join(" ".join(map(str, row)) for row in table)


# The table sweep's seeds: Z/4, S3, Q8, a relabelled D30, and a loop that is
# not associative.  Its tokens: the fuzzer's odd tokens, and spellings that
# int() reads but the integer grammar does not (+1, 0_1, Arabic-Indic and
# full-width digits) or does (-0, leading zeros).
TABLE_SWEEP_BASES = [
    Z4_TABLE,
    _table_text(6, dihedral_mul(3)),
    _table_text(8, lambda a, b: Q8_TABLE[a][b]),
    _table_text(30, dihedral_mul(15), seed=7),
    LOOP5_TABLE,
]
TABLE_SWEEP_TOKENS = ODD_TOKENS + ["2", "3", "+1", "+0", "0_1", "1_0", "\u0662", "\uff11",
                                   "-0", "00", "01"]


def mutated_table_texts(count=1500, seed=19):
    """Deterministic table texts, each a base with one to three token
    mutations: a replaced entry or order, a dropped, swapped or cut token."""
    rnd = random.Random(seed)
    for _ in range(count):
        tokens = [tok for line in rnd.choice(TABLE_SWEEP_BASES).splitlines()
                  for tok in line.split("#")[0].split()]
        for _ in range(rnd.randint(1, 3)):
            kind = rnd.choice(["replace", "replace", "replace", "order", "drop", "swap",
                               "truncate"])
            i = rnd.randrange(len(tokens)) if tokens else 0
            if kind == "order" and len(tokens) > 1:
                tokens[1] = rnd.choice(TABLE_SWEEP_TOKENS)
            elif kind == "replace" and tokens:
                tokens[i] = rnd.choice(TABLE_SWEEP_TOKENS)
            elif kind == "drop" and tokens:
                del tokens[i]
            elif kind == "swap" and tokens:
                j = rnd.randrange(len(tokens))
                tokens[i], tokens[j] = tokens[j], tokens[i]
            elif kind == "truncate":
                del tokens[i:]
        yield "".join(tok + rnd.choice(["\n", "\n", " "]) for tok in tokens)


def test_table_mutations_keep_their_outcomes():
    # Every outcome, group order or error message with its line (Light's
    # associativity witnesses included), is pinned in
    # tests/golden/table-mutations.json.
    expected = json.loads((GOLDEN / "table-mutations.json").read_text())
    assert len(expected) >= 1000
    assert [load_outcome(text) for text in mutated_table_texts()] == expected


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr()
    assert "result: OK" in out.out
    assert "elapsed:" in out.err
    assert "elapsed:" not in out.out


def test_cli_verify_json_out(tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "--report", "json", "--out", str(path)]) == 0
    parsed = json.loads(path.read_text())
    assert parsed["schema"] == audit.SCHEMA_VERSION
    assert parsed["ok"] is True
    assert [c["name"] for c in parsed["claims"]] == CLAIM_NAMES


def test_cli_verify_all_lambdas(tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "--all-lambdas", "--report", "json",
                 "--out", str(path)]) == 0
    parsed = json.loads(path.read_text())
    assert len(parsed["lambda_runs"]) == 8


def test_cli_verify_all_lambdas_spans_each_commutator_once(monkeypatch, tmp_path):
    # [H, z] and the seven [H, x] are computed once per group and shared by
    # the covector-free claims and every covector's run.
    from fusionaudit import construction, groups
    calls = []
    real = groups.commutator_span

    def spy(G, Hsub, x):
        calls.append(x)
        return real(G, Hsub, x)

    monkeypatch.setattr(groups, "commutator_span", spy)
    monkeypatch.setattr(construction, "commutator_span", spy)
    assert main(["verify", "--all-lambdas", "--report", "json",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 8


def test_cli_verify_all_lambdas_walks_each_group_once(monkeypatch, tmp_path):
    # The power map is cached on the group: no group's powers are walked
    # twice, though every covector's run and the table report ask for the
    # exponent.  A second walk would hand back a second map.
    from fusionaudit.groups import FiniteGroup
    maps = {}
    real = FiniteGroup.power_classes

    def spy(G):
        power_map = real(G)
        maps.setdefault(G, []).append(power_map)
        return power_map

    monkeypatch.setattr(FiniteGroup, "power_classes", spy)
    assert main(["verify", "--all-lambdas", "--report", "json",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert any(G.order == 128 for G in maps)
    assert all(m is walked[0] for walked in maps.values() for m in walked)


def test_cli_verify_rejects_other_groups(capsys):
    # The guard compares the whole name: one with builtin:g128 as a prefix
    # is bad usage too, not an unknown builtin group found later.
    for group in ("builtin:q8", "builtin:g128x", "builtin:g1280"):
        assert main(["verify", "--group", group]) == 2
        err = capsys.readouterr().err
        assert "verify applies to the construction; use --group builtin:g128" in err
        assert "unknown builtin group" not in err


def test_cli_scan_builtin(capsys):
    assert main(["scan", "--group", "builtin:q8"]) == 0
    out = capsys.readouterr().out
    assert "positivity violations: 0" in out
    assert main(["scan", "--group", "builtin:g128"]) == 0
    out = capsys.readouterr().out
    assert "odd_rule violations: 0" in out
    assert "positivity violations: 0" not in out


def test_cli_scan_file(tmp_path, capsys):
    path = tmp_path / "z4.grp"
    path.write_text(Z4_TABLE)
    assert main(["scan", "--group", f"file:{path}"]) == 0
    assert "result: OK" in capsys.readouterr().out


def test_cli_table_both(tmp_path):
    path = tmp_path / "table.json"
    assert main(["table", "--table-method", "both", "--report", "json",
                 "--out", str(path)]) == 0
    parsed = json.loads(path.read_text())
    assert len(parsed["table"]["irreducibles"]) == 23
    assert parsed["table"]["dixon_prime"] == 29
    assert sorted(d["degree"] for d in parsed["table"]["irreducibles"]) \
        == [1] * 8 + [2] * 14 + [8]


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["scan", "--group", "builtin:nope"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["scan", "--group", "file:/does/not/exist"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.grp"
    bad.write_text("table 2\n0 1\n1 9\n")
    assert main(["scan", "--group", f"file:{bad}"]) == 2
    assert "line 3" in capsys.readouterr().err
    loop = tmp_path / "loop.grp"
    loop.write_text(LOOP5_TABLE)
    assert main(["scan", "--group", f"file:{loop}"]) == 2
    assert "not a group table" in capsys.readouterr().err
    assert main(["scan", "--group", "q8"]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing" / "x.json"
    assert main(["scan", "--group", "builtin:q8", "--out", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not missing.exists()


def test_cli_internal_check_failure_exits_1(monkeypatch, capsys):
    from fusionaudit import characters

    def failing_check(table):
        raise AssertionError("rows 0 and 1 are not orthogonal mod 11")

    monkeypatch.setattr(characters, "_checked", failing_check)
    assert main(["scan", "--group", "builtin:q8"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "internal check failed: rows 0 and 1 are not orthogonal mod 11\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_non_integer_computed_value_exits_1(monkeypatch, capsys):
    # verify reads no input: a halved chi has degree 4 but nu(chi) = 1/2, which
    # is no integer.  That is an internal failure (exit 1), not bad usage.
    from fusionaudit import constructive
    from fusionaudit.characters import ClassFunction
    real = constructive.lambda_and_chi

    def halved(cg, covector):
        lam, chi = real(cg, covector)
        return lam, ClassFunction(chi.group, tuple(v / 2 for v in chi.values))

    monkeypatch.setattr(constructive, "lambda_and_chi", halved)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("internal check failed: ")
    assert captured.err.endswith(" is not a rational integer\n")
    assert captured.out == ""


def test_cli_verify_fails_claim2_on_a_non_integer_multiplicity(monkeypatch, capsys):
    # chi^2 scaled by 3/4 gives <chi^2, phi> = 3/2: a multiplicity that is no
    # integer fails claim 2 (exit 1) instead of passing as ">= 1".
    from fusionaudit import constructive
    from fusionaudit.characters import ClassFunction
    real = constructive.pointwise_product

    def scaled(a, b):
        c = real(a, b)
        return ClassFunction(c.group, tuple(v * 3 / 4 for v in c.values))

    monkeypatch.setattr(constructive, "pointwise_product", scaled)
    assert main(["verify", "--report", "json"]) == 1
    claims = json.loads(capsys.readouterr().out)["claims"]
    claim2 = next(c for c in claims if c["name"] == "claim2_constituent_phi")
    assert not claim2["passed"]
    assert claim2["witness"]["multiplicity_in_chi_squared"] == "3/2"
    assert all(c["passed"] for c in claims if c is not claim2)


def test_cli_json_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["scan", "--group", "builtin:q8", "--report", "json",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_docs_fixture_matches_live_output(tmp_path):
    import pathlib
    fixture = pathlib.Path(__file__).resolve().parents[1] \
        / "docs" / "examples" / "scan-q8.json"
    out = tmp_path / "live.json"
    assert main(["scan", "--group", "builtin:q8", "--report", "json",
                 "--out", str(out)]) == 0
    assert out.read_text() == fixture.read_text()


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


GOLDEN_REPORTS = [
    ("verify", ["verify"]),
    ("verify-all-lambdas", ["verify", "--all-lambdas"]),
    ("scan-g128", ["scan", "--group", "builtin:g128"]),
    ("table-g128-both", ["table", "--group", "builtin:g128", "--table-method", "both"]),
    ("table-d30", None),
    ("table-d120", None),
    ("scan-g128xc2", None),
    ("scan-g128xq8", None),
]


@pytest.fixture(scope="session")
def fixture_file_reports():
    """The reports on fixture files by golden name, each built once for its
    JSON and its text test."""
    return {}


def _golden_report_bytes(name, argv, fmt, tmp_path, request):
    """The report `name` as `--report fmt` writes it.

    The reports on fixture files (D30, D120, g128 x C2, g128 x Q8) go
    through audit.table_report or audit.scan_report with a fixed label, so
    that the fixture's temporary path does not enter it.
    """
    if argv is None:
        reports = request.getfixturevalue("fixture_file_reports")
        if name not in reports:
            command, label = name.split("-")
            G = load_group_file(str(request.getfixturevalue(f"{label}_file")))
            reports[name] = (audit.scan_report if command == "scan" else audit.table_report)(
                f"file:{label}.grp", G)
        report = reports[name]
        return (report.to_json() if fmt == "json" else report.to_text()).encode("utf-8")
    out = tmp_path / f"live.{fmt}"
    assert main([*argv, "--report", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name, argv", GOLDEN_REPORTS)
def test_json_reports_match_golden_files(name, argv, tmp_path, request):
    """Each JSON report, byte for byte, against tests/golden/<name>.json.
    A golden file changes only with a documented change of the report."""
    live = _golden_report_bytes(name, argv, "json", tmp_path, request)
    assert live == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name, argv", GOLDEN_REPORTS)
def test_text_reports_match_golden_files(name, argv, tmp_path, request):
    """Each text report, byte for byte, against tests/golden/<name>.txt."""
    live = _golden_report_bytes(name, argv, "text", tmp_path, request)
    assert live == (GOLDEN / f"{name}.txt").read_bytes()


# The groups of order 1024 whose `table` reports tests/golden/table-digests.json
# pins: C1024 and F2^10 on identity labels, D1024 relabelled (seed 1), and
# g128 x Q8 from its fixture.
CAP_TABLE_FILES = {
    "c1024": lambda factory, request: cayley_file(factory, "c1024", 1024,
                                                  lambda x, y: (x + y) % 1024),
    "f2-10": lambda factory, request: cayley_file(factory, "f2-10", 1024, operator.xor),
    "d1024": lambda factory, request: cayley_file(factory, "d1024", 1024, dihedral_mul(512),
                                                  seed=1),
    "g128xq8": lambda factory, request: request.getfixturevalue("g128xq8_file"),
}


@pytest.mark.parametrize("name", sorted(CAP_TABLE_FILES))
def test_table_reports_at_the_cap_match_their_digests(name, tmp_path_factory, request):
    """The `table` report at the 1024 cap, as text and as JSON, against its
    SHA-256 in tests/golden/table-digests.json: the reports are 1-20 MB, so
    only the digests are kept.  One table serves both renders, under a fixed
    label, so that the fixture's temporary path does not enter the bytes."""
    G = load_group_file(str(CAP_TABLE_FILES[name](tmp_path_factory, request)))
    report = audit.table_report(f"file:{name}.grp", G)
    live = {fmt: hashlib.sha256(render().encode("utf-8")).hexdigest()
            for fmt, render in (("text", report.to_text), ("json", report.to_json))}
    assert live == json.loads((GOLDEN / "table-digests.json").read_text())[name]


@pytest.mark.parametrize("label, seed", [("g128xc2", 3), ("g128xq8", None)])
def test_product_scans_match_the_tensor_product_oracle(label, seed, g128_table, g128_fusion,
                                                       q8, request):
    """The golden scans of g128 x K, from the tensors and indicators of g128
    and K alone.  Irr(G x K) is {chi (x) psi}, with
    N_{(p,a)(q,b)}^{(r,c)} = N_pq^r N_ab^c, and nu(chi (x) psi) = nu(chi) nu(psi)
    since (g, k)^2 = (g^2, k^2).  No tensor of the product is built; each
    chi (x) psi is mapped to its row of the product's table by row_of, and
    the rows must come in Dixon's order, by degree and then rendered values."""
    from conftest import relabelling
    from fusionaudit.characters import ClassFunction, dixon_table
    from fusionaudit.groups import FiniteGroup
    K = q8 if label.endswith("q8") else FiniteGroup([[0, 1], [1, 0]])
    k_table = dixon_table(K)
    k_fusion = fusion_tensor(k_table)
    m, n = K.order, 128 * K.order
    table = dixon_table(load_group_file(str(request.getfixturevalue(f"{label}_file"))))
    back = {px: x for x, px in enumerate(relabelling(n, None if seed is None
                                                     else random.Random(seed)))}
    reps = [back[cl[0]] for cl in table.group.conjugacy_classes()]
    e = table.root_order

    def product(a, b):
        chi, psi = g128_table.irreducibles[a], k_table.irreducibles[b]
        return ClassFunction(table.group, tuple(
            chi.value_at(x // m).to_order(e) * psi.value_at(x % m).to_order(e) for x in reps))

    def dual(t, N):
        one = t.residues.index((1,) * len(N))          # the trivial character
        return [next(b for b in range(len(N)) if N[a][b][one]) for a in range(len(N))]

    pairs = [(a, b) for a in range(len(g128_table.irreducibles))
             for b in range(len(k_table.irreducibles))]
    products = {ab: product(*ab) for ab in pairs}
    idx = {ab: table.row_of(c) for ab, c in products.items()}
    assert set(idx.values()) == set(range(len(pairs)))
    # A swap of two rows shows here even where no scan record reads them.
    ranked = sorted(pairs, key=lambda ab: (products[ab].degree(),
                                           tuple(v.render() for v in products[ab].values)))
    assert [idx[ab] for ab in ranked] == list(range(len(pairs)))
    nu = {(a, b): g128_table.indicators()[a] * k_table.indicators()[b] for a, b in pairs}
    report = json.loads((GOLDEN / f"scan-{label}.json").read_text())
    for a, b in pairs:
        assert report["degrees"][idx[a, b]] == g128_table.degrees()[a] * k_table.degrees()[b]
        assert report["indicators"][idx[a, b]] == nu[a, b]

    def fusion(p, q, r):
        return g128_fusion[p[0]][q[0]][r[0]] * k_fusion[p[1]][q[1]][r[1]]

    g_dual, k_dual = dual(g128_table, g128_fusion), dual(k_table, k_fusion)
    wang = set()
    for p in pairs:
        p_dual = (g_dual[p[0]], k_dual[p[1]])
        wang.update((idx[p], idx[p_dual], idx[r], fusion(p, p_dual, r), nu[r], p == p_dual)
                    for r in pairs if fusion(p, p_dual, r) and nu[r] != 1)
    real = [p for p in pairs if nu[p]]
    positivity = {(idx[p], idx[q], idx[r], fusion(p, q, r), nu[p], nu[q], nu[r])
                  for p in real for q in real for r in real
                  if nu[p] * nu[q] * nu[r] < 0 and idx[p] <= idx[q] and fusion(p, q, r)}
    scans = report["scans"]
    assert all(rec["p"] <= rec["q"] for rec in scans["positivity"])
    assert {(rec["p"], rec["q"], rec["r"], rec["N"], rec["nu_p"], rec["nu_q"], rec["nu_r"])
            for rec in scans["positivity"]} == positivity
    assert {(rec["p"], rec["p_dual"], rec["r"], rec["N"], rec["nu_r"], rec["self_dual"])
            for rec in scans["wang"]} == wang
    assert len(positivity) == len(scans["positivity"]) > 0
    assert len(wang) == len(scans["wang"]) > 0
    assert scans["odd_rule"] == []


def test_docs_example_group_file_loads():
    import pathlib
    path = pathlib.Path(__file__).resolve().parents[1] \
        / "docs" / "examples" / "g128.grp"
    from fusionaudit.groupfile import load_group_file
    G = load_group_file(str(path))
    assert G.order == 128


def test_cli_max_order_cap(tmp_path, capsys):
    path = tmp_path / "z4.grp"
    path.write_text(Z4_TABLE)
    assert main(["scan", "--group", f"file:{path}", "--max-order", "2"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_cli_max_order_leaves_builtin_groups_alone(capsys):
    # --max-order caps file groups only; a builtin group's scan is unchanged.
    assert main(["scan", "--group", "builtin:q8", "--report", "json"]) == 0
    plain = capsys.readouterr().out
    assert main(["scan", "--group", "builtin:q8", "--report", "json",
                 "--max-order", "1"]) == 0
    assert capsys.readouterr().out == plain


# ASCII decimal digits only: int() would also take "1_0", "+5", " 7" and Arabic-Indic 12.
@pytest.mark.parametrize("value", ["-5", "0", "1025", "100000000", "two",
                                   "1_0", "+5", " 7", "\u0661\u0662"])
def test_cli_max_order_must_be_within_the_cap(value, capsys):
    assert main(["scan", "--group", "builtin:q8", "--max-order", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--max-order: must be an integer from 1 to 1024" in err


# Each usage error with what its message must name: the option or the value.
# Options are spelled in full, so `--all` and `--table` are not abbreviations.
USAGE_ERRORS = {
    "no_command": ([], "the command must be one of verify, scan, table"),
    "unknown_command": (["audit"], "'audit'"),
    "unknown_option": (["scan", "--bogus"], "'--bogus'"),
    "verify_option_on_scan": (["scan", "--all-lambdas"], "'--all-lambdas'"),
    "table_option_on_verify": (["verify", "--table-method", "both"], "'--table-method'"),
    "missing_value": (["scan", "--group"], "--group: expected a value"),
    "bad_report": (["scan", "--report", "xml"], "'xml'"),
    "bad_table_method": (["table", "--table-method=none"], "'none'"),
    "abbreviated_all_lambdas": (["verify", "--all"], "'--all'"),
    "abbreviated_table_method": (["table", "--table", "both"], "'--table'"),
    "flag_with_a_value": (["verify", "--all-lambdas=yes"], "'--all-lambdas=yes'"),
    "empty_out": (["scan", "--group", "builtin:q8", "--out", ""], "--out: must name a file"),
    "empty_out_inline": (["scan", "--out="], "--out: must name a file"),
    "unknown_builtin": (["scan", "--group", "builtin:nope"], "'builtin:nope'"),
    "empty_file_path": (["scan", "--group", "file:"], "'file:'"),
    "bad_group_before_a_good_one": (["scan", "--group", "q8", "--group", "builtin:q8"],
                                    "--group: must be builtin:<g128|q8|h16> or file:<path>, got 'q8'"),
    "table_method_off_g128": (["table", "--group", "builtin:q8", "--table-method", "both"],
                              "--table-method both applies to the construction"),
}


@pytest.mark.parametrize("argv, named", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_cli_usage_errors_exit_2(argv, named, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: fusion-audit")
    assert error.startswith("fusion-audit: error: ") and named in error
    assert "Traceback" not in captured.err
    assert captured.out == ""           # no report, not even for an empty --out


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *cli.COMMANDS], ids=["program", *cli.COMMANDS])
def test_cli_help_lists_the_options_of_its_command(command, flag, capsys):
    assert main([flag] if command is None else [command, "--report", "json", flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command is None:
        assert captured.out.startswith("usage: fusion-audit [-h] {verify,scan,table} ...\n")
        assert all(f"\n  {name} " in captured.out for name in cli.COMMANDS)
        return
    assert captured.out.startswith(f"usage: fusion-audit {command} [-h] [--group GROUP] ")
    options = cli.COMMANDS[command][1]
    assert all(f"\n  {opt} " in captured.out for opt in options)
    others = {opt for _, opts in cli.COMMANDS.values() for opt in opts} - set(options)
    assert not any(opt in captured.out for opt in others)


def test_cli_options_take_inline_values_and_the_last_one_wins(capsys):
    assert main(["scan", "--group", "builtin:q8", "--report", "json"]) == 0
    spaced = capsys.readouterr().out
    assert main(["scan", "--group=builtin:q8", "--report=json"]) == 0
    assert capsys.readouterr().out == spaced
    assert main(["scan", "--group", "builtin:g128", "--report", "text",
                 "--group", "builtin:q8", "--report=json"]) == 0
    assert capsys.readouterr().out == spaced
