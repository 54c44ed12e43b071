"""Fuzzing of the group-file loader and the CLI.

Whatever the input, `cli.main` returns (or argparse exits with) 0, 1 or 2,
writes no traceback to stderr and lets no other exception escape.  Sizes
are bounded (groups of order at most 16) and the runs are derandomized.
"""
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cayley_table, dihedral_mul
from fusionaudit.cli import main
from fusionaudit.groups import Q8_TABLE


def _table_text(table):
    return f"table {len(table)}\n" + "\n".join(" ".join(map(str, row)) for row in table)


BASES = [
    "table 1\n0",
    _table_text(cayley_table(4, lambda x, y: (x + y) % 4)),
    _table_text(cayley_table(6, dihedral_mul(3))),
    _table_text(Q8_TABLE),
    "semidirect-gf2\ngen A\n1000\n0100\n0010\n0001\nrel A^2",     # F2^4, order 16
]

# Tokens a mutation may write in place of another: out of range, not a
# number, huge, or a keyword of the other dialect.
ODD_TOKENS = ["-1", "0", "1", "16", "17", "99999999999999999999", "x", "1111", "0101",
              "table", "gen", "rel", "A^-3", "A*B", "semidirect-gf2"]


@st.composite
def mutated_file(draw):
    tokens = draw(st.sampled_from(BASES)).split()
    for _ in range(draw(st.integers(0, 3))):
        if not tokens:
            break
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(["drop", "swap", "replace", "truncate"]))
        if kind == "drop":
            del tokens[i]
        elif kind == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == "replace":
            tokens[i] = draw(st.sampled_from(ODD_TOKENS))
        else:
            tokens = tokens[:i]
    data = "\n".join(tokens).encode("utf-8")
    if draw(st.booleans()):                 # bytes that are not UTF-8
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff\xfe" + data[k:]
    return data


# Each option with the values a draw picks from, valid and not.
OPTIONS = {
    "--group": ["builtin:q8", "builtin:h16", "builtin:g128", "builtin:nope", "file:",
                "file:.", "file:missing.grp", "q8"],
    "--report": ["json", "text", "xml"],
    "--out": ["report.json", "missing-dir/report.json"],
    "--max-order": ["0", "16", "1024", "1025", "two"],
    "--table-method": ["dixon", "constructive", "both", "none"],
}


@st.composite
def argv(draw):
    out = [draw(st.sampled_from(["verify", "scan", "table", "nonsense", "-h"]))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from([*OPTIONS, "--all-lambdas", "--bogus"]))
        out.append(flag)
        if flag in OPTIONS and draw(st.integers(0, 9)):     # else the value is missing
            out.append(draw(st.sampled_from(OPTIONS[flag])))
    return out


def _exit_code(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse's usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), err.getvalue()
    return code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=mutated_file(), command=st.sampled_from(["scan", "table", "verify"]),
       report=st.sampled_from(["text", "json"]))
def test_cli_survives_mutated_group_files(fuzz_dir, data, command, report):
    path = fuzz_dir / "mutated.grp"
    path.write_bytes(data)
    _exit_code([command, "--group", f"file:{path}", "--report", report])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(args=argv())
def test_cli_survives_random_argv(fuzz_dir, args):
    # Run in a scratch directory: relative paths in argv resolve there.
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        _exit_code(args)
    finally:
        os.chdir(cwd)


def test_unmutated_bases_load(fuzz_dir):
    # The seeds of the mutations are groups, so mutations start from valid input.
    for i, text in enumerate(BASES):
        path = fuzz_dir / f"base{i}.grp"
        path.write_text(text)
        assert _exit_code(["scan", "--group", f"file:{path}"]) == 0
