"""Checks on the source tree itself and on how it runs."""
import ast
import os
import pathlib
import subprocess
import sys

from test_audit import LOOP5_TABLE

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fusionaudit"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements; checks must raise explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_table_report_is_identical_under_python_O(d30_file):
    # The Dixon guards raise explicitly, so -O changes nothing in the report.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    args = ["-m", "fusionaudit.cli", "table", "--group", f"file:{d30_file}",
            "--report", "json"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *args], env=env,
                       capture_output=True, timeout=120)
        for flags in ([], ["-O"]))
    assert plain.returncode == 0 and optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    assert b'"dixon_prime"' in plain.stdout


def test_non_associative_table_exits_2_under_python_O(tmp_path):
    # Light's test raises explicitly, so -O cannot let a loop through.
    loop = tmp_path / "loop5.grp"
    loop.write_text(LOOP5_TABLE)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-O", "-m", "fusionaudit.cli", "table",
                          "--group", f"file:{loop}"], env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 2
    assert b"associativity fails" in run.stderr
