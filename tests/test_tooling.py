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


def test_runtime_imports_only_the_standard_library():
    # Every import in the package is relative or names a stdlib module.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_dataclasses_in_src():
    # dataclasses pulls in inspect and generates code at import, which every
    # CLI child would pay for; the record classes are plain __slots__ classes.
    # fractions (which loads decimal and numbers) is not needed either: the
    # one exact number type is Cyclotomic.
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in ("dataclass", "fractions")
             if name in path.read_text(encoding="utf-8")]
    assert found == []


def test_no_duck_typed_operands_in_src():
    # Cyclotomic's operands are a same-field Cyclotomic or an int, so no
    # source file probes a value with hasattr or reads a Rational's parts.
    rational_parts = ("numerator", "denominator")
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "hasattr")
             or (isinstance(node, ast.Attribute) and node.attr in rational_parts)
             or (isinstance(node, ast.Constant) and node.value in rational_parts)]
    assert found == []


# Modules the CLI loads only for a command that runs them (dataclasses, inspect
# and the last three: never).
WATCHED = ("dataclasses", "inspect", "fusionaudit.groupfile", "fusionaudit.construction",
           "fusionaudit.gf2", "fusionaudit.constructive", "fractions", "decimal", "numbers")


def _modules_after(code, tmp_path):
    """The watched modules a fresh interpreter has loaded after running code."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = (code + "\nimport sys\nprint(sorted(m for m in sys.modules if m in "
             f"{WATCHED!r}))\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_cli_import_skips_dataclasses_and_inspect(tmp_path):
    assert _modules_after("import fusionaudit.cli", tmp_path) == "[]"


def test_builtin_scan_does_not_load_the_group_file_parser(tmp_path):
    code = ("from fusionaudit import cli\n"
            "assert cli.main(['scan', '--group', 'builtin:q8', '--out', 'q8.json']) == 0")
    assert _modules_after(code, tmp_path) == "[]"
    assert (tmp_path / "q8.json").read_text().startswith("group: builtin:q8")


def test_each_command_loads_only_the_layers_it_runs(tmp_path, d30_file):
    # A table file needs the parser but not the GF(2) algebra (a `table`
    # file, not `semidirect-gf2`), the construction or the constructive route.
    # No command loads fractions: every exact value is a Cyclotomic.
    code = ("from fusionaudit import cli\n"
            f"assert cli.main(['table', '--group', 'file:{d30_file}']) == 0")
    assert _modules_after(code, tmp_path) == "['fusionaudit.groupfile']"
    constructive = ("['fusionaudit.construction', 'fusionaudit.constructive', "
                    "'fusionaudit.gf2']")
    code = "from fusionaudit import cli\nassert cli.main(['verify']) == 0"
    assert _modules_after(code, tmp_path) == constructive
    code = ("from fusionaudit import cli\nassert cli.main(['table', '--group', "
            "'builtin:g128', '--table-method', 'both']) == 0")
    assert _modules_after(code, tmp_path) == constructive


def test_table_report_is_identical_under_python_O(d30_file, d120_file):
    # The Dixon guards raise explicitly, so -O changes nothing in the report.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for path in (d30_file, d120_file):
        args = ["-m", "fusionaudit.cli", "table", "--group", f"file:{path}",
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


def test_table_self_check_raises_under_python_O():
    # _checked raises explicitly: -O must not turn a corrupted table into a pass.
    code = ("from fusionaudit.characters import _checked, dixon_table\n"
            "from fusionaudit.groups import q8_group\n"
            "from oracles import rebuild\n"
            "bad = rebuild(dixon_table(q8_group()), class_rep_orders=(1, 2, 2, 4, 4))\n"
            "try:\n"
            "    _checked(bad)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
            "else:\n"
            "    print('passed')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), str(pathlib.Path(__file__).resolve().parent)]))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("raised: Frobenius-Schur count"), run.stdout


def test_lift_split_check_exits_1_under_python_O():
    # A corrupted power sum leaves an eigenvalue polynomial that does not
    # split; the lift raises explicitly, so -O still reports an internal error.
    code = ("import sys\n"
            "from fusionaudit import characters, cli\n"
            "real = characters._eigenvalues\n"
            "characters._eigenvalues = lambda sums, roots, p: "
            "real([(sums[0] + 1) % p, *sums[1:]], roots, p)\n"
            "sys.exit(cli.main(['table', '--group', 'builtin:q8']))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("internal check failed: power sums"), run.stderr
    assert "does not split" in run.stderr and "Traceback" not in run.stderr
