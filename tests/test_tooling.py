"""Checks on the source tree itself and on how it runs."""
import ast
import graphlib
import json
import os
import pathlib
import subprocess
import sys
import time
import types

import pytest

from conftest import cayley_table, dihedral_mul
from test_audit import LOOP5_TABLE
from test_faults import CASES, arrange, raise_sites

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fusionaudit"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements; checks must raise explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_src_module_defines_the_oracle_operations():
    # The character routes read g^-1 from the power map, and no value is
    # negated, subtracted or hashed: conjugation, the Galois action, zeta,
    # negation and subtraction are the tests' oracles (tests/oracles.py), and
    # Cyclotomic, compared by value, is not hashable.
    oracle_only = {"conjugate", "galois", "zeta", "__neg__", "__sub__", "__rsub__", "__hash__"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name in oracle_only
             or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
             and node.id in oracle_only]
    assert found == []


def test_every_raise_in_src_has_a_fault_case():
    # test_faults makes each raise fire and checks its message; a raise
    # added without a case, or a case left behind by a removed raise, fails here.
    keys = [site.key for site in raise_sites()]
    assert len(keys) == len(set(keys)), "two raises in one function share a message"
    assert sorted(set(keys) - set(CASES.values())) == [], "raises without a case"
    assert sorted(set(CASES.values()) - set(keys)) == [], "cases without a raise"


def _src_defs():
    """Every def in src/ as (file, first line) -> module.qualified.name.  The
    first line is its first decorator's, if any, as in its code object."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    if isinstance(child, ast.FunctionDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        defs[str(path), first] = ".".join((path.stem, *scope, child.name))
                    visit(child, scope + (child.name,))
                else:
                    visit(child, scope)
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return defs


def _defs_at(places, defs):
    """The names of the defs whose code starts at one of the (file, line) places."""
    resolved = {(str(pathlib.Path(path).resolve()), line) for path, line in places}
    return {name for at, name in defs.items() if at in resolved}


# A small corpus of commands: the builtin groups, a `table` file, a
# `semidirect-gf2` file and a few bad inputs, each run by cli.main in one
# interpreter that a profile hook watches from before the package is imported.
CORPUS = [
    ["verify"], ["verify", "--all-lambdas", "--report", "json"], ["scan"],
    ["table", "--table-method", "both"], ["table", "--table-method", "constructive"],
    ["scan", "--group", "builtin:q8", "--report", "json"], ["table", "--group", "builtin:h16"],
    ["table", "--group", "file:s3.grp", "--max-order", "16"], ["scan", "--group", "file:swap.grp"],
    ["scan", "--group", "builtin:nope"], ["scan", "--group", "q8"],
    ["table", "--group", "builtin:q8", "--table-method", "both"],
    ["table", "--group", "file:zero.grp"], ["table", "--group", "file:loop5.grp"],
    ["scan", "--group", "builtin:q8", "--out", "missing/report.json"],
    ["table", "--max-order", "0"],
]
CORPUS_FILES = {
    "s3.grp": "table 6\n" + "".join(" ".join(map(str, row)) + "\n"
                                    for row in cayley_table(6, dihedral_mul(3))),
    "swap.grp": "semidirect-gf2\ngen A 0100 1000 0010 0001\nrel A^2\nrel A^-1*A\n",
    "zero.grp": "table 0\n",
    "loop5.grp": LOOP5_TABLE,
}
PROFILED_CORPUS = f"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
places = set()
sys.setprofile(lambda frame, event, arg: event == "call" and places.add(
    (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
from fusionaudit import cli
for argv in {CORPUS!r}:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted(places)))
"""

# The defs no command in the corpus calls, each with the test_faults case
# that does: they run only on a fault.
FAULT_ONLY = {
    "cyclotomic.Cyclotomic.__repr__": "half_is_not_an_integer",    # as_integer's message
}


def test_every_src_function_runs_under_a_command(tmp_path, request):
    for name, text in CORPUS_FILES.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    start = time.monotonic()
    run = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-c", PROFILED_CORPUS],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - start
    assert run.returncode == 0, run.stderr
    defs = _src_defs()
    by_corpus = _defs_at(json.loads(run.stdout), defs)
    assert elapsed < 5, f"the profiled corpus took {elapsed:.1f} s"
    assert sorted(set(defs.values()) - by_corpus - set(FAULT_ONLY)) == []
    assert sorted(by_corpus & set(FAULT_ONLY)) == [], "a command now calls these"

    cases = {case.__name__: case for case in CASES}
    for name, case_name in FAULT_ONLY.items():
        fault = arrange(cases[case_name], request)
        places = set()
        sys.setprofile(lambda frame, event, arg: event == "call" and places.add(
            (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
        try:
            with pytest.raises(Exception):
                fault.call()
        finally:
            sys.setprofile(None)
        assert name in _defs_at(places, defs), case_name


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


def test_src_imports_run_one_way_and_read_no_private_names():
    # Each src module imports the modules below it and only their public
    # names.  Imports inside functions and under TYPE_CHECKING count too.
    graph, private = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        deps, bound = graph.setdefault(path.stem, set()), {}   # bound: local name -> module
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if node.module:     # from .module import name, ...
                deps.add(node.module)
                private += [f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
            else:               # from . import module, ...
                deps.update(alias.name for alias in node.names)
                bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
        private += [f"{path.name}:{node.lineno}: {bound[node.value.id]}.{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in bound]
    try:
        graphlib.TopologicalSorter(graph).prepare()
        cycle = []
    except graphlib.CycleError as exc:
        cycle = exc.args[1]
    assert cycle == []
    assert private == []


def test_only_cyclotomic_reads_its_basis():
    # The basis is cyclotomic's own decision: every other module and test
    # reads a value through Cyclotomic.terms() and .den, so a change of basis
    # is an edit to that one module (the tests keep their own power basis).
    private = {"_basis", "_reduce"}
    tests = pathlib.Path(__file__).resolve().parent
    found = sorted({f"{path.relative_to(tests.parent)}:{node.lineno}"
                    for path in sorted(SRC.glob("*.py")) + sorted(tests.rglob("*.py"))
                    if path != SRC / "cyclotomic.py"
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Attribute) and node.attr in private | {"num"}
                    or isinstance(node, ast.ImportFrom)
                    and any(alias.name in private for alias in node.names)})
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
# and the last six: never; the command line is read from cli.COMMANDS, not by
# argparse, which loads gettext, and gettext loads locale).
WATCHED = ("dataclasses", "inspect", "fusionaudit.groupfile", "fusionaudit.construction",
           "fusionaudit.gf2", "fusionaudit.constructive", "fractions", "decimal", "numbers",
           "argparse", "gettext", "locale")


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
    # A usage error is found from argv alone, before the file is read.
    code = ("from fusionaudit import cli\n"
            f"assert cli.main(['table', '--group', 'file:{d30_file}', "
            "'--table-method', 'both']) == 2")
    assert _modules_after(code, tmp_path) == "[]"
    constructive = ("['fusionaudit.construction', 'fusionaudit.constructive', "
                    "'fusionaudit.gf2']")
    code = "from fusionaudit import cli\nassert cli.main(['verify']) == 0"
    assert _modules_after(code, tmp_path) == constructive
    code = "from fusionaudit import cli\nassert cli.main(['verify', '--all-lambdas']) == 0"
    assert _modules_after(code, tmp_path) == constructive
    code = ("from fusionaudit import cli\n"
            "assert cli.main(['scan', '--group', 'builtin:g128']) == 0")
    assert _modules_after(code, tmp_path) == "['fusionaudit.construction', 'fusionaudit.gf2']"
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
            "bad = rebuild(dixon_table(q8_group()))\n"
            "bad._indicators = (1,) * 5\n"
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
            "characters._eigenvalues = lambda sums, roots, p, cls: "
            "real([(sums[0] + 1) % p, *sums[1:]], roots, p, cls)\n"
            "sys.exit(cli.main(['table', '--group', 'builtin:q8']))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("internal check failed: power sums"), run.stderr
    assert "does not split" in run.stderr and "Traceback" not in run.stderr


def _benchmark_tracing():
    """perfbench/tracing.py as a module, compiled from its text: nothing is
    written next to it."""
    path = SRC.parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("benchmark_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_benchmark_tracing_wraps_live_functions(tmp_path, d30_file):
    # The benchmark's per-layer spans wrap functions by name; a renamed one
    # would fail here rather than only in the benchmark's own tests.  The
    # last three commands are the g128-paper workload's op.
    tracing = _benchmark_tracing()
    commands = [["scan", "--group", "builtin:q8"], ["table", "--group", f"file:{d30_file}"],
                ["verify", "--all-lambdas"], ["scan", "--group", "builtin:g128"],
                ["table", "--group", "builtin:g128", "--table-method", "both"]]
    plain = [tracing.run_cli(argv, tmp_path / "plain.json")[:2] for argv in commands]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        runs = [tracing.run_cli(argv, tmp_path / "traced.json") for argv in commands]
    assert all("Traceback" not in err for _, _, err in runs), runs
    assert [run[:2] for run in runs] == plain
    assert [code for code, _ in plain] == [0] * 5 and all(report for _, report in plain)
    names = {span["name"] for span in tracer.spans}
    assert names >= {"groups.check_axioms", "groups.conjugacy_classes",
                     "audit.verify_all_lambdas", "audit.constructive_data",
                     "construction.build_g", "construction.find_q8_in_gl42"}


def test_benchmark_tracing_returns_the_exit_code_of_bad_usage_and_help(tmp_path, capsys):
    # cli.main returns these codes rather than raising SystemExit, so a traced
    # op with a bad argv counts as a failed op instead of ending the run.
    tracing = _benchmark_tracing()
    code, report, err = tracing.run_cli(["scan", "--bogus"], tmp_path / "bogus.json")
    assert (code, report) == (2, "")
    assert err.startswith("usage: fusion-audit scan ") and "'--bogus'" in err
    code, report, err = tracing.run_cli(["-h"], tmp_path / "help.json")
    assert (code, report, err) == (0, "", "")
    assert capsys.readouterr().out.startswith("usage: fusion-audit [-h] ")
