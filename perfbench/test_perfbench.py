"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
import copy
import json
import random
from pathlib import Path

import pytest

import inputs
import oracle
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_generator_is_seeded():
    make = inputs.dihedral_file
    assert make(random.Random(5)) == make(random.Random(5))
    assert make(random.Random(5))[0] != make(random.Random(6))[0]


def test_generator_counts_from_its_construction():
    assert inputs.dihedral_file(random.Random(5))[1] == {"order": 120,
                                                         "square_roots_of_1": 62}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_every_workload_at_tiny_size(name):
    untraced = run.run_workload(name, seed=3, seconds=0, traced=False, tiny=True)
    assert (untraced["correct"], untraced["failed"]) == (True, 0)
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = run.run_workload(name, seed=3, seconds=0, traced=True, tiny=True)
    assert (traced["correct"], traced["failed"]) == (True, 0)   # includes fidelity
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def tiny_reports(tmp_path_factory):
    """(report, facts): a table and a scan report of one tiny dihedral file."""
    work = tmp_path_factory.mktemp("reports")
    commands, facts = next(run.op_inputs("dihedral120-table", 11, work, tiny=True))
    group = commands[0][commands[0].index("--group") + 1]
    op = run.cli_op([commands[0], ["scan", "--group", group]], facts, False, work)
    assert op.problems == []
    return [(json.loads(report), facts) for report in op.reports]


def _rows(report):
    if report["command"] == "table":
        return report["table"]["irreducibles"]
    return None


def flip_indicator(report):
    bad = copy.deepcopy(report)
    rows = _rows(bad)
    if rows is not None:
        row = next(r for r in rows if r["indicator"] == 1)
        row["indicator"] = -1
    else:
        bad["indicators"][bad["indicators"].index(1)] = -1
    return bad


def drop_irreducible(report):
    bad = copy.deepcopy(report)
    rows = _rows(bad)
    if rows is not None:
        rows.pop()
    else:
        bad["degrees"].pop()
        bad["indicators"].pop()
    return bad


@pytest.mark.parametrize("corrupt", [flip_indicator, drop_irreducible])
def test_oracle_rejects_corrupted_reports(tiny_reports, corrupt):
    for report, facts in tiny_reports:
        assert oracle.check_report(report, facts) == []
        assert oracle.check_report(corrupt(report), facts) != []


def test_benchmark_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "g128-paper", "--seed", "1", "--seconds", "1"]) == 2
