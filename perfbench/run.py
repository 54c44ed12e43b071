"""fusion-audit benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is taken from ./src.

--trace 0 runs the real CLI (``python -m fusionaudit.cli``) in a fresh
child process per command, one child at a time (a closed loop with one
client), until the next op would overrun --seconds; every op runs at least
once.  One op is one CLI invocation, or the paper's three-command sequence
for g128-paper.  Next to every op it times a fresh interpreter that imports
fusionaudit.cli (set-up) and a fixed reference computation that does not
use the program.  It reports the median set-up seconds, the median child
peak RSS, and the median wall and child CPU time of an op in multiples of
the reference's (wall_rel, cpu_rel): the speed of a shared host swings by
up to 2x within minutes and moves the op and the reference alike.  The
summary line above the result also gives the op's median seconds.

--trace 1 runs one op through the CLI, then calls the CLI's entry point
in-process on each op's input twice: once plain and once with each layer's
public functions wrapped (perfbench/tracing.py), alternating which goes
first.  The first op's in-process reports must be byte-identical to the
child's.  It reports each layer's median self time, the layer work counts
and the tracing overhead (the median of traced minus plain seconds over the
ops), and writes every span to .perfbench/trace-<workload>-<seed>.json.

Every report is checked by perfbench/oracle.py.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
FILE = "{file}"                  # stands for the generated group file
SETUP_SAMPLES = 15               # set-up and reference samples per run, at least

# The reference computation: work of the kind the program does (a Cayley
# table, conjugation orbits kept in sets, modular dot products over lists),
# about 0.15 s on 2 shared vCPUs.  On this kind of host a plain arithmetic
# loop sped up more than the program in fast spells, so its ratio drifted.
REFERENCE = """\
n, m = 120, 60
t = [[((x // m) ^ (y // m)) * m + (x % m + (-1 if x // m else 1) * (y % m)) % m
      for y in range(n)] for x in range(n)]
inv = [row.index(0) for row in t]
orbits = {}
for rep in range(6):
    for g in range(n):
        orbits[rep, g] = frozenset(t[t[inv[x]][g]][x] for x in range(n))
rows = [[(i * j + 7) % 61 for j in range(n)] for i in range(56)]
acc = 0
for a in rows:
    for b in rows:
        acc = (acc + sum(x * y for x, y in zip(a, b))) % 61
"""


MakeInput = Callable[[random.Random], Tuple[str, Dict[str, int]]]


@dataclass(frozen=True)
class Workload:
    commands: Tuple[Tuple[str, ...], ...]
    make: Optional[MakeInput] = None        # None: the paper's built-in group
    tiny: Optional[MakeInput] = None        # a small instance, for the self-tests


WORKLOADS = {
    "g128-paper": Workload(
        (("verify", "--all-lambdas"),
         ("scan", "--group", "builtin:g128"),
         ("table", "--group", "builtin:g128", "--table-method", "both"))),
    "dihedral120-table": Workload(
        (("table", "--group", FILE),),
        make=inputs.dihedral_file,
        tiny=lambda rng: inputs.dihedral_file(rng, m=6)),
}


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    reports: List[str]           # JSON text of each command's report
    problems: List[str]


def child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: List[str], stdout: str, stderr: str) -> Tuple[int, float, float, float]:
    """Run argv to completion; (exit code, wall s, user+sys s, peak RSS MB)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def check(reports: List[str], facts: Dict[str, int], paper: bool) -> List[str]:
    problems = []
    for text in reports:
        try:
            report = json.loads(text)
        except ValueError as exc:
            problems.append(f"report does not parse: {exc}")
            continue
        problems += oracle.check_report(report, facts, paper=paper)
    return problems


def cli_op(commands: List[List[str]], facts: Dict[str, int], paper: bool,
           work: Path) -> Op:
    """One op, each command run as a child process."""
    wall = cpu = rss = 0.0
    reports, problems = [], []
    for i, command in enumerate(commands):
        out, err = work / f"report{i}.json", work / f"stderr{i}.txt"
        code, w, c, r = spawn([sys.executable, "-m", "fusionaudit.cli", *command,
                               "--report", "json", "--out", str(out)],
                              os.devnull, str(err))
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if code != 0:
            problems.append(f"{' '.join(command)}: exit code {code}: "
                            + err.read_text(encoding="utf-8")[-500:])
            continue
        reports.append(out.read_text(encoding="utf-8"))
    problems += check(reports, facts, paper)
    return Op(wall, cpu, rss, reports, problems)


def in_process_op(commands: List[List[str]], facts: Dict[str, int], paper: bool,
                  work: Path) -> Op:
    """One op, each command a call of the CLI's entry point in this process."""
    reports, problems = [], []
    start = time.perf_counter()
    results = [tracing.run_cli(c, work / f"in-process{i}.json")
               for i, c in enumerate(commands)]
    wall = time.perf_counter() - start
    for command, (code, report, err) in zip(commands, results):
        if code != 0:
            problems.append(f"{' '.join(command)}: exit code {code}: {err[-500:]}")
            continue
        reports.append(report)
    problems += check(reports, facts, paper)
    return Op(wall, 0.0, 0.0, reports, problems)


def time_child(code_text: str, work: Path) -> Tuple[float, float]:
    """Wall and CPU seconds of a fresh interpreter running code_text."""
    err = work / "child-stderr.txt"
    code, wall, cpu, _ = spawn([sys.executable, "-c", code_text], os.devnull, str(err))
    if code != 0:
        raise RuntimeError(f"{code_text!r} failed: " + err.read_text(encoding="utf-8"))
    return wall, cpu


def op_inputs(name: str, seed: int, work: Path, tiny: bool = False
              ) -> Iterator[Tuple[List[List[str]], Dict[str, int]]]:
    """(command lines, facts) for op 0, 1, ...

    Each op of a file workload gets a fresh input drawn from the seeded
    generator, so a run's medians average over the labellings the seed
    draws; Dixon's cost, for one, depends on the order of the classes.
    """
    wl = WORKLOADS[name]
    if wl.make is None:
        commands = [list(c) for c in wl.commands]
        while True:
            yield commands, oracle.G128_FACTS
    rng = random.Random(seed)
    path = work / f"{name}.grp"
    commands = [[f"file:{path}" if a == FILE else a for a in c] for c in wl.commands]
    while True:
        text, facts = (wl.tiny if tiny else wl.make)(rng)
        path.write_text(text, encoding="utf-8")
        yield commands, facts


def run_untraced(inputs_, paper, work, seconds) -> Dict:
    setup: List[float] = []
    reference: List[Tuple[float, float]] = []

    def sample():
        setup.append(time_child("import fusionaudit.cli", work)[0])
        reference.append(time_child(REFERENCE, work))

    sample()                                # warms the file cache
    setup.clear()
    reference.clear()
    # One set-up and one reference sample before each op, the rest after
    # the last.
    ops: List[Op] = []
    start = time.perf_counter()
    for commands, facts in inputs_:
        sample()
        ops.append(cli_op(commands, facts, paper, work))
        if time.perf_counter() - start + ops[-1].wall_s > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        sample()
    raw = {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "cpu_s": statistics.median(op.cpu_s for op in ops),
        "reference_wall_s": statistics.median(w for w, _ in reference),
        "reference_cpu_s": statistics.median(c for _, c in reference),
    }
    metrics = {
        "wall_rel": (raw["wall_s"] / raw["reference_wall_s"], "ref"),
        "cpu_rel": (raw["cpu_s"] / raw["reference_cpu_s"], "ref"),
        "peak_rss_mb": (statistics.median(op.peak_rss_mb for op in ops), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return {"ops": ops, "metrics": metrics, "seconds": raw}


def run_traced(inputs_, paper, work, seconds, trace_path: Path) -> Dict:
    sys.path.insert(0, str(SRC))
    import fusionaudit.cli  # noqa: F401  (imported before any op is timed)

    commands, facts = next(inputs_)
    child = cli_op(commands, facts, paper, work)
    ops: List[Op] = [child]
    tracer = tracing.Tracer()
    overhead: List[float] = []
    start = time.perf_counter()
    while True:
        pair = {}
        # Alternate which side goes first, so a drift in host speed
        # favours neither.
        for traced in ((False, True) if len(overhead) % 2 == 0 else (True, False)):
            if not traced:
                pair[traced] = in_process_op(commands, facts, paper, work)
                continue
            tracer.op = len(overhead)
            with tracing.instrument(tracer), tracer.span("op"):
                pair[traced] = in_process_op(commands, facts, paper, work)
            tracer.op = None
        if not overhead:
            for op in pair.values():
                if op.reports != child.reports:
                    op.problems.append("in-process reports differ from the CLI's")
        ops += pair.values()
        overhead.append(pair[True].wall_s - pair[False].wall_s)
        elapsed = time.perf_counter() - start
        if elapsed + pair[True].wall_s + pair[False].wall_s > seconds:
            break
        commands, facts = next(inputs_)
    layers = tracing.layer_metrics(tracer, list(range(len(overhead))))
    layers["trace.overhead_s"] = statistics.median(overhead)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(
        {"spans": tracer.spans, "layers": layers, "overhead_samples_s": overhead},
        indent=1), encoding="utf-8")
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in layers.items()}
    return {"ops": ops, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 tiny: bool = False) -> Dict:
    """One benchmark run; returns the result object printed as the last line."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    paper = WORKLOADS[name].make is None
    try:
        inputs_ = op_inputs(name, seed, work, tiny)
        if traced:
            out = run_traced(inputs_, paper, work, seconds,
                             WORK / f"trace-{name}-{seed}.json")
        else:
            out = run_untraced(inputs_, paper, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [op for op in out["ops"] if op.problems]
    for op in failed:
        print("FAILED OP: " + "; ".join(op.problems)[:2000], file=sys.stderr)
    return {"correct": not failed, "attempted": len(out["ops"]), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
            "seconds": out.get("seconds", {})}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fusionaudit" / "cli.py").is_file():
        print(f"error: no fusionaudit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = [f"{k}={m['value']:.6g}{m['unit']}" for k, m in result["metrics"].items()]
    summary += [f"{k}={v:.6g}" for k, v in result.pop("seconds").items()]
    print(f"# {args.workload} seed={args.seed}: {result['attempted']} ops, "
          f"ops_failed_frac={result['failed'] / result['attempted']:.3g}; "
          + ", ".join(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
