"""The traced run: the program's CLI called in-process, one span per layer call.

``instrument`` wraps the public functions of each layer for the duration of
a ``with`` block; every call records a span (name, start, end, parent span,
op id) and the counts read off its arguments and result.  ``run_cli`` calls
``fusionaudit.cli.main`` itself, as a fresh process would, and returns the
JSON report, so the benchmark can check it byte for byte against the
report of the CLI run as a child process.

A span's self time is its duration minus the durations of its children.
"""
from __future__ import annotations

import functools
import io
import statistics
import sys
import traceback
import weakref
from contextlib import contextmanager, redirect_stderr
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Layer spans, in pipeline order.  Each is reported as "<name>_s".
LAYERS = (
    "construction.find_q8_in_gl42",
    "construction.build_g",
    "groupfile.load_group_file",
    "groups.check_axioms",
    "groups.conjugacy_classes",
    "characters.dixon_table",
    "characters.fusion_tensor",
    "characters.indicators",
    "audit.positivity_scan",
    "audit.wang_scan",
    "audit.odd_rule_scan",
    "audit.verify_all_lambdas",
    "audit.constructive_data",
    "audit.table_to_dict",
    "audit.to_json",
)

# Work counts, summed over the spans of one op.  The spans also record
# properties of the input group and of the verdict (groups.order,
# groups.classes, groups.exponent, characters.dixon_prime,
# characters.irreducibles, cyclotomic.width, audit.findings); those are kept
# in the trace file, not reported as metrics: a lower value would mean a
# wrong answer, not less work.
COUNTS = (
    "groupfile.tokens",
    "groups.check_axioms_triples",
    "characters.lift_terms",
    "characters.fusion_triples",
    "characters.fusion_nonzero",
)


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


class Tracer:
    """Spans kept in memory; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: List[Dict] = []
        self.op: Optional[int] = None
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec["counts"] = count(*args, result)
            return result
        return traced

    def op_spans(self, op: int) -> List[Dict]:
        return [s for s in self.spans if s["op"] == op]

    def self_times(self, op: int) -> Dict[str, float]:
        """Seconds of self time per span name within one op."""
        spans = self.op_spans(op)
        child_time = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s in spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def counts(self, op: int) -> Dict[str, int]:
        spans = self.op_spans(op)
        return {k: sum(s["counts"].get(k, 0) for s in spans) for k in COUNTS}


def _file_tokens(path, *_rest) -> Dict[str, int]:
    with open(path, encoding="utf-8") as fh:
        return {"groupfile.tokens": sum(len(line.split("#", 1)[0].split())
                                        for line in fh)}


def _dixon_counts(G, *rest) -> Dict[str, int]:
    table = rest[-1]
    r, n = len(table.irreducibles), table.root_order
    return {"groups.exponent": n, "characters.dixon_prime": table.prime,
            "characters.irreducibles": r, "characters.lift_terms": r * r * n * n,
            "cyclotomic.width": euler_phi(n)}


def _fusion_counts(table, N) -> Dict[str, int]:
    r = len(N)
    return {"characters.fusion_triples": r * r * (r + 1) // 2,
            "characters.fusion_nonzero": sum(1 for p in range(r) for q in range(p, r)
                                             for v in N[p][q] if v)}


def _findings(*args) -> Dict[str, int]:
    return {"audit.findings": len(args[-1])}


@contextmanager
def instrument(tracer: Tracer):
    """Wrap each layer's public functions; restore them on exit."""
    from fusionaudit import audit, characters, cli, construction, groupfile, groups

    # (span name, count function, every (owner, attribute) that holds it)
    points = [
        ("cli.main", None, [(cli, "main")]),
        ("construction.find_q8_in_gl42", None, [(construction, "find_q8_in_gl42")]),
        ("construction.build_g", None, [(construction, "build_g")]),
        ("groupfile.load_group_file", _file_tokens, [(groupfile, "load_group_file")]),
        ("groups.check_axioms",
         lambda G, _: {"groups.check_axioms_triples": G.order ** 3},
         [(groups.FiniteGroup, "check_axioms")]),
        ("characters.dixon_table", _dixon_counts,
         [(characters, "dixon_table"), (audit, "dixon_table")]),
        ("characters.fusion_tensor", _fusion_counts,
         [(characters, "fusion_tensor"), (audit, "fusion_tensor")]),
        ("characters.indicators", None, [(characters.CharacterTable, "indicators")]),
        ("audit.positivity_scan", _findings, [(audit, "positivity_scan")]),
        ("audit.wang_scan", _findings, [(audit, "wang_scan")]),
        ("audit.odd_rule_scan", _findings, [(audit, "odd_rule_scan")]),
        ("audit.verify_all_lambdas", None, [(audit, "verify_all_lambdas")]),
        ("audit.constructive_data", None, [(audit, "constructive_data")]),
        ("audit.table_to_dict", None, [(audit, "table_to_dict")]),
        ("audit.to_json", None, [(audit.AuditReport, "to_json")]),
    ]
    saved = []
    for name, count, owners in points:
        wrapped = tracer.wrap(name, getattr(*owners[0]), count)
        for owner, attr in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    # Classes are cached on the group and asked for on every class lookup:
    # only the first call per group does the work, so only it gets a span.
    computed = weakref.WeakSet()
    classes = groups.FiniteGroup.conjugacy_classes

    def traced_classes(G):
        if G in computed:
            return classes(G)
        with tracer.span("groups.conjugacy_classes") as rec:
            result = classes(G)
        computed.add(G)
        rec["counts"] = {"groups.order": G.order, "groups.classes": len(result)}
        return result

    saved.append((groups.FiniteGroup, "conjugacy_classes", classes))
    groups.FiniteGroup.conjugacy_classes = traced_classes
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def clear_caches() -> None:
    """Empty the program's memo caches, as a fresh process starts."""
    for name, module in list(sys.modules.items()):
        if name.startswith("fusionaudit"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run_cli(argv: List[str], out: Path) -> Tuple[int, str, str]:
    """``fusionaudit.cli.main(argv)`` in this process, its caches emptied first.

    Returns the exit code, the JSON report and what the CLI wrote to stderr.
    """
    from fusionaudit import cli

    clear_caches()
    out.unlink(missing_ok=True)
    with redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main([*argv, "--report", "json", "--out", str(out)])
        except Exception:               # a child process would die with exit code 1
            traceback.print_exc()
            code = 1
    report = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, report, err.getvalue()


def layer_metrics(tracer: Tracer, ops: List[int]) -> Dict[str, float]:
    """Median self time per layer over the ops, plus the first op's counts."""
    per_op = [tracer.self_times(op) for op in ops]
    out = {f"{name}_s": statistics.median(t.get(name, 0.0) for t in per_op)
           for name in LAYERS}
    out.update(tracer.counts(ops[0]))
    return out
