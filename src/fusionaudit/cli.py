"""Command-line driver.

Subcommands:
  verify   build the order-128 counterexample and check all six claims
  scan     run the three conjecture scans on a built-in or file group
  table    print a character table (dixon / constructive / both)

Group selectors are `builtin:<name>` (g128, q8, h16) or `file:<path>`.
"""
from __future__ import annotations

# audit (with characters, cyclotomic and groups) is imported before argparse:
# with no bytecode cache, each command's peak RSS is then 0.15-0.3 MB lower.
from . import audit

import argparse
import sys
import time
from typing import TYPE_CHECKING, Optional, Tuple

from .groups import DEFAULT_ORDER_CAP, FiniteGroup

if TYPE_CHECKING:
    from .construction import ConstructedGroup


def _resolve_group(spec: str, max_order: int) -> Tuple[FiniteGroup, Optional[ConstructedGroup]]:
    if spec.startswith("builtin:"):
        return audit.builtin_group(spec.split(":", 1)[1])
    if spec.startswith("file:"):
        # Imported here so the builtin groups never load the file parser.
        from . import groupfile
        path = spec.split(":", 1)[1]
        return groupfile.load_group_file(path, max_order=max_order), None
    raise ValueError(f"group spec must be builtin:<name> or file:<path>, got {spec!r}")


def _emit(report: audit.AuditReport, fmt: str, out: Optional[str]) -> None:
    text = report.to_json() if fmt == "json" else report.to_text()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _order_cap(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 1 <= n <= DEFAULT_ORDER_CAP:
        raise argparse.ArgumentTypeError(
            f"must be an integer from 1 to {DEFAULT_ORDER_CAP}, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusion-audit",
        description="Exact character-theory audit of fusion-rule positivity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", default="builtin:g128",
                       help="builtin:<g128|q8|h16> or file:<path>")
        p.add_argument("--report", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report to a file")
        p.add_argument("--max-order", type=_order_cap, default=DEFAULT_ORDER_CAP,
                       help="size cap for loaded groups, 1..1024 (default 1024)")

    p_verify = sub.add_parser("verify", help="run the six-claim pipeline")
    common(p_verify)
    p_verify.add_argument("--all-lambdas", action="store_true",
                          help="repeat the pipeline for every valid covector")

    p_scan = sub.add_parser("scan", help="run the three conjecture scans")
    common(p_scan)

    p_table = sub.add_parser("table", help="print a character table")
    common(p_table)
    p_table.add_argument("--table-method",
                         choices=("dixon", "constructive", "both"),
                         default="dixon")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.group != "builtin:g128":
        parser.error("verify applies to the construction; use --group builtin:g128")
    t0 = time.monotonic()
    try:
        try:
            G, cg = _resolve_group(args.group, args.max_order)
            if args.command == "table":
                audit.check_table_method(args.table_method, cg)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.command == "verify":
            report = (audit.verify_all_lambdas(cg) if args.all_lambdas
                      else audit.verify_claims(cg=cg))
        elif args.command == "scan":
            report = audit.scan_report(args.group, G)
        else:
            report = audit.table_report(args.group, G, method=args.table_method, cg=cg)
    except (ValueError, AssertionError) as exc:
        # The input was accepted: a computed value or self-check failed.
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(report, args.report, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
