"""The `fusion-audit` command line: its commands and their options are the table COMMANDS."""
from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from . import audit
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, elementary_abelian_16, q8_group

if TYPE_CHECKING:
    from .construction import ConstructedGroup


BUILTINS = ("g128", "q8", "h16")
GROUP_FORMS = f"builtin:<{'|'.join(BUILTINS)}> or file:<path>"


def _resolve_group(spec: str, max_order: int) -> Tuple[FiniteGroup, Optional[ConstructedGroup]]:
    """The group of a spec that parse_args accepted; groupfile loads only for a file."""
    kind, _, name = spec.partition(":")
    if kind == "file":
        from . import groupfile
        return groupfile.load_group_file(name, max_order=max_order), None
    if name == "g128":
        from . import construction
        cg = construction.build_default()
        return cg.group, cg
    return (q8_group() if name == "q8" else elementary_abelian_16()), None


def _emit(report: audit.AuditReport, fmt: str, out: Optional[str]) -> None:
    text = report.to_json() if fmt == "json" else report.to_text()
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _order_cap(text: str) -> int:
    # int() alone would read a sign, spaces, `_`, other scripts' digits, and at most 4300 digits.
    digits = text.lstrip("0")
    n = int(digits) if text.isascii() and text.isdigit() and 0 < len(digits) <= 4 else 0
    if not 1 <= n <= DEFAULT_ORDER_CAP:
        raise ValueError(
            f"--max-order: must be an integer from 1 to {DEFAULT_ORDER_CAP}, got {text!r}")
    return n


# Each command's help line and options, and each option's default, allowed values
# (a tuple) or converter (None: a flag, which takes no value and sets True), and help line.
_COMMON = {
    "--group": ("builtin:g128", str, GROUP_FORMS),
    "--report": ("text", ("text", "json"), "the report's format"),
    "--out": (None, str, "write the report to a file"),
    "--max-order": (DEFAULT_ORDER_CAP, _order_cap, "size cap for file groups, 1..1024"),
}
COMMANDS = {
    "verify": ("run the six-claim pipeline", {**_COMMON, "--all-lambdas": (
        False, None, "repeat the pipeline for every valid covector")}),
    "scan": ("run the three conjecture scans", _COMMON),
    "table": ("print a character table", {**_COMMON, "--table-method": (
        "dixon", ("dixon", "constructive", "both"), "the route to the characters")}),
}


def _usage(command: str, error: Optional[str] = None) -> int:
    """Print a command's help, return 0; with an error, its usage line and the error, return 2."""
    if command in COMMANDS:
        intro, options = COMMANDS[command]
        rows = [(opt if kind is None else f"{opt} {{{','.join(kind)}}}" if isinstance(kind, tuple)
                 else f"{opt} {opt[2:].upper()}", doc) for opt, (_, kind, doc) in options.items()]
        usage = f"usage: fusion-audit {command} [-h] " + " ".join(f"[{name}]" for name, _ in rows)
    else:
        intro = "Exact character-theory audit of fusion-rule positivity."
        rows = [(name, text) for name, (text, _) in COMMANDS.items()]
        usage = "usage: fusion-audit [-h] {" + ",".join(COMMANDS) + "} ..."
    if error is not None:
        print(usage, f"fusion-audit: error: {error}", sep="\n", file=sys.stderr)
        return 2
    print(usage, "", intro, "", *(f"  {name:<22}  {text}" for name, text in rows), sep="\n")
    return 0


def parse_args(argv: List[str]) -> Tuple[str, Optional[Dict[str, object]]]:
    """The command and its option values, or None for -h; a usage error raises ValueError."""
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        return command, None
    if command not in COMMANDS:
        raise ValueError(f"the command must be one of {', '.join(COMMANDS)}, got {command!r}")
    options = COMMANDS[command][1]
    values = {opt: default for opt, (default, _, _) in options.items()}
    groups = []                         # every --group value, checked after the verify guard
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        opt, eq, value = token.partition("=")
        if opt not in options or eq and options[opt][1] is None:
            raise ValueError(f"{command} has no option {token!r}")
        kind = options[opt][1]
        if kind is not None:
            value = value if eq else next(tokens, None)
            if value is None:
                raise ValueError(f"{opt}: expected a value")
            if isinstance(kind, tuple) and value not in kind:
                raise ValueError(f"{opt}: {value!r} is not one of {', '.join(kind)}")
        values[opt] = True if kind is None else value if isinstance(kind, tuple) else kind(value)
        if opt == "--group":
            groups.append(value)
    if values["--out"] == "":
        raise ValueError("--out: must name a file, got ''")
    method = values.get("--table-method", "dixon")
    if (command == "verify" or method != "dixon") and values["--group"] != "builtin:g128":
        needs = command if command == "verify" else f"--table-method {method}"
        raise ValueError(f"{needs} applies to the construction; use --group builtin:g128")
    for group in groups:
        kind, _, name = group.partition(":")
        if not (kind == "builtin" and name in BUILTINS or kind == "file" and name):
            raise ValueError(f"--group: must be {GROUP_FORMS}, got {group!r}")
    return command, values


def main(argv=None) -> int:
    """Run a command and return its exit code; nothing, not even -h, raises SystemExit."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, opts = parse_args(argv)
    except ValueError as exc:
        return _usage(argv[0] if argv else "", str(exc))
    if opts is None:
        return _usage(command)
    t0 = time.monotonic()
    try:
        try:
            G, cg = _resolve_group(opts["--group"], opts["--max-order"])
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if command == "verify":
            report = (audit.verify_all_lambdas(cg) if opts["--all-lambdas"]
                      else audit.verify_claims(cg=cg))
        elif command == "scan":
            report = audit.scan_report(opts["--group"], G)
        else:
            report = audit.table_report(opts["--group"], G, method=opts["--table-method"], cg=cg)
    except (ValueError, AssertionError) as exc:
        # The input was accepted: a computed value or self-check failed.
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(report, opts["--report"], opts["--out"])
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
