"""Loader for the group-description text format.

Two dialects, selected by the first token:

  table           explicit n x n multiplication table of indices
  semidirect-gf2  F2^4 semidirect a matrix group generated by named
                  4x4 GF(2) matrices, with optional relation checks

The format is token-based and whitespace-insensitive, read a line at a
time; `#` starts a comment running to end of line.  See docs/group-file-format.md.
"""
from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .groups import DEFAULT_ORDER_CAP, FiniteGroup, TableError, closure

if TYPE_CHECKING:
    from . import gf2

# An integer (a table's order and entries, an exponent) is an optional minus
# sign and ASCII digits.  In semidirect-gf2 words, a generator name is an ASCII
# identifier other than the keywords gen and rel.
_INTEGER = re.compile(r"-?[0-9]+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class GroupFileError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Stream:
    """The tokens of a text, split off one line at a time.

    `line` is the line of the token last handed out or peeked at (1 before
    the first), and an error about that token is reported there.
    """

    def __init__(self, text: str):
        self._lines = ((k, toks) for k, line in enumerate(text.splitlines(), 1)
                       if (toks := line.split("#", 1)[0].split()))
        self._tokens: List[str] = []    # the current line's tokens, of which
        self._at = 0                    # this many are handed out
        self.line = 1

    def error(self, message: str) -> GroupFileError:
        return GroupFileError(self.line, message)

    def peek(self) -> Optional[str]:
        """The next token, not handed out; None at the end of the text."""
        if self._at == len(self._tokens):
            self.line, self._tokens = next(self._lines, (self.line, []))
            self._at = 0
        return self._tokens[self._at] if self._tokens else None

    def take(self, n: int) -> List[str]:
        """Up to n next tokens, all from one line; none only at the end."""
        self.peek()
        toks = self._tokens[self._at:self._at + n]
        self._at += len(toks)
        return toks

    def next(self, what: str) -> str:
        toks = self.take(1)
        if not toks:
            raise self.error(f"unexpected end of file, expected {what}")
        return toks[0]


def load_group(text: str, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    stream = _Stream(text)
    kind = stream.next("format tag")
    if kind == "table":
        return _load_table(stream, max_order)
    if kind == "semidirect-gf2":
        return _load_semidirect(stream, max_order)
    raise stream.error(f"unknown format {kind!r} (expected 'table' or 'semidirect-gf2')")


def load_group_file(path: str, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return load_group(fh.read(), max_order=max_order)


def _integer(tok: str) -> int:
    """The value of a token that matches _INTEGER, whatever its length: int()
    alone refuses more than 4,300 digits (sys.get_int_max_str_digits())."""
    digits = tok.lstrip("-")
    value = 0
    for k in range(0, len(digits), 4000):
        chunk = digits[k:k + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if tok[0] == "-" else value


def _decimal(tok: str) -> str:
    """str(_integer(tok)), also past str()'s 4,300-digit limit."""
    digits = tok.lstrip("-").lstrip("0") or "0"
    return "-" + digits if tok[0] == "-" and digits != "0" else digits


def _load_table(stream: _Stream, max_order: int) -> FiniteGroup:
    tok = stream.next("group order")
    if not _INTEGER.fullmatch(tok):
        raise stream.error(f"group order must be an integer, got {tok!r}")
    n = _integer(tok)
    if n < 1:
        raise stream.error(f"group order must be positive, got {_decimal(tok)}")
    if n > max_order:
        raise stream.error(f"group order {_decimal(tok)} exceeds the cap {max_order}")
    index = {str(v): v for v in range(n)}       # every entry is one of these n ints
    table, lines = [], []                       # the rows, and the line each starts at
    for i in range(n):
        stream.peek()                           # moves line to row i's first token
        lines.append(stream.line)
        table.append(_read_row(stream, i, n, index))
    extra = stream.take(1)
    if extra:
        raise stream.error(f"unexpected trailing token {extra[0]!r}")
    try:
        G = FiniteGroup(table)
        G.check_axioms()
    except TableError as exc:
        raise GroupFileError(lines[exc.row], f"not a group table: {exc}")
    return G


def _read_row(stream: _Stream, i: int, n: int, index: Dict[str, int]) -> Tuple[int, ...]:
    """Row i, taken a line at a time (take() is empty only at the end, where
    next() raises): its entries, or the error for the first bad or missing one.
    A line of canonical decimals is one lookup each; any other goes by token."""
    row: List[int] = []
    while len(row) < n:
        toks = stream.take(n - len(row)) or [stream.next(f"table entry ({i},{len(row)})")]
        try:
            row += [index[tok] for tok in toks]
        except KeyError:
            for tok in toks:
                if not _INTEGER.fullmatch(tok):
                    raise stream.error(f"entry ({i},{len(row)}) is not an integer: {tok!r}")
                if _decimal(tok) not in index:
                    raise stream.error(f"entry ({i},{len(row)}) = {_decimal(tok)} "
                                       f"out of range 0..{n-1}")
                row.append(index[_decimal(tok)])
    return tuple(row)


def _parse_matrix_rows(stream: _Stream, name: str) -> gf2.GF2Matrix:
    rows = []
    for i in range(4):
        tok = stream.next(f"row {i} of generator {name}")
        if len(tok) != 4 or any(c not in "01" for c in tok):
            raise stream.error(f"row {i} of generator {name} must be 4 bits of 0/1, "
                               f"got {tok!r}")
        rows.append(int(tok, 2))
    return tuple(rows)


def _load_semidirect(stream: _Stream, max_order: int) -> FiniteGroup:
    from . import gf2               # only this dialect needs the GF(2) algebra
    gens: Dict[str, gf2.GF2Matrix] = {}
    relations: List[Tuple[str, int]] = []       # (word, its line)
    while stream.peek() is not None:
        tok = stream.next("'gen' or 'rel'")
        if tok == "gen":
            name = stream.next("generator name")
            name_line = stream.line
            if not _NAME.fullmatch(name) or name in ("gen", "rel"):
                raise stream.error(f"bad generator name {name!r} (ASCII letters, digits "
                                   f"and _, not starting with a digit, not gen or rel)")
            if name in gens:
                raise stream.error(f"duplicate generator {name!r}")
            m = _parse_matrix_rows(stream, name)
            if not gf2.is_invertible(m):
                raise GroupFileError(name_line, f"generator {name} is not invertible")
            gens[name] = m
        elif tok == "rel":
            relations.append((stream.next("relation word"), stream.line))
        else:
            raise stream.error(f"expected 'gen' or 'rel', got {tok!r}")
    if not gens:
        raise GroupFileError(1, "no generators given")

    for word, line in relations:
        if _evaluate_word(word, gens, line) != gf2.IDENTITY:
            raise GroupFileError(line, f"relation {word!r} does not hold")
    mats = _matrix_closure(list(gens.values()), max_order)
    if 16 * len(mats) > max_order:      # the closure stops past the cap: no exact order
        raise GroupFileError(1, f"group order exceeds the cap {max_order}")
    return FiniteGroup(gf2.semidirect_table(mats))


def _evaluate_word(word: str, gens: Dict[str, gf2.GF2Matrix], line: int) -> gf2.GF2Matrix:
    """The matrix of a relation word; errors name its line."""
    from . import gf2
    result = gf2.IDENTITY
    for factor in word.split("*"):
        name, caret, exp_s = factor.partition("^")
        if name not in gens:
            raise GroupFileError(line, f"unknown generator {name!r} in relation {word!r}")
        if caret and not _INTEGER.fullmatch(exp_s):
            raise GroupFileError(line, f"bad exponent {exp_s!r} in relation {word!r}")
        exp = _integer(exp_s) if caret else 1
        for _ in range(exp % gf2.mat_order(gens[name])):     # m^e = m^(e mod ord m)
            result = gf2.mat_mul(result, gens[name])
    return result


def _matrix_closure(gens: List[gf2.GF2Matrix], max_order: int) -> List[gf2.GF2Matrix]:
    """The matrices gens generate, identity first and the rest in canonical
    order.  No round of the walk starts once the group, 16 elements per
    matrix, would pass the cap."""
    from . import gf2
    rest = closure(gf2.IDENTITY, gens, gf2.mat_mul, max_order // 16) - {gf2.IDENTITY}
    return [gf2.IDENTITY] + sorted(rest, key=gf2.mat_key)
