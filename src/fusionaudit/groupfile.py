"""Loader for the group-description text format.

Two dialects, selected by the first token:

  table           explicit n x n multiplication table of indices
  semidirect-gf2  F2^4 semidirect a matrix group generated by named
                  4x4 GF(2) matrices, with optional relation checks

The format is token-based and whitespace-insensitive; `#` starts a
comment running to end of line.  See docs/group-file-format.md.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NoReturn, Tuple

from .groups import DEFAULT_ORDER_CAP, FiniteGroup

if TYPE_CHECKING:
    from . import gf2


class GroupFileError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _tokenize(text: str) -> Tuple[List[str], List[int]]:
    """The tokens, and in a parallel list the line each one is on."""
    tokens: List[str] = []
    lines: List[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = line.split("#", 1)[0].split()
        tokens.extend(words)
        lines.extend([lineno] * len(words))
    return tokens, lines


class _Stream:
    def __init__(self, tokens: List[str], lines: List[int]):
        self.tokens = tokens
        self.lines = lines
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos], self.lines[self.pos]
        return None

    def next(self, what: str) -> Tuple[str, int]:
        if self.pos >= len(self.tokens):
            last = self.lines[-1] if self.lines else 1
            raise GroupFileError(last, f"unexpected end of file, expected {what}")
        self.pos += 1
        return self.tokens[self.pos - 1], self.lines[self.pos - 1]


def load_group(text: str, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    stream = _Stream(*_tokenize(text))
    kind, line = stream.next("format tag")
    if kind == "table":
        return _load_table(stream, max_order)
    if kind == "semidirect-gf2":
        return _load_semidirect(stream, max_order)
    raise GroupFileError(line, f"unknown format {kind!r} "
                               "(expected 'table' or 'semidirect-gf2')")


def load_group_file(path: str, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return load_group(fh.read(), max_order=max_order)


def _load_table(stream: _Stream, max_order: int) -> FiniteGroup:
    tok, line = stream.next("group order")
    try:
        n = int(tok)
    except ValueError:
        raise GroupFileError(line, f"group order must be an integer, got {tok!r}")
    if n < 1:
        raise GroupFileError(line, f"group order must be positive, got {n}")
    if n > max_order:
        raise GroupFileError(line, f"group order {n} exceeds the cap {max_order}")
    start = stream.pos
    table = []
    for i in range(n):
        try:
            row = list(map(int, stream.tokens[start + i * n:start + (i + 1) * n]))
        except ValueError:
            row = []
        if len(row) < n or min(row) < 0 or max(row) >= n:
            _reject_row(stream, start + i * n, i, n)
        table.append(row)
    stream.pos = start + n * n
    extra = stream.peek()
    if extra is not None:
        raise GroupFileError(extra[1], f"unexpected trailing token {extra[0]!r}")
    try:
        G = FiniteGroup(table)
        G.check_axioms()
    except (ValueError, AssertionError) as exc:
        raise GroupFileError(1, f"not a group table: {exc}")
    return G


def _reject_row(stream: _Stream, pos: int, i: int, n: int) -> NoReturn:
    """Raise the error for the first bad or missing entry of row i."""
    stream.pos = pos
    for j in range(n):
        tok, line = stream.next(f"table entry ({i},{j})")
        try:
            v = int(tok)
        except ValueError:
            raise GroupFileError(line, f"entry ({i},{j}) is not an integer: {tok!r}")
        if not 0 <= v < n:
            raise GroupFileError(line, f"entry ({i},{j}) = {v} out of range 0..{n-1}")


def _parse_matrix_rows(stream: _Stream, name: str) -> gf2.GF2Matrix:
    rows = []
    for i in range(4):
        tok, line = stream.next(f"row {i} of generator {name}")
        if len(tok) != 4 or any(c not in "01" for c in tok):
            raise GroupFileError(line, f"row {i} of generator {name} must be "
                                       f"4 bits of 0/1, got {tok!r}")
        rows.append(int(tok, 2))
    return tuple(rows)


def _load_semidirect(stream: _Stream, max_order: int) -> FiniteGroup:
    from . import gf2               # only this dialect needs the GF(2) algebra
    gens: Dict[str, gf2.GF2Matrix] = {}
    relations: List[Tuple[str, int]] = []
    while True:
        item = stream.peek()
        if item is None:
            break
        tok, line = stream.next("'gen' or 'rel'")
        if tok == "gen":
            name, nline = stream.next("generator name")
            if name in gens:
                raise GroupFileError(nline, f"duplicate generator {name!r}")
            m = _parse_matrix_rows(stream, name)
            if not gf2.is_invertible(m):
                raise GroupFileError(nline, f"generator {name} is not invertible")
            gens[name] = m
        elif tok == "rel":
            relations.append(stream.next("relation word"))
        else:
            raise GroupFileError(line, f"expected 'gen' or 'rel', got {tok!r}")
    if not gens:
        raise GroupFileError(1, "no generators given")

    for word, line in relations:
        if _evaluate_word(word, line, gens) != gf2.IDENTITY:
            raise GroupFileError(line, f"relation {word!r} does not hold")

    mats = _matrix_closure(list(gens.values()), max_order)
    if 16 * len(mats) > max_order:      # the closure stops past the cap: no exact order
        raise GroupFileError(1, f"group order exceeds the cap {max_order}")
    return FiniteGroup(gf2.semidirect_table(mats))


def _evaluate_word(word: str, line: int, gens: Dict[str, gf2.GF2Matrix]) -> gf2.GF2Matrix:
    from . import gf2
    result = gf2.IDENTITY
    for factor in word.split("*"):
        name, _, exp_s = factor.partition("^")
        if name not in gens:
            raise GroupFileError(line, f"unknown generator {name!r} in relation {word!r}")
        try:
            exp = int(exp_s) if exp_s else 1
        except ValueError:
            raise GroupFileError(line, f"bad exponent {exp_s!r} in relation {word!r}")
        m = gens[name] if exp >= 0 else gf2.mat_inverse(gens[name])
        exp = abs(exp)
        while exp:                      # square and multiply: O(log |exp|)
            if exp & 1:
                result = gf2.mat_mul(result, m)
            m = gf2.mat_mul(m, m)
            exp >>= 1
    return result


def _matrix_closure(gens: List[gf2.GF2Matrix], max_order: int) -> List[gf2.GF2Matrix]:
    from . import gf2
    members = {gf2.IDENTITY}
    frontier = [gf2.IDENTITY]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = gf2.mat_mul(m, g)
                if prod not in members:
                    members.add(prod)
                    new.append(prod)
        frontier = new
        if 16 * len(members) > max_order:
            break
    # Identity first, remaining matrices in canonical order.
    rest = sorted((m for m in members if m != gf2.IDENTITY), key=gf2.mat_key)
    return [gf2.IDENTITY] + rest
