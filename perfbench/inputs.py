"""Randomised group files for the benchmark workloads, built without fusionaudit.

Each generator draws from the ``random.Random`` it is given, so the same
seed gives the same files.  It returns ``(text, facts)``: the group file
the CLI is given, and facts counted from the generator's own construction,
which the verdict oracle compares the reports against:

  order              |G|
  square_roots_of_1  #{g in G : g^2 = 1}, the identity included
"""
from __future__ import annotations

import random
from typing import Dict, List, Tuple


def dihedral_table(m: int) -> List[List[int]]:
    """Dihedral group of order 2m; r^k s^e at index e*m + k."""
    table = []
    for x in range(2 * m):
        e1, k1 = divmod(x, m)
        sign = -1 if e1 else 1
        table.append([(e1 ^ e2) * m + (k1 + sign * k2) % m
                      for e2 in range(2) for k2 in range(m)])
    return table


def relabel(table: List[List[int]], rng: random.Random) -> List[List[int]]:
    """The same group under a random relabelling that keeps 0 the identity."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        px, row = perm[x], table[x]
        dst = out[px]
        for y in range(n):
            dst[perm[y]] = perm[row[y]]
    return out


def table_facts(table: List[List[int]]) -> Dict[str, int]:
    return {"order": len(table),
            "square_roots_of_1": sum(1 for g, row in enumerate(table) if row[g] == 0)}


def table_text(table: List[List[int]]) -> str:
    lines = [f"table {len(table)}"]
    lines.extend(" ".join(map(str, row)) for row in table)
    return "\n".join(lines) + "\n"


def dihedral_file(rng: random.Random, m: int = 60) -> Tuple[str, Dict[str, int]]:
    """D_{2m} as a `table` file, element labels permuted at random."""
    table = relabel(dihedral_table(m), rng)
    return table_text(table), table_facts(table)
