"""One case per `raise` in src/: every fault the program checks for, made to happen.

A case arranges the narrowest fault that reaches its raise, a corrupted
input or a monkeypatched layer below, and returns the call that raises.
test_fault requires the exception to come from that very raise statement,
with a message its template matches.  A case with a command line also runs
it through cli.main: a failed check returns 1 with `internal check failed:
<message>`, bad input returns 2 with `error: <message>` (after the usage
line, for bad usage), and stderr never holds a traceback.

Some raises no real input reaches; their cases inject the fault, and a
comment gives the argument.  test_tooling requires a case for every raise.
"""
import ast
import inspect
import io
import os
import pathlib
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import pytest

from conftest import cayley_table, dihedral_mul
from fusionaudit import audit, characters, cli, construction, constructive, gf2, groupfile
from fusionaudit.characters import ClassFunction, dixon_table
from fusionaudit.construction import LambdaChoice, Q8Embedding
from fusionaudit.cyclotomic import Cyclotomic
from fusionaudit.groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    elementary_abelian_16,
    q8_group,
)
from oracles import rebuild, trivial_character, zeta
from test_audit import LOOP5_TABLE

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fusionaudit"

Key = Tuple[str, str, str]      # (module, function, message template)


# ---------------------------------------------------------------------------
# The raise statements of src/
# ---------------------------------------------------------------------------

class RaiseSite(NamedTuple):
    key: Key
    path: pathlib.Path
    lines: range            # the lines the raise statement spans
    message: str            # a regular expression for its message


def _message_parts(node: ast.Raise) -> List[Optional[str]]:
    """The message of `raise E(..., "text" or f"text", ...)`: its literal
    pieces, with None for each placeholder; [] for a raise without one."""
    args = node.exc.args if isinstance(node.exc, ast.Call) else []
    for arg in args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return [arg.value]
        if isinstance(arg, ast.JoinedStr):
            return [v.value if isinstance(v, ast.Constant) else None for v in arg.values]
    return []


@lru_cache(maxsize=1)
def raise_sites() -> Tuple[RaiseSite, ...]:
    """Every raise in src/, keyed by its module, its function (dotted through
    classes and enclosing functions) and its message template, in which each
    placeholder reads {}."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + (child.name,))
                    continue
                if isinstance(child, ast.Raise):
                    parts = _message_parts(child)
                    template = "".join("{}" if p is None else p for p in parts)
                    pattern = "".join("(.*)" if p is None else re.escape(p) for p in parts)
                    sites.append(RaiseSite((path.stem, ".".join(scope), template), path,
                                           range(child.lineno, child.end_lineno + 1), pattern))
                visit(child, scope)
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return tuple(sites)


def raised_at(exc: BaseException) -> RaiseSite:
    """The raise statement in src/ that raised exc."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = pathlib.Path(tb.tb_frame.f_code.co_filename).resolve()
    found = [s for s in raise_sites() if s.path == path and tb.tb_lineno in s.lines]
    assert len(found) == 1, f"{exc!r} was raised at {path}:{tb.tb_lineno}, not by a raise in src/"
    return found[0]


# ---------------------------------------------------------------------------
# The cases
# ---------------------------------------------------------------------------

class Fault(NamedTuple):
    call: Callable[[], object]
    argv: Optional[Sequence[str]] = None    # a command that meets the same fault
    exit_code: int = 1


# Each case is registered with the key of the raise it reaches; two cases
# may reach one raise by different inputs.  Its parameters are fixtures,
# monkeypatch among them.
CASES: Dict[Callable[..., Fault], Key] = {}


def fault(module: str, function: str, template: str):
    def register(arrange):
        assert all(case.__name__ != arrange.__name__ for case in CASES), arrange.__name__
        CASES[arrange] = module, function, template
        return arrange
    return register


def _group_file(tmp_path, text: str, max_order: int = DEFAULT_ORDER_CAP) -> Fault:
    """A group file that the loader refuses, read alone and by `table`."""
    path = tmp_path / "bad.grp"
    path.write_text(text)
    return Fault(lambda: groupfile.load_group(text, max_order),
                 ["table", "--group", f"file:{path}", "--max-order", str(max_order)],
                 exit_code=2)


def _s3() -> FiniteGroup:
    """D3 = S3, r^i s^e at index i + 3e: classes {1}, {r, r^2}, {s, rs, r^2 s}."""
    return FiniteGroup(cayley_table(6, dihedral_mul(3)))


def _z2_cubed() -> List[List[int]]:
    return [[a ^ b for b in range(8)] for a in range(8)]


# -- audit ------------------------------------------------------------------

def _quotient_replaced_by(monkeypatch, cg, table) -> Fault:
    """constructive_data, with G/H replaced by the group of table and pi kept."""
    broken = rebuild(cg, quotient=FiniteGroup(table))
    monkeypatch.setattr(construction, "build_default", lambda: broken)
    return Fault(lambda: audit.constructive_data(broken), ["verify"])


@fault("audit", "constructive_data", "G/H has no irreducible of degree 2: degrees {}")
def abelian_quotient_has_no_phi(monkeypatch, cg):
    # Injected: G/H is Q8, whose 2-dimensional irreducible is phi.  C4 x C2
    # has Q8's exponent 4, so its lifts pass the field check.
    c4_c2 = cayley_table(8, lambda x, y: (x + y) % 4 + 4 * (x // 4 ^ y // 4))     # a + 4b
    return _quotient_replaced_by(monkeypatch, cg, c4_c2)


# -- characters -------------------------------------------------------------

def _checked_sees(monkeypatch, corrupt) -> Fault:
    """Q8's table, corrupted by corrupt(table) on its way into _checked."""
    real = characters._checked
    monkeypatch.setattr(characters, "_checked", lambda table: real(corrupt(table)))
    return Fault(lambda: dixon_table(q8_group()), ["table", "--group", "builtin:q8"])


def _bump(table, a, j):
    """The table with row a's residue at class j raised by 1."""
    rows = [list(row) for row in table.residues]
    rows[a][j] = (rows[a][j] + 1) % table.prime
    return rebuild(table, residues=tuple(map(tuple, rows)))


@fault("characters", "ClassFunction.__init__", "one value per conjugacy class required")
def class_function_of_the_wrong_length():
    return Fault(lambda: ClassFunction(q8_group(), ()))


@fault("characters", "CharacterTable.indicators",
       "indicator residues {} mod {} are not all 0, +-1")
def indicator_out_of_range(q8_table):
    # _checked runs indicators() last, after orthogonality: a table that
    # passes the rest has each nu in {0, 1, -1}; only corrupted residues reach it.
    bad = rebuild(q8_table, residues=((2,) * 5,) + q8_table.residues[1:])
    return Fault(bad.indicators)


@fault("characters", "_primitive_root", "no primitive root mod {}")
def no_primitive_root(monkeypatch, tmp_path):
    # Injected: dixon_prime gives p >= 2c + 1 >= 3, and every prime p >= 3 has
    # a primitive root g >= 2; only p = 2 leaves none to try.
    monkeypatch.setattr(characters, "dixon_prime", lambda order, exponent: 2)
    trivial = tmp_path / "c1.grp"
    trivial.write_text("table 1\n0\n")
    return Fault(lambda: dixon_table(FiniteGroup([[0]])), ["table", "--group", f"file:{trivial}"])


@fault("characters", "_class_row", "class {}, row {}: |C_{}| does not divide its count")
def class_row_on_a_wrong_partition():
    # Conjugation permutes every true class, so each count is a multiple of
    # |C_k|; only a partition that is not the classes reaches it.  Here the
    # reflections {s, rs} and {r^2 s} are split: r {s, rs} = {rs, r^2 s}.
    G = _s3()
    G._classes = ((0,), (1,), (2,), (3, 4), (5,))
    G._class_index = [0, 1, 2, 3, 3, 4]
    return Fault(lambda: characters._class_row(G, 1, 3))


@fault("characters", "_split_eigenspaces", "class matrix not diagonalizable mod p")
def jordan_block_does_not_split():
    # Injected: class matrices commute and are diagonalizable mod a prime
    # p = 1 mod exp G that does not divide |G|; a Jordan block is neither.
    return Fault(lambda: characters._split_eigenspaces([[1, 1], [0, 1]], [[1, 0], [0, 1]],
                                                       [0, 1], 7))


@fault("characters", "_eigenvalues",
       "power sums {} mod {} at class {}: the eigenvalue polynomial "
       "does not split into roots of x^{} - 1")
def power_sums_that_do_not_split(monkeypatch):
    # Injected: a character's residues at g are the power sums of its
    # eigenvalues, which are roots of x^o - 1, o = ord(g); here the first is off by 1.
    real = characters._eigenvalues
    monkeypatch.setattr(characters, "_eigenvalues", lambda sums, roots, p, cls: real(
        [(sums[0] + 1) % p, *sums[1:]], roots, p, cls))
    return Fault(lambda: dixon_table(q8_group()), ["table", "--group", "builtin:q8"])


@fault("characters", "dixon_table", "|G| = {} exceeds size cap {}")
def dixon_past_the_cap(monkeypatch):
    # Not from the command line: file groups are capped by --max-order <= 1024
    # and the builtin groups have order at most 128.
    monkeypatch.setattr(characters, "DEFAULT_ORDER_CAP", 4)
    return Fault(lambda: dixon_table(q8_group()))


@fault("characters", "dixon_table", "eigenspace splitting did not terminate")
def split_that_never_splits(monkeypatch):
    # Injected: the class sums span the centre of the group algebra, so
    # together they split every common eigenspace to dimension 1.
    monkeypatch.setattr(characters, "_split_eigenspaces",
                        lambda rows, basis, pivots, p: [(basis, pivots)])
    return Fault(lambda: dixon_table(q8_group()), ["table", "--group", "builtin:q8"])


@fault("characters", "dixon_table",
       "|G| / s = {} mod {} is not the square of a degree below {} / 2")
def degree_search_on_corrupted_eigenvectors(monkeypatch, d120_file):
    # Injected: a true eigenvector gives s = |G| / d^2 with d < p / 2.  Here 3
    # is added to one non-pivot entry of every eigenvector the split returns.
    real = characters._split_eigenspaces

    def corrupted(rows, basis, pivots, p):
        out = []
        for vecs, piv in real(rows, basis, pivots, p):
            j = min(set(range(len(vecs[0]))) - set(piv))
            out.append(([v[:j] + [(v[j] + 3) % p] + v[j + 1:] for v in vecs], piv))
        return out

    monkeypatch.setattr(characters, "_split_eigenspaces", corrupted)
    G = groupfile.load_group_file(str(d120_file))
    return Fault(lambda: dixon_table(G), ["table", "--group", f"file:{d120_file}"])


@fault("characters", "dixon_table", "lifted degree {} != {}")
def lift_of_the_identity_is_not_the_degree(monkeypatch):
    # Injected: the identity's power sums are chi(1) = d at every t, so its
    # lift is d; here every multiplicity the lift reads is one too high.
    real = characters._eigenvalues
    monkeypatch.setattr(characters, "_eigenvalues", lambda sums, roots, p, cls: [
        (j, m + 1) for j, m in real(sums, roots, p, cls)])
    return Fault(lambda: dixon_table(q8_group()), ["table", "--group", "builtin:q8"])


# Injected: _checked tests identities that every true character table
# satisfies, and a degree t < p / 2 is never 0 mod p; so each of its raises
# needs residues, duals or indicators that Dixon does not produce, and the
# table is corrupted on its way in.  Q8 mod 13 has rows 0-3 linear (row 3
# trivial) and row 4 of degree 2; class 2 is {i, -i}.

@fault("characters", "_checked", "sum of squared degrees {} is not |G| = {}")
def squared_degrees(monkeypatch):
    return _checked_sees(monkeypatch, lambda t: _bump(t, 0, 0))


@fault("characters", "_checked", "a degree in {} is 0 mod {}")
def degree_zero(monkeypatch):
    def corrupt(t):
        rows = [list(row) for row in t.residues]
        for a, d in enumerate((0, 0, 0, 2, 2)):      # 0 + 0 + 0 + 4 + 4 = |Q8|
            rows[a][0] = d
        return rebuild(t, residues=tuple(map(tuple, rows)))
    return _checked_sees(monkeypatch, corrupt)


@fault("characters", "_checked", "duals {} are not a permutation of the {} rows")
def duals_not_a_permutation(monkeypatch):
    return _checked_sees(monkeypatch, lambda t: rebuild(t, duals=(0,) * len(t.duals)))


@fault("characters", "_checked", "row {} is not covariant under the centre mod {}")
def row_not_covariant(monkeypatch):
    # -1 fixes the class {i, -i} and acts on row 4 as -1, so row 4 must be 0 there.
    return _checked_sees(monkeypatch, lambda t: _bump(t, 4, 2))


@fault("characters", "_checked", "rows {} and {} are not orthogonal mod {}")
def rows_not_orthogonal(monkeypatch):
    # Row 0, changed where -1 acts trivially, stays covariant.
    return _checked_sees(monkeypatch, lambda t: _bump(t, 0, 2))


@fault("characters", "_checked", "Frobenius-Schur count fails: {} elements square to 1")
def frobenius_schur_count(monkeypatch):
    def corrupt(t):
        bad = rebuild(t)
        bad._indicators = (1,) * len(t.residues)
        return bad
    return _checked_sees(monkeypatch, corrupt)


def _fusion_sees(monkeypatch, corrupt) -> Fault:
    """`scan` on Q8, its table corrupted by corrupt(table) on the way into
    fusion_tensor.  Injected: a table that passed _checked gives
    0 <= N <= min(d_p, d_q) and the sum rule (fusion_tensor's docstring)."""
    real = characters.fusion_tensor
    monkeypatch.setattr(audit, "fusion_tensor", lambda table: real(corrupt(table)))
    return Fault(lambda: audit.fusion_tensor(dixon_table(q8_group())),
                 ["scan", "--group", "builtin:q8"])


@fault("characters", "fusion_tensor", "fusion multiplicity at ({},{},{}) exceeds d_p d_q / d_r")
def fusion_multiplicity_bound(monkeypatch):
    # Every linear row is 1 at -1 (class 1), so the lookups chi_a chi_4 still find
    # the bumped row 4; the packed pair (4, 4) then reads N = 5/8 = 12 mod 13 at
    # each linear row and 20/8 = 9 at row 4, each above d_4 d_4 / d_r.
    return _fusion_sees(monkeypatch, lambda t: _bump(t, 4, 1))


@fault("characters", "fusion_tensor", "sum rule fails at ({},{}): {} != {}")
def fusion_sum_rule(monkeypatch):
    # With row 4 read as row 0's dual, the packed pair (4, 4) reads
    # <chi_4 chi_4, chi_4> = 0 in row 0's slot: chi_4 chi_4 loses a linear row.
    return _fusion_sees(monkeypatch, lambda t: rebuild(t, duals=(4,) + t.duals[1:]))


@fault("characters", "fusion_tensor", "sum rule fails at ({},{}): {} != {}")
def fusion_product_row_missing(monkeypatch):
    # Row 0 bumped at class 2 squares to (1, 1, 0, 1, 1), no row of the table:
    # the lookup of the linear pair (0, 0) finds nothing, and the sum is 0.
    return _fusion_sees(monkeypatch, lambda t: _bump(t, 0, 2))


# -- cli --------------------------------------------------------------------

@fault("cli", "_order_cap", "--max-order: must be an integer from 1 to {}, got {}")
def order_cap_out_of_range():
    return Fault(lambda: cli._order_cap("0"), ["table", "--max-order", "0"], exit_code=2)


# The usage errors: cli.main prints the usage line and the message, and returns 2.

def _usage_fault(argv: List[str]) -> Fault:
    return Fault(lambda: cli.parse_args(argv), argv, exit_code=2)


@fault("cli", "parse_args", "the command must be one of {}, got {}")
def unknown_command():
    return _usage_fault(["audit"])


@fault("cli", "parse_args", "{} has no option {}")
def option_of_another_command():
    return _usage_fault(["scan", "--all-lambdas"])


@fault("cli", "parse_args", "{}: expected a value")
def option_without_its_value():
    return _usage_fault(["table", "--group", "builtin:q8", "--max-order"])


@fault("cli", "parse_args", "{}: {} is not one of {}")
def report_format_not_offered():
    return _usage_fault(["scan", "--report", "xml"])


@fault("cli", "parse_args", "--out: must name a file, got ''")
def empty_out_path():
    return _usage_fault(["scan", "--group", "builtin:q8", "--out", ""])


@fault("cli", "parse_args", "{} applies to the construction; use --group builtin:g128")
def verify_on_another_group():
    return _usage_fault(["verify", "--group", "builtin:q8"])


@fault("cli", "parse_args", "{} applies to the construction; use --group builtin:g128")
def constructive_method_off_g128():
    return _usage_fault(["table", "--group", "builtin:q8", "--table-method", "both"])


@fault("cli", "parse_args", "--group: must be {}, got {}")
def unknown_builtin_group():
    return _usage_fault(["scan", "--group", "builtin:nope"])


@fault("cli", "parse_args", "--group: must be {}, got {}")
def group_spec_without_a_kind():
    return _usage_fault(["scan", "--group", "q8"])


# -- construction -------------------------------------------------------------

def _swapped_embedding() -> Q8Embedding:
    """The paper's matrices, with the images of i and -i swapped."""
    rho = construction.find_q8_in_gl42().rho
    return Q8Embedding((*rho[:2], rho[3], rho[2], *rho[4:]))


@fault("construction", "Q8Embedding.check", "rho(1) is not the identity matrix")
def rho_of_one():
    return Fault(Q8Embedding((construction.RHO_I,) * 8).check)


@fault("construction", "Q8Embedding.check", "rho(-1) is the identity; the kernel is nontrivial")
def rho_of_minus_one():
    return Fault(Q8Embedding((gf2.IDENTITY,) * 8).check)


@fault("construction", "Q8Embedding.check", "not a homomorphism at pair ({}, {})")
def not_a_homomorphism():
    # i -> rho(-i) and -i -> rho(i), the rest kept: (-i) j = -k, not k.
    return Fault(_swapped_embedding().check)


@fault("construction", "Q8Embedding.check", "embedding is not faithful")
def not_faithful(monkeypatch):
    # Injected: every nontrivial normal subgroup of Q8 contains -1, so a
    # homomorphism with rho(-1) != I is injective.  Only another
    # multiplication table, here that of F2^3, has one that is not.
    minus = construction.find_q8_in_gl42().rho[1]            # an involution
    monkeypatch.setattr(construction, "Q8_TABLE", _z2_cubed())
    return Fault(Q8Embedding(tuple(minus if x & 1 else gf2.IDENTITY for x in range(8))).check)


@fault("construction", "build_g", "C_G(H) != H; the action is not faithful")
def centralizer_of_h_too_large(monkeypatch):
    # Injected: the Q8 part of (h, A) is the matrix A, so (h, A) centralizes
    # H only if A = I; with 8 distinct matrices C_G(H) = H.
    monkeypatch.setattr(construction, "centralizer_of_set", lambda G, S: tuple(range(G.order)))
    return Fault(construction.build_default, ["verify"])


@fault("construction", "build_g", "G/H does not multiply like Q8")
def quotient_not_q8(monkeypatch):
    # Injected: a checked embedding is a homomorphism onto 8 distinct
    # matrices, so the cosets multiply as Q8; this one skips check().
    swapped = _swapped_embedding()
    monkeypatch.setattr(Q8Embedding, "check", lambda self: None)
    monkeypatch.setattr(construction, "find_q8_in_gl42", lambda: swapped)
    return Fault(construction.build_default, ["verify"])


@fault("construction", "build_g", "|[H, z]| = {}, expected 2")
def commutator_of_the_identity(monkeypatch):
    # Injected: [H, z] has order 2 for the lift z of -1 (claim 4); z = 1
    # gives {1}.  check() would refuse rho(1) = I as rho(-1), so it is skipped.
    monkeypatch.setattr(Q8Embedding, "check", lambda self: None)
    monkeypatch.setattr(construction, "Q8_MINUS_ONE", 0)
    return Fault(construction.build_default, ["verify"])


@fault("construction", "LambdaChoice.value_sign", "element {} is not in H")
def lambda_off_h():
    return Fault(lambda: LambdaChoice(1).value_sign(1))


@fault("construction", "choose_lambda", "covector {} does not cut H0")
def covector_zero(cg):
    return Fault(lambda: construction.choose_lambda(cg, 0))


@fault("construction", "choose_lambda", "[H, x] lies in ker lambda for coset of {}")
def commutator_span_in_the_kernel(cg):
    # Injected: a valid covector's lambda is -1 on H0, which lies in every
    # [H, x] (claim 5); here one certified span is replaced by {1}.
    broken = rebuild(cg, spans=cg.spans[:3] + (frozenset({0}),) + cg.spans[4:])
    return Fault(lambda: construction.choose_lambda(broken, cg.covectors[-1]))


# -- constructive ---------------------------------------------------------------

@fault("constructive", "induce", "induction subgroup is not a subgroup")
def induce_from_a_non_subgroup():
    one = Cyclotomic.from_rational(4, 1)
    return Fault(lambda: constructive.induce(q8_group(), [0, 2], {0: one, 2: one}))


@fault("constructive", "induce", "values must cover exactly the subgroup")
def induce_from_partial_values():
    one = Cyclotomic.from_rational(4, 1)
    return Fault(lambda: constructive.induce(q8_group(), [0, 1], {0: one}))


@fault("constructive", "inner_product", "class functions live on different groups")
def inner_product_across_groups():
    return Fault(lambda: constructive.inner_product(trivial_character(q8_group()),
                                                    trivial_character(elementary_abelian_16())))


@fault("constructive", "pointwise_product", "class functions live on different groups")
def pointwise_product_across_groups():
    return Fault(lambda: constructive.pointwise_product(
        trivial_character(q8_group()), trivial_character(elementary_abelian_16())))


@fault("constructive", "lift_from_quotient", "exp(G/H) = {} differs from exp G = {}")
def quotient_of_exponent_2(monkeypatch, cg):
    # Injected: G/H is Q8, of exponent 4 = exp G; Z2^3 has exponent 2.
    return _quotient_replaced_by(monkeypatch, cg, _z2_cubed())


@fault("constructive", "induced_square_constituent",
       "(lambda^2)^G differs from the lifted regular character")
def induced_square_on_a_wrong_projection(monkeypatch, cg, data):
    # Injected: (lambda^2)^G = (1_H)^G is the regular character of G/H lifted,
    # for H normal in G; here the projection sends g to g >> 4, not to gH.
    broken = rebuild(cg, projection=[g >> 4 for g in range(128)])
    monkeypatch.setattr(construction, "build_default", lambda: broken)
    return Fault(lambda: constructive.induced_square_constituent(rebuild(data, cg=broken)),
                 ["verify"])


@fault("constructive", "claim6_breakdown", "square preimage of H is not H union Hz")
def square_preimage_with_a_wrong_z(cg, data):
    # g^2 lies in H exactly when g's Q8 part is +-1, which is H u Hz for the
    # lift z of -1; here z is the lift of i.
    return Fault(lambda: constructive.claim6_breakdown(rebuild(data, cg=rebuild(cg, z_lift=2))))


class _Drifting:
    """A stand-in for chi whose value moves with every read."""

    def __init__(self):
        self.reads = 0

    def value_at(self, g):
        self.reads += 1
        return Cyclotomic.from_rational(8, self.reads)


@fault("constructive", "claim6_breakdown.contribution", "subset contributes non-constant values")
def contribution_that_drifts(data):
    # Injected: on each subset g^2 is one element (1 on H and on the
    # involutions of Hz, the generator of H0 on the rest of Hz), so any
    # function of g^2 is constant there; only a drifting value_at reaches it.
    return Fault(lambda: constructive.claim6_breakdown(rebuild(data, chi=_Drifting())))


@fault("constructive", "claim6_breakdown", "chi(g^2) nonzero outside H<z>")
def trivial_character_is_not_induced(cg, data):
    # chi = lambda^G vanishes off the normal subgroup H, so chi(g^2) != 0
    # needs g^2 in H; the trivial character does not vanish there.
    return Fault(lambda: constructive.claim6_breakdown(
        rebuild(data, chi=trivial_character(cg.group))))


# -- cyclotomic ---------------------------------------------------------------

@fault("cyclotomic", "Cyclotomic.__init__", "zero denominator")
def divide_by_zero():
    return Fault(lambda: Cyclotomic.from_rational(4, 1) / 0)


@fault("cyclotomic", "Cyclotomic.__init__", "need {} reduced coefficients for n={}")
def too_few_coefficients():
    return Fault(lambda: Cyclotomic(4, [1]))


@fault("cyclotomic", "Cyclotomic._check_field", "incompatible root orders {} and {}")
def add_across_fields():
    return Fault(lambda: zeta(8) + zeta(12))


@fault("cyclotomic", "Cyclotomic.as_integer", "{} is not a rational integer")
def half_is_not_an_integer():
    return Fault((Cyclotomic.from_rational(4, 1) / 2).as_integer)


# -- gf2 ----------------------------------------------------------------------

@fault("gf2", "mat_order", "matrix {} is singular")
def order_of_a_singular_matrix():
    # Not from a file: the loader refuses a singular generator before it
    # evaluates a relation.
    return Fault(lambda: gf2.mat_order((0, 0, 0, 0)))


# -- groupfile ----------------------------------------------------------------

GEN_SWAP = "gen A 0100 1000 0010 0001\n"        # swaps the first two coordinates


@fault("groupfile", "_Stream.next", "unexpected end of file, expected {}")
def empty_file(tmp_path):
    return _group_file(tmp_path, "")


@fault("groupfile", "load_group", "unknown format {} (expected 'table' or 'semidirect-gf2')")
def unknown_format(tmp_path):
    return _group_file(tmp_path, "cube 3\n")


@fault("groupfile", "_load_table", "group order must be an integer, got {}")
def order_not_an_integer(tmp_path):
    return _group_file(tmp_path, "table x\n")


@fault("groupfile", "_load_table", "group order must be positive, got {}")
def order_zero(tmp_path):
    return _group_file(tmp_path, "table 0\n")


@fault("groupfile", "_load_table", "group order {} exceeds the cap {}")
def order_past_the_cap(tmp_path):
    return _group_file(tmp_path, "table 2000\n")


@fault("groupfile", "_load_table", "unexpected trailing token {}")
def trailing_token(tmp_path):
    return _group_file(tmp_path, "table 1\n0 0\n")


@fault("groupfile", "_load_table", "not a group table: {}")
def table_that_is_not_a_group(tmp_path):
    return _group_file(tmp_path, "table 2\n1 0\n0 1\n")


@fault("groupfile", "_read_row", "entry ({},{}) is not an integer: {}")
def entry_not_an_integer(tmp_path):
    return _group_file(tmp_path, "table 1\nx\n")


@fault("groupfile", "_read_row", "entry ({},{}) = {} out of range 0..{}")
def entry_out_of_range(tmp_path):
    return _group_file(tmp_path, "table 1\n5\n")


@fault("groupfile", "_parse_matrix_rows", "row {} of generator {} must be 4 bits of 0/1, got {}")
def matrix_row_not_bits(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\ngen A 1000 0100 0010 2222\n")


@fault("groupfile", "_load_semidirect", "bad generator name {} (ASCII letters, digits and _, "
       "not starting with a digit, not gen or rel)")
def generator_name_with_a_digit_first(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\ngen 0A 1000 0100 0010 0001\n")


@fault("groupfile", "_load_semidirect", "duplicate generator {}")
def duplicate_generator(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\n" + GEN_SWAP * 2)


@fault("groupfile", "_load_semidirect", "generator {} is not invertible")
def singular_generator(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\ngen A 0000 0100 0010 0001\n")


@fault("groupfile", "_load_semidirect", "expected 'gen' or 'rel', got {}")
def neither_gen_nor_rel(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\nfoo\n")


@fault("groupfile", "_load_semidirect", "no generators given")
def no_generators(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\n")


@fault("groupfile", "_load_semidirect", "relation {} does not hold")
def relation_that_fails(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\n" + GEN_SWAP + "rel A\n")


@fault("groupfile", "_load_semidirect", "group order exceeds the cap {}")
def semidirect_past_the_cap(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\n" + GEN_SWAP, max_order=16)    # order 32


@fault("groupfile", "_evaluate_word", "unknown generator {} in relation {}")
def relation_with_an_unknown_generator(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\n" + GEN_SWAP + "rel B^2\n")


@fault("groupfile", "_evaluate_word", "bad exponent {} in relation {}")
def relation_with_a_bad_exponent(tmp_path):
    return _group_file(tmp_path, "semidirect-gf2\n" + GEN_SWAP + "rel A^x\n")


# -- groups -------------------------------------------------------------------

def _table_fault(tmp_path, table, call=None) -> Fault:
    """FiniteGroup(table), then call on it; and a `table` file of it."""
    text = f"table {len(table)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)
    return Fault(call or (lambda: FiniteGroup(table)), _group_file(tmp_path, text).argv,
                 exit_code=2)


@fault("groups", "FiniteGroup.__init__", "multiplication table is not square")
def table_not_square():
    # Not from a file: the loader reads n rows of n entries.
    return Fault(lambda: FiniteGroup([[0, 1]]))


@fault("groups", "FiniteGroup.__init__", "index 0 is not the identity")
def identity_not_first(tmp_path):
    return _table_fault(tmp_path, [[1, 0], [0, 1]])


@fault("groups", "FiniteGroup._compute_inverses", "element {} has no inverse")
def element_without_an_inverse(tmp_path):
    return _table_fault(tmp_path, [[0, 1], [1, 1]])


@fault("groups", "FiniteGroup._compute_inverses", "one-sided inverse at element {}")
def one_sided_inverse(tmp_path):
    return _table_fault(tmp_path, [[0, 1, 2], [1, 0, 2], [2, 0, 1]])    # 2 * 1 = 1, 1 * 2 = 2


@fault("groups", "FiniteGroup.check_axioms", "not closed")
def table_not_closed():
    # Not from a file: the loader refuses an entry outside 0..n-1 first.
    return Fault(FiniteGroup([[0, 1, 2], [1, 0, 7], [2, 7, 0]]).check_axioms)


@fault("groups", "FiniteGroup.check_axioms", "associativity fails at {}")
def loop_of_order_5(tmp_path):
    rows = [list(map(int, line.split())) for line in LOOP5_TABLE.split("\n")[2:-1]]
    return _table_fault(tmp_path, rows, FiniteGroup(rows).check_axioms)


# ---------------------------------------------------------------------------
# Running a case
# ---------------------------------------------------------------------------

def arrange(case: Callable[..., Fault], request) -> Fault:
    """The case's fault, its fixtures filled in."""
    return case(**{name: request.getfixturevalue(name)
                   for name in inspect.signature(case).parameters})


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """cli.main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


@pytest.mark.parametrize("registered", list(CASES), ids=[case.__name__ for case in CASES])
def test_fault(registered, request):
    case = arrange(registered, request)
    with pytest.raises(Exception) as info:
        case.call()
    site = raised_at(info.value)
    assert site.key == CASES[registered]
    message = str(info.value)
    # GroupFileError puts the line before the message.
    assert re.fullmatch(r"(line [0-9]+: )?" + site.message, message, re.S), message
    if case.argv is not None:
        code, err = run_cli(case.argv)
        assert code == case.exit_code, err
        if code == 1:
            assert err.startswith(f"internal check failed: {message}\n"), err
        else:
            assert "error: " in err and message in err, err
        assert "Traceback" not in err, err


# ---------------------------------------------------------------------------
# Running out of memory
# ---------------------------------------------------------------------------

# A CLI child whose fusion layer runs out of memory, as `scan` at the cap can.
OUT_OF_MEMORY = """
import sys
from fusionaudit import audit, cli
def exhausted(table):
    raise MemoryError
audit.fusion_tensor = exhausted
sys.exit(cli.main(["scan", "--group", "builtin:q8"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_out_of_memory_exits_3_with_one_line(flags):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, *flags, "-c", OUT_OF_MEMORY], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 3, run.stderr
    assert run.stderr == "out of memory: scan --group builtin:q8\n"
    assert run.stdout == ""
