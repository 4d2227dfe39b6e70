"""Evaluation of free-algebra elements at the generic matrices.

The scalar ring is the commutative polynomial ring over the integers in
variables y^k_{i,j}, one per (variable id, row, column) triple.  Under the
elementary grading the generic matrix of x_k, of degree g, has one
nonzero entry per row, y^k_{i,phi(g,i)}, so every word evaluates to a
monomial matrix: from each row, walk the position bijections induced by
the successive factor degrees and collect one scalar variable per step.
A word is n keys (row, col, mono) with coefficient 1, and a polynomial
is a keyed sum.  A key's mono is the path's scalar variables sorted,
repeats kept: two paths carry the same monomial exactly when they sort
to the same tuple.  Exponents are counted only where a monomial is
printed (mono_exponents, for a ScalarPoly).

The group acts on the rows, so row 0 decides (see word_entry): the
decision paths key each word once, at row 0 (row0_entries), and only
what prints whole matrices walks all n rows (eval_word_closed, eval_poly).
"""

from __future__ import annotations

from itertools import groupby

from .freealg import Context, FreePoly, Word

# A scalar variable is a triple (k, i, j).  A key's monomial is the sorted
# tuple of its scalar variables, a repeated one repeated; a ScalarPoly maps
# monomials in exponent form, sorted ((k, i, j), exponent) pairs, to
# coefficients.

ScalarVar = tuple[int, int, int]
Mono = tuple[ScalarVar, ...]
ExpMono = tuple[tuple[ScalarVar, int], ...]


def mono_exponents(mono: Mono) -> ExpMono:
    """A key's monomial in exponent form: each variable once, with its count."""
    return tuple((v, sum(1 for _ in run)) for v, run in groupby(mono))


class ScalarPoly:
    """Sparse commutative polynomial over the integers: monomial -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[ExpMono, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    def __eq__(self, other):
        return isinstance(other, ScalarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            vs = "*".join(
                f"y{k}_{i + 1}{j + 1}" + (f"^{e}" if e > 1 else "")
                for (k, i, j), e in m) or "1"
            parts.append(f"{c}*{vs}" if c != 1 or not m else vs)
        return " + ".join(parts)


def word_path(ctx: Context, w: Word, row: int) -> list[ScalarVar]:
    """The scalar variables (var id, from, to) met along the word's path from row.

    After the first t factors, of degrees h_1, ..., h_t, the path from row
    is at phi(h_1 * ... * h_t, row), since phi_b(phi_a(i)) = phi_{ab}(i):
    one walk keeps the prefix product and looks up one table row per letter.
    """
    grading = ctx.grading
    table, declared = grading.group.table, ctx.degrees
    g = grading.group.identity_index
    # phi(g, row) = _pos[tuple_[row] * g], with the table row looked up once
    pos, row_times = grading._pos, table[grading.tuple_[row]]
    out = []
    i = row
    try:
        for v in w:
            g = table[g][declared[v]]
            j = pos[row_times[g]]
            out.append((v, i, j))
            i = j
    except KeyError:
        ctx.degree(v)  # raises DeclarationError naming the undeclared id
    return out


def path_entry(path: list[ScalarVar], row: int) -> tuple[int, int, Mono]:
    """The key (row, col, mono) of a path walked from row (see word_entry)."""
    return (row, path[-1][2] if path else row, tuple(sorted(path)))


def word_entry(ctx: Context, w: Word, row: int = 0) -> tuple[int, int, Mono]:
    """The word's one nonzero entry in the given row, as a key (row, col, mono).

    The entry is the monomial of the scalar variables on the path from row,
    with coefficient 1; all other entries in that row vanish.

    Row 0 decides every row.  Let a = t_r * t_0^-1 for the grading tuple
    (t_0, ..., t_{n-1}), and pi(i) = the row whose tuple element is a * t_i.
    After a prefix of degree h the path from row i is at the row of t_i * h,
    so pi maps the path from row 0 step by step onto the path from row r,
    and the key at row r is the key at row 0 with every row index i
    (in the key and in each scalar variable (k, i, j)) replaced by pi(i).
    Left multiplication by a is a bijection of the group and the tuple is
    a bijection onto it, so pi is a permutation of the rows and the
    relabelling is injective on keys; this uses only the group axioms,
    so it holds for any group table and any bijective tuple.  Hence two
    words have equal keys at row r iff they do at row 0, and a keyed sum
    over words is zero at row r iff it is zero at row 0.
    """
    return path_entry(word_path(ctx, w, row), row)


def eval_word_closed(ctx: Context, w: Word) -> list[tuple[int, int, Mono]]:
    """The word's evaluation as one word_entry per row, in row order."""
    return [word_entry(ctx, w, row) for row in range(ctx.grading.n)]


def _keyed_sum(pairs) -> dict[tuple[int, int, Mono], int]:
    """Sum (key, coefficient) pairs, dropping a key as soon as it cancels."""
    acc: dict[tuple[int, int, Mono], int] = {}
    for key, c in pairs:
        total = acc.get(key, 0) + c
        if total:
            acc[key] = total
        else:
            del acc[key]
    return acc


def eval_poly(p: FreePoly) -> dict[tuple[int, int, Mono], int]:
    """The nonzero terms of the polynomial's evaluation, keyed (row, col, mono).

    Each word contributes one monomial per row (eval_word_closed), so the
    evaluation is a single keyed sum.
    """
    return _keyed_sum((key, c) for w, c in p.terms.items()
                      for key in eval_word_closed(p.ctx, w))


def row0_entries(p: FreePoly) -> dict[tuple[int, int, Mono], int]:
    """The row-0 part of eval_poly, one word_entry per word.

    It is empty exactly when the whole evaluation is (see word_entry).
    """
    return _keyed_sum((word_entry(p.ctx, w), c) for w, c in p.terms.items())
