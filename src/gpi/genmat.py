"""Generic matrices and evaluation of free-algebra elements at them.

The scalar ring is the commutative polynomial ring over the integers in
variables y^k_{i,j}, one per (variable id, row, column) triple.  A word is
evaluated either by multiplying the generic matrices directly or by the
closed form: starting from a row, walk the position bijections induced
by the successive factor degrees and collect one scalar variable per step.

The group acts on the rows, so row 0 decides (see word_entry): the
decision paths key each word once, at row 0 (row0_entries), and only
what prints whole matrices walks all n rows (word_entries, eval_entries).
"""

from __future__ import annotations

from .freealg import Context, FreePoly, Word
from .groups import GradingTuple

# A scalar variable is a triple (k, i, j); a monomial is a sorted tuple of
# ((k, i, j), exponent) pairs; a ScalarPoly maps monomials to coefficients.

ScalarVar = tuple[int, int, int]
Mono = tuple[tuple[ScalarVar, int], ...]

MONO_ONE: Mono = ()


def mono_mul(a: Mono, b: Mono) -> Mono:
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_var(k: int, i: int, j: int) -> Mono:
    return (((k, i, j), 1),)


class ScalarPoly:
    """Sparse commutative polynomial over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "ScalarPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "ScalarPoly":
        return cls({MONO_ONE: c})

    @classmethod
    def variable(cls, k: int, i: int, j: int) -> "ScalarPoly":
        return cls({mono_var(k, i, j): 1})

    @classmethod
    def monomial(cls, m: Mono, c: int = 1) -> "ScalarPoly":
        return cls({m: c})

    def __add__(self, other: "ScalarPoly") -> "ScalarPoly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return ScalarPoly(terms)

    def __neg__(self) -> "ScalarPoly":
        return ScalarPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ScalarPoly") -> "ScalarPoly":
        return self + (-other)

    def __mul__(self, other: "ScalarPoly") -> "ScalarPoly":
        terms: dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return ScalarPoly(terms)

    def scale(self, c: int) -> "ScalarPoly":
        return ScalarPoly({m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, ScalarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

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


class GenericMatrix:
    """An n x n matrix with ScalarPoly entries."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def identity(cls, n: int) -> "GenericMatrix":
        rows = []
        for i in range(n):
            rows.append([ScalarPoly.const(1) if i == j else ScalarPoly.zero()
                         for j in range(n)])
        return cls(n, rows)

    def scale(self, c: int) -> "GenericMatrix":
        return GenericMatrix(self.n, [
            [e.scale(c) for e in row] for row in self.entries])

    def __mul__(self, other: "GenericMatrix") -> "GenericMatrix":
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ScalarPoly.zero()
                for k in range(n):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return GenericMatrix(n, rows)

    def __eq__(self, other):
        return (isinstance(other, GenericMatrix) and self.n == other.n
                and self.entries == other.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def nonzero_positions(self):
        return [(i, j) for i in range(self.n) for j in range(self.n)
                if not self.entries[i][j].is_zero()]

    def __repr__(self):
        return "\n".join("[" + ", ".join(repr(e) for e in row) + "]"
                         for row in self.entries)


def generic(grading: GradingTuple, k: int, g: int) -> GenericMatrix:
    """The generic matrix A_{k,g}: one fresh variable per allowed position."""
    if k < 1:
        raise ValueError("generic matrix id must be positive")
    n = grading.n
    mat = [[ScalarPoly.zero()] * n for n_ in range(n)]
    for i in range(n):
        j = grading.phi(g, i)
        mat[i] = list(mat[i])
        mat[i][j] = ScalarPoly.variable(k, i, j)
    return GenericMatrix(n, mat)


def eval_word_direct(ctx: Context, w: Word) -> GenericMatrix:
    """Evaluate a word by multiplying generic matrices left to right."""
    n = ctx.grading.n
    out = GenericMatrix.identity(n)
    for v in w:
        out = out * generic(ctx.grading, v, ctx.degree(v))
    return out


def path_degrees(ctx: Context, w: Word) -> list[int]:
    """The prefix products h_1 * ... * h_t of the factor degrees.

    They do not depend on the starting row: after t factors the path from
    row i is at phi(h_1 * ... * h_t, i), since phi_b(phi_a(i)) = phi_{ab}(i).
    """
    table = ctx.grading.group.table
    g = ctx.grading.group.identity_index
    out = []
    for v in w:
        g = table[g][ctx.degree(v)]
        out.append(g)
    return out


def word_path(ctx: Context, w: Word, row: int,
              degrees: list[int] | None = None) -> list[ScalarVar]:
    """The scalar variables (var id, from, to) met along the word's path from row.

    Pass the word's path_degrees as `degrees` when walking it from many rows.
    """
    if degrees is None:
        degrees = path_degrees(ctx, w)
    grading = ctx.grading
    # phi(g, row) = _pos[tuple_[row] * g], with the table row looked up once
    pos, row_times = grading._pos, grading.group.table[grading.tuple_[row]]
    out = []
    i = row
    for v, g in zip(w, degrees):
        j = pos[row_times[g]]
        out.append((v, i, j))
        i = j
    return out


def word_entry(ctx: Context, w: Word, row: int = 0,
               degrees: list[int] | None = None) -> tuple[int, int, Mono]:
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
    path = word_path(ctx, w, row, degrees)
    exps: dict[ScalarVar, int] = {}
    for sv in path:
        exps[sv] = exps.get(sv, 0) + 1
    return (row, path[-1][2] if path else row, tuple(sorted(exps.items())))


def word_entries(ctx: Context, w: Word) -> list[tuple[int, int, Mono]]:
    """The word's evaluation as one word_entry per row, in row order."""
    degrees = path_degrees(ctx, w)
    return [word_entry(ctx, w, row, degrees) for row in range(ctx.grading.n)]


def eval_word_closed(ctx: Context, w: Word) -> GenericMatrix:
    """Evaluate a word without matrix products, via the path walk per row."""
    n = ctx.grading.n
    rows = [[ScalarPoly.zero()] * n for _ in range(n)]
    for row, col, mono in word_entries(ctx, w):
        rows[row] = list(rows[row])
        rows[row][col] = ScalarPoly.monomial(mono)
    return GenericMatrix(n, rows)


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


def eval_entries(p: FreePoly) -> dict[tuple[int, int, Mono], int]:
    """The nonzero terms of the polynomial's evaluation, keyed (row, col, mono).

    Each word contributes one monomial per row (word_entries), so the
    evaluation is a single keyed sum.
    """
    return _keyed_sum((key, c) for w, c in p.terms.items()
                      for key in word_entries(p.ctx, w))


def row0_entries(p: FreePoly) -> dict[tuple[int, int, Mono], int]:
    """The row-0 part of eval_entries, one word_entry per word.

    It is empty exactly when the whole evaluation is (see word_entry).
    """
    return _keyed_sum((word_entry(p.ctx, w), c) for w, c in p.terms.items())


def eval_poly(p: FreePoly) -> GenericMatrix:
    """Evaluate a polynomial at the generic matrices, exactly over Z."""
    n = p.ctx.grading.n
    cells: dict[tuple[int, int], dict[Mono, int]] = {}
    for (row, col, mono), c in eval_entries(p).items():
        cells.setdefault((row, col), {})[mono] = c
    return GenericMatrix(n, [[ScalarPoly(cells.get((i, j))) for j in range(n)]
                             for i in range(n)])
