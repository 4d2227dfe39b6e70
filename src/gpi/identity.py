"""Deciding graded identities of the pair, and the generator family.

Membership in the identity ideal of the pair is decided by exact
evaluation at generic matrices: a polynomial is an identity iff its
evaluation is the zero matrix.  The generator family has two kinds:

  type 1:  [h1, h2]              both parts of trivial degree
  type 2:  h1*h2*h3 - h3*h2*h1   outer parts of degree inverse to the middle

with the concatenation of the parts multilinear.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .freealg import Context, FreePoly, Word
from .genmat import Mono, ScalarPoly, mono_exponents, row0_entries
from .genmat import eval_poly  # noqa: F401  unused here: bench/spans.py rebinds this name

MAX_REDUCED_PART_LEN = 3  # the longest part of a reduced generator


class GeneratorError(ValueError):
    pass


class GeneratorKind(Enum):
    TYPE1 = 1
    TYPE2 = 2


@dataclass(frozen=True)
class Witness:
    """A nonzero entry of the evaluation, disproving identity membership."""
    row: int
    col: int
    value: ScalarPoly


@dataclass(frozen=True)
class GeneratorInstance:
    kind: GeneratorKind
    ctx: Context
    parts: tuple[Word, ...]

    def __post_init__(self):
        parts = self.parts
        if not (type(parts) is tuple and all(type(p) is tuple for p in parts)):
            object.__setattr__(self, "parts", parts := tuple(map(tuple, parts)))
        validate_generator(self.kind, self.ctx, parts)

    def part_lengths(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def is_reduced(self) -> bool:
        return all(len(p) <= MAX_REDUCED_PART_LEN for p in self.parts)


def _end_degrees(ctx: Context, parts) -> list[int]:
    """The degree of each prefix of the concatenated parts that ends a part,
    in one pass over the letters; an undeclared letter raises
    DeclarationError, as in word_degree."""
    group, declared, ends = ctx.grading.group, ctx.degrees, []
    table, g = group.table, group.identity_index
    try:
        for p in parts:
            for v in p:
                g = table[g][declared[v]]
            ends.append(g)
    except KeyError:
        ctx.degree(v)  # raises DeclarationError naming the undeclared id
    return ends


def degree_rule_holds(kind: GeneratorKind, ctx: Context, parts) -> bool:
    """The family's degree rule: two parts, both of trivial degree (type 1),
    or three, the outer ones of degree inverse to the middle (type 2).

    It is read from the degrees e1, e2(, e3) of the prefixes that end the
    parts, of degrees d1, d2(, d3).  Type 1, d1 = d2 = e, is e1 = e2 = e.
    For type 2, d1 d2 = e is e2 = e, and then d3 = d1 is e3 = e1."""
    ends, one = _end_degrees(ctx, parts), ctx.grading.group.identity_index
    if kind is GeneratorKind.TYPE1:
        return len(ends) == 2 and ends[0] == ends[1] == one
    return len(ends) == 3 and ends[1] == one and ends[2] == ends[0]


def validate_generator(kind: GeneratorKind, ctx: Context, parts):
    """Raise GeneratorError unless the parts are nonempty, their
    concatenation is multilinear, and they meet the family's degree rule,
    checked in this order."""
    if not all(parts):
        raise GeneratorError("generator parts must be nonempty monomials")
    if len(set().union(*parts)) != sum(map(len, parts)):
        raise GeneratorError("the concatenation of the parts must be multilinear")
    if degree_rule_holds(kind, ctx, parts):
        return
    if kind is GeneratorKind.TYPE1:
        raise GeneratorError("type-1 generators take two parts" if len(parts) != 2
                             else "type-1 parts must both have trivial degree")
    raise GeneratorError("type-2 generators take three parts" if len(parts) != 3
                         else "type-2 outer parts must have degree inverse to the middle")


def make_generator(kind: GeneratorKind, ctx: Context, parts) -> GeneratorInstance:
    return GeneratorInstance(kind, ctx, parts)


def expand(g: GeneratorInstance) -> FreePoly:
    return FreePoly(g.ctx, generator_terms(g))


def generator_terms(g: GeneratorInstance) -> dict[Word, int]:
    """The parts minus the parts reversed: [h1,h2] for type 1, h1h2h3 - h3h2h1
    for type 2.  The two words differ, since the parts are nonempty and
    share no letter."""
    return {sum(g.parts, ()): 1, sum(reversed(g.parts), ()): -1}


def is_graded_identity(p: FreePoly) -> bool:
    return identity_witness(p) is None


def identity_witness(p: FreePoly) -> Witness | None:
    """None when p is an identity, otherwise the first nonzero entry (row-major).

    Row 0 decides (see genmat.word_entry): the evaluation is zero iff its
    row 0 is, so when it is not, the first nonzero entry lies in row 0.
    """
    return keyed_witness(row0_entries(p))


def keyed_witness(entries: dict[tuple[int, int, Mono], int]) -> Witness | None:
    """The first nonzero entry (row-major) of a keyed evaluation (see
    genmat.eval_poly), or None when every coefficient is zero."""
    first = min((key for key, c in entries.items() if c), default=None)
    if first is None:
        return None
    row, col, _ = first
    return Witness(row, col, ScalarPoly({mono_exponents(m): c
                                         for (i, j, m), c in entries.items()
                                         if i == row and j == col}))
