"""Finite groups given by multiplication tables, and grading tuples.

Elements are integer indices into the table.  A grading tuple assigns a
group element to each of the n matrix positions; since the tuple is a
bijection onto the group, every homogeneous degree g acts on positions
through the bijection phi_g, and a product of degrees h_1 ... h_t through
phi_{h_1 ... h_t} (the path walk genmat.word_path).

Positions are 0-based throughout the library; the JSON/DSL layer converts
to the 1-based convention used in documentation.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from operator import itemgetter


# Groups are given by full tables, so construction costs O(n^2) memory and
# time; larger orders are refused before anything of that size is built.
MAX_GROUP_ORDER = 1024


class GroupError(ValueError):
    pass


def check_order(n: int) -> None:
    """Refuse a group order above MAX_GROUP_ORDER, before its table exists."""
    if n > MAX_GROUP_ORDER:
        raise GroupError(f"group order {n} exceeds the limit {MAX_GROUP_ORDER}")


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group presented by its full multiplication table.

    ``table[a][b]`` is the index of the product a*b.  Associativity,
    identity and inverses are checked on construction, one row (or column)
    at a time in C-level tuple operations, and the inverses found are kept.
    """

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = ()
    identity_index: int = field(init=False, default=0)
    inverses: tuple[int, ...] = field(init=False, default=(), repr=False, compare=False)

    def __post_init__(self):
        n = len(self.table)
        if n == 0:
            raise GroupError("group order must be positive")
        check_order(n)
        tbl = tuple(map(tuple, self.table))
        object.__setattr__(self, "table", tbl)
        if any(len(row) != n for row in tbl):
            raise GroupError("multiplication table must be square")
        plain = tuple(range(n))
        elements = frozenset(plain)
        for row in tbl:
            try:
                in_range = elements.issuperset(row)
            except TypeError:  # an unhashable entry: the scan below names it
                in_range = False
            if not in_range:
                for v in row:
                    if not isinstance(v, int):
                        raise GroupError(f"table entry {reprlib.repr(v)} is not an integer")
                    if not 0 <= v < n:
                        raise GroupError(f"table entry {v} out of range")
        # 1.0 equals 1 and passes every check by equality; the sum of
        # integers is an integer, and one float among them makes it a float.
        if type(sum(map(sum, tbl))) is not int:
            v = next(v for row in tbl for v in row if not isinstance(v, int))
            raise GroupError(f"table entry {v!r} is not an integer")
        # the two-sided identity: its row and its column are 0, 1, ..., n-1
        ident = next((e for e, row in enumerate(tbl)
                      if row == plain and tuple(map(itemgetter(e), tbl)) == plain), None)
        if ident is None:
            raise GroupError("table has no two-sided identity")
        object.__setattr__(self, "identity_index", ident)
        inverses = []
        for a in range(n):
            if ident not in tbl[a]:
                raise GroupError(f"element {a} has no right inverse")
            b = tbl[a].index(ident)
            if tbl[b][a] != ident:
                raise GroupError(f"element {a} has no two-sided inverse")
            inverses.append(b)
        object.__setattr__(self, "inverses", tuple(inverses))
        if not _associative(tbl, ident):
            raise GroupError("table is not associative")
        # true and false equal 1 and 0 and pass every check above, the sum too; in a
        # group, row a holds 0 and 1 at columns a^-1 0 and a^-1 1, 2n entries (a
        # map(type, row) pass over all n^2, for both, takes twice as long at n = 1024)
        for entry in (tbl[a][tbl[b][v]] for a, b in enumerate(inverses) for v in plain[:2]):
            if type(entry) is not int:
                raise GroupError(f"table entry {entry!r} is not an integer")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"g{i}" for i in range(n)))
        elif len(self.names) != n:
            raise GroupError("need one name per element")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def product(self, elems) -> int:
        """Product of a sequence of elements, left to right; empty -> identity."""
        acc = self.identity_index
        for e in elems:
            acc = self.table[acc][e]
        return acc

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n))


def _associative(tbl, ident: int) -> bool:
    """Light's associativity test over a greedily built generating set.

    (xa)y = x(ay) for all x, y and every generator a implies associativity,
    because the elements a satisfying it are closed under the product
    (Clifford & Preston, The Algebraic Theory of Semigroups I, section 1.2).
    Generators are added while the closure of those so far misses an element.
    The closure is grown by right multiplication with the generators: a new
    generator g is first applied to every element already inside, and each
    element that enters is then multiplied by every generator once, O(n) per
    generator.  In a group each closure is the subgroup the generators span,
    so each new generator at least doubles it; a closure that grows less
    proves the table is not a group, and with identity and inverses present,
    that it is not associative.  At most log2(n) generators are tested, each
    by n row comparisons, O(n^2 log n) in all.
    """
    n = len(tbl)
    inside = [False] * n
    inside[ident] = True
    closure = [ident]
    gens = []
    for g in range(n):
        if inside[g]:
            continue
        before = len(closure)
        gens.append(g)
        pending = [row[g] for row in map(tbl.__getitem__, closure)]
        while pending:
            x = pending.pop()
            if inside[x]:
                continue
            inside[x] = True
            closure.append(x)
            pending.extend(map(tbl[x].__getitem__, gens))
        if len(closure) < 2 * before:
            return False
    for a in gens:
        # x_row -> (x(a y) for every y); a generator exists only when n >= 2,
        # so the itemgetter takes several items and returns a tuple
        x_a_y = itemgetter(*tbl[a])
        for x_row in tbl:
            if tbl[x_row[a]] != x_a_y(x_row):
                return False
    return True


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with elements 0..n-1 in natural order; identity at index 0.

    Addition mod n is a group by definition, so the table is not checked
    again; the result equals FiniteGroup(table, names) field for field
    (tests/test_groups.py holds the proof that it does).
    """
    if n < 1:
        raise GroupError("cyclic group order must be at least 1")
    check_order(n)
    plain = tuple(range(n))
    group = object.__new__(FiniteGroup)
    for name, value in (("table", tuple(plain[a:] + plain[:a] for a in range(n))),
                        ("names", tuple(map(str, plain))),
                        ("identity_index", 0),
                        ("inverses", plain[:1] + plain[:0:-1])):  # -a mod n
        object.__setattr__(group, name, value)
    return group


@dataclass(frozen=True)
class GradingTuple:
    """The n-tuple of group elements inducing the elementary grading.

    The tuple must enumerate every group element exactly once; that is the
    standing assumption making phi_g a bijection of positions.
    """

    group: FiniteGroup
    tuple_: tuple[int, ...]

    def __post_init__(self):
        n = self.group.order
        tup = tuple(self.tuple_)
        object.__setattr__(self, "tuple_", tup)
        if sorted(tup) != list(range(n)):
            raise GroupError("grading tuple must be a bijection onto the group")
        # position of each element in the tuple, for phi lookups
        pos = [0] * n
        for i, e in enumerate(tup):
            pos[e] = i
        object.__setattr__(self, "_pos", tuple(pos))

    @property
    def n(self) -> int:
        return self.group.order

    def phi(self, g: int, i: int) -> int:
        """The unique position j with tuple[j] = tuple[i] * g."""
        return self._pos[self.group.mul(self.tuple_[i], g)]


def default_grading(group: FiniteGroup) -> GradingTuple:
    """Grading by the enumeration order (g_0, ..., g_{n-1})."""
    return GradingTuple(group, tuple(range(group.order)))
