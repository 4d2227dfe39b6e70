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

from dataclasses import dataclass, field


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group presented by its full multiplication table.

    ``table[a][b]`` is the index of the product a*b.  Associativity,
    identity and inverses are checked on construction.
    """

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = ()
    identity_index: int = field(init=False, default=0)

    def __post_init__(self):
        n = len(self.table)
        if n == 0:
            raise GroupError("group order must be positive")
        tbl = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", tbl)
        if any(len(row) != n for row in tbl):
            raise GroupError("multiplication table must be square")
        for row in tbl:
            for v in row:
                if not (0 <= v < n):
                    raise GroupError(f"table entry {v} out of range")
        # locate the two-sided identity
        ident = None
        for e in range(n):
            if all(tbl[e][a] == a and tbl[a][e] == a for a in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupError("table has no two-sided identity")
        object.__setattr__(self, "identity_index", ident)
        for a in range(n):
            if ident not in tbl[a]:
                raise GroupError(f"element {a} has no right inverse")
            b = tbl[a].index(ident)
            if tbl[b][a] != ident:
                raise GroupError(f"element {a} has no two-sided inverse")
        if not _associative(tbl, ident):
            raise GroupError("table is not associative")
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
        return self.table[a].index(self.identity_index)

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
    In a group each closure is a subgroup, so each new generator at least
    doubles it; a closure that grows less proves the table is not a group,
    and with identity and inverses present, that it is not associative.  At
    most log2(n) generators are tested, O(n^2 log n) in all.
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
        pending = [g]
        while pending:
            x = pending.pop()
            if inside[x]:
                continue
            inside[x] = True
            closure.append(x)
            for y in closure:
                for z in (tbl[x][y], tbl[y][x]):
                    if not inside[z]:
                        pending.append(z)
        if len(closure) < 2 * before:
            return False
    for a in gens:
        col_a = [row[a] for row in tbl]
        for x in range(n):
            x_row = tbl[x]
            xa_row = tbl[col_a[x]]
            if any(xa_row[y] != x_row[ay] for y, ay in enumerate(tbl[a])):
                return False
    return True


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with elements 0..n-1 in natural order; identity at index 0."""
    if n < 1:
        raise GroupError("cyclic group order must be at least 1")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    names = tuple(f"{a}" for a in range(n))
    return FiniteGroup(table, names)


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
