"""Reduction of generators over Z3 to generators with parts of length <= 3.

Over the cyclic group of order three, every type-1 and type-2 generator is
a consequence of generators whose monomial parts have length at most
three.  The reduction is fully constructive: it produces a certificate
DAG whose steps are sums, context multiplications and weak substitutions,
and whose leaves are reduced generator instances; a subproblem the
recursion reaches twice is one shared node.  gpi.certs holds the node
types and verifies a certificate by symbolic replay in the free algebra,
each distinct node once.

Every step of the recursion is a node built by the helper of its lemma,
whose children come from one memoised builder over a generator's parts
(tests pass a leaf maker instead).  A long part is shortened at one end,
its Side: LEFT is the head of a first part, RIGHT the tail of a type-2
middle part.  One shortening step tries, in order,

  * the shortest trivial-degree piece at that end, peeled off by the
    caller's split builder: split_commutator, [h1 h2, h3] = h1 [h2, h3]
    + [h1, h3] h2, for a type-1 first part, and pull_zero_factor for a
    type-2 generator;
  * telescope, moving a trivial-degree letter to that end of the part by
    the substitutions x -> [x, z];
  * decompose, writing a part with no trivial-degree letter as a swapped
    word plus a substitution image of a word with a fresh trivial-degree
    letter, around the three letters at that end.  This is where the
    arithmetic of Z3 enters, through the nonzero-degree triple lemma
    (nonzero_triple_forced).
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, chain, pairwise, product
from typing import Callable

from .certs import CertContext, CertLeaf, CertNode, CertSubst, CertSum, ReductionCertificate
from .freealg import Context, Word, is_multilinear_word, word_degree
from .identity import (MAX_REDUCED_PART_LEN, GeneratorInstance, GeneratorKind,
                       degree_rule_holds, make_generator)


MAX_ENUMERATED_SHAPES = 200_000  # enumerate_reduced's limit; Z3 up to length 4 has 193,600


class ReductionError(ValueError):
    pass


def _require_z3(ctx: Context):
    g = ctx.grading.group
    if g.order != 3:  # every group of order 3 is cyclic, and a FiniteGroup is a group
        raise ReductionError("the reduction scheme is specific to the cyclic group of order 3")


# --- node builders, one per lemma ---------------------------------------------
#
# Each builder returns the certificate node of one recursion step, or raises
# ReductionError when the lemma's hypotheses fail.  A callable builds its
# children (the memoised recursion, or a test's leaf maker): reduce(*parts) in
# the split builders, child(w) of the word replacing the long part elsewhere.
# add(node) is handed each node the builder makes, once its children are
# made, and returns it: the reduction records its node table with it.

Child = Callable[..., CertNode]
Add = Callable[[CertNode], CertNode]


class Side(Enum):
    """The end of a part that a step works at."""
    LEFT = "head"    # the head of a first part
    RIGHT = "tail"   # the tail of a type-2 middle part


def split_commutator(ctx: Context, h1: Word, h2: Word, h3: Word,
                     reduce: Child, add: Add) -> CertNode:
    """[h1 h2, h3] = h1 [h2, h3] + [h1, h3] h2 for trivial-degree parts."""
    one = ctx.grading.group.identity_index
    if any(word_degree(ctx, h) != one for h in (h1, h2, h3)):
        raise ReductionError("all three parts must have trivial degree")
    return add(CertSum(((1, add(CertContext(h1, (), reduce(h2, h3)))),
                        (1, add(CertContext((), h2, reduce(h1, h3)))))))


def pull_zero_factor(ctx: Context, h1: Word, h2: Word, h3: Word, h4: Word,
                     side: Side, reduce: Child, add: Add) -> CertNode:
    """Peel a trivial-degree factor h3 out of a type-2 generator.

    LEFT:  h3 h4 h2 h1 - h1 h2 h3 h4 = h3 (h4 h2 h1 - h1 h2 h4) + [h3, h1 h2] h4
    RIGHT: h1 h2 h3 h4 - h4 h2 h3 h1 = h3 (h1 h2 h4 - h4 h2 h1)
                                       + [h1 h2, h3] h4 - [h4 h2, h3] h1
    """
    if not is_multilinear_word(h1 + h2 + h3 + h4):
        raise ReductionError("the concatenated word must be multilinear")
    if not degree_rule_holds(GeneratorKind.TYPE2, ctx, (h1, h2, h4)):
        raise ReductionError("outer parts must have degree inverse to the middle")
    if word_degree(ctx, h3) != ctx.grading.group.identity_index:
        raise ReductionError("the peeled factor must have trivial degree")
    if side is Side.LEFT:
        core = reduce(h4, h2, h1)
        if not h3:
            return core
        return add(CertSum(((1, add(CertContext(h3, (), core))),
                            (1, add(CertContext((), h4, reduce(h3, h1 + h2)))))))
    core = reduce(h1, h2, h4)
    if not h3:
        return core
    return add(CertSum(((1, add(CertContext(h3, (), core))),
                        (1, add(CertContext((), h4, reduce(h1 + h2, h3)))),
                        (-1, add(CertContext((), h1, reduce(h4 + h2, h3)))))))


def telescope(ctx: Context, u: Word, z: int, v: Word, side: Side,
              child: Child, add: Add) -> CertNode:
    """Move the trivial-degree letter z of a part u z v to one end of it.

    child(w) builds the node of the generator G whose part u z v is replaced
    by the word w; mu_x is the substitution x -> [x, z].
      LEFT, to the front:  G(u z v) = sum of mu_x G(u v) over x in u, last
                                      first, + G(z u v)
      RIGHT, to the back:  G(u z v) = G(u v z) - sum of mu_x G(u v) over x in v
    G(u v) is built first, then the other child: decompose numbers its fresh
    variables by declaration order, so this order fixes the certificate bytes.
    """
    if ctx.degree(z) != ctx.grading.group.identity_index:
        raise ReductionError(f"x{z} must have trivial degree")
    if not (u if side is Side.LEFT else v):
        raise ReductionError("the telescoped letter must move past a letter")
    hat = child(u + v)
    if side is Side.LEFT:
        mus = tuple((1, add(CertSubst(((x, (x, z)),), hat))) for x in reversed(u))
        return add(CertSum(mus + ((1, child((z,) + u + v)),)))
    return add(CertSum(((1, child(u + v + (z,))),)
                       + tuple((-1, add(CertSubst(((x, (x, z)),), hat))) for x in v)))


def nonzero_triple_forced(group, a1: int, a2: int, a3: int, side: Side) -> bool:
    """The Z3 arithmetic fact behind the decompositions, for a1, a2, a3 nonzero.

    LEFT:   a1+a2 != 0 and a1+a2+a3 != 0  imply  a1+a3 = a2+a3 = 0
    RIGHT:  the same for the triple read backwards, a3, a2, a1
    """
    one = group.identity_index
    if any(a == one for a in (a1, a2, a3)):
        raise ReductionError("all three degrees must be nontrivial")
    if side is Side.RIGHT:
        a1, a3 = a3, a1
    if group.mul(a1, a2) == one or group.product((a1, a2, a3)) == one:
        return True  # hypothesis empty
    return group.mul(a1, a3) == one and group.mul(a2, a3) == one


def decompose(ctx: Context, side: Side, h: Word, child: Child, add: Add) -> CertNode:
    """Split a part h with no trivial-degree letter near one end.

    child(w) builds the node of the generator whose part h is replaced by
    the word w; z is a fresh trivial-degree variable, declared in ctx.
      LEFT, on the first letters a b c:  h = (a z t)|z->[b,c] + a c b t
      RIGHT, on the last letters a b c:  h = (t z c)|z->[a,b] + t b a c
    The letters and two partial products of nontrivial degree force [b, c]
    (LEFT) or [a, b] (RIGHT) to have trivial degree: nonzero_triple_forced.
    The image child is built first, then the swapped one, which fixes the
    ids of the fresh variables declared below them.
    """
    _require_z3(ctx)
    group = ctx.grading.group
    one = group.identity_index
    if len(h) < 4:
        raise ReductionError("decomposition needs a word of length at least 4")
    head = side is Side.LEFT
    a, b, c = h[:3] if head else h[-3:]
    da, db, dc = (ctx.degree(x) for x in (a, b, c))
    pair = group.mul(da, db) if head else group.mul(db, dc)
    if one in (da, db, dc, pair, group.product((da, db, dc))):
        raise ReductionError(f"degree conditions for the {side.value} decomposition unmet")
    if not nonzero_triple_forced(group, da, db, dc, side):
        raise AssertionError("forced degree relation does not hold; group arithmetic bug")
    z = ctx.declare(ctx.fresh_id(), one)
    if head:
        image, lw, swapped = (a, z) + h[3:], (b, c), (a, c, b) + h[3:]
    else:
        image, lw, swapped = h[:-3] + (z, c), (a, b), h[:-3] + (b, a, c)
    return add(CertSum(((1, add(CertSubst(((z, lw),), child(image)))), (1, child(swapped)))))


# --- the reduction recursion --------------------------------------------------

def _zero_split(ctx: Context, h: Word, side: Side) -> int | None:
    """The cut of h whose piece at that end is the shortest proper one of
    trivial degree, if any: h[:cut] for LEFT, h[cut:] for RIGHT."""
    group = ctx.grading.group
    one = acc = group.identity_index
    for cut in range(1, len(h)) if side is Side.LEFT else range(len(h) - 1, 0, -1):
        if side is Side.LEFT:
            acc = group.mul(acc, ctx.degree(h[cut - 1]))
        else:
            acc = group.mul(ctx.degree(h[cut]), acc)
        if acc == one:
            return cut
    return None


def _shorten(ctx: Context, h: Word, side: Side, child: Child,
             split: Callable[[Word, Word], CertNode], add: Add) -> CertNode:
    """One step on a long part h at its side end.

    child(w) builds the node of the generator with h replaced by w, and
    split(a, b) the node that peels the trivial-degree piece off h = a b.
    """
    cut = _zero_split(ctx, h, side)
    if cut is not None:
        return split(h[:cut], h[cut:])
    for i, v in enumerate(h):
        if ctx.degree(v) == ctx.grading.group.identity_index:
            return telescope(ctx, h[:i], v, h[i + 1:], side, child, add)
    return decompose(ctx, side, h, child, add)


class _Reduction:
    """One reduction: its copied context, one memo keyed by the parts, and
    the node table.

    node(*parts) builds the node of the generator with these parts, each
    distinct one once: a subproblem reached again (the telescoped `hat`, or
    the same parts along another branch) returns the node already built, so
    the certificate is a DAG that shares it.  Two parts are a type-1
    generator and three a type-2 one, so the parts name the family.

    add(node) appends each node to `nodes` as it is made, so the table lists
    each node once, children first and the root last.  Every builder makes
    a node's children before the node, left to right but for telescope's
    `hat`, which it makes first; on the RIGHT, where `hat` is not the first
    child, the first child's own first step reaches `hat` first.  So the
    table is cert_nodes(root), node for node, which the tests check.

    A class, not a closure: a closure that calls itself through its own cell
    is a reference cycle, which only the cyclic collector frees, and
    gpi.cli.main runs with that collector off.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.memo: dict[tuple[Word, ...], CertNode] = {}
        self.nodes: list[CertNode] = []

    def add(self, node: CertNode) -> CertNode:
        self.nodes.append(node)
        return node

    def node(self, *parts: Word) -> CertNode:
        node = self.memo.get(parts)
        if node is None:
            node = self.memo[parts] = self._build(parts)
        return node

    def _build(self, parts: tuple[Word, ...]) -> CertNode:
        ctx, node, add, L = self.ctx, self.node, self.add, MAX_REDUCED_PART_LEN
        if len(parts) == 2:
            kind = GeneratorKind.TYPE1
            h1, h2 = parts
            if len(h1) > L:
                return _shorten(ctx, h1, Side.LEFT, lambda w: node(w, h2),
                                lambda a, b: split_commutator(ctx, a, b, h2, node, add), add)
        else:
            kind = GeneratorKind.TYPE2
            h1, h2, h3 = parts
            if len(h1) > L:
                return _shorten(ctx, h1, Side.LEFT, lambda w: node(w, h2, h3),
                                lambda a, b: pull_zero_factor(ctx, h3, h2, a, b, Side.LEFT,
                                                              node, add), add)
            if len(h2) > L:
                return _shorten(ctx, h2, Side.RIGHT, lambda w: node(h1, w, h3),
                                lambda a, b: pull_zero_factor(ctx, h1, a, b, h3, Side.RIGHT,
                                                              node, add), add)
        if len(parts[-1]) > L:
            # the antisymmetry of generator_terms: the parts minus the parts reversed
            return add(CertSum(((-1, node(*reversed(parts))),)))
        return add(CertLeaf(make_generator(kind, ctx, parts)))


def _reduce(H: GeneratorInstance, kind: GeneratorKind) -> ReductionCertificate:
    """The certificate of H, built on a copy of H's context: the copy gains
    the fresh variables that decompose declares, and the caller's context
    stays as it was, so every reduction of one generator writes the same
    certificate.  The recursion takes a few frames per letter of a long
    part, so parts that run it past Python's recursion limit raise
    ReductionError; the limit is not raised."""
    if H.kind is not kind:
        raise ReductionError(f"reduce_type{kind.value} expects a type-{kind.value} generator")
    _require_z3(H.ctx)
    ctx = Context(H.ctx.grading, dict(H.ctx.degrees))
    reduction = _Reduction(ctx)
    try:
        reduction.node(*H.parts)
    except RecursionError:
        raise ReductionError("the generator's parts are too long to reduce "
                             f"(longest part: {max(H.part_lengths())} letters)") from None
    return ReductionCertificate(ctx, H, tuple(reduction.nodes))


def reduce_type1(H: GeneratorInstance) -> ReductionCertificate:
    return _reduce(H, GeneratorKind.TYPE1)


def reduce_type2(H: GeneratorInstance) -> ReductionCertificate:
    return _reduce(H, GeneratorKind.TYPE2)


# --- enumeration of the reduced shapes ----------------------------------------

def enumerate_reduced(grading, max_part_len: int = MAX_REDUCED_PART_LEN):
    """All reduced generator shapes up to renaming, with fresh variables.

    A shape is a kind together with one degree per variable position;
    instances are built over a fresh context with ids 1, 2, 3, ...

    A part of length l has order^(l-1) degree sequences of one product, so
    with S their sum over l <= max_part_len there are S^2 + order * S^3
    shapes.  More than MAX_ENUMERATED_SHAPES raise ReductionError unbuilt,
    from the first term of S that passes the limit.
    """
    if max_part_len < 1:
        raise ReductionError("part length bound must be at least 1")
    group = grading.group
    n, s, term = group.order, 0, 1
    for _ in range(max_part_len):
        s += term
        if s * s + n * s ** 3 > MAX_ENUMERATED_SHAPES:
            raise ReductionError(f"more than {MAX_ENUMERATED_SHAPES} reduced shapes for order "
                                 f"{n} and parts up to length {max_part_len}")
        term *= n
    one, lengths = group.identity_index, range(1, max_part_len + 1)
    # (kind, part lengths, the degree of each part): type-1 parts have trivial
    # degree, type-2 outer parts the inverse of the middle part's
    shapes = [(GeneratorKind.TYPE1, ls, (one, one)) for ls in product(lengths, repeat=2)]
    shapes += [(GeneratorKind.TYPE2, ls, (group.inv(mid), mid, group.inv(mid)))
               for ls in product(lengths, repeat=3) for mid in range(group.order)]

    def degrees(length: int, target: int) -> list[tuple[int, ...]]:
        """The degrees of a part of this length whose product is target."""
        return [d for d in product(range(group.order), repeat=length)
                if group.product(d) == target]

    return [make_generator(kind, Context(grading, dict(enumerate(chain(*degs), start=1))),
                           [range(a + 1, b + 1) for a, b in pairwise(accumulate(ls, initial=0))])
            for kind, ls, targets in shapes for degs in product(*map(degrees, ls, targets))]
