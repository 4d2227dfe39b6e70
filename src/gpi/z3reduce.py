"""Reduction of generators over Z3 to generators with parts of length <= 3.

Over the cyclic group of order three, every type-1 and type-2 generator is
a consequence of generators whose monomial parts have length at most
three.  The reduction is fully constructive: it produces a certificate
DAG whose steps are sums, context multiplications and weak substitutions,
and whose leaves are reduced generator instances; a subproblem the
recursion reaches twice is one shared node.  Certificates are verified by
symbolic replay in the free algebra, each distinct node once.

Three families of helper identities drive the recursion:

  * the commutator splitting [h1 h2, h3] = h1 [h2, h3] + [h1, h3] h2 for
    parts of trivial degree;
  * telescoping of a trivial-degree variable across a part, using the
    substitutions x -> [x, z];
  * the decomposition of a part with no trivial-degree variable into a
    swapped word plus a substitution image of a shorter word, which is
    where the arithmetic of Z3 enters (the nonzero-degree triple lemma).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .freealg import (Context, DeclarationError, FreePoly, SubstitutionError,
                      WeakSubstitution, Word, bracket, is_multilinear_word,
                      word_degree)
from .identity import GeneratorInstance, GeneratorKind, expand, make_generator


class ReductionError(ValueError):
    pass


class CertificateError(ValueError):
    pass


MAX_REDUCED_PART_LEN = 3


def _require_z3(ctx: Context):
    g = ctx.grading.group
    if g.order != 3 or not g.is_abelian():
        raise ReductionError("the reduction scheme is specific to the cyclic group of order 3")


# --- certificate DAGs ---------------------------------------------------------

@dataclass(frozen=True)
class CertLeaf:
    generator: GeneratorInstance


@dataclass(frozen=True)
class CertSum:
    children: tuple[tuple[int, "CertNode"], ...]


@dataclass(frozen=True)
class CertContext:
    left: Word
    right: Word
    child: "CertNode"


@dataclass(frozen=True)
class CertSubst:
    images: tuple[tuple[int, object], ...]  # (variable id, LieWord) pairs
    child: "CertNode"


CertNode = CertLeaf | CertSum | CertContext | CertSubst


def _children(node: CertNode) -> list[CertNode]:
    if isinstance(node, CertSum):
        return [child for _, child in node.children]
    if isinstance(node, (CertContext, CertSubst)):
        return [node.child]
    return []


def cert_nodes(root: CertNode) -> list[CertNode]:
    """The distinct nodes of a certificate DAG, each once, children first.

    Nodes are told apart by identity, so a subproof shared by several
    parents appears once.  The order is the post-order of a depth-first
    walk that takes children left to right; it is deterministic, and it
    is iterative, so depth costs no stack.
    """
    order: list[CertNode] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(_children(node)))
    return order


def _node_value(ctx: Context, node: CertNode, values: dict[int, FreePoly]) -> FreePoly:
    if isinstance(node, CertLeaf):
        return expand(node.generator)
    if isinstance(node, CertSum):
        terms: dict[Word, int] = {}
        for coeff, child in node.children:
            for w, c in values[id(child)].terms.items():
                terms[w] = terms.get(w, 0) + coeff * c
        return FreePoly(ctx, terms)
    if isinstance(node, CertContext):
        left, right = tuple(node.left), tuple(node.right)
        return FreePoly(ctx, {left + w + right: c
                              for w, c in values[id(node.child)].terms.items()})
    if isinstance(node, CertSubst):
        return WeakSubstitution(ctx, dict(node.images))(values[id(node.child)])
    raise CertificateError(f"unknown certificate node {type(node).__name__}")


def _replay(ctx: Context, nodes: list[CertNode]) -> FreePoly:
    """Evaluate nodes in walk order, each once; the last is the root."""
    values: dict[int, FreePoly] = {}
    for node in nodes:
        values[id(node)] = _node_value(ctx, node, values)
    return values[id(nodes[-1])]


def cert_value(ctx: Context, node: CertNode) -> FreePoly:
    """Symbolic replay: the polynomial a certificate node proves membership for."""
    return _replay(ctx, cert_nodes(node))


def cert_leaves(node: CertNode):
    """The generators at the distinct leaves of a certificate, each once."""
    for n in cert_nodes(node):
        if isinstance(n, CertLeaf):
            yield n.generator


@dataclass(frozen=True)
class ReductionCertificate:
    ctx: Context
    target: GeneratorInstance
    root: CertNode


def check_certificate(cert: ReductionCertificate,
                      max_part_len: int = MAX_REDUCED_PART_LEN):
    """Raise CertificateError at the first failing step or oversized leaf.

    A DeclarationError (a node names an undeclared variable) is bad input,
    not a failed step, and propagates.
    """
    nodes = cert_nodes(cert.root)
    leaves = (n.generator for n in nodes if isinstance(n, CertLeaf))
    for idx, leaf in enumerate(leaves):
        if not leaf.is_reduced(max_part_len):
            raise CertificateError(
                f"leaf {idx} has part lengths {leaf.part_lengths()}, "
                f"limit is {max_part_len}")
    try:
        value = _replay(cert.ctx, nodes)
    except DeclarationError:
        raise
    except (SubstitutionError, ValueError) as exc:
        raise CertificateError(f"replay failed: {exc}") from exc
    if value != expand(cert.target):
        raise CertificateError("replayed value differs from the target expansion")


def verify_certificate(cert: ReductionCertificate,
                       max_part_len: int = MAX_REDUCED_PART_LEN) -> bool:
    try:
        check_certificate(cert, max_part_len)
    except CertificateError:
        return False
    return True


# --- named substitutions ------------------------------------------------------

class SubstKind(Enum):
    MU = "mu"
    PSI = "psi"
    RHO = "rho"


def substitution(ctx: Context, kind: SubstKind, r: int) -> WeakSubstitution:
    """The indexed endomorphism families, on consecutively numbered variables.

    mu(r):  x_{r-1} -> [x_{r-1}, x_r]       (r >= 2, x_r of trivial degree)
    psi(r): x_{r+3} -> [x_r, x_{r+1}]       (r >= 2, x_{r+3} of trivial degree)
    rho(r): x_{r+1} -> [x_2, x_3]           (r >= 4, x_{r+1} of trivial degree)
    """
    if kind is SubstKind.MU:
        if r < 2:
            raise SubstitutionError("mu is defined for r >= 2")
        images = {r - 1: (r - 1, r)}
    elif kind is SubstKind.PSI:
        if r < 2:
            raise SubstitutionError("psi is defined for r >= 2")
        images = {r + 3: (r, r + 1)}
    else:
        if r < 4:
            raise SubstitutionError("rho is defined for r >= 4")
        images = {r + 1: (2, 3)}
    return WeakSubstitution(ctx, images)


# --- helper identities --------------------------------------------------------

def bracket_expand(ctx: Context, h1: Word, h2: Word, h3: Word, h4: Word):
    """Both sides of [h1 h2, h3 h4] = h1 h3 [h2,h4] + h1 [h2,h3] h4
    + h3 [h1,h4] h2 + [h1,h3] h4 h2; a free-algebra identity."""
    def w(word):
        return FreePoly.word(ctx, word)

    lhs = bracket(w(h1) * w(h2), w(h3) * w(h4))
    rhs = (w(h1) * w(h3) * bracket(w(h2), w(h4))
           + w(h1) * bracket(w(h2), w(h3)) * w(h4)
           + w(h3) * bracket(w(h1), w(h4)) * w(h2)
           + bracket(w(h1), w(h3)) * w(h4) * w(h2))
    return lhs, rhs


@dataclass(frozen=True)
class Decomposition:
    """A polynomial together with a certificate node that replays to it."""

    ctx: Context
    total: FreePoly
    node: CertNode

    def verified(self) -> bool:
        return cert_value(self.ctx, self.node) == self.total


def split_commutator(ctx: Context, h1: Word, h2: Word, h3: Word) -> Decomposition:
    """[h1 h2, h3] = h1 [h2, h3] + [h1, h3] h2 for trivial-degree parts."""
    one = ctx.grading.group.identity_index
    h1, h2, h3 = tuple(h1), tuple(h2), tuple(h3)
    for h in (h1, h2, h3):
        if word_degree(ctx, h) != one:
            raise ReductionError("all three parts must have trivial degree")
    total = bracket(FreePoly.word(ctx, h1 + h2), FreePoly.word(ctx, h3))
    node = CertSum((
        (1, CertContext(h1, (), CertLeaf(make_generator(GeneratorKind.TYPE1, ctx, (h2, h3))))),
        (1, CertContext((), h2, CertLeaf(make_generator(GeneratorKind.TYPE1, ctx, (h1, h3))))),
    ))
    return Decomposition(ctx, total, node)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


def pull_zero_factor(ctx: Context, h1: Word, h2: Word, h3: Word, h4: Word,
                     side: Side) -> Decomposition:
    """Peel a trivial-degree factor h3 out of a four-part alternating sum.

    LEFT:  h3 h4 h2 h1 - h1 h2 h3 h4  =  h3 (h4 h2 h1 - h1 h2 h4)  + J1 moves
    RIGHT: h1 h2 h3 h4 - h4 h2 h3 h1  =  h3 (h1 h2 h4 - h4 h2 h1)  + J1 moves
    """
    group = ctx.grading.group
    h1, h2, h3, h4 = (tuple(h) for h in (h1, h2, h3, h4))
    if not is_multilinear_word(h1 + h2 + h3 + h4):
        raise ReductionError("the concatenated word must be multilinear")
    d1, d2, d4 = (word_degree(ctx, h) for h in (h1, h2, h4))
    if d1 != d4 or d1 != group.inv(d2):
        raise ReductionError("outer parts must have degree inverse to the middle")
    if word_degree(ctx, h3) != group.identity_index:
        raise ReductionError("the peeled factor must have trivial degree")

    def w(word):
        return FreePoly.word(ctx, word)

    if side is Side.LEFT:
        total = w(h3 + h4 + h2 + h1) - w(h1 + h2 + h3 + h4)
        core = CertLeaf(make_generator(GeneratorKind.TYPE2, ctx, (h4, h2, h1)))
        if not h3:
            return Decomposition(ctx, total, core)
        node = CertSum((
            (1, CertContext(h3, (), core)),
            (1, CertContext((), h4, CertLeaf(
                make_generator(GeneratorKind.TYPE1, ctx, (h3, h1 + h2))))),
        ))
    else:
        total = w(h1 + h2 + h3 + h4) - w(h4 + h2 + h3 + h1)
        core = CertLeaf(make_generator(GeneratorKind.TYPE2, ctx, (h1, h2, h4)))
        if not h3:
            return Decomposition(ctx, total, core)
        node = CertSum((
            (1, CertContext(h3, (), core)),
            (1, CertContext((), h4, CertLeaf(
                make_generator(GeneratorKind.TYPE1, ctx, (h1 + h2, h3))))),
            (-1, CertContext((), h1, CertLeaf(
                make_generator(GeneratorKind.TYPE1, ctx, (h4 + h2, h3))))),
        ))
    return Decomposition(ctx, total, node)


# --- the Y / V / W families and their telescopes ------------------------------

class FamilyKind(Enum):
    Y = "Y"
    V = "V"
    W = "W"


def _family_check(ctx: Context, kind: FamilyKind, r: int, parts):
    if r < 1:
        raise ReductionError("family index must be at least 1")
    want = 2 if kind is FamilyKind.Y else 3
    if len(parts) != want:
        raise ReductionError(f"family {kind.value} takes {want} parts")
    if ctx.degree(r) != ctx.grading.group.identity_index:
        raise ReductionError(f"x{r} must have trivial degree")
    prefix = tuple(range(1, r + 1))
    if any(v in prefix for p in parts for v in p):
        raise ReductionError("parts must avoid the prefix variables x1..xr")


def build_family(ctx: Context, kind: FamilyKind, r: int, parts) -> FreePoly:
    """The polynomials Y (a bracket), V and W (three-part alternating sums),
    with prefix variables x1..xr and the trivial-degree variable at x_r."""
    _family_check(ctx, kind, r, parts)
    parts = tuple(tuple(p) for p in parts)
    prefix = tuple(range(1, r + 1))

    def w(word):
        return FreePoly.word(ctx, word)

    if kind is FamilyKind.Y:
        h1, h2 = parts
        return bracket(w(prefix + h1), w(h2))
    if kind is FamilyKind.V:
        h1, h2, h3 = parts
        lead = prefix + h1
        return w(lead + h2 + h3) - w(h3 + h2 + lead)
    h1, h2, h3 = parts
    mid = h1 + tuple(range(r, 0, -1))
    return w(h2 + mid + h3) - w(h3 + mid + h2)


def telescope(ctx: Context, kind: FamilyKind, r: int, parts) -> list[FreePoly]:
    """Summands whose free-algebra sum is build_family(kind, r, parts).

    Every summand but the last is a substitution image x_k -> [x_k, x_r] of
    the family member with x_r deleted; the last is the index-1 member with
    x_r moved next to the deleted slot.  W telescopes with minus signs.
    """
    if r < 2:
        raise ReductionError("telescoping requires r >= 2")
    _family_check(ctx, kind, r, parts)
    parts = tuple(tuple(p) for p in parts)
    inner = tuple(range(1, r))  # x1..x_{r-1}

    def w(word):
        return FreePoly.word(ctx, word)

    def mu(k, poly):
        return WeakSubstitution(ctx, {k: (k, r)})(poly)

    out = []
    if kind is FamilyKind.Y:
        h1, h2 = parts
        hat = bracket(w(inner + h1), w(h2))
        for k in range(r - 1, 0, -1):
            out.append(mu(k, hat))
        out.append(bracket(w((r,) + inner + h1), w(h2)))
    elif kind is FamilyKind.V:
        h1, h2, h3 = parts
        lead = inner + h1
        hat = w(lead + h2 + h3) - w(h3 + h2 + lead)
        for k in range(r - 1, 0, -1):
            out.append(mu(k, hat))
        first = (r,) + inner + h1
        out.append(w(first + h2 + h3) - w(h3 + h2 + first))
    else:
        h1, h2, h3 = parts
        mid_hat = h1 + tuple(range(r - 1, 0, -1))
        hat = w(h2 + mid_hat + h3) - w(h3 + mid_hat + h2)
        for k in range(r - 1, 0, -1):
            out.append(mu(k, hat).scale(-1))
        mid_last = mid_hat + (r,)
        out.append(w(h2 + mid_last + h3) - w(h3 + mid_last + h2))
    return out


# --- decompositions of parts without trivial-degree variables -----------------

class DecomposeKind(Enum):
    R3 = "tail"   # rewrite around the last three variables
    R5 = "head"   # rewrite around the first three variables


@dataclass(frozen=True)
class DecomposeResult:
    """h = substituted + swapped, with the forced degree relations recorded."""

    substituted: FreePoly
    swapped: Word
    image_word: Word            # contains the fresh trivial-degree variable
    substitution: WeakSubstitution
    forced_relations: tuple[tuple[int, int], ...]  # pairs of variables with inverse degrees


def nonzero_triple_forced(group, a1: int, a2: int, a3: int, direction: str) -> bool:
    """The Z3 arithmetic fact behind the decompositions.

    forward:  a1+a2 != 0 and a1+a2+a3 != 0  imply  a1+a3 = a2+a3 = 0
    mirror:   a3+a2 != 0 and a3+a2+a1 != 0  imply  a1+a3 = a1+a2 = 0
    for a1, a2, a3 nonzero.
    """
    one = group.identity_index
    if any(a == one for a in (a1, a2, a3)):
        raise ReductionError("all three degrees must be nontrivial")
    if direction == "forward":
        if group.mul(a1, a2) == one or group.product((a1, a2, a3)) == one:
            return True  # hypothesis empty
        return group.mul(a1, a3) == one and group.mul(a2, a3) == one
    if group.mul(a3, a2) == one or group.product((a3, a2, a1)) == one:
        return True
    return group.mul(a1, a3) == one and group.mul(a1, a2) == one


def decompose(ctx: Context, kind: DecomposeKind, h: Word,
              fresh: int | None = None) -> DecomposeResult:
    """Split a word with no trivial-degree variable near one end.

    R5 works on the first three variables x1 x2 x3 (needs length >= 4 and
    nontrivial prefix degrees); R3 mirrors it on the last three.  The word
    equals the substitution image of a shorter word (a fresh trivial-degree
    variable replaced by a bracket) plus the word with two variables swapped.
    """
    _require_z3(ctx)
    group = ctx.grading.group
    one = group.identity_index
    h = tuple(h)
    if len(h) < 4:
        raise ReductionError("decomposition needs a word of length at least 4")
    if kind is DecomposeKind.R5:
        a, b, c = h[0], h[1], h[2]
        da, db, dc = (ctx.degree(v) for v in (a, b, c))
        sums = (da, db, dc, group.mul(da, db), group.product((da, db, dc)))
        if any(s == one for s in sums):
            raise ReductionError("prefix degree conditions for the head decomposition unmet")
        relations = ((b, c), (a, c))  # forced inverse pairs
        swapped = (a, c, b) + h[3:]
        z = ctx.declare(fresh if fresh is not None else ctx.fresh_id(), one)
        image_word = (a, z) + h[3:]
        sub = WeakSubstitution(ctx, {z: (b, c)})
    else:
        a, b, c = h[-3], h[-2], h[-1]
        da, db, dc = (ctx.degree(v) for v in (a, b, c))
        sums = (da, db, dc, group.mul(db, dc), group.product((da, db, dc)))
        if any(s == one for s in sums):
            raise ReductionError("suffix degree conditions for the tail decomposition unmet")
        relations = ((a, b), (a, c))
        swapped = h[:-3] + (b, a, c)
        z = ctx.declare(fresh if fresh is not None else ctx.fresh_id(), one)
        image_word = h[:-3] + (z, c)
        sub = WeakSubstitution(ctx, {z: (a, b)})
    for u, v in relations:
        if group.mul(ctx.degree(u), ctx.degree(v)) != one:
            raise AssertionError("forced degree relation does not hold; group arithmetic bug")
    substituted = sub(FreePoly.word(ctx, image_word))
    if substituted + FreePoly.word(ctx, swapped) != FreePoly.word(ctx, h):
        raise AssertionError("decomposition identity failed to verify")
    return DecomposeResult(substituted, swapped, image_word, sub, relations)


# --- the reduction recursion --------------------------------------------------

def _zero_prefix_split(ctx: Context, h: Word) -> int | None:
    """Least proper prefix length with trivial degree, if any."""
    one = ctx.grading.group.identity_index
    acc = one
    for i in range(len(h) - 1):
        acc = ctx.grading.group.mul(acc, ctx.degree(h[i]))
        if acc == one:
            return i + 1
    return None


def _zero_suffix_split(ctx: Context, h: Word) -> int | None:
    """Least proper suffix length with trivial degree, if any."""
    one = ctx.grading.group.identity_index
    group = ctx.grading.group
    acc = one
    for i in range(len(h) - 1):
        acc = group.mul(ctx.degree(h[-1 - i]), acc)
        if acc == one:
            return i + 1
    return None


def _zero_variable_index(ctx: Context, h: Word) -> int | None:
    one = ctx.grading.group.identity_index
    for i, v in enumerate(h):
        if ctx.degree(v) == one:
            return i
    return None


def _head_decompose_words(ctx: Context, h: Word):
    """R5 pieces for the recursion: (fresh id, image word, lie image, swapped)."""
    res = decompose(ctx, DecomposeKind.R5, h)
    z = res.image_word[1]
    (var, lw), = res.substitution.images.items()
    assert var == z
    return z, res.image_word, lw, res.swapped


def _memoised(build):
    """Memoise a recursion step by its parts, in the dict of one reduction.

    A subproblem reached again (the telescoped `hat`, or the same parts
    along another branch) returns the node already built, so the
    certificate is a DAG that shares it.
    """
    @functools.wraps(build)
    def step(ctx: Context, memo: dict, *parts: Word) -> CertNode:
        key = (build, parts)
        node = memo.get(key)
        if node is None:
            node = memo[key] = build(ctx, memo, *parts)
        return node
    return step


@_memoised
def _reduce1(ctx: Context, memo: dict, h1: Word, h2: Word) -> CertNode:
    if len(h1) <= MAX_REDUCED_PART_LEN and len(h2) <= MAX_REDUCED_PART_LEN:
        return CertLeaf(make_generator(GeneratorKind.TYPE1, ctx, (h1, h2)))
    if len(h1) <= MAX_REDUCED_PART_LEN:
        # [h1, h2] = -[h2, h1]
        return CertSum(((-1, _reduce1(ctx, memo, h2, h1)),))

    split = _zero_prefix_split(ctx, h1)
    if split is not None:
        # [u v, h2] = u [v, h2] + [u, h2] v
        u, v = h1[:split], h1[split:]
        return CertSum((
            (1, CertContext(u, (), _reduce1(ctx, memo, v, h2))),
            (1, CertContext((), v, _reduce1(ctx, memo, u, h2))),
        ))

    zi = _zero_variable_index(ctx, h1)
    if zi is not None:
        # telescope the trivial-degree variable to the front, then split
        z, u, v = h1[zi], h1[:zi], h1[zi + 1:]
        hat = _reduce1(ctx, memo, u + v, h2)
        children = [(1, CertSubst(((u[k], (u[k], z)),), hat))
                    for k in range(len(u) - 1, -1, -1)]
        children.append((1, _reduce1(ctx, memo, (z,) + u + v, h2)))
        return CertSum(tuple(children))

    # no trivial-degree variable anywhere: head decomposition
    z, image_word, lw, swapped = _head_decompose_words(ctx, h1)
    return CertSum((
        (1, CertSubst(((z, lw),), _reduce1(ctx, memo, image_word, h2))),
        (1, _reduce1(ctx, memo, swapped, h2)),
    ))


@_memoised
def _reduce2(ctx: Context, memo: dict, h1: Word, h2: Word, h3: Word) -> CertNode:
    L = MAX_REDUCED_PART_LEN
    if len(h1) > L:
        split = _zero_prefix_split(ctx, h1)
        if split is not None:
            # H = u T' + [u, h3 h2] v  with  T' = v h2 h3 - h3 h2 v
            u, v = h1[:split], h1[split:]
            return CertSum((
                (1, CertContext(u, (), _reduce2(ctx, memo, v, h2, h3))),
                (1, CertContext((), v, _reduce1(ctx, memo, u, h3 + h2))),
            ))
        zi = _zero_variable_index(ctx, h1)
        if zi is not None:
            z, u, v = h1[zi], h1[:zi], h1[zi + 1:]
            hat = _reduce2(ctx, memo, u + v, h2, h3)
            children = [(1, CertSubst(((u[k], (u[k], z)),), hat))
                        for k in range(len(u) - 1, -1, -1)]
            children.append((1, _reduce2(ctx, memo, (z,) + u + v, h2, h3)))
            return CertSum(tuple(children))
        z, image_word, lw, swapped = _head_decompose_words(ctx, h1)
        return CertSum((
            (1, CertSubst(((z, lw),), _reduce2(ctx, memo, image_word, h2, h3))),
            (1, _reduce2(ctx, memo, swapped, h2, h3)),
        ))

    if len(h2) > L:
        split = _zero_suffix_split(ctx, h2)
        if split is not None:
            # H = v T' + [h1 u, v] h3 - [h3 u, v] h1  with  T' = h1 u h3 - h3 u h1
            u, v = h2[:-split], h2[-split:]
            return CertSum((
                (1, CertContext(v, (), _reduce2(ctx, memo, h1, u, h3))),
                (1, CertContext((), h3, _reduce1(ctx, memo, h1 + u, v))),
                (-1, CertContext((), h1, _reduce1(ctx, memo, h3 + u, v))),
            ))
        zi = _zero_variable_index(ctx, h2)
        if zi is not None:
            # telescope the trivial-degree variable to the back, then split
            z, u, v = h2[zi], h2[:zi], h2[zi + 1:]
            hat = _reduce2(ctx, memo, h1, u + v, h3)
            children = [(1, _reduce2(ctx, memo, h1, u + v + (z,), h3))]
            children.extend((-1, CertSubst(((v[j], (v[j], z)),), hat))
                            for j in range(len(v)))
            return CertSum(tuple(children))
        # tail decomposition on the middle part
        res = decompose(ctx, DecomposeKind.R3, h2)
        z = res.image_word[-2]
        (var, lw), = res.substitution.images.items()
        assert var == z
        return CertSum((
            (1, CertSubst(((z, lw),), _reduce2(ctx, memo, h1, res.image_word, h3))),
            (1, _reduce2(ctx, memo, h1, res.swapped, h3)),
        ))

    if len(h3) > L:
        # H(h1,h2,h3) = -H(h3,h2,h1)
        return CertSum(((-1, _reduce2(ctx, memo, h3, h2, h1)),))

    return CertLeaf(make_generator(GeneratorKind.TYPE2, ctx, (h1, h2, h3)))


def reduce_type1(H: GeneratorInstance) -> ReductionCertificate:
    if H.kind is not GeneratorKind.TYPE1:
        raise ReductionError("reduce_type1 expects a type-1 generator")
    _require_z3(H.ctx)
    h1, h2 = H.parts
    return ReductionCertificate(H.ctx, H, _reduce1(H.ctx, {}, h1, h2))


def reduce_type2(H: GeneratorInstance) -> ReductionCertificate:
    if H.kind is not GeneratorKind.TYPE2:
        raise ReductionError("reduce_type2 expects a type-2 generator")
    _require_z3(H.ctx)
    h1, h2, h3 = H.parts
    return ReductionCertificate(H.ctx, H, _reduce2(H.ctx, {}, h1, h2, h3))


# --- enumeration of the reduced shapes ----------------------------------------

def enumerate_reduced(grading, max_part_len: int = MAX_REDUCED_PART_LEN):
    """All reduced generator shapes up to renaming, with fresh variables.

    A shape is a kind together with one degree per variable position;
    instances are built over a fresh context with ids 1, 2, 3, ...
    """
    from itertools import product as iproduct

    if max_part_len < 1:
        raise ReductionError("part length bound must be at least 1")
    group = grading.group
    one = group.identity_index
    lengths = range(1, max_part_len + 1)
    elements = range(group.order)

    def tuples_with_product(length, target):
        for degs in iproduct(elements, repeat=length):
            if group.product(degs) == target:
                yield degs

    out = []
    for la in lengths:
        for lb in lengths:
            for da in tuples_with_product(la, one):
                for db in tuples_with_product(lb, one):
                    out.append((GeneratorKind.TYPE1, (da, db)))
    for la in lengths:
        for lb in lengths:
            for lc in lengths:
                for mid in elements:
                    outer = group.inv(mid)
                    for da in tuples_with_product(la, outer):
                        for db in tuples_with_product(lb, mid):
                            for dc in tuples_with_product(lc, outer):
                                out.append((GeneratorKind.TYPE2, (da, db, dc)))

    instances = []
    for kind, part_degs in out:
        degrees = {}
        parts = []
        nxt = 1
        for degs in part_degs:
            word = []
            for d in degs:
                degrees[nxt] = d
                word.append(nxt)
                nxt += 1
            parts.append(tuple(word))
        ctx = Context(grading, degrees)
        instances.append(make_generator(kind, ctx, tuple(parts)))
    return instances
