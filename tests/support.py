"""Shared helpers for the test suite: seeded RNG and random object builders."""

from __future__ import annotations

import os
import random
import re

from gpi.dsl import ParseError
from gpi.freealg import Context, FreePoly, WeakSubstitution, bracket, word_degree
from gpi.groups import FiniteGroup, cyclic_group, default_grading
from gpi.identity import GeneratorInstance, GeneratorKind, make_generator
from gpi.rewrite import Move, apply_move
from gpi.z3reduce import CertLeaf, Side, telescope

DEFAULT_SEED = 20260823


def seed() -> int:
    return int(os.environ.get("GPI_SEED", DEFAULT_SEED))


def rng(salt: int = 0) -> random.Random:
    return random.Random(seed() + salt)


# S3 as permutations of {0,1,2}: elements e, (01), (02), (12), (012), (021)
_S3_PERMS = [
    (0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1),
]


def s3() -> FiniteGroup:
    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))
    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    table = tuple(tuple(idx[compose(p, q)] for q in _S3_PERMS) for p in _S3_PERMS)
    return FiniteGroup(table)


def relabelled(group: FiniteGroup, perm) -> FiniteGroup:
    """The same group with element a renamed perm[a]."""
    table = [[0] * group.order for _ in range(group.order)]
    for a, row in enumerate(group.table):
        for b, ab in enumerate(row):
            table[perm[a]][perm[b]] = perm[ab]
    return FiniteGroup(tuple(map(tuple, table)))


def configs():
    """The two desk-scale group configurations."""
    return [default_grading(cyclic_group(2)), default_grading(cyclic_group(3))]


def random_context(rand: random.Random, grading, nvars: int) -> Context:
    order = grading.group.order
    return Context(grading, {k: rand.randrange(order) for k in range(1, nvars + 1)})


def random_word(rand: random.Random, ctx: Context, length: int):
    ids = sorted(ctx.degrees)
    return tuple(rand.choice(ids) for _ in range(length))


def random_multilinear_word(rand: random.Random, ctx: Context, length: int):
    ids = sorted(ctx.degrees)
    return tuple(rand.sample(ids, length))


# --- the tokenizer that dsl._tokenize replaced, as an oracle -----------------

_OLD_TOKEN = re.compile(r"\s*(?:(x\d+)|(\d+)|([+\-*()\[\],]))")


def old_tokenize(text: str, line: int):
    """One re.match per token: the tokens and errors dsl._tokenize must match."""
    pos = 0
    out = []
    while pos < len(text):
        m = _OLD_TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        if m.lastindex:
            out.append((m.group(m.lastindex), m.start(m.lastindex) + 1))
        pos = m.end()
    return out


# --- random congruences -------------------------------------------------------

def enumerate_moves(ctx: Context, w):
    """All context moves applicable to w (valid degree side-conditions)."""
    group = ctx.grading.group
    one = group.identity_index
    l = len(w)
    out = []
    for a in range(l):
        for b in range(a + 1, l):
            for c in range(b + 1, l + 1):
                b1, b2 = w[a:b], w[b:c]
                if word_degree(ctx, b1) == one and word_degree(ctx, b2) == one:
                    out.append(Move("swap0", w[:a], (b1, b2), w[c:]))
                for d in range(c + 1, l + 1):
                    b3 = w[c:d]
                    mv = Move("reverse3", w[:a], (b1, b2, b3), w[d:])
                    if mv.degree_conditions_hold(ctx):
                        out.append(mv)
    return out


def random_congruent_pair(rand: random.Random, ctx: Context, word,
                          max_moves: int = 3):
    """(m, n): n obtained from m by random valid moves, hence congruent."""
    m = tuple(word)
    n = m
    for _ in range(rand.randint(1, max_moves)):
        moves = enumerate_moves(ctx, n)
        if not moves:
            break
        n = apply_move(ctx, n, rand.choice(moves))
    return m, n


# --- random generators and substitutions --------------------------------------

def random_generator(rand: random.Random, grading, kind: GeneratorKind,
                     max_part_len: int, spare: int = 0) -> GeneratorInstance:
    """A random generator instance; `spare` extra variables are declared
    (degrees random) for later use in contexts and substitution images."""
    group = grading.group
    one = group.identity_index
    nparts = 2 if kind is GeneratorKind.TYPE1 else 3
    lens = [rand.randint(1, max_part_len) for _ in range(nparts)]
    degrees = {}
    nxt = 1
    parts = []
    for ln in lens:
        ids = tuple(range(nxt, nxt + ln))
        nxt += ln
        degs = [rand.randrange(group.order) for _ in range(ln)]
        parts.append((ids, degs))
    if kind is GeneratorKind.TYPE1:
        targets = [one, one]
    else:
        mid = rand.randrange(group.order)
        targets = [group.inv(mid), mid, group.inv(mid)]
    words = []
    for (ids, degs), target in zip(parts, targets):
        # fix the last degree of the part so the part degree hits the target
        head = group.product(degs[:-1])
        degs[-1] = next(e for e in range(group.order)
                        if group.mul(head, e) == target)
        for k, dg in zip(ids, degs):
            degrees[k] = dg
        words.append(ids)
    for k in range(nxt, nxt + spare):
        degrees[k] = rand.randrange(group.order)
    ctx = Context(grading, degrees)
    return make_generator(kind, ctx, tuple(words))


def random_lieword(rand: random.Random, ctx: Context, target_deg: int,
                   pool, depth: int):
    """A LieWord over `pool` of the given degree and bracket depth <= depth."""
    group = ctx.grading.group
    if depth == 0:
        cands = [k for k in pool if ctx.degree(k) == target_deg]
        return rand.choice(cands) if cands else None
    for _ in range(20):
        a_deg = rand.randrange(group.order)
        b_deg = next(e for e in range(group.order)
                     if group.mul(a_deg, e) == target_deg)
        a = random_lieword(rand, ctx, a_deg, pool, rand.randint(0, depth - 1))
        b = random_lieword(rand, ctx, b_deg, pool, rand.randint(0, depth - 1))
        if a is not None and b is not None:
            return (a, b)
    return None


def random_weak_substitution(rand: random.Random, ctx: Context, targets,
                             pool, depth: int = 2) -> WeakSubstitution:
    """Map a few of `targets` to random LieWords built from `pool`."""
    images = {}
    for k in targets:
        lw = random_lieword(rand, ctx, ctx.degree(k), pool, rand.randint(0, depth))
        if lw is not None:
            images[k] = lw
    return WeakSubstitution(ctx, images)


# --- free-algebra identities -------------------------------------------------

def bracket_expand(ctx: Context, h1, h2, h3, h4):
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


# --- children for the z3reduce node builders ----------------------------------

def leaf_makers(ctx: Context):
    """Type-1 and type-2 child callables that make each child a leaf."""
    def type1(*parts):
        return CertLeaf(make_generator(GeneratorKind.TYPE1, ctx, parts))

    def type2(*parts):
        return CertLeaf(make_generator(GeneratorKind.TYPE2, ctx, parts))
    return type1, type2


def random_telescope(rand: random.Random, grading, r: int):
    """A telescope node with leaf children and the generator it rewrites.

    A random generator gets r fresh trivial-degree letters, the last of them
    the telescoped letter z, in one part: Y puts them in front of a type-1
    first part, V in front of a type-2 first part (z moves to the front),
    and W behind a type-2 middle part (z moves to the back).
    """
    family = rand.choice("YVW")
    kind = GeneratorKind.TYPE1 if family == "Y" else GeneratorKind.TYPE2
    g = random_generator(rand, grading, kind, 2)
    ctx, parts = g.ctx, list(g.parts)
    i = 1 if family == "W" else 0
    *passed, z = [ctx.declare(ctx.fresh_id(), grading.group.identity_index)
                  for _ in range(r)]
    passed = tuple(passed)

    def with_part(w):
        return make_generator(kind, ctx, parts[:i] + [w] + parts[i + 1:])

    if family == "W":
        u, v, side = parts[1], passed, Side.RIGHT
    else:
        u, v, side = passed, parts[0], Side.LEFT
    node = telescope(ctx, u, z, v, side, lambda w: CertLeaf(with_part(w)))
    return node, with_part(u + (z,) + v)
