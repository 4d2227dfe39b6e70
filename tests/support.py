"""Shared helpers for the test suite: seeded RNG and random object builders."""

from __future__ import annotations

import json
import os
import random
import re

from gpi import certs, upgrade, z3reduce
from gpi.dsl import ParseError
from gpi.freealg import (Context, DeclarationError, FreePoly, ReplayBudget, ReplayBudgetError,
                         WeakSubstitution, _charged_product, _lie_terms, bracket, terms_product,
                         word_degree)
from gpi.genmat import (ExpMono, ScalarPoly, eval_word_closed, mono_exponents, word_entry,
                        word_path)
from gpi.groups import FiniteGroup, GroupError, cyclic_group, default_grading
from gpi.identity import GeneratorInstance, GeneratorKind, degree_rule_holds, make_generator
from gpi.certs import (CertContext, CertLeaf, CertSubst, CertSum, JCombination, JTerm, Move,
                       MoveError, ReductionCertificate, RewriteChain, apply_move)
from gpi.z3reduce import Side

DEFAULT_SEED = 20260823


def seed() -> int:
    return int(os.environ.get("GPI_SEED", DEFAULT_SEED))


def rng(salt: int = 0) -> random.Random:
    return random.Random(seed() + salt)


def canonical(doc) -> str:
    """doc as gpi writes JSON, its keys sorted: the bytes a hand-built
    document would have if gpi's writers had built it (certs.dumps writes
    keys in the order they were built, and the writers build them sorted)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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


# --- the dense matrix product, as the oracle for keyed evaluation -------------

def mono_mul(a: ExpMono, b: ExpMono) -> ExpMono:
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_var(k: int, i: int, j: int) -> ExpMono:
    return (((k, i, j), 1),)


class OraclePoly(ScalarPoly):
    """A ScalarPoly with the ring operations the dense product needs; it
    compares equal to any ScalarPoly with the same terms."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "OraclePoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "OraclePoly":
        return cls({(): c})

    @classmethod
    def variable(cls, k: int, i: int, j: int) -> "OraclePoly":
        return cls({mono_var(k, i, j): 1})

    def __add__(self, other: ScalarPoly) -> "OraclePoly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return OraclePoly(terms)

    def __neg__(self) -> "OraclePoly":
        return self.scale(-1)

    def __sub__(self, other: "OraclePoly") -> "OraclePoly":
        return self + -other

    def __mul__(self, other: ScalarPoly) -> "OraclePoly":
        terms: dict[ExpMono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return OraclePoly(terms)

    def scale(self, c: int) -> "OraclePoly":
        return OraclePoly({m: c * v for m, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


class GenericMatrix:
    """An n x n matrix with OraclePoly entries."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def identity(cls, n: int) -> "GenericMatrix":
        return cls(n, [[OraclePoly.const(int(i == j)) for j in range(n)] for i in range(n)])

    def scale(self, c: int) -> "GenericMatrix":
        return GenericMatrix(self.n, [[e.scale(c) for e in row] for row in self.entries])

    def __add__(self, other: "GenericMatrix") -> "GenericMatrix":
        return GenericMatrix(self.n, [[a + b for a, b in zip(r, s)]
                                      for r, s in zip(self.entries, other.entries)])

    def __mul__(self, other: "GenericMatrix") -> "GenericMatrix":
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = OraclePoly.zero()
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
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


def generic(grading, k: int, g: int) -> GenericMatrix:
    """The generic matrix A_{k,g}: one fresh variable per allowed position."""
    n = grading.n
    return GenericMatrix(n, [[OraclePoly.variable(k, i, j) if j == grading.phi(g, i)
                              else OraclePoly.zero() for j in range(n)] for i in range(n)])


def eval_word_direct(ctx: Context, w) -> GenericMatrix:
    """Evaluate a word by multiplying generic matrices left to right."""
    out = GenericMatrix.identity(ctx.grading.n)
    for v in w:
        out = out * generic(ctx.grading, v, ctx.degree(v))
    return out


def eval_poly_direct(p: FreePoly) -> GenericMatrix:
    """The polynomial's evaluation as the sum of its words' matrix products."""
    out = GenericMatrix.identity(p.ctx.grading.n).scale(0)
    for w, c in p.terms.items():
        out = out + eval_word_direct(p.ctx, w).scale(c)
    return out


def keyed_matrix(n: int, entries: dict) -> GenericMatrix:
    """A keyed sum (genmat.eval_poly) as a dense n x n matrix, to compare
    with the products above."""
    cells: dict[tuple[int, int], dict[ExpMono, int]] = {}
    for (row, col, mono), c in entries.items():
        cells.setdefault((row, col), {})[mono_exponents(mono)] = c
    return GenericMatrix(n, [[OraclePoly(cells.get((i, j))) for j in range(n)]
                             for i in range(n)])


def old_path_entry(path, row: int):
    """The key genmat.path_entry made before its monomial became the sorted
    path: sorted (scalar variable, exponent) pairs, as the oracle for it."""
    exps = {}
    for sv in path:
        exps[sv] = exps.get(sv, 0) + 1
    return (row, path[-1][2] if path else row, tuple(sorted(exps.items())))


def word_matrix(ctx: Context, w) -> GenericMatrix:
    """The word's keys (eval_word_closed), each with coefficient 1, as a
    dense matrix."""
    return keyed_matrix(ctx.grading.n, dict.fromkeys(eval_word_closed(ctx, w), 1))


def dense_matrix_json(mat: GenericMatrix) -> dict:
    """The `gpi eval` document of a dense matrix: its nonzero cells, row-major."""
    return {"n": mat.n, "entries": [
        {"row": i + 1, "col": j + 1, "terms": certs.scalar_poly_to_json(e)}
        for i, row in enumerate(mat.entries) for j, e in enumerate(row) if not e.is_zero()]}


# --- the tokenizer that dsl._tokenize replaced, as an oracle -----------------

_OLD_TOKEN = re.compile(r"\s*(?:(x[0-9]+)|([0-9]+)|([+\-*()\[\],]))")


def old_tokenize(text: str, line: int):
    """One re.match per token, one letter a token: the errors dsl._tokenize
    must give, and its tokens once each run of letters is split at its *s
    (see test_dsl.test_tokenizer_matches_per_token_oracle).  An error names the first character outside a token, or the digit after
    it when that character is an x followed by a non-ASCII decimal digit."""
    pos = 0
    out = []
    while pos < len(text):
        m = _OLD_TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            if stripped[0] == "x" and stripped[1:2].isdecimal():
                stripped, col = stripped[1:], col + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        if m.lastindex:
            out.append((m.group(m.lastindex), m.start(m.lastindex) + 1))
        pos = m.end()
    return out


# --- the parser that dsl._ExprParser replaced, as an oracle -------------------

class _OldExprParser:
    """Factor by factor over (token, column) pairs: each letter and literal is
    its own term dict, multiplied into the product with terms_product."""

    def __init__(self, ctx: Context, tokens, line: int):
        self.ctx = ctx
        self.tokens = tokens
        self.line = line
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def col(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.line, self.col())
        self.take()

    def parse(self) -> FreePoly:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.line, self.col())
        return p

    def expr(self) -> FreePoly:
        terms = {}
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        while True:
            for w, c in self.term().items():
                terms[w] = terms.get(w, 0) + sign * c
            if self.peek() not in ("+", "-"):
                return FreePoly(self.ctx, terms)
            sign = -1 if self.take() == "-" else 1

    def term(self):
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            acc = terms_product(acc, self.factor())
        return acc

    def factor(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line, self.col())
        if tok == "(":
            self.take()
            p = self.expr()
            self.expect(")")
            return p.terms
        if tok == "[":
            self.take()
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return bracket(a, b).terms
        if tok.startswith("x"):
            col = self.col()
            self.take()
            try:
                vid = int(tok[1:])
            except ValueError:  # more digits than int() reads
                raise ParseError(f"variable id of {len(tok) - 1} digits is too long to read",
                                 self.line, col) from None
            if vid < 1 or vid not in self.ctx.degrees:
                raise ParseError(f"variable {tok} is not declared", self.line, col)
            return {(vid,): 1}
        if tok.isdigit():
            self.take()
            n = int(tok)
            return {(): n} if n else {}
        raise ParseError(f"unexpected token {tok!r}", self.line, self.col())


def old_parse_expr(ctx: Context, text: str, line: int = 1) -> FreePoly:
    """The polynomial or the ParseError dsl.parse_expr must give."""
    tokens = old_tokenize(text, line)
    if not tokens:
        raise ParseError("empty expression", line)
    return _OldExprParser(ctx, tokens, line).parse()


# --- the vars: reader that dsl._parse_vars replaced, as an oracle ------------

def _old_read_int(text: str, what: str, line: int) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{what} {text!r} is not a nonnegative integer in ASCII digits", line)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} of {len(text)} digits is too long to read", line) from None


def old_parse_vars(value: str, lineno: int) -> dict[int, int]:
    """The degrees or the ParseError dsl._parse_vars must give: one
    re.fullmatch through the module cache and two checked reads a token."""
    degrees = {}
    for tok in value.split():
        m = re.fullmatch(r"x([0-9]+):([0-9]+)", tok)
        if not m:
            raise ParseError(f"bad variable declaration {tok!r} (want xK:DEG)", lineno)
        k = _old_read_int(m.group(1), "variable id", lineno)
        if k < 1:
            raise ParseError("variable ids start at 1", lineno)
        if k in degrees:
            raise ParseError(f"x{k} declared twice", lineno)
        degrees[k] = _old_read_int(m.group(2), "degree", lineno)
    return degrees


# --- the group-table validator that FiniteGroup's row passes replaced ----------

def old_group_check(table) -> int:
    """The identity index, or the GroupError FiniteGroup must raise: every
    check entry by entry, and Light's test over a two-sided closure."""
    n = len(table)
    if n == 0:
        raise GroupError("group order must be positive")
    tbl = tuple(tuple(row) for row in table)
    if any(len(row) != n for row in tbl):
        raise GroupError("multiplication table must be square")
    for row in tbl:
        for v in row:
            if not (0 <= v < n):
                raise GroupError(f"table entry {v} out of range")
    ident = None
    for e in range(n):
        if all(tbl[e][a] == a and tbl[a][e] == a for a in range(n)):
            ident = e
            break
    if ident is None:
        raise GroupError("table has no two-sided identity")
    for a in range(n):
        if ident not in tbl[a]:
            raise GroupError(f"element {a} has no right inverse")
        b = tbl[a].index(ident)
        if tbl[b][a] != ident:
            raise GroupError(f"element {a} has no two-sided inverse")
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
            raise GroupError("table is not associative")
    for a in gens:
        col_a = [row[a] for row in tbl]
        for x in range(n):
            x_row = tbl[x]
            xa_row = tbl[col_a[x]]
            if any(xa_row[y] != x_row[ay] for y, ay in enumerate(tbl[a])):
                raise GroupError("table is not associative")
    return ident


# --- the chain builder that rewrite._chain_moves replaced, as an oracle --------

def _old_match_paths(ctx: Context, m, n, row: int):
    """Walk both words from row and match their scalar variables: sigma[h]
    is the least unused position of m carrying the variable at n's h."""
    path_m, path_n = word_path(ctx, m, row), word_path(ctx, n, row)
    if len(path_m) == len(path_n):
        unused = {}
        for s in reversed(range(len(path_m))):
            unused.setdefault(path_m[s], []).append(s)  # least position last
        sigma = tuple(unused[t].pop() for t in path_n if unused.get(t))
        if len(sigma) == len(path_n):
            return sigma
    raise ValueError("monomials share no entry at the given position")


def old_chain_moves(ctx: Context, m, n, row: int = 0) -> list:
    """The moves turning n into m, re-walking both remaining words from the
    shared row after every move: the moves rewrite._chain_moves must emit."""
    m, n, prefix = tuple(m), tuple(n), ()
    moves = []
    while True:
        while m and n and m[0] == n[0]:
            row = ctx.grading.phi(ctx.degree(m[0]), row)
            prefix = prefix + (m[0],)
            m, n = m[1:], n[1:]
        if m == n:
            return moves
        sigma = _old_match_paths(ctx, m, n, row)
        inv = [0] * len(sigma)
        for h, s in enumerate(sigma):
            inv[s] = h
        r0 = inv[0]
        t = next(k for k in range(1, len(inv)) if inv[k] < r0)
        p0, s0 = inv[t], inv[t - 1]
        b1, b2, b3, b4 = n[:p0], n[p0:r0], n[r0:s0 + 1], n[s0 + 1:]
        o = len(prefix)
        if b1:  # a reverse3: blocks b1, b2, b3
            moves.append(Move(o, o + p0, o + r0, o + s0 + 1))
        else:  # a swap0: blocks b2, b3
            moves.append(Move(o, o + r0, o + r0, o + s0 + 1))
        n = b3 + b2 + b1 + b4


# --- the word-level replay that certs.move_path replaced, as an oracle ---------

def old_apply_move(ctx: Context, w, mv: Move):
    """w after mv, checked on its letters: the move must fit w, and the
    degrees of its blocks, each walked letter by letter, must obey
    degree_rule_holds."""
    if mv.d > len(w):
        raise MoveError(f"move does not fit a word of length {len(w)}")
    family = GeneratorKind.TYPE1 if mv.b == mv.c else GeneratorKind.TYPE2
    if not degree_rule_holds(family, ctx, mv.blocks(w)):
        raise MoveError("move violates its degree side-conditions")
    return mv.apply(w)


def old_verify_combination(comb) -> bool:
    """Replay every term's moves on its words with old_apply_move, then
    compare the word_entry keys of each term's source and target, each
    walked on its own: the answer certs.verify_combination must give."""
    for t in comb.terms:
        w = start = tuple(t.source)
        end = tuple(t.target)
        try:
            for mv in t.moves:
                w = old_apply_move(comb.ctx, w, mv)
        except MoveError:
            return False
        if w != end or word_entry(comb.ctx, start) != word_entry(comb.ctx, end):
            return False
    return True


# --- the letter-by-letter substitution and the tuple-stack walk, as oracles ----

def old_substitute(mu: WeakSubstitution, p: FreePoly, budget: ReplayBudget) -> FreePoly:
    """The image of p under mu, each word multiplied out one letter at a
    time, every product charged to budget before it is built: the terms and
    the charge WeakSubstitution.__call__ must give."""
    images = {k: _lie_terms(lw, budget) for k, lw in mu.images.items()}
    terms: dict = {}
    for w, c in p.terms.items():
        acc = {(): c}
        for v in w:
            acc = _charged_product(acc, images[v] if v in images else {(v,): 1}, budget)
        for u, d in acc.items():
            terms[u] = terms.get(u, 0) + d
    return FreePoly(mu.ctx, terms)


def cert_children(node) -> list:
    """The children of a certificate node, in order."""
    if isinstance(node, CertSum):
        return [child for _, child in node.children]
    return [node.child] if isinstance(node, (CertContext, CertSubst)) else []


def old_post_order(root, children=cert_children) -> list:
    """The walk upgrade._post_order must give: a stack of (node, expanded)
    pairs, a node appended when it is popped the second time.  By default
    it walks a certificate DAG, whose node table it gives."""
    order: list = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children(node)))
    return order


# --- chain and jcomb documents written back in format v2, as an oracle ---------

def _v2_moves(word: list, moves: list) -> list:
    """Replay version-3 moves [kind, offset, len...] from word and write each
    as the version-2 {kind, left, blocks, right} it stands for.  Raises
    ValueError where a move cannot be cut from the running word."""
    out = []
    for mv in moves:
        kind, offset, *lengths = mv
        if not all(type(x) is int for x in (offset, *lengths)) or offset < 0 \
                or not all(n > 0 for n in lengths) or offset + sum(lengths) > len(word):
            raise ValueError(f"move {mv!r} does not fit a word of length {len(word)}")
        blocks, cut = [], offset
        for n in lengths:
            blocks.append(word[cut:cut + n])
            cut += n
        out.append({"kind": kind, "left": word[:offset], "blocks": blocks,
                    "right": word[cut:]})
        word = word[:offset] + [v for b in reversed(blocks) for v in b] + word[cut:]
    return out


def as_v2(doc: dict) -> dict:
    """A version-3 chain or jcomb document as the version-2 encoder wrote it:
    explicit moves, and every chain with its own start and end."""
    doc = dict(doc, version=2)
    payload = doc["payload"]
    if doc["kind"] == "chain":
        doc["payload"] = dict(payload, moves=_v2_moves(payload["start"], payload["moves"]))
    else:
        doc["payload"] = {"terms": [
            dict(t, chain={"start": t["source"], "end": t["target"],
                           "moves": _v2_moves(t["source"], t["chain"]["moves"])})
            for t in payload["terms"]]}
    return doc


# --- the version-1 and -2 loader that gpi.upgrade replaced, as an oracle -------

_OLD_ARITY = {"swap0": 2, "reverse3": 3}


def _old_explicit_moves(ctx: Context, source, target, chain: dict) -> tuple:
    """Version-1 or -2 moves, {kind, left, blocks, right}, on the running
    word from the chain's own start, every letter checked.  A move whose
    letters are not the running word loads at offset len(word), and a chain
    whose start and end are not the term's source and target gets one more
    move at offset len(source): both lie past the word's end, where
    move_path refuses them."""
    word = start = certs._declared_word(ctx, chain["start"], "start")
    end, moves = certs._declared_word(ctx, chain["end"], "end"), []
    for doc in certs._entries(chain["moves"], "moves"):
        doc = certs._object(doc, "a move")
        left, right = certs._entries(doc["left"], "left"), certs._entries(doc["right"], "right")
        blocks = tuple(certs._entries(b, "a block")
                       for b in certs._entries(doc["blocks"], "blocks"))
        if _OLD_ARITY.get(doc["kind"]) != len(blocks) or () in blocks:
            raise MoveError("a move's kind does not match its nonempty blocks")
        a, d = len(left), len(left) + len(sum(blocks, ()))
        mv = Move(a, a + len(blocks[0]), d - len(blocks[-1]), d)
        if certs._declared_word(ctx, [*left, *sum(blocks, ()), *right], "a move") == word:
            word = mv.apply(word)
        else:
            mv = Move(*(cut - a + len(word) for cut in mv))
        moves.append(mv)
    if (start, end) != (source, target):
        moves.append(Move(len(source), len(source) + 1, len(source) + 1, len(source) + 2))
    return tuple(moves)


def _old_tree_children(entry) -> list:
    """The nodes nested in a node of a version-1 tree, in order."""
    if not isinstance(entry, dict):
        raise certs.CertificateFormatError("a certificate node is a JSON object")
    if entry.get("op") == "sum":
        return [certs._pair(p, "a sum child")[1]
                for p in certs._entries(entry["children"], "children")]
    return [entry["child"]] if entry.get("op") in ("context", "subst") else []


def _old_tree_row(entry: dict, rows: dict[int, int]) -> dict:
    """A node of a version-1 tree as the row that loads it: each nested
    child named by its row in rows."""
    if entry.get("op") == "sum":
        return dict(entry, children=[[c, rows[id(ch)]] for c, ch in entry["children"]])
    if entry.get("op") in ("context", "subst"):
        return dict(entry, child=rows[id(entry["child"])])
    return entry


def _old_payload(ctx: Context, kind: str, payload: dict):
    if kind == "chain":
        start, end = (certs._declared_word(ctx, payload[k], k) for k in ("start", "end"))
        return RewriteChain(ctx, start, _old_explicit_moves(ctx, start, end, payload), end)
    if kind == "jcomb":
        terms = (certs._object(t, "a jcomb term")
                 for t in certs._entries(payload["terms"], "terms"))
        fields = ((certs._integer(t["coeff"]), certs._declared_word(ctx, t["source"], "source"),
                   certs._declared_word(ctx, t["target"], "target"),
                   certs._object(t["chain"], "a term's chain")) for t in terms)
        return JCombination(ctx, tuple(JTerm(c, s, e, _old_explicit_moves(ctx, s, e, chain))
                                       for c, s, e, chain in fields))
    table = upgrade._post_order(payload["root"], _old_tree_children)
    rows, nodes = {id(entry): i for i, entry in enumerate(table)}, []
    for entry in table:
        nodes.append(certs._node_from_entry(ctx, _old_tree_row(entry, rows), nodes))
    return ReductionCertificate(ctx, certs.generator_from_json(ctx, payload["target"]),
                                tuple(nodes))


OLD_READ_VERSIONS = {"chain": (1, 2), "jcomb": (1, 2), "reduction": (1,)}


def old_certificate_from_json(doc: dict):
    """The certificate certs.certificate_from_json loaded, or the error it
    raised, before versions 1 and 2 went to gpi.upgrade: those versions load
    as above, every other document as certs loads it now."""
    kind, version = doc.get("kind"), doc.get("version")
    if not (isinstance(kind, str) and type(version) is int
            and version in OLD_READ_VERSIONS.get(kind, ())):
        return certs.certificate_from_json(doc)
    ctx = certs.context_from_json(doc)
    try:
        return _old_payload(ctx, kind, certs._object(doc.get("payload", {}), "payload"))
    except KeyError as exc:
        raise certs.CertificateFormatError(f"missing field {exc.args[0]!r}") from None


def old_verify_exit(doc) -> int:
    """The exit code `gpi verify` gave on doc through old_certificate_from_json."""
    if not isinstance(doc, dict):
        return 2
    try:
        cert = old_certificate_from_json(doc)
    except (KeyError, TypeError, ValueError):
        return 2
    try:
        if isinstance(cert, RewriteChain):
            ok = certs.verify_chain(cert)
        elif isinstance(cert, JCombination):
            ok = certs.verify_combination(cert)
        else:
            ok = certs.verify_certificate(cert)
    except (DeclarationError, ReplayBudgetError):
        return 2
    return 0 if ok else 1


# --- reductions whose replay grows exponentially with their size ---------------

_Z3_DOC = {"group": {"names": ["0", "1", "2"], "order": 3,
                     "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
           "grading": [0, 1, 2]}


def _reduction_doc(nvars: int, parts, nodes) -> dict:
    """A version-2 reduction over x1..x<nvars>, all of trivial degree in Z3,
    whose leaf and target are the type-1 generator with the given parts."""
    leaf = {"op": "leaf", "generator": {"kind": 1, "parts": parts}}
    return {"version": 2, "kind": "reduction", **_Z3_DOC,
            "vars": {str(v): 0 for v in range(1, nvars + 1)},
            "payload": {"target": {"kind": 1, "parts": parts}, "nodes": [leaf] + nodes,
                        "root": len(nodes)}}


def deep_subst_reduction(brackets: int) -> dict:
    """[x1, x_last] with x1 replaced by [x2, [x3, ..., [x_b+1, x_b+2]]]: the
    image of b brackets expands to 2^b words.  At 16 brackets the document
    is 501 bytes."""
    image = brackets + 2
    for v in range(brackets + 1, 1, -1):
        image = [v, image]
    last = brackets + 3
    return _reduction_doc(last, [[1], [last]],
                          [{"op": "subst", "images": [[1, image]], "child": 0}])


def repeated_letter_reduction(copies: int) -> dict:
    """[x4, x5] behind a context of `copies` letters x1, then x1 replaced by
    [x2, x3]: 2^copies words.  At 16 copies the document is 415 bytes."""
    return _reduction_doc(5, [[4], [5]], [
        {"op": "context", "left": [1] * copies, "right": [], "child": 0},
        {"op": "subst", "images": [[1, [2, 3]]], "child": 1}])


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
                    out.append(Move(a, b, b, c))
                for d in range(c + 1, l + 1):
                    if degree_rule_holds(GeneratorKind.TYPE2, ctx, (b1, b2, w[c:d])):
                        out.append(Move(a, b, c, d))
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


# --- children for the z3reduce lemmas -----------------------------------------

class LeafReduction(z3reduce._Reduction):
    """A reduction whose lemmas make leaf children: node(*parts) adds the
    leaf of the generator with these parts to the table, two parts a type-1
    generator and three a type-2 one.  A lemma's node is then the last of
    the table it recorded."""

    def node(self, *parts):
        return self.add(CertLeaf(make_generator(GeneratorKind(len(parts) - 1), self.ctx, parts)))


def random_telescope(rand: random.Random, grading, r: int):
    """The table a telescope with leaf children records, and the generator
    it rewrites.

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
    if family == "W":
        u, v, side = parts[1], passed, Side.RIGHT
    else:
        u, v, side = passed, parts[0], Side.LEFT
    g = make_generator(kind, ctx, parts[:i] + [u + (z,) + v] + parts[i + 1:])
    reduction = LeafReduction(ctx)
    reduction.telescope(g.parts, i, len(u), side)
    return reduction.nodes, g
