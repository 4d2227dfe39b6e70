"""Certificates: their types, their checking, and their JSON wire format.

A certificate is a rewrite chain, a combination of certified differences
(a jcomb) or a reduction DAG.  The producers in rewrite and z3reduce build
them; this module holds everything `gpi verify` runs on them: the data
classes, the replay that checks them, and the writer and loader of the
current format version of each kind (gpi.upgrade, outside this module,
rewrites older documents as the current version).  It trusts only
freealg's arithmetic, the group table, identity's generator families (their
degree rules and expansions), and genmat's row-0 paths and keys; a move's
degree rule is read from the rows of the path it permutes (move_path).

Every certificate embeds its full context (group table, grading tuple,
variable degrees) so that verification needs no side files.  Matrix
positions are 1-based on the wire; group elements and variable degrees are
element indices into the embedded table.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .freealg import (Context, DeclarationError, FreePoly, ReplayBudget, ReplayBudgetError,
                      WeakSubstitution, Word, check_declared, linear_combination)
from .genmat import ExpMono, Mono, ScalarPoly, ScalarVar, mono_exponents, word_path
from .groups import FiniteGroup, GradingTuple, check_order
from .identity import (GeneratorInstance, GeneratorKind, generator_terms, make_generator,
                       validate_generator)

CHAIN_VERSION = 3      # chain and jcomb documents: positional moves
REDUCTION_VERSION = 2  # reduction documents: a node table
READ_VERSIONS = dict(chain=CHAIN_VERSION, jcomb=CHAIN_VERSION, reduction=REDUCTION_VERSION)
_GENERATOR_KINDS = {kind.value: kind for kind in GeneratorKind}


class CertificateFormatError(ValueError):
    pass


class MoveError(ValueError):
    pass


# --- moves, chains and combinations ---------------------------------------------

class _Cuts(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class Move(_Cuts):
    """A context move, a block interchange: its blocks are seq[a:b],
    seq[b:c] and seq[c:d] of a word, or of the path walked along it, and the
    move reverses their order.  It is a context multiple of one generator
    family, whose parts are its nonempty blocks: a swap0 (type 1) is the
    case b == c of an empty middle block, a reverse3 (type 2) has three.

    Move(...) checks its cuts.  tuple.__new__(Move, cuts) builds one
    unchecked, for a caller that has checked them itself."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if not type(a) is type(b) is type(c) is type(d) is int:  # bool is not int here
            raise MoveError("a move's cuts must be integers")
        if not 0 <= a < b <= c < d:
            raise MoveError("a move's cuts must satisfy 0 <= a < b <= c < d")
        return tuple.__new__(cls, (a, b, c, d))

    def blocks(self, seq) -> list:
        """The nonempty blocks cut from seq: a word, or the path walked along it."""
        a, b, c, d = self
        return [seq[a:b], seq[c:d]] if b == c else [seq[a:b], seq[b:c], seq[c:d]]

    def apply(self, seq):
        """seq with the blocks in reverse order: a word, path or position list."""
        a, b, c, d = self
        return seq[:a] + seq[c:d] + seq[b:c] + seq[a:b] + seq[d:]


def path_rule_holds(row: int, ends: tuple[int, int, int]) -> bool:
    """The degree rule of a move, read from its path: row is the row its
    first block starts on and ends the rows its three blocks end on, in
    block order, a swap0's empty middle block ending where its first block
    ends (see move_path)."""
    return ends[1] == row and ends[2] == ends[0]


def move_path(path: list[ScalarVar], mv: Move) -> list[ScalarVar]:
    """The path of a word after mv, from the path of the word: path is the
    word's path from some row, and the result is the moved word's path from
    the same row.  Raises MoveError unless the move fits the path and its
    blocks obey the degree rule of its family; the fit is checked first, so
    the rule reads no row past the path.

    The rule is read from the rows of the path.  On a path from row r0, a
    block of degree d that follows a prefix of degree h starts on phi(h, r0)
    and ends on phi(hd, r0), since phi_b(phi_a(i)) = phi_{ab}(i).  phi(g, r0)
    is the position of tuple[r0] * g, and under a bijective tuple that is
    injective in g, so two points of the path are on one row exactly when
    their prefixes have one degree.  A move has three blocks b1, b2, b3 of
    degrees d1, d2, d3, a swap0 being the case of an empty b2 (d2 = e).
    With r the row b1 starts on, b2 ends on r exactly when d1 d2 is
    trivial, and then b3 ends on the row where b1 ended exactly when
    d3 = d1: together, d1 = d3 = d2^-1, the type-2 rule, which at a trivial
    d2 is the type-1 rule d1 = d3 = e.

    A move that obeys the rule only reorders the segments of the path: a
    block's path depends only on its letters and the row it starts on, and
    every block starts on the same row before and after the move.  b1, b2,
    b3 run r -> s -> r -> s (s = r for a swap0), and after the move b3, b2,
    b1 run the same r -> s -> r -> s, each block from the row it left.  The
    right context then starts on the row it started on.  This uses only the
    group axioms and the action through phi, so it holds for any group and
    any bijective tuple.
    """
    a, b, c, d = mv
    if d > len(path):
        raise MoveError(f"move does not fit a word of length {len(path)}")
    if not path_rule_holds(path[a][1], (path[b - 1][2], path[c - 1][2], path[d - 1][2])):
        raise MoveError("move violates its degree side-conditions")
    return path[:a] + path[c:d] + path[b:c] + path[a:b] + path[d:]  # mv.apply(path), one frame


def _letters(path: list[ScalarVar]) -> Word:
    """The word a path was walked along."""
    return tuple([v for v, _, _ in path])


def apply_move(ctx: Context, w: Word, mv: Move) -> Word:
    """w after mv: move_path on the row-0 path of w, which must fit and obey
    the degree rule; every letter of w must be declared."""
    return _letters(move_path(word_path(ctx, w, 0), mv))


@dataclass(frozen=True)
class RewriteChain:
    """Certified congruence: applying the moves transforms start into end."""

    ctx: Context
    start: Word
    moves: tuple[Move, ...]
    end: Word


class JTerm(NamedTuple):
    """One certified difference coeff * (source - target): applying the
    moves transforms source into target."""

    coeff: int
    source: Word
    target: Word
    moves: tuple[Move, ...]


@dataclass(frozen=True)
class JCombination:
    """Expression of an identity as sum of coeff * (source - target)."""

    ctx: Context
    terms: tuple[JTerm, ...]

    def expansion(self) -> FreePoly:
        """The sum of coeff * (source - target); a term whose source is its
        target adds nothing."""
        return FreePoly(self.ctx, linear_combination(
            pair for t in self.terms
            for pair in ((t.coeff, {t.source: 1}), (-t.coeff, {t.target: 1}))))


def verify_combination(comb: JCombination) -> bool:
    """Replay every term's moves on the row-0 path of its source: each move
    must fit and obey its degree rule (move_path), and the final path must
    be walked along the term's target.  Whether the combination proves a
    given f is comb.expansion() == f.

    By move_path's lemma, the final path is the target's row-0 path and has
    the source's row-0 key, which decides the evaluation (see
    genmat.word_entry), so no key is compared.  A term whose source is an
    earlier term's target starts from that term's final path, and only a
    source that no earlier term ended on is walked (word_path).  Only paths
    built by word_path and move_path are kept, so a document cannot plant
    one.
    """
    ends: dict[Word, list[ScalarVar]] = {}  # a checked target -> its row-0 path
    for _, source, target, moves in comb.terms:
        path = ends.get(source)
        if path is None:
            path = word_path(comb.ctx, source, 0)
        try:
            for mv in moves:
                path = move_path(path, mv)
        except MoveError:
            return False
        target = tuple(target)
        if _letters(path) != target:
            return False
        ends[target] = path
    return True


def verify_chain(chain: RewriteChain) -> bool:
    """verify_combination on the one term start - end."""
    return verify_combination(
        JCombination(chain.ctx, (JTerm(1, chain.start, chain.end, chain.moves),)))


# --- reduction DAGs -------------------------------------------------------------
#
# The four node types are NamedTuples, as Move and JTerm are: a node is the
# tuple of its fields.  The walk and the replay tell nodes apart by identity.

class CertLeaf(NamedTuple):
    generator: GeneratorInstance


class CertSum(NamedTuple):
    children: tuple[tuple[int, "CertNode"], ...]


class CertContext(NamedTuple):
    left: Word
    right: Word
    child: "CertNode"


class CertSubst(NamedTuple):
    images: tuple[tuple[int, object], ...]  # (variable id, LieWord) pairs
    child: "CertNode"


CertNode = CertLeaf | CertSum | CertContext | CertSubst


def _children(node: CertNode) -> list[CertNode]:
    kind = type(node)
    if kind is CertSum:
        return [child for _, child in node.children]
    if kind is CertContext or kind is CertSubst:
        return [node.child]
    return []


_VISITED = object()  # on the walk's stack: the node below it has its children done


def _post_order(root, children) -> list:
    """The distinct nodes reachable from root, each once, children first.

    Nodes are told apart by identity, so a subproof shared by several
    parents appears once.  The order is the post-order of a depth-first
    walk that takes children(node) left to right; it is deterministic, and
    it is iterative, so depth costs no stack.  A node is pushed with a
    sentinel above it and its children above that, so the node is popped
    into the order once its children are.
    """
    order: list = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node is _VISITED:
            order.append(stack.pop())
        elif id(node) not in seen:
            seen.add(id(node))
            stack += (node, _VISITED)
            stack += reversed(children(node))
    return order


def cert_nodes(root: CertNode) -> list[CertNode]:
    """The distinct nodes of a certificate DAG, each once, children first."""
    return _post_order(root, _children)


def _node_terms(ctx: Context, node: CertNode, values: dict[int, dict[Word, int]],
                budget: ReplayBudget) -> dict[Word, int]:
    """The terms of one node's value (word -> nonzero coefficient), from its
    children's terms.

    Each node checks only the letters it brings in against ctx, so every
    value's letters are declared: a leaf through its generator (one built
    in another context is validated again in ctx, degree rule too), a
    context node its left and right words, a subst node through
    WeakSubstitution's degree check of its images.  A context node charges budget for the
    words it builds, a subst node what expanding its images and multiplying
    out build, and a sum node one letter for each child term it adds up, so
    a table of sums over one large value is bounded too.
    """
    kind = type(node)
    if kind is CertContext:
        left, right = tuple(node.left), tuple(node.right)
        check_declared(ctx, (left, right))
        child = values[id(node.child)]
        budget.spend(len(child) * (len(left) + len(right)) + sum(map(len, child)))
        return {left + w + right: c for w, c in child.items()}
    if kind is CertSum:
        pairs = [(coeff, values[id(child)]) for coeff, child in node.children]
        budget.spend(sum(len(terms) for _, terms in pairs))
        return linear_combination(pairs)
    if kind is CertLeaf:
        g = node.generator
        if g.ctx is not ctx:  # it was validated in its own context
            validate_generator(g.kind, ctx, g.parts)
        return generator_terms(g)
    if kind is CertSubst:
        mu = WeakSubstitution(ctx, dict(node.images))
        return mu.image_terms(values[id(node.child)], budget)
    raise CertificateFormatError(f"unknown certificate node {type(node).__name__}")


def _replay(ctx: Context, nodes: Sequence[CertNode]) -> dict[Word, int]:
    """Evaluate nodes in their order, each once, children first; the terms
    of the last, the root.

    The whole replay shares one ReplayBudget, so it raises
    ReplayBudgetError rather than build more than MAX_REPLAY_LETTERS.
    """
    values: dict[int, dict[Word, int]] = {}
    budget = ReplayBudget()
    for node in nodes:
        values[id(node)] = _node_terms(ctx, node, values, budget)
    return values[id(nodes[-1])]


def cert_value(ctx: Context, node: CertNode) -> FreePoly:
    """Symbolic replay: the polynomial a certificate node proves membership for."""
    return FreePoly(ctx, _replay(ctx, cert_nodes(node)))


def cert_leaves(node: CertNode):
    """The generators at the distinct leaves of a certificate, each once."""
    for n in cert_nodes(node):
        if isinstance(n, CertLeaf):
            yield n.generator


@dataclass(frozen=True)
class ReductionCertificate:
    """A reduction of target, as its node table: nodes lists each distinct
    node of the DAG once, children first, and the root last."""

    ctx: Context
    target: GeneratorInstance
    nodes: tuple[CertNode, ...]

    @property
    def root(self) -> CertNode:
        return self.nodes[-1]


def verify_certificate(cert: ReductionCertificate) -> bool:
    """Every leaf is reduced (parts of length at most MAX_REDUCED_PART_LEN),
    and the nodes, replayed in table order, give the root the target's
    terms.  Every node has checked the letters it brings in and dropped its
    zero coefficients, so the root is compared as it is, a term dict.

    A DeclarationError (a node names an undeclared variable) and a
    ReplayBudgetError (the replay would build more than MAX_REPLAY_LETTERS
    letters) are bad input, not a failed step, and propagate.
    """
    nodes = cert.nodes
    if not all(n.generator.is_reduced() for n in nodes if type(n) is CertLeaf):
        return False
    try:
        value = _replay(cert.ctx, nodes)
    except (DeclarationError, ReplayBudgetError):
        raise
    except ValueError:  # a substitution that breaks its degree rule, say
        return False
    return value == generator_terms(cert.target)


# --- wire format: contexts ----------------------------------------------------

# Every writer builds its dicts with their keys in sorted order, so that dumps
# writes them in that order without sorting them.

def _document(kind: str, version: int, ctx: Context, payload: dict) -> dict:
    """A certificate document: its kind and version, its context, its payload."""
    context = context_to_json(ctx)
    return {"grading": context["grading"], "group": context["group"], "kind": kind,
            "payload": payload, "vars": context["vars"], "version": version}


def context_to_json(ctx: Context) -> dict:
    group = ctx.grading.group
    return {
        "grading": list(ctx.grading.tuple_),
        "group": {
            "names": list(group.names),
            "order": group.order,
            "table": [list(row) for row in group.table],
        },
        "vars": vars_to_json(ctx),
    }


def vars_to_json(ctx: Context) -> dict:
    """The variable degrees, keyed by decimal id (see _var_id), in the
    order of the keys as strings ("1", "10", "2")."""
    return dict(sorted((str(k), d) for k, d in ctx.degrees.items()))


def context_from_json(doc: dict) -> Context:
    try:
        gdoc = _object(doc["group"], "group")
        rows = _entries(gdoc["table"], "group table")
        check_order(len(rows))  # before the per-entry pass over n^2 entries
        order = gdoc["order"]
        if type(order) is not int or order != len(rows):
            raise CertificateFormatError(
                f"group order {order!r} is not the number of table rows, {len(rows)}")
        table = tuple(tuple(map(_integer, _entries(r, "a table row"))) for r in rows)
        names = _entries(gdoc.get("names", []), "group names")
        if not all(type(name) is str for name in names):
            raise CertificateFormatError("group names must be JSON strings")
        group = FiniteGroup(table, names)
        grading = GradingTuple(group, tuple(map(_integer, _entries(doc["grading"], "grading"))))
        vars_doc = doc["vars"]
        if not isinstance(vars_doc, dict):
            raise TypeError("vars is not a JSON object")
        degrees = {_var_id(k): _integer(d) for k, d in vars_doc.items()}
    except (KeyError, TypeError) as exc:
        raise CertificateFormatError(f"malformed context: {exc}") from exc
    return Context(grading, degrees)


# --- wire format: words, polynomials, matrices --------------------------------

def scalar_poly_to_json(p: ScalarPoly) -> list[dict]:
    """Terms in monomial order; each variable y^k_{a,b}^e is [k, a, b, e], 1-based."""
    return [{"coeff": c, "vars": [[k, a + 1, b + 1, e] for (k, a, b), e in m]}
            for m, c in sorted(p.terms.items())]


def matrix_to_json(n: int, entries: dict[tuple[int, int, Mono], int]) -> dict:
    """An n x n keyed sum (see genmat.eval_poly) as its nonzero cells, row-major.

    Each cell's monomials are written in exponent form, and in its order
    (scalar_poly_to_json), which is not the order of the keys' monomials.
    """
    cells: dict[tuple[int, int], dict[ExpMono, int]] = {}
    for (row, col, mono), c in sorted(entries.items()):
        if c:
            cells.setdefault((row, col), {})[mono_exponents(mono)] = c
    return {"entries": [{"col": j + 1, "row": i + 1,
                         "terms": scalar_poly_to_json(ScalarPoly(terms))}
                        for (i, j), terms in cells.items()], "n": n}


# --- wire format: rewrite chains and combinations -----------------------------
#
# Version 3 writes a move as [kind, offset, len1, len2(, len3)]: the blocks
# are the len_i letters of the running word that follow its first offset
# letters, and the running word starts at the chain's start (a jcomb term's
# source).  The kind, "swap0" or "reverse3", is its number of blocks, and a
# Move's empty middle block is not written.  A jcomb term writes its
# endpoints once, as source and target.

def move_to_json(mv: Move) -> list:
    a, b, c, d = mv
    return ["swap0", a, b - a, d - c] if b == c else ["reverse3", a, b - a, c - b, d - c]


def chain_to_json(chain: RewriteChain) -> dict:
    return _document("chain", CHAIN_VERSION, chain.ctx, {
        "end": list(chain.end), "moves": [move_to_json(m) for m in chain.moves],
        "start": list(chain.start)})


def jcomb_to_json(comb: JCombination) -> dict:
    return _document("jcomb", CHAIN_VERSION, comb.ctx, {"terms": [
        {"chain": {"moves": [move_to_json(m) for m in moves]}, "coeff": coeff,
         "source": list(source), "target": list(target)}
        for coeff, source, target, moves in comb.terms]})


def _positional_moves(size: int, docs: list) -> tuple[Move, ...]:
    """Version-3 moves, each checked to fit a running word of length size;
    no path is cut here, move_path cuts it on replay.

    One expression per kind checks a move's shape, its integer fields (bool
    is not int here), offset >= 0, blocks nonempty and the fit, so the move
    is built unchecked from its cuts; only a bad move reaches _bad_move, to
    name what is wrong."""
    moves = []
    for i, doc in enumerate(docs):
        if type(doc) is list and len(doc) == 4 and doc[0] == "swap0":
            _, a, p, q = doc
            if (type(a) is type(p) is type(q) is int
                    and a >= 0 and p >= 1 and q >= 1 and a + p + q <= size):
                moves.append(tuple.__new__(Move, (a, a + p, a + p, a + p + q)))
                continue
        elif type(doc) is list and len(doc) == 5 and doc[0] == "reverse3":
            _, a, p, q, r = doc
            if (type(a) is type(p) is type(q) is type(r) is int
                    and a >= 0 and p >= 1 and q >= 1 and r >= 1 and a + p + q + r <= size):
                moves.append(tuple.__new__(Move, (a, a + p, a + p + q, a + p + q + r)))
                continue
        raise _bad_move(i, doc, size)
    return tuple(moves)


_ARITY = {"swap0": 2, "reverse3": 3}  # a written move kind: its number of blocks


def _written_move(kind, offset: int, lengths: tuple[int, ...]) -> Move:
    """The move written as kind, offset and block lengths (versions 1 to 3):
    its blocks are the lengths[i] letters after the first offset letters."""
    if not (isinstance(kind, str) and kind in _ARITY):
        raise MoveError(f"unknown move kind {kind!r}")
    if len(lengths) != _ARITY[kind]:
        raise MoveError(f"{kind} takes {_ARITY[kind]} blocks")
    if offset < 0 or min(lengths) < 1:
        raise MoveError("a move's offset must be nonnegative and its blocks nonempty")
    b, d = offset + lengths[0], offset + sum(lengths)
    return tuple.__new__(Move, (offset, b, d - lengths[-1], d))


def _bad_move(i: int, doc, size: int) -> CertificateFormatError:
    """The error naming what is wrong with move i, doc, which _positional_moves
    refused: its types, else _written_move's message, else the fit."""
    if not (type(doc) is list and len(doc) > 1 and type(doc[0]) is str
            and all(type(v) is int for v in doc[1:])):
        return CertificateFormatError(
            f"move {i} is not [kind, offset, len, ...] with integer offset and lengths")
    kind, offset, lengths = doc[0], doc[1], tuple(doc[2:])
    try:
        _written_move(kind, offset, lengths)
    except MoveError as exc:
        return CertificateFormatError(f"move {i}: {exc}")
    return CertificateFormatError(f"move {i}: offset {offset} and block lengths "
                                  f"{list(lengths)} do not fit a word of length {size}")


def _load_terms(ctx: Context, fields) -> tuple[JTerm, ...]:
    """The terms whose fields (coeff, source, target, chain) come, one term
    at a time, from fields.  The pass that reads them reads each chain's
    move list too, whose moves load once the replay fits one budget (one
    running word, as long as the source, per move)."""
    terms = [(coeff, source, target, _entries(chain["moves"], "moves"))
             for coeff, source, target, chain in fields]
    ReplayBudget().spend(sum(len(source) * len(moves) for _, source, _, moves in terms))
    return tuple(JTerm(coeff, source, target, _positional_moves(len(source), moves))
                 for coeff, source, target, moves in terms)


def chain_from_payload(ctx: Context, doc: dict) -> RewriteChain:
    """The chain's one term (1, start, end); the payload is its own chain."""
    (t,) = _load_terms(ctx, [(1, _declared_word(ctx, doc["start"], "start"),
                              _declared_word(ctx, doc["end"], "end"), doc)])
    return RewriteChain(ctx, t.source, t.moves, t.target)


def jcomb_from_payload(ctx: Context, doc: dict) -> JCombination:
    terms = (_object(t, "a jcomb term") for t in _entries(doc["terms"], "terms"))
    return JCombination(ctx, _load_terms(ctx, (
        (_integer(t["coeff"]), _declared_word(ctx, t["source"], "source"),
         _declared_word(ctx, t["target"], "target"), _object(t["chain"], "a term's chain"))
        for t in terms)))


# --- wire format: reduction certificates --------------------------------------

def generator_to_json(g: GeneratorInstance) -> dict:
    return {"kind": g.kind.value, "parts": [list(p) for p in g.parts]}


def generator_from_json(ctx: Context, doc) -> GeneratorInstance:
    doc = _object(doc, "a generator")
    kind = _GENERATOR_KINDS.get(_integer(doc["kind"]))
    if kind is None:
        raise CertificateFormatError(f"unknown generator kind {doc['kind']}")
    return make_generator(kind, ctx, tuple(
        _declared_word(ctx, p, "a generator part") for p in _entries(doc["parts"], "parts")))


def _lieword_to_json(lw):
    if isinstance(lw, int):
        return lw
    l, r = lw
    return [_lieword_to_json(l), _lieword_to_json(r)]


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise CertificateFormatError(f"{what} must be a JSON object")
    return doc


def _entries(doc, what: str) -> tuple:
    """The entries of a JSON list; a string or an object is not one."""
    if type(doc) is not list:
        raise CertificateFormatError(f"{what} must be a JSON list")
    return tuple(doc)


def _pair(doc, what: str) -> list:
    if not (isinstance(doc, list) and len(doc) == 2):
        raise CertificateFormatError(f"{what} must be a JSON list of two entries")
    return doc


def _integer(doc) -> int:
    if type(doc) is not int:  # int() would truncate 1.5 and accept "1"
        raise CertificateFormatError(f"expected an integer, got {doc!r}")
    return doc


def _var_id(key) -> int:
    """A key of `vars`: the id as context_to_json writes it, ASCII digits
    without sign or leading zero (int() would also take " 1", "+2", "0_3"
    and "03", and two spellings of one id would merge)."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()
            and (key == "0" or key[0] != "0")):
        raise CertificateFormatError(f"variable id {key!r} is not a decimal integer")
    return int(key)


def _declared(ctx: Context, var) -> int:
    ctx.degree(_integer(var))  # raises DeclarationError on undeclared ids
    return var


def _lieword_from_json(ctx: Context, doc):
    if isinstance(doc, list):
        l, r = _pair(doc, "a Lie word")
        return (_lieword_from_json(ctx, l), _lieword_from_json(ctx, r))
    return _declared(ctx, doc)


def _declared_word(ctx: Context, doc, what: str) -> Word:
    word, degrees = _entries(doc, what), ctx.degrees
    for v in word:
        if type(v) is not int or v not in degrees:
            _declared(ctx, v)  # raises, naming v
    return word


def _node_entry(node: CertNode, index: dict[int, int]) -> dict:
    """One row of the node table; children are indices of earlier rows."""
    kind = type(node)
    if kind is CertContext:
        return {"child": index[id(node.child)], "left": list(node.left), "op": "context",
                "right": list(node.right)}
    if kind is CertSum:
        return {"children": [[c, index[id(ch)]] for c, ch in node.children],
                "op": "sum"}
    if kind is CertLeaf:
        return {"generator": generator_to_json(node.generator), "op": "leaf"}
    if kind is CertSubst:
        return {"child": index[id(node.child)],
                "images": [[v, _lieword_to_json(lw)] for v, lw in node.images],
                "op": "subst"}
    raise CertificateFormatError(f"unknown node {type(node).__name__}")


def _earlier(nodes: list[CertNode], i) -> CertNode:
    """The node reference i names: an int indexing nodes, the earlier rows."""
    if type(i) is not int or not 0 <= i < len(nodes):
        raise CertificateFormatError(
            f"node {len(nodes)}: reference {i!r} does not name an earlier node")
    return nodes[i]


def _node_from_entry(ctx: Context, entry, nodes: list[CertNode]) -> CertNode:
    """Row len(nodes) of a node table, whose children are among nodes.

    A context or sum row is checked whole in one pass, as it is read: its
    fields' types (bool is not int here), every letter declared, every child
    reference an earlier row.  Only a row that this check refuses is read
    again, field by field, to name what is wrong.  A checked row is built
    with tuple.__new__, which skips the NamedTuple's Python-level __new__."""
    if not isinstance(entry, dict):
        raise CertificateFormatError("a certificate node is a JSON object")
    op = entry.get("op")
    if op == "context":
        left, right, child = entry.get("left"), entry.get("right"), entry.get("child")
        if type(left) is type(right) is list and type(child) is int and 0 <= child < len(nodes):
            degrees = ctx.degrees
            for v in left + right:
                if type(v) is not int or v not in degrees:
                    break
            else:
                return tuple.__new__(CertContext, (tuple(left), tuple(right), nodes[child]))
        return CertContext(_declared_word(ctx, entry["left"], "left"),
                           _declared_word(ctx, entry["right"], "right"),
                           _earlier(nodes, entry["child"]))
    if op == "sum":
        children, n = entry.get("children"), len(nodes)
        if type(children) is list:
            pairs = []
            for pair in children:
                if type(pair) is not list or len(pair) != 2:
                    break
                c, i = pair
                if type(c) is not int or type(i) is not int or not 0 <= i < n:
                    break
                pairs.append((c, nodes[i]))
            else:
                return tuple.__new__(CertSum, (tuple(pairs),))
        children = (_pair(p, "a sum child") for p in _entries(entry["children"], "children"))
        return CertSum(tuple((_integer(c), _earlier(nodes, ch)) for c, ch in children))
    if op == "leaf":
        return CertLeaf(generator_from_json(ctx, entry["generator"]))
    if op == "subst":
        images: dict[int, object] = {}
        for v, lw in (_pair(p, "an image") for p in _entries(entry["images"], "images")):
            if _declared(ctx, v) in images:
                raise CertificateFormatError(f"node {len(nodes)}: x{v} is mapped twice")
            images[v] = _lieword_from_json(ctx, lw)
        return CertSubst(tuple(images.items()), _earlier(nodes, entry["child"]))
    raise CertificateFormatError(f"unknown certificate op {op!r}")


def reduction_to_json(cert: ReductionCertificate) -> dict:
    """The certificate as its node table, the root the last row."""
    nodes = cert.nodes
    index = {id(node): i for i, node in enumerate(nodes)}
    return _document("reduction", REDUCTION_VERSION, cert.ctx, {
        "nodes": [_node_entry(node, index) for node in nodes],
        "root": len(nodes) - 1,
        "target": generator_to_json(cert.target)})


def reduction_from_payload(ctx: Context, doc: dict) -> ReductionCertificate:
    """Build the DAG from its node table.

    Every child reference and the root must be an int naming an earlier row,
    so the rows load in one pass and no cycle can be written.  Every row is
    loaded, and the certificate keeps, in table order, the rows the root
    reaches.  One backward pass from the root finds them: it marks the
    children of each marked row, which are earlier rows, so it passes them
    after marking them.
    """
    table, root = _entries(doc["nodes"], "reduction nodes"), doc["root"]
    nodes: list[CertNode] = []
    for entry in table:
        nodes.append(_node_from_entry(ctx, entry, nodes))
    if type(root) is not int or not 0 <= root < len(nodes):
        raise CertificateFormatError(f"root {root!r} does not name a node")
    target = generator_from_json(ctx, doc["target"])
    reached = [False] * root + [True]
    for i in range(root, -1, -1):
        if reached[i]:
            entry = table[i]  # loaded above, so its child references are valid
            op = entry["op"]
            if op == "sum":
                for _, child in entry["children"]:
                    reached[child] = True
            elif op != "leaf":
                reached[entry["child"]] = True
    return ReductionCertificate(ctx, target, tuple(compress(nodes, reached)))


# --- wire format: loading a certificate ---------------------------------------

def certificate_from_json(doc: dict):
    """Load a certificate document of the current version of its kind;
    returns a chain, combination or reduction."""
    kind, version = doc.get("kind"), doc.get("version")
    if not (isinstance(kind, str) and kind in READ_VERSIONS):
        raise CertificateFormatError(f"unknown certificate kind {kind!r}")
    if type(version) is not int or version != READ_VERSIONS[kind]:
        raise CertificateFormatError(f"unsupported version {version!r} of a {kind}")
    ctx = context_from_json(doc)
    payload = _object(doc.get("payload", {}), "payload")
    try:
        if kind == "chain":
            return chain_from_payload(ctx, payload)
        if kind == "jcomb":
            return jcomb_from_payload(ctx, payload)
        return reduction_from_payload(ctx, payload)
    except KeyError as exc:  # a JSON object of the payload lacks a field
        raise CertificateFormatError(f"missing field {exc.args[0]!r}") from None


def claim(doc: dict) -> str:
    """What a certificate document of any version asserts, as JSON text: its
    kind, context and endpoints (a chain's start and end, each jcomb term's
    coeff, source and target, a reduction's target).  Its keys are sorted,
    since either document may have been built by hand."""
    p = doc["payload"]
    return json.dumps([doc.get(k) for k in ("kind", "group", "grading", "vars")]
                      + [p.get(k) for k in ("start", "end", "target")]
                      + [[t["coeff"], t["source"], t["target"]] for t in p.get("terms", ())],
                      sort_keys=True, separators=(",", ":"))


def dumps(doc) -> str:
    """doc as compact JSON text and a newline, each object's keys in the
    order they were built (the writers here build them sorted).  Every
    writer builds a fresh tree, so no cycle is looked for."""
    return json.dumps(doc, check_circular=False, separators=(",", ":")) + "\n"
