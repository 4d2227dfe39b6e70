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
from dataclasses import dataclass
from typing import NamedTuple

from .freealg import (Context, DeclarationError, FreePoly, ReplayBudget, ReplayBudgetError,
                      WeakSubstitution, Word, check_declared)
from .genmat import ExpMono, Mono, ScalarPoly, ScalarVar, mono_exponents, path_entry, word_path
from .groups import FiniteGroup, GradingTuple, check_order
from .identity import (MAX_REDUCED_PART_LEN, GeneratorInstance, GeneratorKind, expand,
                       generator_terms, make_generator)

CHAIN_VERSION = 3      # chain and jcomb documents: positional moves
REDUCTION_VERSION = 2  # reduction documents: a node table
READ_VERSIONS = dict(chain=CHAIN_VERSION, jcomb=CHAIN_VERSION, reduction=REDUCTION_VERSION)
_GENERATOR_KINDS = {kind.value: kind for kind in GeneratorKind}


class CertificateFormatError(ValueError):
    pass


class MoveError(ValueError):
    pass


# --- moves, chains and combinations ---------------------------------------------

# Each move kind is a context multiple of one generator family, whose parts
# are the move's blocks: the family and the number of blocks.
MOVE_FAMILIES = {"swap0": (GeneratorKind.TYPE1, 2), "reverse3": (GeneratorKind.TYPE2, 3)}
_ARITY = {kind: arity for kind, (_, arity) in MOVE_FAMILIES.items()}


class _MoveFields(NamedTuple):
    kind: str  # "swap0" | "reverse3"
    offset: int
    lengths: tuple[int, ...]


class Move(_MoveFields):
    """A context move as it is written: its blocks are the lengths[i]
    letters that follow the first offset letters, and the move reverses
    their order.

    Move(...) checks its fields.  Move._make((kind, offset, lengths))
    builds one unchecked, for a caller that has checked them itself."""

    __slots__ = ()

    def __new__(cls, kind: str, offset: int, lengths: tuple[int, ...]):
        if not (isinstance(kind, str) and kind in MOVE_FAMILIES):
            raise MoveError(f"unknown move kind {kind!r}")
        arity = MOVE_FAMILIES[kind][1]
        if len(lengths) != arity:
            raise MoveError(f"{kind} takes {arity} blocks")
        if offset < 0 or min(lengths) < 1:
            raise MoveError("a move's offset must be nonnegative and its blocks nonempty")
        return super().__new__(cls, kind, offset, lengths)

    @property
    def end(self) -> int:
        """The position after the last block."""
        return self.offset + sum(self.lengths)

    def blocks(self, seq) -> list:
        """The blocks cut from seq: a word, or the path walked along it."""
        bounds = _bounds(self.offset, self.lengths)
        return [seq[a:b] for a, b in zip(bounds, bounds[1:])]

    def apply(self, seq):
        """seq with the blocks in reverse order: a word, or the path walked
        along it (see move_path)."""
        return _reversed_blocks(seq, *_bounds(self.offset, self.lengths))


def _bounds(offset: int, lengths: tuple[int, ...]) -> tuple[int, ...]:
    """The offset of a move with two or three blocks of these lengths, then
    the position after each block."""
    b = offset + lengths[0]
    c = b + lengths[1]
    return (offset, b, c) if len(lengths) == 2 else (offset, b, c, c + lengths[2])


def _reversed_blocks(seq, a: int, b: int, c: int, d: int | None = None):
    """seq with its blocks seq[a:b], seq[b:c](, seq[c:d]) in reverse order,
    in slices of seq: a word, a path, or a list of positions."""
    if d is None:
        return seq[:a] + seq[b:c] + seq[a:b] + seq[c:]
    return seq[:a] + seq[c:d] + seq[b:c] + seq[a:b] + seq[d:]


def path_rule_holds(kind: str, row: int, ends) -> bool:
    """The degree rule of a move of this kind, read from its path: row is the
    row its first block starts on and ends the rows its blocks end on (see
    move_path)."""
    if kind == "swap0":
        return ends[0] == ends[1] == row
    return ends[1] == row and ends[2] == ends[0]


def move_path(path: list[ScalarVar], mv: Move) -> list[ScalarVar]:
    """The path of a word after mv, from the path of the word: path is the
    word's path from some row, and the result is the moved word's path from
    the same row.  Raises MoveError unless the move fits the path and its
    blocks obey the degree rule of its family.

    The rule is read from the rows of the path.  On a path from row r0, a
    block of degree d that follows a prefix of degree h starts on phi(h, r0)
    and ends on phi(hd, r0), since phi_b(phi_a(i)) = phi_{ab}(i).  phi(g, r0)
    is the position of tuple[r0] * g, and under a bijective tuple that is
    injective in g, so two points of the path are on one row exactly when
    their prefixes have one degree.  With r the row the first block starts
    on, and d1, d2(, d3) the degrees of the blocks b1, b2(, b3):

      swap0:    b1 ends on r exactly when d1 is trivial, and then b2 ends
                on r exactly when d2 is trivial;
      reverse3: b2 ends on r exactly when d1 d2 is trivial, and then b3
                ends on the row where b1 ended exactly when d3 = d1;
                together, d1 = d3 = d2^-1, the type-2 rule.

    A move that obeys the rule only reorders the segments of the path: a
    block's path depends only on its letters and the row it starts on, and
    every block starts on the same row before and after the move.  A swap0
    block runs r -> r in either order; reverse3's blocks b1, b2, b3 run
    r -> s -> r -> s, and after the move b3, b2, b1 run the same
    r -> s -> r -> s, each block from the row it left.  The right context
    then starts on the row it started on.  This uses only the group axioms
    and the action through phi, so it holds for any group and any bijective
    tuple.
    """
    kind, offset, lengths = mv
    bounds = _bounds(offset, lengths)
    if bounds[-1] > len(path):
        raise MoveError(f"move does not fit a word of length {len(path)}")
    if not path_rule_holds(kind, path[offset][1], [path[end - 1][2] for end in bounds[1:]]):
        raise MoveError("move violates its degree side-conditions")
    return _reversed_blocks(path, *bounds)


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


@dataclass(frozen=True)
class JTerm:
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
        terms: dict[Word, int] = {}
        for t in self.terms:
            terms[t.source] = terms.get(t.source, 0) + t.coeff
            terms[t.target] = terms.get(t.target, 0) - t.coeff
        return FreePoly(self.ctx, terms)


def verify_combination(comb: JCombination, claimed: FreePoly | None = None) -> bool:
    """Replay every term's moves on the row-0 path of its source, then check
    the expansion against claimed, if given.

    Each term's source is walked once, and every move is replayed on its
    path with move_path, which checks that the move fits and obeys the
    degree rule.  The final path must be walked along the term's target,
    and its key must equal the source's.  A word evaluates to one key
    (row, col, mono) per row with coefficient 1, and row 0 decides the
    rest (see genmat.word_entry), so equal row-0 keys are exactly equal
    evaluation matrices.
    """
    for t in comb.terms:
        path = source_path = word_path(comb.ctx, t.source, 0)
        try:
            for mv in t.moves:
                path = move_path(path, mv)
        except MoveError:
            return False
        if _letters(path) != tuple(t.target) or path_entry(source_path, 0) != path_entry(path, 0):
            return False
    return claimed is None or comb.expansion() == claimed


def verify_chain(chain: RewriteChain) -> bool:
    """verify_combination on the one term start - end."""
    return verify_combination(
        JCombination(chain.ctx, (JTerm(1, chain.start, chain.end, chain.moves),)))


# --- reduction DAGs -------------------------------------------------------------

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
    value's letters are declared: a leaf through its generator, a context
    node its left and right words, a subst node through WeakSubstitution's
    own checks.  A context node charges budget for the words it builds, a
    subst node what multiplying out builds, and a sum node one letter for
    each child term it adds up, so a table of sums over one large value is
    bounded too.
    """
    kind = type(node)
    if kind is CertContext:
        left, right = tuple(node.left), tuple(node.right)
        check_declared(ctx, (left, right))
        child = values[id(node.child)]
        budget.spend(len(child) * (len(left) + len(right)) + sum(map(len, child)))
        return {left + w + right: c for w, c in child.items()}
    if kind is CertSum:
        budget.spend(sum(len(values[id(child)]) for _, child in node.children))
        terms: dict[Word, int] = {}
        for coeff, child in node.children:
            for w, c in values[id(child)].items():
                terms[w] = terms.get(w, 0) + coeff * c
        return {w: c for w, c in terms.items() if c}
    if kind is CertLeaf:
        g = node.generator
        terms = generator_terms(g)
        if g.ctx is not ctx:  # its letters were checked in its own context
            check_declared(ctx, terms)
        return terms
    if kind is CertSubst:
        mu = WeakSubstitution(ctx, dict(node.images))
        return mu(FreePoly(ctx, values[id(node.child)]), budget).terms
    raise CertificateFormatError(f"unknown certificate node {type(node).__name__}")


def _replay(ctx: Context, nodes: list[CertNode]) -> FreePoly:
    """Evaluate nodes in walk order, each once; the last is the root.

    The whole replay shares one ReplayBudget, so it raises
    ReplayBudgetError rather than build more than MAX_REPLAY_LETTERS.
    """
    values: dict[int, dict[Word, int]] = {}
    budget = ReplayBudget()
    for node in nodes:
        values[id(node)] = _node_terms(ctx, node, values, budget)
    return FreePoly(ctx, values[id(nodes[-1])])


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


def verify_certificate(cert: ReductionCertificate,
                       max_part_len: int = MAX_REDUCED_PART_LEN) -> bool:
    """Every leaf has parts of length at most max_part_len, and the replay
    equals the target's expansion.

    A DeclarationError (a node names an undeclared variable) and a
    ReplayBudgetError (the replay would build more than MAX_REPLAY_LETTERS
    letters) are bad input, not a failed step, and propagate.
    """
    nodes = cert_nodes(cert.root)
    if not all(n.generator.is_reduced(max_part_len)
               for n in nodes if isinstance(n, CertLeaf)):
        return False
    try:
        value = _replay(cert.ctx, nodes)
    except (DeclarationError, ReplayBudgetError):
        raise
    except ValueError:  # a substitution that breaks its degree rule, say
        return False
    return value == expand(cert.target)


# --- wire format: contexts ----------------------------------------------------

def _document(kind: str, version: int, ctx: Context, payload: dict) -> dict:
    """A certificate document: its kind and version, its context, its payload."""
    return {"version": version, "kind": kind, **context_to_json(ctx), "payload": payload}


def context_to_json(ctx: Context) -> dict:
    return {
        "group": {
            "order": ctx.grading.group.order,
            "table": [list(row) for row in ctx.grading.group.table],
            "names": list(ctx.grading.group.names),
        },
        "grading": list(ctx.grading.tuple_),
        "vars": vars_to_json(ctx),
    }


def vars_to_json(ctx: Context) -> dict:
    """The variable degrees, keyed by decimal id (see _var_id)."""
    return {str(k): d for k, d in sorted(ctx.degrees.items())}


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
        group = FiniteGroup(table, _entries(gdoc.get("names", []), "group names"))
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
    return {"n": n, "entries": [{"row": i + 1, "col": j + 1,
                                 "terms": scalar_poly_to_json(ScalarPoly(terms))}
                                for (i, j), terms in cells.items()]}


# --- wire format: rewrite chains and combinations -----------------------------
#
# Version 3 writes a move as [kind, offset, len1, len2(, len3)], the fields of
# a Move: the blocks are the len_i letters of the running word that follow its
# first offset letters, and the running word starts at the chain's start (a
# jcomb term's source).  A jcomb term writes its endpoints once, as source and
# target.

_INT = frozenset({int})


def move_to_json(mv: Move) -> list:
    return [mv.kind, mv.offset, *mv.lengths]


def chain_to_json(chain: RewriteChain) -> dict:
    return _document("chain", CHAIN_VERSION, chain.ctx, {
        "start": list(chain.start), "end": list(chain.end),
        "moves": [move_to_json(m) for m in chain.moves]})


def jcomb_to_json(comb: JCombination) -> dict:
    return _document("jcomb", CHAIN_VERSION, comb.ctx, {"terms": [
        {"coeff": t.coeff, "source": list(t.source), "target": list(t.target),
         "chain": {"moves": [move_to_json(m) for m in t.moves]}}
        for t in comb.terms]})


def _positional_moves(size: int, docs: list) -> tuple[Move, ...]:
    """Version-3 moves, each checked to fit a running word of length size;
    no path is cut here, move_path cuts it on replay.

    One pass checks each move's types and shape (a known kind, its number
    of blocks, offset >= 0, blocks nonempty, and the fit), so the move is
    built unchecked; the checked Move(...) runs only on a bad move, to name
    what is wrong."""
    moves = []
    for i, doc in enumerate(docs):
        if not (type(doc) is list and len(doc) > 1 and type(doc[0]) is str
                and _INT.issuperset(map(type, doc[1:]))):  # bool is not int here
            raise CertificateFormatError(
                f"move {i} is not [kind, offset, len, ...] with integer offset and lengths")
        kind, offset, lengths = doc[0], doc[1], tuple(doc[2:])
        if not (len(lengths) == _ARITY.get(kind) and offset >= 0 and min(lengths) >= 1
                and offset + sum(lengths) <= size):
            try:
                Move(kind, offset, lengths)
            except MoveError as exc:
                raise CertificateFormatError(f"move {i}: {exc}") from None
            raise CertificateFormatError(
                f"move {i}: offset {offset} and block lengths {list(lengths)} "
                f"do not fit a word of length {size}")
        moves.append(Move._make((kind, offset, lengths)))
    return tuple(moves)


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
    if isinstance(node, CertLeaf):
        return {"op": "leaf", "generator": generator_to_json(node.generator)}
    if isinstance(node, CertSum):
        return {"op": "sum",
                "children": [[c, index[id(ch)]] for c, ch in node.children]}
    if isinstance(node, CertContext):
        return {"op": "context", "left": list(node.left), "right": list(node.right),
                "child": index[id(node.child)]}
    if isinstance(node, CertSubst):
        return {"op": "subst",
                "images": [[v, _lieword_to_json(lw)] for v, lw in node.images],
                "child": index[id(node.child)]}
    raise CertificateFormatError(f"unknown node {type(node).__name__}")


def _node_from_entry(ctx: Context, entry, ref) -> CertNode:
    if not isinstance(entry, dict):
        raise CertificateFormatError("a certificate node is a JSON object")
    op = entry.get("op")
    if op == "leaf":
        return CertLeaf(generator_from_json(ctx, entry["generator"]))
    if op == "sum":
        children = (_pair(p, "a sum child") for p in _entries(entry["children"], "children"))
        return CertSum(tuple((_integer(c), ref(ch)) for c, ch in children))
    if op == "context":
        return CertContext(_declared_word(ctx, entry["left"], "left"),
                           _declared_word(ctx, entry["right"], "right"), ref(entry["child"]))
    if op == "subst":
        images = (_pair(p, "an image") for p in _entries(entry["images"], "images"))
        return CertSubst(tuple((_declared(ctx, v), _lieword_from_json(ctx, lw))
                               for v, lw in images), ref(entry["child"]))
    raise CertificateFormatError(f"unknown certificate op {op!r}")


def reduction_to_json(cert: ReductionCertificate) -> dict:
    """The certificate as a node table: each distinct node once, children first."""
    nodes = cert_nodes(cert.root)
    index = {id(node): i for i, node in enumerate(nodes)}
    return _document("reduction", REDUCTION_VERSION, cert.ctx, {
        "target": generator_to_json(cert.target),
        "nodes": [_node_entry(node, index) for node in nodes],
        "root": index[id(cert.root)]})


def reduction_from_payload(ctx: Context, doc: dict) -> ReductionCertificate:
    """Build the DAG from its node table.

    Every child reference and the root must be an int naming an earlier row,
    so the rows load in one pass and no cycle can be written.
    """
    table, root = _entries(doc["nodes"], "reduction nodes"), doc["root"]
    nodes: list[CertNode] = []

    def ref(i) -> CertNode:
        if type(i) is not int or not 0 <= i < len(nodes):
            raise CertificateFormatError(
                f"node {len(nodes)}: reference {i!r} does not name an earlier node")
        return nodes[i]

    for entry in table:
        nodes.append(_node_from_entry(ctx, entry, ref))
    if type(root) is not int or not 0 <= root < len(nodes):
        raise CertificateFormatError(f"root {root!r} does not name a node")
    return ReductionCertificate(ctx, generator_from_json(ctx, doc["target"]), nodes[root])


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
    coeff, source and target, a reduction's target)."""
    p = doc["payload"]
    return dumps([doc.get(k) for k in ("kind", "group", "grading", "vars")]
                 + [p.get(k) for k in ("start", "end", "target")]
                 + [[t["coeff"], t["source"], t["target"]] for t in p.get("terms", ())])


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
