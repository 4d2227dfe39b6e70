"""Rewriting monomials modulo the generator ideal, with certificates.

Two monomials whose evaluations share a nonzero entry are congruent
modulo the generator ideal.  The congruence is made effective: the
positions of the two words are paired by matching scalar variables along
their evaluation paths, and the recursion emits context moves

  swap0:     u (b1)(b2) v     ->  u (b2)(b1) v      both blocks of trivial degree
  reverse3:  u (b1)(b2)(b3) v ->  u (b3)(b2)(b1) v  outer blocks inverse to middle

each of which is a context multiple of a generator, hence preserves the
evaluation matrix exactly.  Within each class of words sharing an entry,
a telescoping sum then expresses any identity as an integer combination of
certified differences source - target (see express_in_J).
"""

from __future__ import annotations

from itertools import groupby

from .certs import JCombination, JTerm, Move, MoveError, RewriteChain, path_rule_holds
from .freealg import Context, FreePoly, Word, word_key
from .genmat import ScalarVar, path_entry, word_entry, word_path
from .identity import Witness, keyed_witness

# Unused here, but kept bound: bench/spans.py rebinds these names in this module.
from .genmat import eval_word_closed  # noqa: F401
from .identity import identity_witness  # noqa: F401


class NotCongruentError(ValueError):
    pass


class NoExpressionError(ValueError):
    def __init__(self, msg, witness: Witness):
        super().__init__(msg)
        self.witness = witness


# --- shared entries and the pairing of positions --------------------------------

def shared_entry(ctx: Context, m: Word, n: Word) -> tuple[int, int] | None:
    """First position (row-major) where both evaluations carry the same monomial.

    Row 0 decides (see genmat.word_entry), so it is in row 0 or nowhere.
    A key holds a scalar variable per letter, so words of different
    multidegrees share none.
    """
    key_m = word_entry(ctx, m)
    return key_m[:2] if key_m == word_entry(ctx, n) else None


def _by_variable(path: list[ScalarVar]) -> list[int]:
    """The positions of a path sorted by scalar variable, ties by position.

    Two paths with the same variables are paired by this order: the i-th
    position of one goes with the i-th of the other.  A repeated variable's
    occurrences are paired in position order, so each position of n goes to
    the least unused position of m carrying its variable; the pairing is
    deterministic, and multilinear words never have ties.
    """
    return sorted(range(len(path)), key=path.__getitem__)


def _ties(path: list[ScalarVar], order: list[int]) -> list[list[int]]:
    """The runs of two or more positions of path that carry one scalar
    variable, each in position order; order is _by_variable(path)."""
    runs = (list(run) for _, run in groupby(order, path.__getitem__))
    return [run for run in runs if len(run) > 1]


# --- the congruence recursion -------------------------------------------------

def congruence_chain(ctx: Context, m: Word, n: Word) -> RewriteChain:
    """A certified chain of moves transforming n into m.

    Requires a shared nonzero entry; raises NotCongruentError otherwise.
    Row 0 decides (see genmat.word_entry), so each word is walked once,
    from row 0, and the chain is built on those two paths.
    """
    m, n = tuple(m), tuple(n)
    path_m, path_n = word_path(ctx, m, 0), word_path(ctx, n, 0)
    if path_entry(path_m, 0) != path_entry(path_n, 0):
        raise NotCongruentError("evaluations share no nonzero entry")
    order_m = _by_variable(path_m)
    moves = _chain_moves(path_m, order_m, _by_variable(path_n), _ties(path_m, order_m))
    return RewriteChain(ctx, start=n, moves=moves, end=m)


def _chain_moves(path_m: list[ScalarVar], order_m: list[int], order_n: list[int],
                 ties: list[list[int]]) -> tuple[Move, ...]:
    """The moves transforming n into m, from m's path from one row, both
    paths' positions in variable order (_by_variable) and the runs of m's
    positions that carry one scalar variable (_ties).

    Precondition, checked by both callers: the two paths have equal keys
    (genmat.path_entry; express_in_J reads the sorted path from the order).
    A key holds its path sorted, so the paths carry the same scalar
    variables and the words have one length.

    seq[i] is the position in m paired with n's position i by
    _by_variable.  Each round skips the first positions k that seq fixes,
    where the two words agree; r0 is the position in n paired with m's k,
    t the least position in m paired with one of n's positions k..r0-1, at
    p0, and the move brings n's r0..e-1 forward, where e - 1 is paired with
    t - 1.  Its blocks are k..b-1, b..r0-1 and r0..e-1, with b = p0 when
    p0 > k, a reverse3, and otherwise b = r0 and an empty middle block, a
    swap0.

    Neither word is walked: by move_path, a move that obeys its degree rule
    permutes n's path as it permutes n, so each move permutes seq alike, and
    n's path is path_m read through seq.  Each move's degree rule is checked
    from those rows (path_rule_holds).  The move's cuts k < b <= r0 < e
    are what the checked constructor requires, so each move is built unchecked
    (tuple.__new__, as the loader builds it) and applied to seq in place, by
    one slice assignment to seq[k:e].
    A scalar variable that occurs more than once in m is then paired again
    in position order, as _by_variable pairs it, one run of ties at a time;
    multilinear words have none.  Each move costs O(L) at C speed for words
    of length L, and sorts no path.
    """
    length = len(order_n)
    # order_n's inverse takes n's position h to its rank in variable order
    seq = list(map(order_m.__getitem__, sorted(range(length), key=order_n.__getitem__)))
    moves: list[Move] = []
    k = 0
    while True:
        while k < length and seq[k] == k:
            k += 1
        if k == length:
            return tuple(moves)
        r0 = seq.index(k, k)
        t = min(seq[k:r0])
        p0 = seq.index(t, k)
        e = seq.index(t - 1, k) + 1
        b = p0 if p0 > k else r0  # the first block's end; a swap0's middle block is empty
        ends = (path_m[seq[b - 1]][2], path_m[seq[r0 - 1]][2], path_m[seq[e - 1]][2])
        if not path_rule_holds(path_m[seq[k]][1], ends):
            raise MoveError("move violates its degree side-conditions")
        seq[k:e] = seq[r0:e] + seq[b:r0] + seq[k:b]
        for run in ties:
            for i, j in zip(sorted(map(seq.index, run)), run):
                seq[i] = j
        moves.append(tuple.__new__(Move, (k, b, r0, e)))


# --- expressing identities in the generator ideal ------------------------------

def express_in_J(f: FreePoly) -> JCombination:
    """Express an identity through certified congruent pairs, by telescoping.

    Two words share an evaluation entry exactly when the keys of their
    row-0 paths are equal: row 0 decides every row (see genmat.word_entry).
    So the support splits into key classes, each within one multidegree
    (see shared_entry), and f need not be multihomogeneous.  Take one class
    b_0 < ... < b_k in word_key order, with coefficients c_i and running
    sums s_i = c_0 + ... + c_i.  Then

        c_0 b_0 + ... + c_k b_k = sum over i < k of s_i (b_i - b_{i+1}) + s_k b_k,

    and the class contributes s_k times its key to f's evaluation, so f is
    an identity exactly when every class has s_k = 0; keyed_witness decides
    that from the keyed sum (a non-identity raises NoExpressionError with
    identity_witness's witness).  For an identity f is the first sum: in
    rank order, one term s_i (b_i - b_{i+1}) for each word whose running sum
    is nonzero, with the chain that transforms b_i into b_{i+1}.

    Each word's path is walked once, from row 0, and its positions are
    sorted by scalar variable once (_by_variable); its row-0 key reads its
    monomial in that order and is hashed once, to the id of its class.
    Whether a class's monomial repeats a scalar variable (_ties) is decided
    once per class.  The chain builder walks no word again (see
    _chain_moves).  The cost is O(support * L log L) for words of length L,
    plus O(L) per move.
    """
    support = sorted(f.terms, key=word_key)
    paths = [word_path(f.ctx, word, 0) for word in support]
    orders = list(map(_by_variable, paths))
    ids: dict[tuple, int] = {}  # row-0 key -> class id, in order of first sight
    classes = [ids.setdefault((0, path[-1][2] if path else 0,
                               tuple(map(path.__getitem__, order))), len(ids))
               for path, order in zip(paths, orders)]
    running = [0] * len(ids)
    sums = []  # rank -> its class's running sum, up to and including it
    for word, cls in zip(support, classes):
        running[cls] += f.terms[word]
        sums.append(running[cls])
    w = keyed_witness(dict(zip(ids, running)))  # each class's running sum is its total
    if w is not None:
        raise NoExpressionError("input is not a graded identity", witness=w)
    # what follows builds an identity's terms; a non-identity needs none of it
    following = [0] * len(support)  # rank -> the next rank of its class (0 after its last)
    head = [0] * len(ids)
    for rank in range(len(support) - 1, -1, -1):
        cls = classes[rank]
        following[rank], head[cls] = head[cls], rank
    tied = [len(set(mono)) < len(mono) for _, _, mono in ids]
    terms: list[JTerm] = []
    for rank, s in enumerate(sums):
        if s:  # never a class's last word, whose running sum is its total, 0
            j = following[rank]
            path_m, order_m = paths[j], orders[j]
            ties = _ties(path_m, order_m) if tied[classes[rank]] else []
            moves = _chain_moves(path_m, order_m, orders[rank], ties)
            terms.append(JTerm(coeff=s, source=support[rank], target=support[j], moves=moves))
    return JCombination(f.ctx, tuple(terms))
