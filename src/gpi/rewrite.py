"""Rewriting monomials modulo the generator ideal, with certificates.

Two monomials whose evaluations share a nonzero entry are congruent
modulo the generator ideal.  The congruence is made effective: the
positions of the two words are paired by matching scalar variables along
their evaluation paths, and the recursion emits context moves

  swap0:     u (b1)(b2) v     ->  u (b2)(b1) v      both blocks of trivial degree
  reverse3:  u (b1)(b2)(b3) v ->  u (b3)(b2)(b1) v  outer blocks inverse to middle

each of which is a context multiple of a generator, hence preserves the
evaluation matrix exactly.  The cancellation loop then expresses any
identity as an integer combination of certified differences source - target.
"""

from __future__ import annotations

from itertools import groupby

from .certs import (JCombination, JTerm, Move, MoveError, RewriteChain, _reversed_blocks,
                    path_rule_holds)
from .freealg import Context, FreePoly, Word, is_multilinear_word, word_key
from .genmat import ScalarVar, path_entry, word_entry, word_path
from .identity import Witness, keyed_witness

# Unused here, but kept bound: bench/spans.py rebinds these names in this module.
from .genmat import eval_word_closed  # noqa: F401
from .identity import identity_witness  # noqa: F401


class NotCongruentError(ValueError):
    pass


class NoExpressionError(ValueError):
    def __init__(self, msg, witness: Witness | None = None):
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
    moves = _chain_moves(path_m, _by_variable(path_m), _by_variable(path_n),
                         not is_multilinear_word(m))
    return RewriteChain(ctx, start=n, moves=moves, end=m)


def _chain_moves(path_m: list[ScalarVar], order_m: list[int], order_n: list[int],
                 repeats: bool) -> tuple[Move, ...]:
    """The moves transforming n into m, from m's path from one row and both
    paths' positions in variable order (_by_variable); repeats says whether
    a letter of m repeats.

    Precondition, checked by both callers: the two paths have equal keys
    (path_entry).  A key holds its path sorted, so the paths carry the same
    scalar variables and the words have one length.

    seq[i] is the position in m paired with n's position i by
    _by_variable.  Each round skips the first positions k that seq fixes,
    where the two words agree; r0 is the position in n paired with m's k,
    t the least position in m paired with one of n's positions k..r0-1, at
    p0, and the move brings n's r0..e-1 forward, where e - 1 is paired with
    t - 1.  It is a reverse3 when p0 > k, and a swap0 otherwise.

    Neither word is walked: by move_path, a move that obeys its degree rule
    permutes n's path as it permutes n, so each move permutes seq alike, and
    n's path is path_m read through seq.  Each move's degree rule is checked
    from those rows (path_rule_holds).  The move's bounds k < (p0 <) r0 < e
    <= L are nonnegative and increasing, so each move is built unchecked
    (Move._make) and applied to seq by slices.  A scalar variable that
    occurs more than once in m is then paired again in position order, as
    _by_variable pairs it (see _ties); on multilinear words there are no
    ties.  Each move costs O(L) at C speed for words of length L, and sorts
    no path.
    """
    ties = _ties(path_m, order_m) if repeats else []
    seq = [0] * len(order_n)
    for h, s in zip(order_n, order_m):
        seq[h] = s
    length = len(seq)
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
        if p0 > k:
            bounds = (k, p0, r0, e)
            mv = Move._make(("reverse3", k, (p0 - k, r0 - p0, e - r0)))
        else:
            bounds = (k, r0, e)
            mv = Move._make(("swap0", k, (r0 - k, e - r0)))
        ends = [path_m[seq[c - 1]][2] for c in bounds[1:]]
        if not path_rule_holds(mv.kind, path_m[seq[k]][1], ends):
            raise MoveError("move violates its degree side-conditions")
        seq = _reversed_blocks(seq, *bounds)
        for run in ties:
            for i, j in zip(sorted(map(seq.index, run)), run):
                seq[i] = j
        moves.append(mv)


# --- expressing identities in the generator ideal ------------------------------

def express_in_J(f: FreePoly) -> JCombination:
    """Express an identity through certified congruent pairs.

    Follows the cancellation loop: repeatedly eliminate the least word of
    the support against the least other word sharing an evaluation entry.
    The support strictly shrinks each round, so the loop terminates.  Words
    only leave the support, so one sort ranks every round: coefficients
    are kept by rank, 0 for a word eliminated, and no word is hashed in
    the loop.  Each entry key (row, col, mono) keeps a bucket of the ranks
    of the words carrying it, and dead ranks are skipped lazily from the
    front.

    Each word's path is walked once, from row 0 only, and kept: row 0
    decides every row (see genmat.word_entry), so two words share an entry
    exactly when the keys of their row-0 paths are equal, so only words of
    one multidegree do (see shared_entry), and f need not be
    multihomogeneous.  The same pass sums the keys into the row 0 of f's
    evaluation, which decides membership (a non-identity raises
    NoExpressionError with identity_witness's witness).  Only then are
    each word's positions sorted by scalar variable, once, for the chain
    builder's pairing, and each round hands the two words' kept paths and
    orders to the chain builder, which walks no word again (see
    _chain_moves).  The cost is O(support * L log L) for words of length
    L, plus O(L) per move.
    """
    ctx = f.ctx
    support = sorted(f.terms, key=word_key)
    coeffs = [f.terms[word] for word in support]
    word_paths, word_keys = [], []
    buckets: dict[tuple, list[int]] = {}
    total: dict[tuple, int] = {}
    for rank, word in enumerate(support):
        path = word_path(ctx, word, 0)
        key = path_entry(path, 0)
        buckets.setdefault(key, []).append(rank)
        total[key] = total.get(key, 0) + coeffs[rank]
        word_paths.append(path)
        word_keys.append(key)
    w = keyed_witness(total)
    if w is not None:
        raise NoExpressionError("input is not a graded identity", witness=w)
    # every word of an identity takes part in a chain; a non-identity needs none
    word_orders = list(map(_by_variable, word_paths))
    heads = dict.fromkeys(buckets, 0)
    terms: list[JTerm] = []
    alive = len(support)
    rank = 0
    while alive:
        while not coeffs[rank]:
            rank += 1
        if alive == 1:
            raise AssertionError("single-monomial identity encountered; evaluation bug")
        key = word_keys[rank]
        bucket, i = buckets[key], heads[key]
        while i < len(bucket) and (bucket[i] <= rank or not coeffs[bucket[i]]):
            i += 1
        heads[key] = i
        if i == len(bucket):
            raise AssertionError("no partner with a shared entry; evaluation bug")
        j = bucket[i]
        m1, partner, lam = support[rank], support[j], coeffs[rank]
        # the moves transform m1 into partner
        moves = _chain_moves(word_paths[j], word_orders[j], word_orders[rank],
                             not is_multilinear_word(partner))
        terms.append(JTerm(coeff=lam, source=m1, target=partner, moves=moves))
        coeffs[rank] = 0
        coeffs[j] += lam
        if coeffs[rank]:  # the partner was m1 itself
            raise AssertionError("support did not shrink; elimination bug")
        alive -= 1 if coeffs[j] else 2
    return JCombination(ctx, tuple(terms))
