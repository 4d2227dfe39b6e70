"""Rewriting monomials modulo the generator ideal, with certificates.

Two monomials with the same multidegree whose evaluations share a nonzero
entry are congruent modulo the generator ideal.  The congruence is made
effective: a permutation is extracted by matching scalar variables along
the two evaluation paths, and the recursion emits context moves

  swap0:     u (b1)(b2) v     ->  u (b2)(b1) v      both blocks of trivial degree
  reverse3:  u (b1)(b2)(b3) v ->  u (b3)(b2)(b1) v  outer blocks inverse to middle

each of which is a context multiple of a generator, hence preserves the
evaluation matrix exactly.  The cancellation loop then expresses any
multihomogeneous identity as an integer combination of certified
differences source - target.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import JCombination, JTerm, Move, RewriteChain, apply_move
from .freealg import Context, Word, multidegree, word_key
from .genmat import ScalarVar, path_entry, word_entry, word_path
from .identity import ContractError, Witness, keyed_witness

# Unused here, but kept bound: bench/spans.py rebinds these names in this module.
from .genmat import eval_word_closed  # noqa: F401
from .identity import identity_witness  # noqa: F401


class NotCongruentError(ValueError):
    pass


class NoExpressionError(ValueError):
    def __init__(self, msg, witness: Witness | None = None):
        super().__init__(msg)
        self.witness = witness


@dataclass(frozen=True)
class SigmaWitness:
    """Permutation matching the evaluation paths of two monomials.

    sigma[h] is the 0-based position in m whose scalar variable equals the
    one at position h in n (repeated variables paired as in _by_variable);
    both paths start at the shared row.
    """

    sigma: tuple[int, ...]
    position: tuple[int, int]


# --- shared entries and permutation extraction -------------------------------

def shared_entry(ctx: Context, m: Word, n: Word) -> tuple[int, int] | None:
    """First position (row-major) where both evaluations carry the same monomial.

    Row 0 decides (see genmat.word_entry), so it is in row 0 or nowhere.
    """
    if multidegree(m) != multidegree(n):
        raise ContractError("monomials must have the same multidegree")
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


def extract_sigma(ctx: Context, m: Word, n: Word, pos: tuple[int, int]) -> SigmaWitness:
    """Match equal scalar variables between the two paths from pos."""
    row, col = pos
    path_m, path_n = word_path(ctx, m, row), word_path(ctx, n, row)
    if sorted(path_m) != sorted(path_n) or (path_m[-1][2] if path_m else row) != col:
        raise ContractError("monomials share no entry at the given position")
    sigma = [0] * len(path_n)
    for h, s in zip(_by_variable(path_n), _by_variable(path_m)):
        sigma[h] = s
    return SigmaWitness(sigma=tuple(sigma), position=(row, col))


# --- the congruence recursion -------------------------------------------------

def congruence_chain(ctx: Context, m: Word, n: Word) -> RewriteChain:
    """A certified chain of moves transforming n into m.

    Requires a shared nonzero entry; raises NotCongruentError otherwise.
    Row 0 decides (see genmat.word_entry), so each word is walked once,
    from row 0, and the chain is built on those two paths.
    """
    m, n = tuple(m), tuple(n)
    if multidegree(m) != multidegree(n):
        raise ContractError("monomials must have the same multidegree")
    path_m, path_n = word_path(ctx, m, 0), word_path(ctx, n, 0)
    if path_entry(path_m, 0) != path_entry(path_n, 0):
        raise NotCongruentError("evaluations share no nonzero entry")
    return _chain_from(ctx, m, n, path_m, path_n)


def _chain_from(ctx: Context, m: Word, n: Word, path_m: list[ScalarVar],
                path_n: list[ScalarVar]) -> RewriteChain:
    """The chain transforming n into m, given their paths from one row."""
    return RewriteChain(ctx, start=n, moves=tuple(_chain_moves(ctx, m, n, path_m, path_n)),
                        end=m)


def _chain_moves(ctx: Context, m: Word, n: Word, path_m: list[ScalarVar],
                 path_n: list[ScalarVar]) -> list[Move]:
    """The moves transforming n into m, from both words' paths from one row.

    Precondition, checked by both callers: the two paths have equal keys
    (path_entry).  A key holds its path sorted, so the paths carry the same
    scalar variables and the words have one length.

    Each round skips the common first letters by index, matches the scalar
    variables of the rest of the two paths, and emits the one move that
    brings the partner of m's first remaining variable forward.  Positions
    are paired as in extract_sigma (see _by_variable); the common first
    letters carry the same variables in both paths, so the pairing of the
    rest is unchanged by including them.

    Neither word is walked again: each move permutes n's path with the
    same Move.apply it permutes n, and the result is the path of the new n
    from the same row.  A block's path depends only on its letters and the row
    it starts on, and every block of a move that obeys the degree rule
    starts on the same row before and after the move (phi of the identity
    fixes every row, and phi_b(phi_a(r)) = phi_{ab}(r)):

      swap0:    both blocks have trivial degree, so from the row r after
                the left context each returns to r, in either order;
      reverse3: with g the degree of b2, b1 and b3 have degree g^-1, and
                from r the blocks b1, b2, b3 run r -> s -> r -> s with
                s = phi(g^-1, r); after the move b3, b2, b1 run the same
                r -> s -> r -> s, each block from the row it left.

    In both cases the right context starts on the row it started on.  This
    uses only the group axioms and the action through phi, so it holds for
    any group and any bijective tuple.  Every emitted move is still applied
    to n through apply_move, which checks the degree rule.  Each move costs
    one C-level sort of the L positions and O(L) slicing, and no path walk.
    """
    length = len(m)
    # rank[j]: the place of m's position j in the variable order of m's path
    rank = [0] * length
    for r, j in enumerate(_by_variable(path_m)):
        rank[j] = r
    moves: list[Move] = []
    k = 0
    while True:
        while k < length and m[k] == n[k]:
            k += 1
        if k == length:
            return moves
        # partner[rank[j]]: the position in n paired with m's position j
        partner = _by_variable(path_n)
        r0 = partner[rank[k]]
        if r0 == k:
            raise ContractError("first variables differ but sigma fixes position 1")
        t = next(j for j in range(k + 1, length) if partner[rank[j]] < r0)
        p0, e = partner[rank[t]], partner[rank[t - 1]] + 1
        if p0 > k:
            mv = Move("reverse3", k, (p0 - k, r0 - p0, e - r0))
        else:
            mv = Move("swap0", k, (r0 - p0, e - r0))
        n = apply_move(ctx, n, mv)
        path_n = mv.apply(path_n)
        moves.append(mv)


# --- expressing identities in the generator ideal ------------------------------

def express_in_J(f: FreePoly) -> JCombination:
    """Express a multihomogeneous identity through certified congruent pairs.

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
    exactly when the keys of their row-0 paths are equal.  The same pass
    sums the keys into the row 0 of f's evaluation, which decides
    membership (a non-identity raises NoExpressionError with
    identity_witness's witness), and each round hands the two words' kept
    paths to the chain builder, which permutes them and walks no word
    again (see _chain_moves).  The cost is O(support * L) for words of
    length L, plus one sort of L positions per move for the chains.
    """
    if not f.is_multihomogeneous():
        raise ContractError("input must be multihomogeneous; split into components first")
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
        # start=m1, end=partner
        chain = _chain_from(ctx, partner, m1, word_paths[j], word_paths[rank])
        terms.append(JTerm(coeff=lam, source=m1, target=partner, chain=chain))
        coeffs[rank] = 0
        coeffs[j] += lam
        if coeffs[rank]:  # the partner was m1 itself
            raise AssertionError("support did not shrink; elimination bug")
        alive -= 1 if coeffs[j] else 2
    return JCombination(ctx, tuple(terms))
