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

from .freealg import Context, FreePoly, Word, multidegree, word_key
from .genmat import ScalarVar, eval_word_closed, word_entries, word_path
from .identity import (ContractError, GeneratorKind, Witness, degree_rule_holds,
                       identity_witness)


class NotCongruentError(ValueError):
    pass


class MoveError(ValueError):
    pass


class NoExpressionError(ValueError):
    def __init__(self, msg, witness: Witness | None = None):
        super().__init__(msg)
        self.witness = witness


@dataclass(frozen=True)
class SigmaWitness:
    """Permutation matching the evaluation paths of two monomials.

    sigma[h] is the 0-based position in m whose scalar variable equals the
    one at position h in n; both paths start at the shared row.
    """

    sigma: tuple[int, ...]
    position: tuple[int, int]


@dataclass(frozen=True)
class Move:
    kind: str  # "swap0" | "reverse3"
    left: Word
    blocks: tuple[Word, ...]
    right: Word

    def __post_init__(self):
        if self.kind not in ("swap0", "reverse3"):
            raise MoveError(f"unknown move kind {self.kind!r}")
        want = 2 if self.kind == "swap0" else 3
        if len(self.blocks) != want:
            raise MoveError(f"{self.kind} takes {want} blocks")
        if any(len(b) == 0 for b in self.blocks):
            raise MoveError("move blocks must be nonempty")

    def source(self) -> Word:
        return self.left + tuple(v for b in self.blocks for v in b) + self.right

    def target(self) -> Word:
        return self.left + tuple(v for b in reversed(self.blocks) for v in b) + self.right

    def degree_conditions_hold(self, ctx: Context) -> bool:
        """A swap0 move's blocks are the parts of a type-1 generator, a
        reverse3 move's those of a type-2 one."""
        kind = GeneratorKind.TYPE1 if self.kind == "swap0" else GeneratorKind.TYPE2
        return degree_rule_holds(kind, ctx, self.blocks)


def apply_move(ctx: Context, w: Word, mv: Move) -> Word:
    if mv.source() != tuple(w):
        raise MoveError("move context does not match the word")
    if not mv.degree_conditions_hold(ctx):
        raise MoveError("move violates its degree side-conditions")
    return mv.target()


@dataclass(frozen=True)
class RewriteChain:
    """Certified congruence: applying the moves transforms start into end."""

    ctx: Context
    start: Word
    moves: tuple[Move, ...]
    end: Word


def verify_chain(chain: RewriteChain) -> bool:
    """Replay the chain and cross-check the endpoint evaluations."""
    w = tuple(chain.start)
    try:
        for mv in chain.moves:
            w = apply_move(chain.ctx, w, mv)
    except MoveError:
        return False
    if w != tuple(chain.end):
        return False
    return eval_word_closed(chain.ctx, chain.start) == eval_word_closed(chain.ctx, chain.end)


# --- shared entries and permutation extraction -------------------------------

def shared_entry(ctx: Context, m: Word, n: Word) -> tuple[int, int] | None:
    """First position (row-major) where both evaluations carry the same monomial."""
    if multidegree(m) != multidegree(n):
        raise ContractError("monomials must have the same multidegree")
    for key_m, key_n in zip(word_entries(ctx, m), word_entries(ctx, n)):
        if key_m == key_n:
            return key_m[:2]
    return None


def _match_paths(ctx: Context, m: Word, n: Word, row: int) -> tuple[tuple[int, ...], int]:
    """Walk both words once from row and match their scalar variables.

    Returns sigma (see SigmaWitness) and the column where both paths end.
    A repeated variable goes to the least unused position of m, so the
    result is deterministic; multilinear words never have ties.
    """
    path_m, path_n = word_path(ctx, m, row), word_path(ctx, n, row)
    if len(path_m) == len(path_n):
        unused: dict[ScalarVar, list[int]] = {}
        for s in reversed(range(len(path_m))):
            unused.setdefault(path_m[s], []).append(s)  # least position last
        sigma = tuple(unused[t].pop() for t in path_n if unused.get(t))
        if len(sigma) == len(path_n):
            return sigma, (path_m[-1][2] if path_m else row)
    raise ContractError("monomials share no entry at the given position")


def extract_sigma(ctx: Context, m: Word, n: Word, pos: tuple[int, int]) -> SigmaWitness:
    """Match equal scalar variables between the two paths from pos."""
    row, col = pos
    sigma, end = _match_paths(ctx, m, n, row)
    if end != col:
        raise ContractError("monomials share no entry at the given position")
    return SigmaWitness(sigma=sigma, position=(row, col))


# --- the congruence recursion -------------------------------------------------

def congruence_chain(ctx: Context, m: Word, n: Word) -> RewriteChain:
    """A certified chain of moves transforming n into m.

    Requires a shared nonzero entry; raises NotCongruentError otherwise.
    """
    m, n = tuple(m), tuple(n)
    se = shared_entry(ctx, m, n)
    if se is None:
        raise NotCongruentError("evaluations share no nonzero entry")
    moves = _chain_moves(ctx, m, n, se[0], ())
    return RewriteChain(ctx, start=n, moves=tuple(moves), end=m)


def _chain_moves(ctx: Context, m: Word, n: Word, row: int, prefix: Word):
    moves: list[Move] = []
    while True:
        # strip the common first variables, shifting the shared row along
        while m and n and m[0] == n[0]:
            g = ctx.degree(m[0])
            row = ctx.grading.phi(g, row)
            prefix = prefix + (m[0],)
            m, n = m[1:], n[1:]
        if m == n:
            return moves
        sigma, _ = _match_paths(ctx, m, n, row)
        inv = [0] * len(sigma)
        for h, s in enumerate(sigma):
            inv[s] = h
        r0 = inv[0]
        if r0 == 0:
            raise ContractError("first variables differ but sigma fixes position 1")
        t = next(k for k in range(1, len(inv)) if inv[k] < r0)
        p0, s0 = inv[t], inv[t - 1]
        b1, b2, b3, b4 = n[:p0], n[p0:r0], n[r0:s0 + 1], n[s0 + 1:]
        if b1:
            mv = Move("reverse3", prefix, (b1, b2, b3), b4)
            replaced = b3 + b2 + b1 + b4
        else:
            mv = Move("swap0", prefix, (b2, b3), b4)
            replaced = b3 + b2 + b4
        if not mv.degree_conditions_hold(ctx):
            raise ContractError("computed blocks violate the degree conditions")
        moves.append(mv)
        n = replaced


# --- expressing identities in the generator ideal ------------------------------

@dataclass(frozen=True)
class JTerm:
    coeff: int
    source: Word
    target: Word
    chain: RewriteChain


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
    for t in comb.terms:
        if tuple(t.chain.start) != tuple(t.source) or tuple(t.chain.end) != tuple(t.target):
            return False
        if not verify_chain(t.chain):
            return False
    if claimed is not None and comb.expansion() != claimed:
        return False
    return True


def express_in_J(f: FreePoly) -> JCombination:
    """Express a multihomogeneous identity through certified congruent pairs.

    Follows the cancellation loop: repeatedly eliminate the least word of
    the support against the least other word sharing an evaluation entry.
    The support strictly shrinks each round, so the loop terminates.  Words
    only leave the support, so one sort ranks every round; each entry key
    (row, col, mono) keeps a bucket of the ranks of the words carrying it,
    and dead ranks are skipped lazily from the front.
    """
    if not f.is_multihomogeneous():
        raise ContractError("input must be multihomogeneous; split into components first")
    w = identity_witness(f)
    if w is not None:
        raise NoExpressionError("input is not a graded identity", witness=w)
    ctx = f.ctx
    work = dict(f.terms)
    support = sorted(work, key=word_key)
    word_keys = []
    buckets: dict[tuple, list[int]] = {}
    for rank, word in enumerate(support):
        keys = word_entries(ctx, word)
        for key in keys:
            buckets.setdefault(key, []).append(rank)
        word_keys.append(keys)
    heads = dict.fromkeys(buckets, 0)
    terms: list[JTerm] = []
    rank = 0
    while work:
        while support[rank] not in work:
            rank += 1
        m1 = support[rank]
        if len(work) == 1:
            raise AssertionError("single-monomial identity encountered; evaluation bug")
        best = None
        for key in word_keys[rank]:
            bucket, i = buckets[key], heads[key]
            while i < len(bucket) and (bucket[i] <= rank or support[bucket[i]] not in work):
                i += 1
            heads[key] = i
            if i < len(bucket) and (best is None or bucket[i] < best):
                best = bucket[i]
        if best is None:
            raise AssertionError("no partner with a shared entry; evaluation bug")
        partner = support[best]
        lam = work[m1]
        chain = congruence_chain(ctx, partner, m1)  # start=m1, end=partner
        terms.append(JTerm(coeff=lam, source=m1, target=partner, chain=chain))
        before = len(work)
        del work[m1]
        work[partner] = work.get(partner, 0) + lam
        if work[partner] == 0:
            del work[partner]
        if len(work) >= before:
            raise AssertionError("support did not shrink; elimination bug")
    return JCombination(ctx, tuple(terms))
