import json
import random
from itertools import combinations, product

import pytest
import support
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpi import certs
from gpi.freealg import Context, FreePoly, multihomogeneous_components, word_key
from gpi.genmat import eval_word_closed, word_path
from gpi.identity import (GeneratorKind, degree_rule_holds, expand, identity_witness,
                          make_generator)
from gpi.certs import (MOVE_FAMILIES, JCombination, Move, MoveError, RewriteChain, apply_move,
                       move_path, verify_chain, verify_combination)
from gpi.rewrite import (NoExpressionError, NotCongruentError, congruence_chain, express_in_J,
                         shared_entry)
from gpi.groups import GradingTuple, cyclic_group, default_grading

Z3 = default_grading(cyclic_group(3))


class TestSharedEntry:
    def test_reversal_pair(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        pos = shared_entry(c, (1, 2, 3), (3, 2, 1))
        assert pos == (0, 1)

    def test_absent(self):
        c = Context(Z3, {1: 1, 2: 2})
        assert shared_entry(c, (1, 2), (2, 1)) is None

    def test_same_word(self):
        c = Context(Z3, {1: 1, 2: 2})
        assert shared_entry(c, (1, 2), (1, 2)) is not None

    def test_multidegree_mismatch(self):
        """Words of different multidegrees have different row-0 keys."""
        c = Context(Z3, {1: 0, 2: 0})
        assert shared_entry(c, (1,), (2,)) is None
        assert shared_entry(c, (1, 1), (1,)) is None


class TestMoves:
    def test_swap0(self):
        c = Context(Z3, {1: 0, 2: 0})
        mv = Move("swap0", 0, (1, 1))
        assert apply_move(c, (1, 2), mv) == (2, 1)

    def test_reverse3(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        mv = Move("reverse3", 0, (1, 1, 1))
        assert apply_move(c, (1, 2, 3), mv) == (3, 2, 1)

    def test_contexts_and_paths(self):
        """The blocks follow the first offset letters; a path is cut alike."""
        c = Context(Z3, {1: 0, 2: 0, 3: 0, 4: 0, 5: 0})
        mv = Move("swap0", 1, (2, 1))
        assert apply_move(c, (1, 2, 3, 4, 5), mv) == (1, 4, 2, 3, 5)
        assert mv.apply(["a", "b", "c", "d", "e"]) == ["a", "d", "b", "c", "e"]

    def test_does_not_fit(self):
        """A move that runs past its word is refused, not cut short."""
        c = Context(Z3, {1: 0, 2: 0})
        for mv in (Move("swap0", 1, (1, 1)), Move("swap0", 0, (2, 1)),
                   Move("swap0", 2, (1, 1)), Move("reverse3", 0, (1, 1, 1))):
            with pytest.raises(MoveError, match="does not fit"):
                apply_move(c, (2, 1), mv)

    def test_degree_condition_violation(self):
        c = Context(Z3, {1: 1, 2: 0})
        mv = Move("swap0", 0, (1, 1))
        with pytest.raises(MoveError):
            apply_move(c, (1, 2), mv)

    def test_bad_chain_fails_verification(self):
        c = Context(Z3, {1: 1, 2: 0})
        mv = Move("swap0", 0, (1, 1))
        chain = RewriteChain(c, (1, 2), (mv,), (2, 1))
        assert not verify_chain(chain)

    def test_unknown_kind(self):
        with pytest.raises(MoveError):
            Move("rotate", 0, (1, 1))

    @pytest.mark.parametrize("offset, lengths", [
        (-1, (1, 1)), (0, (0, 1)), (0, (1,)), (0, (1, 1, 1))])
    def test_bad_fields(self, offset, lengths):
        with pytest.raises(MoveError):
            Move("swap0", offset, lengths)


def test_equal_keys_iff_equal_matrices():
    """verify_chain compares word keys: for words of one multidegree,
    repeated letters included, the keys agree exactly when the dense
    products do."""
    rand = support.rng(307)
    equal = unequal = 0
    for grading in support.configs() + [default_grading(support.s3())]:
        for _ in range(40):
            c = support.random_context(rand, grading, 3)
            a = support.random_word(rand, c, rand.randint(1, 6))
            if rand.random() < 0.5:
                b = tuple(rand.sample(a, len(a)))
            else:
                b = support.random_congruent_pair(rand, c, a)[1]
            same = eval_word_closed(c, a) == eval_word_closed(c, b)
            assert same == (support.eval_word_direct(c, a) == support.eval_word_direct(c, b))
            if a != b:
                equal += same
                unequal += not same
    assert equal > 10 and unequal > 10


class TestCongruenceChain:
    def test_identical_words(self):
        c = Context(Z3, {1: 1, 2: 2})
        chain = congruence_chain(c, (1, 2), (1, 2))
        assert chain.moves == () and verify_chain(chain)

    def test_single_swap0(self):
        c = Context(Z3, {1: 0, 2: 0})
        chain = congruence_chain(c, (1, 2), (2, 1))
        assert len(chain.moves) == 1 and chain.moves[0].kind == "swap0"
        assert verify_chain(chain)

    def test_single_reverse3(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        chain = congruence_chain(c, (1, 2, 3), (3, 2, 1))
        assert len(chain.moves) == 1 and chain.moves[0].kind == "reverse3"
        assert verify_chain(chain)

    def test_not_congruent(self):
        c = Context(Z3, {1: 1, 2: 2})
        with pytest.raises(NotCongruentError):
            congruence_chain(c, (1, 2), (2, 1))

    def test_random_pairs_verify(self):
        rand = support.rng(303)
        for grading in support.configs() + [default_grading(support.s3())]:
            for _ in range(60):
                c = support.random_context(rand, grading, 6)
                w = support.random_word(rand, c, rand.randint(1, 7))
                m, n = support.random_congruent_pair(rand, c, w)
                chain = congruence_chain(c, m, n)
                assert chain.start == n and chain.end == m
                assert verify_chain(chain)
                # endpoints keep sharing the originally witnessed entry
                assert shared_entry(c, m, n) is not None

    def test_intermediate_words_stay_congruent(self):
        rand = support.rng(304)
        for grading in support.configs():
            for _ in range(20):
                c = support.random_context(rand, grading, 6)
                w = support.random_word(rand, c, rand.randint(2, 7))
                m, n = support.random_congruent_pair(rand, c, w)
                chain = congruence_chain(c, m, n)
                cur = chain.start
                base = support.eval_word_direct(c, chain.start)
                for mv in chain.moves:
                    cur = apply_move(c, cur, mv)
                    assert support.eval_word_direct(c, cur) == base


def _chain_gradings():
    """Z2, Z3 and S3, S3 also under a non-default tuple and with its
    elements renamed so that the identity is not element 0."""
    s3 = support.s3()
    return support.configs() + [default_grading(s3), GradingTuple(s3, (3, 1, 4, 0, 5, 2)),
                                default_grading(support.relabelled(s3, (2, 0, 1, 5, 3, 4)))]


def _letter_degrees(group) -> list[int]:
    """Every element of a group of order at most 3; of a larger one, the
    identity, its first element of order 2 and its first of order 3 (for S3,
    a generating set)."""
    if group.order <= 3:
        return list(range(group.order))
    by_order: dict[int, int] = {}
    for g in range(group.order):
        k, x = 1, g
        while x != group.identity_index:
            k, x = k + 1, group.mul(x, g)
        by_order.setdefault(k, g)
    return [by_order[1], by_order[2], by_order[3]]


class TestChainBuilder:
    """The chain builder permutes the row-0 paths it is given instead of
    re-walking the words after each move; support.old_chain_moves re-walks."""

    def test_moves_permute_paths(self):
        """Every block of a move that obeys the degree rule starts on the same
        row before and after it, so the target's path from any row is the
        source's path with its block segments reordered like the blocks."""
        rand = support.rng(309)
        checked = 0
        for grading in _chain_gradings():
            for _ in range(16):
                c = support.random_context(rand, grading, 4)
                w = support.random_word(rand, c, rand.randint(3, 6))
                for mv in support.enumerate_moves(c, w):
                    cuts = [mv.offset]
                    for n in mv.lengths:
                        cuts.append(cuts[-1] + n)
                    target = apply_move(c, w, mv)
                    for row in range(grading.n):
                        path = word_path(c, w, row)
                        segs = [path[a:b] for a, b in zip(cuts, cuts[1:])]
                        want = path[:cuts[0]] + sum(reversed(segs), []) + path[cuts[-1]:]
                        assert word_path(c, target, row) == want == mv.apply(path)
                        checked += 1
        assert checked > 300

    def test_move_path_reads_the_degree_rule_from_rows(self):
        """Every move on every word of length up to 6, and every move that
        runs one letter past it: move_path raises MoveError exactly when the
        move does not fit or its blocks break degree_rule_holds, and
        otherwise returns the moved word's path.  The words run over one
        letter per degree of _letter_degrees, each walked from one row, the
        rows in turn."""
        seen = {"moved": 0, "too long": 0, "degree": 0}
        for grading in _chain_gradings():
            c = Context(grading, dict(enumerate(_letter_degrees(grading.group), 1)))
            row = 0
            for length in range(1, 7):
                moves = [Move(kind, cuts[0], tuple(b - a for a, b in zip(cuts, cuts[1:])))
                         for kind, (_, arity) in MOVE_FAMILIES.items()
                         for cuts in combinations(range(length + 2), arity + 1)]
                for w in product(c.degrees, repeat=length):
                    row = (row + 1) % grading.n
                    path = word_path(c, w, row)
                    for mv in moves:
                        if mv.end > length:
                            why = "too long"
                        elif degree_rule_holds(MOVE_FAMILIES[mv.kind][0], c, mv.blocks(w)):
                            why = "moved"
                        else:
                            why = "degree"
                        try:
                            got = move_path(path, mv)
                        except MoveError:
                            assert why != "moved", (w, mv)
                        else:
                            assert why == "moved", (w, mv)
                            assert got == word_path(c, mv.apply(w), row)
                        seen[why] += 1
        assert min(seen.values()) > 10_000

    def test_congruence_chain_matches_rewalking_builder(self):
        rand = support.rng(310)
        ties = 0
        for grading in _chain_gradings():
            for _ in range(40):
                # three letters for long words, so that paths repeat variables
                c = support.random_context(rand, grading, rand.choice((3, 8)))
                w = support.random_word(rand, c, rand.randint(1, 8))
                m, n = support.random_congruent_pair(rand, c, w, max_moves=4)
                chain = congruence_chain(c, m, n)
                assert chain.moves == tuple(support.old_chain_moves(c, m, n))
                assert verify_chain(chain)
                if chain.moves and len(set(w)) < len(w):
                    ties += 1
        assert ties > 30

    def test_express_terms_match_rewalking_builder(self):
        """The producer's moves are the rewalking builder's, and each is a
        move the checked constructor accepts, within its term's source: the
        producer builds them unchecked (Move._make)."""
        rand = support.rng(311)
        terms = repeated = 0
        for grading in _chain_gradings():
            for _ in range(25):
                c = support.random_context(rand, grading, rand.choice((3, 6)))
                base = support.random_word(rand, c, rand.randint(3, 7))
                f = _walks(rand, c, base)
                if f.is_zero():
                    continue
                comb = express_in_J(f)
                for t in comb.terms:
                    assert t.moves == tuple(
                        support.old_chain_moves(c, t.target, t.source))
                    for mv in t.moves:
                        assert type(mv) is Move and Move(*mv) == mv
                        assert mv.end <= len(t.source)
                    terms += 1
                    repeated += bool(t.moves) and len(set(t.source)) < len(t.source)
                assert verify_combination(comb, claimed=f)
        assert terms > 100 and repeated > 30


def _walks(rand, c, base, skew=0):
    """Independent walks of moves from permutations of base.  Each walk's
    coefficients sum to zero, except the first walk's, which sum to skew."""
    terms = {}
    for walk in range(rand.randint(1, 3)):
        words = [tuple(rand.sample(base, len(base)))]
        for _ in range(rand.randint(1, 6)):
            words.append(support.random_congruent_pair(rand, c, words[-1])[1])
        coeffs = [rand.choice((-2, -1, 1, 2)) for _ in words[1:]]
        lead = (skew if walk == 0 else 0) - sum(coeffs)
        for w, lam in zip(words, [lead] + coeffs):
            terms[w] = terms.get(w, 0) + lam
    return FreePoly(c, terms)


class TestExpressInJ:
    def test_generator_is_its_own_chain(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        f = expand(make_generator(GeneratorKind.TYPE2, c, ((1,), (2,), (3,))))
        comb = express_in_J(f)
        assert len(comb.terms) == 1
        assert verify_combination(comb, claimed=f)

    def test_right_context(self):
        c = Context(Z3, {1: 0, 2: 0, 3: 1})
        f = FreePoly(c, {(1, 2, 3): 1, (2, 1, 3): -1})
        comb = express_in_J(f)
        assert len(comb.terms) == 1
        # the blocks x1, x2 end before x3, the right context
        assert comb.terms[0].moves == (Move("swap0", 0, (1, 1)),)
        assert verify_combination(comb, claimed=f)

    def test_scaled_pair(self):
        rand = support.rng(305)
        c = support.random_context(rand, Z3, 6)
        for _ in range(30):
            w = support.random_word(rand, c, rand.randint(2, 6))
            m, n = support.random_congruent_pair(rand, c, w)
            if m != n:
                break
        f = FreePoly(c, {m: 3}) + FreePoly(c, {n: -3})
        comb = express_in_J(f)
        assert len(comb.terms) == 1 and abs(comb.terms[0].coeff) == 3
        assert verify_combination(comb, claimed=f)

    def test_non_identity_rejected_with_witness(self):
        c = Context(Z3, {1: 1, 2: 2})
        f = FreePoly(c, {(1, 2): 1, (2, 1): -1})
        with pytest.raises(NoExpressionError) as ei:
            express_in_J(f)
        assert ei.value.witness is not None

    def test_keyed_pass_matches_witness_and_chains(self):
        """express_in_J decides membership and takes each shared row from the
        keys of its one evaluation pass: the witness is identity_witness's,
        and each chain is the one congruence_chain builds for the pair."""
        rand = support.rng(308)
        expressed = rejected = 0
        for grading in support.configs() + [default_grading(support.s3())]:
            for _ in range(30):
                # few letters, so that words repeat them and paths tie
                c = support.random_context(rand, grading, 4)
                base = support.random_word(rand, c, rand.randint(3, 7))
                f = _walks(rand, c, base, skew=rand.choice((0, 1)))
                want = identity_witness(f)
                if want is not None:
                    with pytest.raises(NoExpressionError) as ei:
                        express_in_J(f)
                    assert ei.value.witness == want
                    rejected += 1
                    continue
                for t in express_in_J(f).terms:
                    chain = congruence_chain(c, t.target, t.source)
                    assert (chain.start, chain.moves, chain.end) == (t.source, t.moves, t.target)
                    expressed += 1
        assert expressed > 50 and rejected > 10

    def test_non_multihomogeneous_expressed(self):
        """Each multihomogeneous component is eliminated on its own: [x1, x2]
        has no repeated letter, x1[x1, x2] repeats x1."""
        c = Context(Z3, {1: 0, 2: 0})
        f = FreePoly(c, {(1, 2): 1, (2, 1): -1, (1, 1, 2): 3, (1, 2, 1): -3})
        comb = express_in_J(f)
        assert [t.source for t in comb.terms] == [(1, 2), (1, 1, 2)]
        assert verify_combination(comb, claimed=f)
        for t in comb.terms:  # each pair's chain is congruence_chain's
            assert congruence_chain(c, t.target, t.source).moves == t.moves

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((-2, -1, 1, 2)), st.booleans())
    def test_mixed_identity_certificate_replays(self, seed, lam, square):
        """p + lam*x*p (+ p*x*x) + q is an identity of several multidegrees
        when p and q are, with p multilinear, x a letter of p, and q's words
        longer ones that repeat p's letters: the least word has no repeated
        letter, and the others' chains pair tied letters.  Each pair's chain
        is congruence_chain's, and the certificate goes through the wire
        format and replays."""
        rand = random.Random(seed)
        grading = rand.choice(support.configs())
        c = support.random_context(rand, grading, 5)
        base = support.random_multilinear_word(rand, c, rand.randint(2, 4))
        p = _walks(rand, c, base)
        assume(not p.is_zero())
        x = FreePoly.var(c, rand.choice(base))
        q = _walks(rand, c, [rand.choice(base) for _ in range(len(base) + rand.randint(2, 4))])
        f = p + lam * (x * p) + (p * x * x if square else FreePoly.zero(c)) + q
        assert len(multihomogeneous_components(f)) >= 2
        comb = express_in_J(f)
        for t in comb.terms:
            assert congruence_chain(c, t.target, t.source).moves == t.moves
        doc = json.loads(certs.dumps(certs.jcomb_to_json(comb)))
        assert verify_combination(certs.certificate_from_json(doc), claimed=f)

    def test_tampered_combination_fails(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        f = expand(make_generator(GeneratorKind.TYPE2, c, ((1,), (2,), (3,))))
        comb = express_in_J(f)
        bad = JCombination(c, tuple(
            type(t)(t.coeff + 1, t.source, t.target, t.moves) for t in comb.terms))
        assert not verify_combination(bad, claimed=f)

    def test_partner_is_least_word_sharing_an_entry(self):
        """Each round pairs the least word with the least other word sharing
        an entry, as a full sort and scan per round would; this fixes the
        certificate bytes."""
        rand = support.rng(306)
        rounds = skipped = 0
        for grading in support.configs() + [default_grading(support.s3())]:
            for _ in range(30):
                c = support.random_context(rand, grading, 8)
                base = support.random_multilinear_word(rand, c, rand.randint(3, 7))
                f = _walks(rand, c, base)
                if f.is_zero():
                    continue
                work = dict(f.terms)
                for t in express_in_J(f).terms:
                    ranked = sorted(work, key=word_key)
                    sharing = [u for u in ranked[1:]
                               if shared_entry(c, t.source, u) is not None]
                    assert (t.source, t.coeff, t.target) == \
                        (ranked[0], work[t.source], sharing[0])
                    skipped += ranked.index(t.target) - 1
                    rounds += 1
                    del work[t.source]
                    work[t.target] += t.coeff
                    if work[t.target] == 0:
                        del work[t.target]
                assert not work
        assert rounds > 100 and skipped > 0
