import pytest
import support

from gpi.freealg import Context, FreePoly, word_key
from gpi.genmat import eval_word_closed, eval_word_direct, word_entries
from gpi.identity import (ContractError, GeneratorKind, expand, identity_witness,
                          make_generator)
from gpi.rewrite import (JCombination, Move, MoveError, NoExpressionError,
                         NotCongruentError, RewriteChain, apply_move,
                         congruence_chain, express_in_J, extract_sigma,
                         shared_entry, verify_chain, verify_combination)
from gpi.groups import cyclic_group, default_grading

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
        c = Context(Z3, {1: 0, 2: 0})
        with pytest.raises(ContractError):
            shared_entry(c, (1,), (2,))


class TestExtractSigma:
    def test_reversal_is_a_transposition(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        pos = shared_entry(c, (1, 2, 3), (3, 2, 1))
        w = extract_sigma(c, (1, 2, 3), (3, 2, 1), pos)
        assert w.sigma == (2, 1, 0)

    def test_identity_permutation(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 0})
        m = (1, 2, 3)
        pos = shared_entry(c, m, m)
        w = extract_sigma(c, m, m, pos)
        assert w.sigma == (0, 1, 2)

    def test_repeated_variable_tie_break(self):
        c = Context(Z3, {1: 0})
        m = (1, 1)
        pos = shared_entry(c, m, m)
        w = extract_sigma(c, m, m, pos)
        assert w.sigma == (0, 1)

    def test_sigma_matches_variables(self):
        rand = support.rng(301)
        for grading in support.configs():
            for _ in range(40):
                c = support.random_context(rand, grading, 6)
                m = support.random_word(rand, c, rand.randint(1, 7))
                m2, n = support.random_congruent_pair(rand, c, m)
                pos = shared_entry(c, m2, n)
                assert pos is not None  # moves preserve the evaluation
                w = extract_sigma(c, m2, n, pos)
                for h, s in enumerate(w.sigma):
                    assert m2[s] == n[h]

    def test_sigma_moves_first_position_when_words_differ(self):
        rand = support.rng(302)
        for grading in support.configs():
            for _ in range(60):
                c = support.random_context(rand, grading, 6)
                m = support.random_word(rand, c, rand.randint(2, 7))
                m2, n = support.random_congruent_pair(rand, c, m)
                if m2[0] == n[0]:
                    continue
                pos = shared_entry(c, m2, n)
                w = extract_sigma(c, m2, n, pos)
                assert w.sigma[0] != 0


class TestMoves:
    def test_swap0(self):
        c = Context(Z3, {1: 0, 2: 0})
        mv = Move("swap0", (), ((1,), (2,)), ())
        assert apply_move(c, (1, 2), mv) == (2, 1)

    def test_reverse3(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        mv = Move("reverse3", (), ((1,), (2,), (3,)), ())
        assert apply_move(c, (1, 2, 3), mv) == (3, 2, 1)

    def test_context_mismatch(self):
        c = Context(Z3, {1: 0, 2: 0})
        mv = Move("swap0", (), ((1,), (2,)), ())
        with pytest.raises(MoveError):
            apply_move(c, (2, 1), mv)

    def test_degree_condition_violation(self):
        c = Context(Z3, {1: 1, 2: 0})
        mv = Move("swap0", (), ((1,), (2,)), ())
        with pytest.raises(MoveError):
            apply_move(c, (1, 2), mv)

    def test_bad_chain_fails_verification(self):
        c = Context(Z3, {1: 1, 2: 0})
        mv = Move("swap0", (), ((1,), (2,)), ())
        chain = RewriteChain(c, (1, 2), (mv,), (2, 1))
        assert not verify_chain(chain)

    def test_unknown_kind(self):
        with pytest.raises(MoveError):
            Move("rotate", (), ((1,), (2,)), ())


def test_equal_keys_iff_equal_matrices():
    """verify_chain compares word_entries: for words of one multidegree,
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
            same = word_entries(c, a) == word_entries(c, b)
            assert same == (eval_word_direct(c, a) == eval_word_direct(c, b))
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
                base = eval_word_closed(c, chain.start)
                for mv in chain.moves:
                    cur = apply_move(c, cur, mv)
                    assert eval_word_closed(c, cur) == base


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
        assert comb.terms[0].chain.moves[0].right == (3,)
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
                    assert t.chain == congruence_chain(c, t.target, t.source)
                    expressed += 1
        assert expressed > 50 and rejected > 10

    def test_non_multihomogeneous_rejected(self):
        c = Context(Z3, {1: 0})
        f = FreePoly(c, {(1,): 1, (1, 1): 1})
        with pytest.raises(ContractError):
            express_in_J(f)

    def test_tampered_combination_fails(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        f = expand(make_generator(GeneratorKind.TYPE2, c, ((1,), (2,), (3,))))
        comb = express_in_J(f)
        bad = JCombination(c, tuple(
            type(t)(t.coeff + 1, t.source, t.target, t.chain) for t in comb.terms))
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
