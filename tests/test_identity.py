import re

import pytest
import support
from hypothesis import given, settings
from hypothesis import strategies as st

from gpi import certs
from gpi.cli import main
from gpi.freealg import Context, FreePoly
from gpi.genmat import eval_poly, eval_word_closed, word_entry
from gpi.identity import (GeneratorError, GeneratorKind, expand, identity_witness,
                          is_graded_identity, keyed_witness, make_generator)
from gpi.groups import GradingTuple, cyclic_group, default_grading

Z3 = default_grading(cyclic_group(3))
WITNESS_GRADINGS = [default_grading(cyclic_group(k)) for k in range(2, 7)] + \
    [default_grading(support.s3())]


# Each generator also breaks every check after the one whose message it
# gets, so the message shows which check runs first.
_BROKEN = [
    pytest.param(1, {1: 1, 2: 0}, ((), (1, 1), (2,)),
                 "generator parts must be nonempty monomials", id="empty part"),
    pytest.param(1, {1: 1, 2: 0}, ((1,), (1,), (2,)),
                 "the concatenation of the parts must be multilinear", id="repeated letter"),
    pytest.param(1, {1: 1, 2: 0, 3: 0}, ((1,), (2,), (3,)),
                 "type-1 generators take two parts", id="type-1 arity"),
    pytest.param(1, {1: 1, 2: 0}, ((1,), (2,)),
                 "type-1 parts must both have trivial degree", id="type-1 degree"),
    pytest.param(2, {1: 1, 2: 1}, ((1,), (2,)),
                 "type-2 generators take three parts", id="type-2 arity"),
    pytest.param(2, {1: 1, 2: 2, 3: 2}, ((1,), (2,), (3,)),
                 "type-2 outer parts must have degree inverse to the middle", id="type-2 degree"),
]


class TestIsGradedIdentity:
    def test_trivial_commutator(self):
        c = Context(Z3, {1: 0, 2: 0})
        p = FreePoly(c, {(1, 2): 1, (2, 1): -1})
        assert is_graded_identity(p)

    def test_reversal_identity(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        p = FreePoly(c, {(1, 2, 3): 1, (3, 2, 1): -1})
        assert is_graded_identity(p)

    def test_no_word_is_an_identity(self):
        rand = support.rng(201)
        for grading in support.configs():
            for _ in range(60):
                c = support.random_context(rand, grading, 4)
                w = support.random_word(rand, c, rand.randint(1, 6))
                assert not is_graded_identity(FreePoly.word(c, w))

    def test_nontrivial_commutator_witness(self):
        c = Context(Z3, {1: 1, 2: 2})
        p = FreePoly(c, {(1, 2): 1, (2, 1): -1})
        w = identity_witness(p)
        assert w is not None and (w.row, w.col) == (0, 0)
        assert w.value == support.keyed_matrix(3, eval_poly(p)).entries[0][0]
        assert w.value.terms


class TestGenerators:
    def test_type1_expansion(self):
        c = Context(Z3, {1: 0, 2: 0})
        g = make_generator(GeneratorKind.TYPE1, c, ((1,), (2,)))
        assert expand(g) == FreePoly(c, {(1, 2): 1, (2, 1): -1})

    def test_type2_expansion(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        g = make_generator(GeneratorKind.TYPE2, c, ((1,), (2,), (3,)))
        assert expand(g) == FreePoly(c, {(1, 2, 3): 1, (3, 2, 1): -1})

    def test_type1_degree_condition(self):
        c = Context(Z3, {1: 1, 2: 0})
        with pytest.raises(GeneratorError):
            make_generator(GeneratorKind.TYPE1, c, ((1,), (2,)))

    def test_type2_degree_condition(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 2})
        with pytest.raises(GeneratorError):
            make_generator(GeneratorKind.TYPE2, c, ((1,), (2,), (3,)))

    def test_multilinearity_required(self):
        c = Context(Z3, {1: 0})
        with pytest.raises(GeneratorError):
            make_generator(GeneratorKind.TYPE1, c, ((1,), (1,)))

    def test_empty_part_rejected(self):
        c = Context(Z3, {1: 0, 2: 0})
        with pytest.raises(GeneratorError):
            make_generator(GeneratorKind.TYPE1, c, ((), (1,)))

    @pytest.mark.parametrize("kind, degrees, parts, message", _BROKEN)
    def test_first_broken_check_names_the_fault(self, kind, degrees, parts, message):
        with pytest.raises(GeneratorError, match=f"^{re.escape(message)}$"):
            make_generator(GeneratorKind(kind), Context(Z3, degrees), parts)

    @pytest.mark.parametrize("kind, degrees, parts, message", _BROKEN)
    def test_verify_names_the_fault_of_a_leaf_row(self, tmp_path, capsys,
                                                   kind, degrees, parts, message):
        ctx = Context(Z3, {**degrees, 8: 0, 9: 0})
        leaf = {"generator": {"kind": kind, "parts": [list(p) for p in parts]}, "op": "leaf"}
        doc = {**certs.context_to_json(ctx), "kind": "reduction", "version": 2, "payload": {
            "nodes": [leaf], "root": 0, "target": {"kind": 1, "parts": [[8], [9]]}}}
        path = tmp_path / "leaf.json"
        path.write_text(certs.dumps(doc))
        assert main(["verify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"gpi: {path}: {message}\n")

    def test_random_generators_are_identities(self):
        rand = support.rng(202)
        for grading in support.configs():
            for kind in GeneratorKind:
                for _ in range(25):
                    g = support.random_generator(rand, grading, kind, 4)
                    assert is_graded_identity(expand(g))

    def test_is_reduced(self):
        c = Context(Z3, {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0})
        g = make_generator(GeneratorKind.TYPE1, c, ((1, 2, 3, 4), (5, 6)))
        assert not g.is_reduced()
        assert g.part_lengths() == (4, 2)


# --- the keyed witness against dense evaluation -------------------------------

@st.composite
def cancelling_polys(draw):
    """Random words plus congruent pairs with opposite coefficients.

    Rearrangements of one multiset of variables often share evaluation
    entries, and a word minus a move of it evaluates to zero, so entries
    cancel in part or in full.
    """
    grading = draw(st.sampled_from(WITNESS_GRADINGS))
    rand = draw(st.randoms(use_true_random=False))
    # trivial degrees make swap0 moves, and so cancelling pairs, common
    ctx = Context(grading, {k: rand.choice((0, rand.randrange(grading.n)))
                            for k in range(1, draw(st.integers(1, 4)) + 1)})
    base = support.random_word(rand, ctx, draw(st.integers(2, 6)))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        w = tuple(rand.sample(base, len(base)))
        terms[w] = terms.get(w, 0) + rand.choice((-2, -1, 1, 2))
    for _ in range(draw(st.integers(1, 3))):
        m, n = support.random_congruent_pair(rand, ctx, rand.sample(base, len(base)))
        lam = rand.choice((-2, -1, 1, 2))
        terms[m] = terms.get(m, 0) + lam
        terms[n] = terms.get(n, 0) - lam
    return FreePoly(ctx, terms)


@settings(max_examples=150, deadline=None)
@given(cancelling_polys())
def test_witness_is_first_nonzero_dense_entry(p):
    """The witness is the first nonzero entry (row-major) of the sum of the
    words' matrix products, and the keyed sum is that whole sum."""
    dense = support.eval_poly_direct(p)
    first = next(((i, j, dense.entries[i][j]) for i, j in dense.nonzero_positions()), None)
    w = identity_witness(p)
    if first is None:
        assert w is None and is_graded_identity(p)
    else:
        assert (w.row, w.col, w.value) == first
    assert support.keyed_matrix(p.ctx.grading.n, eval_poly(p)) == dense


# --- row 0 decides --------------------------------------------------------------

def _row0_gradings():
    """Z2, Z3, S3, S3 under a non-default tuple, and S3 with its table
    relabelled so that the identity is element 4, not 0."""
    s3 = support.s3()
    moved = support.relabelled(s3, (4, 0, 5, 2, 1, 3))
    assert moved.identity_index == 4
    return support.configs() + [default_grading(s3), GradingTuple(s3, (3, 5, 0, 1, 4, 2)),
                                default_grading(moved), GradingTuple(moved, (2, 4, 1, 5, 0, 3))]


def test_row0_key_decides_word_equality():
    """word_entry at row 0 is equal for two words exactly when all n keys are."""
    rand = support.rng(211)
    equal = unequal = 0
    for grading in _row0_gradings():
        for _ in range(60):
            c = support.random_context(rand, grading, 3)
            a = support.random_word(rand, c, rand.randint(0, 6))
            if rand.random() < 0.5:
                b = tuple(rand.sample(a, len(a)))
            else:
                b = support.random_congruent_pair(rand, c, a)[1]
            same = word_entry(c, a) == word_entry(c, b)
            assert same == (eval_word_closed(c, a) == eval_word_closed(c, b))
            if a != b:
                equal += same
                unequal += not same
    assert equal > 20 and unequal > 20


def test_row0_witness_is_full_evaluation_witness():
    """identity_witness sums row 0 only; it equals the witness of the full
    n-row sum, and a non-identity's witness is in row 0."""
    rand = support.rng(212)
    identities = 0
    for grading in _row0_gradings():
        for _ in range(40):
            c = Context(grading, {k: rand.choice((grading.group.identity_index,
                                                  rand.randrange(grading.n)))
                                  for k in range(1, 4)})
            base = support.random_word(rand, c, rand.randint(2, 5))
            terms = {}
            for _ in range(rand.randint(0, 3)):
                w = tuple(rand.sample(base, len(base)))
                terms[w] = terms.get(w, 0) + rand.choice((-1, 1))
            for _ in range(rand.randint(1, 3)):
                m, n = support.random_congruent_pair(rand, c, rand.sample(base, len(base)))
                terms[m] = terms.get(m, 0) + 1
                terms[n] = terms.get(n, 0) - 1
            p = FreePoly(c, terms)
            w = identity_witness(p)
            assert w == keyed_witness(eval_poly(p))
            assert w is None or w.row == 0
            identities += w is None
    assert 10 < identities < 230
