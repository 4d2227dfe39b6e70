import pytest
import support
from hypothesis import given, settings
from hypothesis import strategies as st

from gpi.freealg import Context, FreePoly
from gpi.genmat import ScalarPoly, eval_poly, eval_word_direct
from gpi.identity import (GeneratorError, GeneratorKind, expand, identity_witness,
                          is_graded_identity, make_generator)
from gpi.groups import cyclic_group, default_grading

Z3 = default_grading(cyclic_group(3))
WITNESS_GRADINGS = [default_grading(cyclic_group(k)) for k in range(2, 7)] + \
    [default_grading(support.s3())]


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
        assert w.value == eval_poly(p).entries[0][0]
        assert not w.value.is_zero()


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
        assert g.is_reduced(max_part_len=4)
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


def _dense_first_nonzero(p):
    """Sum the words' matrix products entry by entry; first nonzero, row-major."""
    n = p.ctx.grading.n
    cells = [[ScalarPoly() for _ in range(n)] for _ in range(n)]
    for w, c in p.terms.items():
        mat = eval_word_direct(p.ctx, w)
        for i in range(n):
            for j in range(n):
                cells[i][j] = cells[i][j] + mat.entries[i][j].scale(c)
    nonzero = [(i, j, cells[i][j]) for i in range(n) for j in range(n)
               if not cells[i][j].is_zero()]
    return cells, (nonzero[0] if nonzero else None)


@settings(max_examples=150, deadline=None)
@given(cancelling_polys())
def test_witness_is_first_nonzero_dense_entry(p):
    cells, first = _dense_first_nonzero(p)
    w = identity_witness(p)
    if first is None:
        assert w is None and is_graded_identity(p)
    else:
        assert (w.row, w.col, w.value) == first
    assert [list(row) for row in eval_poly(p).entries] == cells
