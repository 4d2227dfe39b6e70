import pytest
import support
from support import GenericMatrix, OraclePoly, eval_word_direct, generic, keyed_matrix, word_matrix

from gpi.freealg import Context, DeclarationError, FreePoly, bracket
from gpi.genmat import eval_poly, eval_word_closed, mono_exponents, path_entry, word_path
from gpi.groups import cyclic_group, default_grading

Z3 = default_grading(cyclic_group(3))


def y(k, i, j):
    """1-based scalar variable, matching written conventions."""
    return OraclePoly.variable(k, i - 1, j - 1)


class TestGeneric:
    def test_degree_zero_is_diagonal(self):
        m = generic(Z3, 1, 0)
        for i in range(3):
            assert m.entries[i][i] == y(1, i + 1, i + 1)
        assert len(m.nonzero_positions()) == 3

    def test_degree_one_positions(self):
        m = generic(Z3, 1, 1)
        assert m.entries[0][1] == y(1, 1, 2)
        assert m.entries[1][2] == y(1, 2, 3)
        assert m.entries[2][0] == y(1, 3, 1)
        assert len(m.nonzero_positions()) == 3

    def test_one_by_one(self):
        g1 = default_grading(cyclic_group(1))
        m = generic(g1, 1, 0)
        assert m.entries == ((y(1, 1, 1),),)


class TestEvalWord:
    def test_single_factor(self):
        c = Context(Z3, {1: 1})
        assert eval_word_direct(c, (1,)) == generic(Z3, 1, 1)
        assert word_matrix(c, (1,)) == generic(Z3, 1, 1)

    def test_two_factor_product(self):
        c = Context(Z3, {1: 1, 2: 2})
        m = word_matrix(c, (1, 2))
        # degrees cancel, so the result is diagonal
        assert m.entries[0][0] == y(1, 1, 2) * y(2, 2, 1)
        assert m.entries[1][1] == y(1, 2, 3) * y(2, 3, 2)
        assert m.entries[2][2] == y(1, 3, 1) * y(2, 1, 3)

    def test_three_shifts(self):
        c = Context(Z3, {1: 1, 2: 1, 3: 1})
        m = word_matrix(c, (1, 2, 3))
        assert m.entries[0][0] == y(1, 1, 2) * y(2, 2, 3) * y(3, 3, 1)

    def test_empty_word_is_identity(self):
        c = Context(Z3, {1: 1})
        assert word_matrix(c, ()) == GenericMatrix.identity(3)
        assert eval_word_direct(c, ()) == GenericMatrix.identity(3)

    def test_repeated_variable_exponent(self):
        g2 = default_grading(cyclic_group(2))
        c = Context(g2, {1: 0})
        row, col, mono = eval_word_closed(c, (1, 1))[0]
        assert (row, col) == (0, 0)
        assert mono == ((1, 0, 0), (1, 0, 0))
        assert mono_exponents(mono) == (((1, 0, 0), 2),)

    def test_closed_equals_direct_random(self):
        rand = support.rng(101)
        for grading in support.configs() + [default_grading(support.s3())]:
            for _ in range(120):
                c = support.random_context(rand, grading, 5)
                w = support.random_word(rand, c, rand.randint(1, 8))
                assert word_matrix(c, w) == eval_word_direct(c, w)

    def test_multiplicative(self):
        rand = support.rng(102)
        for grading in support.configs():
            for _ in range(40):
                c = support.random_context(rand, grading, 5)
                u = support.random_word(rand, c, rand.randint(1, 4))
                v = support.random_word(rand, c, rand.randint(1, 4))
                assert word_matrix(c, u + v) == word_matrix(c, u) * word_matrix(c, v)

    def test_homogeneity_of_positions(self):
        rand = support.rng(103)
        from gpi.freealg import word_degree
        for grading in support.configs():
            for _ in range(40):
                c = support.random_context(rand, grading, 4)
                w = support.random_word(rand, c, rand.randint(1, 6))
                g = word_degree(c, w)
                assert [(row, col) for row, col, _ in eval_word_closed(c, w)] == \
                    [(i, grading.phi(g, i)) for i in range(grading.n)]

    def test_entries_are_unit_monomials(self):
        rand = support.rng(104)
        for grading in support.configs():
            for _ in range(40):
                c = support.random_context(rand, grading, 4)
                w = support.random_word(rand, c, rand.randint(1, 6))
                m = word_matrix(c, w)
                for i, j in m.nonzero_positions():
                    assert list(m.entries[i][j].terms.values()) == [1]


class TestEvalPoly:
    def test_zero(self):
        c = Context(Z3, {1: 0})
        assert eval_poly(FreePoly(c)) == {}

    def test_trivial_degree_commutator_vanishes(self):
        c = Context(Z3, {1: 0, 2: 0})
        p = bracket(FreePoly.var(c, 1), FreePoly.var(c, 2))
        assert eval_poly(p) == {}

    def test_mixed_degree_commutator_witness(self):
        c = Context(Z3, {1: 1, 2: 2})
        p = bracket(FreePoly.var(c, 1), FreePoly.var(c, 2))
        m = keyed_matrix(3, eval_poly(p))
        assert m.entries[0][0] == y(1, 1, 2) * y(2, 2, 1) - y(2, 1, 3) * y(1, 3, 1)

    def test_linear_in_coefficients(self):
        c = Context(Z3, {1: 1, 2: 2})
        p = FreePoly(c, {(1, 2): 3})
        assert keyed_matrix(3, eval_poly(p)) == word_matrix(c, (1, 2)).scale(3)


class TestKeyMonomial:
    """A key's monomial is the path's scalar variables sorted, repeats kept;
    the (variable, exponent) form it replaced is support.old_path_entry."""

    def test_agrees_with_exponent_form(self):
        rand = support.rng(105)
        pairs = equal = 0
        for grading in support.configs() + [default_grading(support.s3())]:
            for _ in range(60):
                # few variables and long words, so letters repeat
                c = support.random_context(rand, grading, 3)
                w = support.random_word(rand, c, rand.randint(0, 9))
                shuffled = tuple(rand.sample(w, len(w)))
                other = support.random_word(rand, c, len(w))
                for row in range(grading.n):
                    path = word_path(c, w, row)
                    new, old = path_entry(path, row), support.old_path_entry(path, row)
                    assert new[:2] == old[:2]
                    assert mono_exponents(new[2]) == old[2]
                    for v in (shuffled, other):
                        p = word_path(c, v, row)
                        same = path_entry(p, row) == new
                        assert same == (support.old_path_entry(p, row) == old)
                        pairs += 1
                        equal += same
        assert 100 < equal < pairs - 100

    def test_undeclared_letter_is_named(self):
        c = Context(Z3, {1: 1, 2: 2})
        for row in range(3):
            with pytest.raises(DeclarationError, match="^variable x9 is not declared$"):
                word_path(c, (1, 9, 2), row)

    def test_repeats_counted_in_order(self):
        mono = ((1, 0, 0), (1, 0, 0), (1, 0, 1), (2, 1, 1), (2, 1, 1), (2, 1, 1))
        assert mono_exponents(mono) == (((1, 0, 0), 2), ((1, 0, 1), 1), ((2, 1, 1), 3))
        assert mono_exponents(()) == ()


def test_mono_var_shape():
    assert support.mono_var(2, 0, 1) == (((2, 0, 1), 1),)
