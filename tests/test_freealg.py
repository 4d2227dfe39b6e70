import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpi.dsl import parse_expr
from gpi.freealg import (Context, DeclarationError, FreePoly, ReplayBudget, ReplayBudgetError,
                         SubstitutionError, WeakSubstitution, bracket, bracket_terms,
                         is_multilinear_word, lie_degree, lie_expand, linear_combination,
                         multidegree, multihomogeneous_components, terms_product, word_degree)
from gpi.groups import cyclic_group, default_grading

Z3 = default_grading(cyclic_group(3))


def ctx3(**degs):
    return Context(Z3, {int(k[1:]): d for k, d in degs.items()})


class TestWordDegree:
    def test_two_factors(self):
        c = ctx3(x1=1, x2=2)
        assert word_degree(c, (1, 2)) == 0

    def test_empty_word(self):
        c = ctx3(x1=1)
        assert word_degree(c, ()) == 0

    def test_cube(self):
        c = ctx3(x1=1)
        assert word_degree(c, (1, 1, 1)) == 0

    def test_undeclared(self):
        c = ctx3(x1=1)
        with pytest.raises(DeclarationError):
            word_degree(c, (7,))

    def test_multiplicative(self):
        c = ctx3(x1=1, x2=2, x3=1)
        g = Z3.group
        for u in [(1,), (1, 2), (3, 3)]:
            for v in [(2,), (2, 3), ()]:
                assert word_degree(c, u + v) == g.mul(word_degree(c, u),
                                                      word_degree(c, v))


class TestArithmetic:
    def setup_method(self):
        self.c = ctx3(x1=0, x2=0, x3=1)

    def test_bracket_with_self(self):
        x1 = FreePoly.var(self.c, 1)
        assert bracket(x1, x1).is_zero()

    def test_bracket(self):
        x1, x2 = FreePoly.var(self.c, 1), FreePoly.var(self.c, 2)
        assert bracket(x1, x2) == FreePoly(self.c, {(1, 2): 1, (2, 1): -1})

    def test_distributivity_example(self):
        x1, x2, x3 = (FreePoly.var(self.c, k) for k in (1, 2, 3))
        assert (x1 + x2) * x3 == x1 * x3 + x2 * x3

    def test_zero_coefficients_dropped(self):
        p = FreePoly(self.c, {(1,): 1}) - FreePoly(self.c, {(1,): 1})
        assert p.is_zero() and p.terms == {}

    def test_integer_factor(self):
        p = FreePoly(self.c, {(1,): 2, (2, 3): -1})
        assert 3 * p == p * 3 == FreePoly(self.c, {(1,): 6, (2, 3): -3})
        assert -p == -1 * p == FreePoly(self.c, {(1,): -2, (2, 3): 1})
        assert (0 * p).terms == {}

    @pytest.mark.parametrize("factor", ["a", 1.0, None])
    def test_other_factor_is_a_type_error(self, factor):
        """Python's own TypeError: __rmul__ declines what is not an int."""
        p = FreePoly.var(self.c, 1)
        with pytest.raises(TypeError):
            factor * p

    @pytest.mark.parametrize("expr", [lambda p: p + 3, lambda p: p - 1, lambda p: p * "a",
                                      lambda p: p * 2.0],
                             ids=["p + 3", "p - 1", "p * 'a'", "p * 2.0"])
    def test_other_operand_is_a_type_error(self, expr):
        """Python's own TypeError: +, - and * decline an operand that is
        neither a FreePoly nor (for *) an int, before reading its context."""
        p = FreePoly.var(self.c, 1)
        with pytest.raises(TypeError):
            expr(p)

    def test_undeclared_letter_named_in_term_order(self):
        """The first undeclared letter, word by word, is the one named; a
        word whose coefficient is zero is dropped before the check."""
        with pytest.raises(DeclarationError, match="^variable x7 is not declared$"):
            FreePoly(self.c, {(1, 2): 1, (2, 7, 9): 2, (8,): 1})
        with pytest.raises(DeclarationError, match="^variable x9 is not declared$"):
            FreePoly.var(self.c, 1) * FreePoly.var(self.c, 9)
        assert FreePoly(self.c, {(9,): 0, (): 3}).terms == {(): 3}

    @pytest.mark.parametrize("terms, text", [
        ({(): 3}, "3"),
        ({(): 1}, "1"),
        ({(): -1}, "-1"),
        ({(): -3, (1,): 2}, "-3 + 2*x1"),
        ({(): 2, (1, 2): -1, (2, 1): 1}, "2 - x1*x2 + x2*x1"),
        ({(1, 2): 1, (2, 1): -1}, "x1*x2 - x2*x1"),
        ({(1,): -1, (3, 3): 4}, "-x1 + 4*x3*x3"),
        ({}, "0"),
    ])
    def test_repr(self, terms, text):
        """The problem-file syntax: a coefficient other than +-1 is joined
        to its word by *, and a constant term is its coefficient alone."""
        assert repr(FreePoly(self.c, terms)) == text


@st.composite
def polys(draw):
    c = ctx3(x1=0, x2=1, x3=2, x4=0)
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        w = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
        terms[w] = draw(st.integers(-5, 5))
    return FreePoly(c, terms)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_bracket_antisymmetry(self, p, q):
        assert bracket(p, q) == -bracket(q, p)

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys(), polys())
    def test_jacobi(self, p, q, r):
        lhs = (bracket(p, bracket(q, r)) + bracket(q, bracket(r, p))
               + bracket(r, bracket(p, q)))
        assert lhs.is_zero()


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), st.integers(0, 300))
@example(FreePoly.var(ctx3(x1=0), 1), FreePoly.var(ctx3(x1=0), 1), 4)  # [x1, x1] = 0
@example(FreePoly.var(ctx3(x1=0), 1), FreePoly.var(ctx3(x1=0), 1), 3)
def test_bracket_terms(p, q, left):
    """[l, r] is lr - rl, without zero coefficients, and spends what
    building both products costs, 2 (len(r) letters(l) + len(l) letters(r));
    it raises ReplayBudgetError exactly when that passes budget.left."""
    l, r = p.terms, q.terms
    cost = 2 * (len(r) * sum(map(len, l)) + len(l) * sum(map(len, r)))
    budget = ReplayBudget()
    budget.left = left
    if cost > left:
        with pytest.raises(ReplayBudgetError):
            bracket_terms(l, r, budget)
    else:
        assert bracket_terms(l, r, budget) == linear_combination(
            ((1, terms_product(l, r)), (-1, terms_product(r, l))))
        assert budget.left == left - cost


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), polys()), max_size=4))
def test_linear_combination(pairs):
    """Each word's coefficient is the sum of coeff * its coefficient in each
    term dict; a word whose sum is zero is left out."""
    words = {w for _, p in pairs for w in p.terms}
    want = {w: sum(k * p.terms.get(w, 0) for k, p in pairs) for w in words}
    assert linear_combination((k, p.terms) for k, p in pairs) == \
        {w: c for w, c in want.items() if c}


@settings(max_examples=200, deadline=None)
@given(polys())
def test_repr_parses_back(p):
    """repr writes the problem-file syntax that dsl.parse_expr reads."""
    assert parse_expr(p.ctx, repr(p)) == p


class TestMultihomogeneous:
    def test_commutator_is_one_component(self):
        c = ctx3(x1=0, x2=0)
        p = FreePoly(c, {(1, 2): 1, (2, 1): -1})
        assert len(multihomogeneous_components(p)) == 1

    def test_mixed_degrees_split(self):
        c = ctx3(x1=0)
        p = FreePoly(c, {(1,): 1, (1, 1): 1})
        assert len(multihomogeneous_components(p)) == 2

    def test_zero(self):
        c = ctx3(x1=0)
        assert multihomogeneous_components(FreePoly(c)) == []

    @settings(max_examples=60, deadline=None)
    @given(polys())
    def test_components_sum_to_input(self, p):
        total = FreePoly(p.ctx)
        for comp in multihomogeneous_components(p):
            assert len({multidegree(w) for w in comp.terms}) == 1
            total = total + comp
        assert total == p


class TestMultilinear:
    def test_examples(self):
        assert is_multilinear_word((1, 2, 3))
        assert not is_multilinear_word((1, 2, 1))


class TestSubstitution:
    def test_empty_substitution(self):
        c = ctx3(x1=1, x2=2)
        p = FreePoly(c, {(1, 2): 3})
        assert WeakSubstitution(c, {})(p) == p

    def test_bracket_image(self):
        # x1 -> [x1, x2] needs deg(x2) trivial for degrees to match
        c = ctx3(x1=1, x2=0, x3=2)
        p = FreePoly(c, {(1, 3): 1})
        got = WeakSubstitution(c, {1: (1, 2)})(p)
        assert got == FreePoly(c, {(1, 2, 3): 1, (2, 1, 3): -1})

    def test_mu_shape(self):
        # the shape x_{r-1} -> [x_{r-1}, x_r] with a trivial-degree x_r
        c = ctx3(x1=2, x2=0)
        s = WeakSubstitution(c, {1: (1, 2)})
        assert s(FreePoly.var(c, 1)) == bracket(FreePoly.var(c, 1),
                                                FreePoly.var(c, 2))

    def test_degree_mismatch_rejected(self):
        c = ctx3(x1=1, x2=1)
        with pytest.raises(SubstitutionError):
            WeakSubstitution(c, {1: (1, 2)})

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_multiplicative(self, p, q):
        c = p.ctx
        s = WeakSubstitution(c, {1: (1, 4), 2: (2, 4)})
        assert s(p * q) == s(p) * s(q)


class TestLieWords:
    def test_degree_is_product_of_leaves(self):
        c = ctx3(x1=1, x2=2, x3=1)
        assert lie_degree(c, ((1, 2), 3)) == 1

    def test_expansion_is_multihomogeneous(self):
        c = ctx3(x1=1, x2=2, x3=1)
        assert len(multihomogeneous_components(lie_expand(c, ((1, 2), 3)))) == 1


class TestContext:
    def test_declare_is_monotone(self):
        c = ctx3(x1=1)
        c.declare(2, 0)
        assert c.degree(2) == 0
        with pytest.raises(DeclarationError):
            c.declare(1, 2)

    @pytest.mark.parametrize("k, d, message", [
        (2, 3, "degree 3 of x2 out of group range"),
        (2, 7, "degree 7 of x2 out of group range"),
        (2, -1, "degree -1 of x2 out of group range"),
        (0, 1, "variable id 0 must be positive"),
    ], ids=["degree-3", "degree-7", "degree-minus-1", "id-0"])
    def test_declare_checks_as_the_constructor_does(self, k, d, message):
        """declare refuses what Context(grading, {k: d}) refuses, with its
        message, and leaves the context as it was."""
        with pytest.raises(DeclarationError, match=f"^{message}$"):
            Context(Z3, {k: d})
        c = ctx3(x1=1)
        with pytest.raises(DeclarationError, match=f"^{message}$"):
            c.declare(k, d)
        assert c.degrees == {1: 1}

    def test_mixed_contexts_rejected(self):
        a = ctx3(x1=1)
        b = ctx3(x1=2)
        with pytest.raises(DeclarationError):
            FreePoly.var(a, 1) + FreePoly.var(b, 1)
