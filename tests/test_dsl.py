import pytest
import support

from gpi.dsl import (ParseError, _tokenize, format_file, parse_expr, parse_text,
                     parse_word)
from gpi.freealg import Context, FreePoly, bracket
from gpi.groups import cyclic_group, default_grading
from gpi.identity import GeneratorKind

Z3 = default_grading(cyclic_group(3))


def ctx():
    return Context(Z3, {1: 1, 2: 2, 3: 1, 4: 0})


class TestExpr:
    def test_monomial(self):
        assert parse_expr(ctx(), "x1*x2*x3") == \
            FreePoly(ctx(), {(1, 2, 3): 1})

    def test_difference(self):
        assert parse_expr(ctx(), "x1*x2*x3 - x3*x2*x1") == \
            FreePoly(ctx(), {(1, 2, 3): 1, (3, 2, 1): -1})

    def test_bracket(self):
        c = ctx()
        assert parse_expr(c, "[x1, x2]") == \
            bracket(FreePoly.var(c, 1), FreePoly.var(c, 2))

    def test_integer_coefficients_and_parens(self):
        c = ctx()
        assert parse_expr(c, "2*(x1 + x2)*x3 - x1*x3") == \
            FreePoly(c, {(1, 3): 1, (2, 3): 2})

    def test_unary_minus(self):
        c = ctx()
        assert parse_expr(c, "-x1 + x1") == FreePoly.zero(c)

    def test_whitespace_insensitive(self):
        c = ctx()
        assert parse_expr(c, "x1 *x2- x2 * x1") == parse_expr(c, "x1*x2-x2*x1")

    def test_undeclared_variable(self):
        with pytest.raises(ParseError):
            parse_expr(ctx(), "x9")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as ei:
            parse_expr(ctx(), "x1 + $", line=3)
        assert ei.value.line == 3 and ei.value.col == 6

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_expr(ctx(), "(x1 + x2")

    def test_word_must_be_monomial(self):
        with pytest.raises(ParseError):
            parse_word(ctx(), "x1 + x2")
        with pytest.raises(ParseError):
            parse_word(ctx(), "2*x1")
        assert parse_word(ctx(), "x1*x2") == (1, 2)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text, 7)
    except ParseError as e:
        return str(e), e.line, e.col


def test_tokenizer_matches_per_token_oracle():
    """One finditer scan gives the tokens, columns and errors of the
    per-token re.match loop it replaced (support.old_tokenize)."""
    rand = support.rng(111)
    alphabet = "x0123456789+-*()[],.a#_ \t\u00a0\u0663"
    texts = ["", "   ", "x", "x1 ", "  $", "x12x3", "1x", "x\u0661\u0662 + 2", "x1 +\u2003x2"]
    texts += ["".join(rand.choice(alphabet) for _ in range(rand.randint(0, 12)))
              for _ in range(5000)]
    errors = 0
    for text in texts:
        got = _tokens_or_error(_tokenize, text)
        assert got == _tokens_or_error(support.old_tokenize, text), text
        errors += isinstance(got, tuple)
    assert 100 < errors < len(texts) - 100


class TestFile:
    GOOD = """\
# comment
group: Z3
vars: x1:1 x2:2 x3:1
poly: x1*x2*x3 - x3*x2*x1
"""

    def test_well_formed(self):
        parsed = parse_text(self.GOOD)
        assert parsed.ctx.degrees == {1: 1, 2: 2, 3: 1}
        assert parsed.poly == FreePoly(parsed.ctx,
                                       {(1, 2, 3): 1, (3, 2, 1): -1})

    def test_missing_vars(self):
        with pytest.raises(ParseError):
            parse_text("group: Z3\npoly: x1\n")

    def test_degree_out_of_range(self):
        with pytest.raises(ParseError):
            parse_text("group: Z3\nvars: x1:5\npoly: x1\n")

    def test_unknown_group(self):
        with pytest.raises(ParseError):
            parse_text("group: Q8\nvars: x1:0\npoly: x1\n")

    def test_table_group(self):
        parsed = parse_text(
            "group: table [[0,1],[1,0]]\nvars: x1:1\npoly: x1\n")
        assert parsed.ctx.grading.group.order == 2

    def test_explicit_grading(self):
        parsed = parse_text(
            "group: Z3\ngrading: 2 0 1\nvars: x1:1\npoly: x1\n")
        assert parsed.ctx.grading.tuple_ == (2, 0, 1)

    def test_generator_lines(self):
        parsed = parse_text(
            "group: Z3\nvars: x1:1 x2:2 x3:1\n"
            "type: 2\nh1: x1\nh2: x2\nh3: x3\n")
        g = parsed.generator
        assert g.kind is GeneratorKind.TYPE2
        assert g.parts == ((1,), (2,), (3,))

    def test_word_lines(self):
        parsed = parse_text(
            "group: Z3\nvars: x1:1 x2:2 x3:1\nm: x1*x2*x3\nn: x3*x2*x1\n")
        assert parsed.word_m == (1, 2, 3)
        assert parsed.word_n == (3, 2, 1)

    def test_missing_generator_part(self):
        with pytest.raises(ParseError):
            parse_text("group: Z3\nvars: x1:0 x2:0\ntype: 1\nh1: x1\n")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError):
            parse_text("group: Z3\nvars: x1:0 x1:1\npoly: x1\n")


class TestRoundTrip:
    CASES = [
        "group: Z3\nvars: x1:1 x2:2 x3:1\npoly: x1*x2*x3 - x3*x2*x1\n",
        "group: Z2\nvars: x1:0 x2:0\npoly: 3*x1*x2 - x2*x1 + 2\n",
        "group: Z3\ngrading: 1 2 0\nvars: x1:1 x2:2\nm: x1*x2\nn: x1*x2\n",
        "group: Z3\nvars: x1:1 x2:2 x3:1\ntype: 2\nh1: x1\nh2: x2\nh3: x3\n",
        "group: table [[0,1],[1,0]]\nvars: x1:1\npoly: x1 - x1*x1*x1\n",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_format_then_reparse(self, text):
        parsed = parse_text(text)
        rendered = format_file(parsed)
        again = parse_text(rendered)
        assert again.ctx.compatible(parsed.ctx)
        assert again.poly == parsed.poly
        assert again.word_m == parsed.word_m
        assert again.word_n == parsed.word_n
        if parsed.generator is None:
            assert again.generator is None
        else:
            assert again.generator.kind is parsed.generator.kind
            assert again.generator.parts == parsed.generator.parts
        # a second round trip is exact
        assert format_file(again) == rendered
