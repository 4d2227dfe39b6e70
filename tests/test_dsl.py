import re
import sys
from math import comb

import pytest
import support
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpi.dsl import (ParseError, _parse_vars, _tokenize, format_file, parse_expr, parse_text,
                     parse_word)
from gpi import freealg
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
        assert parse_expr(c, "-x1 + x1") == FreePoly(c)

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


class TestExpressionLimits:
    """An expression nested too deeply for the recursive descent, or whose
    products would build more than MAX_REPLAY_LETTERS letters, is a
    ParseError at its line; the recursion limit is left as it is."""

    @pytest.mark.parametrize("text", ["(" * 1000 + "x1" + ")" * 1000,
                                      "[x1," * 1000 + "x2" + "]" * 1000,
                                      "x1*(" * 1000 + "x2" + ")" * 1000])
    def test_1000_levels_are_refused(self, text):
        limit = sys.getrecursionlimit()
        with pytest.raises(ParseError, match=r"^line 5, column 1: expression nested too deeply$"):
            parse_expr(ctx(), text, 5)
        assert sys.getrecursionlimit() == limit

    def test_100_levels_parse(self):
        c = ctx()
        assert parse_expr(c, "(" * 100 + "x1" + ")" * 100) == FreePoly.var(c, 1)
        # [x1, [x1, ... [x1, x2]]] is the sum over j of (-1)^j C(100, j) x1^(100-j) x2 x1^j
        want = {(1,) * (100 - j) + (2,) + (1,) * j: (-1) ** j * comb(100, j) for j in range(101)}
        assert parse_expr(c, "[x1," * 100 + "x2" + "]" * 100).terms == want

    def test_15_nested_brackets_of_distinct_letters_parse(self):
        """[x1,[x2,...[x15,x16]...]] on distinct letters builds and is charged
        983,040 letters, under MAX_REPLAY_LETTERS; 24 levels are refused."""
        c = Context(Z3, {k: 0 for k in range(1, 26)})

        def nested(depth):
            return "".join(f"[x{k}," for k in range(1, depth + 1)) + f"x{depth + 1}" + "]" * depth
        lie = 16
        for k in range(15, 0, -1):
            lie = (k, lie)
        assert parse_expr(c, nested(15)) == freealg.lie_expand(c, lie)
        with pytest.raises(ParseError, match="expression expands too far"):
            parse_expr(c, nested(24))

    @pytest.mark.parametrize("text, letters", [
        # x1 times x2x3 and back (3 + 3); the bracket is the term's one factor
        ("[x1, x2*x3]", 6),
        # (x1 + x1x2) times (x3 + x4) (2*3 + 2*2), the one product built
        ("(x1 + x1*x2)*(x3 + x4)", 10),
        ("x1*x2*x3*x4 - 2*x4*x3*x2*x1 + 3", 0),
    ])
    def test_each_product_is_charged_its_letters(self, monkeypatch, text, letters):
        """Each product is charged len(b) * (letters of a) + len(a) *
        (letters of b) before it is built; a flat run builds none."""
        c = ctx()
        monkeypatch.setattr(freealg, "MAX_REPLAY_LETTERS", letters)
        parse_expr(c, text)
        if letters:
            monkeypatch.setattr(freealg, "MAX_REPLAY_LETTERS", letters - 1)
            with pytest.raises(ParseError, match="expression expands too far"):
                parse_expr(c, text)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text, 7)
    except ParseError as e:
        return str(e), e.line, e.col


def _letters(pairs):
    """The (token, column) pairs with each run of letters split into its
    letters and *s, each at its own column."""
    out = []
    for tok, col in pairs:
        for piece in re.split(r"(\*)", tok) if tok[0] == "x" else [tok]:
            out.append((piece, col))
            col += len(piece)
    return out


def test_tokenizer_matches_per_token_oracle():
    """One finditer scan gives the tokens, columns and errors of the
    per-token re.match loop it replaced (support.old_tokenize), once each
    run of letters it reads as one token is split into its letters."""
    rand = support.rng(111)
    alphabet = "x0123456789+-*()[],.a#_ \t\u00a0\u0663"
    texts = ["", "   ", "x", "x1 ", "  $", "x12x3", "1x", "x\u0661\u0662 + 2", "x1 +\u2003x2",
             "x1*x2", "x1 *x2", "2*x1*x3x4", "x1*x", "x1*x\u0663"]
    texts += ["".join(rand.choice(alphabet) for _ in range(rand.randint(0, 12)))
              for _ in range(5000)]
    errors = runs = 0
    for text in texts:
        got = _tokens_or_error(_tokenize, text)
        if isinstance(got, list):
            runs += any("*" in tok for tok, _ in got if tok[0] == "x")
            got = _letters(got)
        assert got == _tokens_or_error(support.old_tokenize, text), text
        errors += isinstance(got, tuple)
    assert 100 < errors < len(texts) - 100
    assert runs >= 2


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
        """Named at the vars: line that declares it."""
        for text, line in (("group: Z3\nvars: x1:2 x2:5 x3:7\npoly: x1\n", 2),
                           ("group: Z3\n# a comment\nvars: x1:1 x2:5\npoly: x1\n", 3)):
            with pytest.raises(ParseError, match=rf"^line {line}, column 1: "
                                                 r"degree 5 of x2 out of group range$"):
                parse_text(text)

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

    @pytest.mark.parametrize("body, line, msg", [
        ("type: 1\nh1: x1\nh2: x2\nh3: x3\n", 6, "a type-1 generator has no part 'h3'"),
        ("h3: x3\ntype: 1\nh1: x1\nh2: x2\n", 3, "a type-1 generator has no part 'h3'"),
        ("poly: x1*x2 - x2*x1\nh1: x1\n", 4, "generator part 'h1' given without a 'type:' line"),
        ("h2: x2\nh3: x3\n", 3, "generator part 'h2' given without a 'type:' line"),
    ])
    def test_part_the_type_does_not_read(self, body, line, msg):
        """A part line the generator's type does not read is refused at its
        own line, where it used to be dropped."""
        with pytest.raises(ParseError, match=rf"^line {line}, column 1: {msg}$"):
            parse_text("group: Z3\nvars: x1:0 x2:0 x3:0\n" + body)

    def test_missing_part_is_named_before_a_stray_one(self):
        with pytest.raises(ParseError, match=r"^line 1, column 1: generator is missing parts: h2$"):
            parse_text("group: Z3\nvars: x1:0 x2:0 x3:0\ntype: 1\nh1: x1\nh3: x3\n")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError, match=r"^line 2, column 1: x1 declared twice$"):
            parse_text("group: Z3\nvars: x1:0 x1:1\npoly: x1\n")

    def test_duplicate_variable_on_a_later_line(self):
        """An id is declared once across all vars: lines; the error names the
        line of the second declaration."""
        with pytest.raises(ParseError, match=r"^line 3, column 1: x1 declared twice$"):
            parse_text("group: Z3\nvars: x1:1 x2:2\nvars: x1:2\npoly: x1*x2\n")

    @pytest.mark.parametrize("key, value", [
        ("group", "Z3"), ("grading", "0 1 2"), ("poly", "x1*x2 - x2*x1"), ("m", "x1*x2"),
        ("n", "x2*x1"), ("type", "1"), ("h1", "x1"), ("h2", "x2"), ("h3", "x2"),
    ])
    def test_directive_given_twice(self, key, value):
        """Every directive but vars: is given at most once: the second line
        is refused, naming its line, where it used to replace the first."""
        text = f"{key}: {value}\ngroup: Z3\nvars: x1:0 x2:0\n{key}: {value}\n"
        line = 2 if key == "group" else 4
        with pytest.raises(ParseError, match=rf"^line {line}, column 1: "
                                             rf"directive '{key}' given twice$"):
            parse_text(text)

    def test_directive_twice_in_two_spellings(self):
        """A directive's key is read without case, so POLY: repeats poly:; the
        first poly: here is not an identity, the second is."""
        with pytest.raises(ParseError, match=r"^line 4, column 1: directive 'poly' given twice$"):
            parse_text("group: Z3\nvars: x1:0 x2:0\npoly: x1\nPOLY: x1*x2 - x2*x1\n")

    def test_vars_lines_repeat(self):
        parsed = parse_text("group: Z3\nvars: x1:1\nvars: x2:2\nvars: x3:0\npoly: x1*x2\n")
        assert parsed.ctx.degrees == {1: 1, 2: 2, 3: 0}


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
        assert again.ctx == parsed.ctx
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

    def test_poly_line_is_the_repr(self):
        """A constant is written as its coefficient alone."""
        parsed = parse_text("group: Z2\nvars: x1:0 x2:0\npoly: 3*x1*x2 - x2*x1 + 2*1 + 1\n")
        assert "poly: 3 + 3*x1*x2 - x2*x1\n" in format_file(parsed)


def _poly_or_error(parse, c, text):
    try:
        return parse(c, text, 5).terms
    except ParseError as e:
        return str(e), e.line, e.col


def _random_expr(rand, nested=False):
    """Flat and bracketed products, sums, and now and then a broken piece.

    Only top-level terms hold ( or [ factors, at most two each, around
    short flat sums, so that no expansion grows large."""
    def factor(groups):
        roll = rand.random()
        if roll < 0.5:
            return f"x{rand.choice((9, 0)) if rand.random() < 0.02 else rand.randint(1, 4)}"
        if roll < 0.75 or nested or groups >= 2:
            return str(rand.choice((0, 1, 2, 2, 3, 10)))
        if roll < 0.9:
            return f"({_random_expr(rand, True)})"
        return f"[{_random_expr(rand, True)}, {_random_expr(rand, True)}]"

    def term():
        out = []
        for _ in range(rand.randint(1, 5)):
            out.append(factor(sum(f[0] in "([" for f in out)))
        return "*".join(out)

    text = term()
    for _ in range(rand.randint(0, 1 if nested else 3)):
        text += rand.choice((" + ", " - ", "-", "+")) + term()
    if not nested and rand.random() < 0.3:
        pos = rand.randint(0, len(text))
        text = text[:pos] + rand.choice(("$", "(", "]", ",", "*", " x3", "x", "+")) + text[pos:]
    return text


def test_parser_matches_factor_by_factor_oracle():
    """Flat runs built as one monomial give the terms, and the errors with
    their columns, of the factor-by-factor parser (support.old_parse_expr)."""
    rand = support.rng(112)
    c = ctx()
    texts = ["2*x1*3*x2", "0*x1*x2", "x1*0*x9", "2*(x1+x2)*3*x3", "x1*[x2, x3]*x4*2",
             "x1*x2 - x1*x2", "2*x1 + 3*x1 - 5*x1", "x1*x9", "(x1 + x2", "x1 x2", "x1 *",
             "[x1, x2", "x1 + $", "-(x1)*x2*(x3 - x4)*0", "--x1", "",
             "x1*x9*x2", "x1*x0", "x1*x2*x0*x9", "2*x1*x3*x02 - x1", "x4*x1*x2*x3*x4 + x3",
             f"x1 + x2*x{'7' * 5000}*x9", f"x2*x1*x{'0' * 5000}1"]
    # a bad letter inside a run of letters is named at its own column
    for text, col, msg in [("x1*x9*x2", 4, "variable x9 is not declared"),
                           ("x1*x0", 4, "variable x0 is not declared"),
                           (f"x1 + x2*x{'7' * 5000}*x9", 9,
                            "variable id of 5000 digits is too long to read")]:
        assert _poly_or_error(parse_expr, c, text) == (f"line 5, column {col}: {msg}", 5, col)
    # terms that cancel leave the zero polynomial
    for text in ("x1*x2 - x1*x2", "2*x1 + 3*x1 - 5*x1", "[x1, x1]", "x1*(x2 - x2)"):
        assert parse_expr(c, text).terms == {}, text
    texts += [_random_expr(rand) for _ in range(3000)]
    errors = flat = 0
    for text in texts:
        got = _poly_or_error(parse_expr, c, text)
        assert got == _poly_or_error(support.old_parse_expr, c, text), text
        # the parser builds its result unchecked: no zero and no undeclared letter
        assert isinstance(got, tuple) or got == FreePoly(c, got).terms, text
        errors += isinstance(got, tuple)
        flat += not any(ch in text for ch in "([")
    assert 300 < errors < len(texts) - 300
    assert 300 < flat < len(texts) - 300
    # short strings over tokens, bad characters and Unicode spaces and digits
    alphabet = ["x1", "x4", "x9", "2", "0", "\u0663", "+", "-", "*", "(", ")", "[", "]",
                ",", " ", "\t", "\u00a0", "\u2003", "$", "x", "."]
    for _ in range(3000):
        text = "".join(rand.choice(alphabet) for _ in range(rand.randint(0, 8)))
        assert _poly_or_error(parse_expr, c, text) == \
            _poly_or_error(support.old_parse_expr, c, text), text


def test_letters_that_miss_the_declared_spellings():
    """A run with a letter that is not a declared id's spelling is read
    letter by letter: a leading zero reads as the id, and x0, an undeclared
    id or an id too long to read is named at its own column, as the
    factor-by-factor parser does."""
    c = ctx()
    assert parse_expr(c, "x01*x2 - x2*x1") == parse_expr(c, "x1*x2 - x2*x1")
    for text, want in [
            ("x01*x2 - x2*x1", {(1, 2): 1, (2, 1): -1}),
            ("x0", ("line 5, column 1: variable x0 is not declared", 5, 1)),
            ("x1*x2*x9*x3", ("line 5, column 7: variable x9 is not declared", 5, 7)),
            (f"x1*x{'7' * 5000}",
             ("line 5, column 4: variable id of 5000 digits is too long to read", 5, 4))]:
        got = _poly_or_error(parse_expr, c, text)
        assert got == want == _poly_or_error(support.old_parse_expr, c, text), text


# --- vars: lines against the reader they replaced ---------------------------------

_LONG = "7" * 5000

# ids and degrees: small ones (so ids repeat and x0 occurs), leading zeros,
# 5,000 digits, other scripts' digits and what int() alone would also read
_NUMBERS = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(1, 3).map(str),
    st.builds(lambda zeros, k: "0" * zeros + str(k), st.integers(1, 3), st.integers(0, 3)),
    st.sampled_from([_LONG, "0" * 4999 + "1", "\u0661", "1\u0662", "\uff13", "1_0", "+1", ""]))
_DECLARATION = st.builds(lambda k, d: f"x{k}:{d}", _NUMBERS, _NUMBERS)
_DECLARATIONS = st.one_of(_DECLARATION, _DECLARATION, _DECLARATION,
                          st.text(alphabet="x:01\u0661_+y", max_size=7))  # malformed, mostly


def _read_vars_line(value, lineno):
    degrees = {}
    _parse_vars(value, lineno, degrees)
    return degrees


def _vars_or_error(parse, value):
    try:
        return parse(value, 3)
    except ParseError as e:
        return str(e), e.line, e.col


@settings(max_examples=400, deadline=None)
@given(st.lists(_DECLARATIONS, max_size=6).map(" ".join))
@example(f"x0:{_LONG}")
@example(f"x1:1 x01:{_LONG}")
@example(f"x{_LONG}:0 x0:1")
@example("x02:1 x2:\u0661")
@example("x1:1 x2:2 x3")
def test_vars_line_matches_the_old_reader(value):
    """Each vars: line gives the degrees, or the ParseError text, of the
    reader that ran re.fullmatch and two checked reads per declaration."""
    assert _vars_or_error(_read_vars_line, value) == \
        _vars_or_error(support.old_parse_vars, value)


def test_a_zero_id_is_refused_before_its_degree_is_read():
    assert _vars_or_error(_read_vars_line, f"x0:{_LONG}") == \
        ("line 3, column 1: variable ids start at 1", 3, 1)
