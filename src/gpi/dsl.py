"""Text format for problems: group header, variable degrees, expressions.

A file has header lines followed by body directives, one per line:

    # comments and blank lines are ignored
    group: Z3                      (or: group: table [[0,1],[1,0]])
    grading: 0 1 2                 (optional; group element indices)
    vars: x1:1 x2:2 x3:1           (degree = group element index)
    poly: x1*x2*x3 - x3*x2*x1
    m: x1*x2*x3                    (a monomial, for congruence queries)
    n: x3*x2*x1
    type: 2                        (generator kind, with parts h1:/h2:/h3:)
    h1: x1
    h2: x2
    h3: x3

Expressions use integer literals, +, -, *, parentheses and [a,b] for the
Lie bracket.  Whitespace is insignificant inside expressions.  The one
writer of this syntax is repr(FreePoly), which format_file uses for every
expression and word.
"""

from __future__ import annotations

import codecs
import json
import re
from dataclasses import dataclass

from .freealg import (Context, DeclarationError, FreePoly, ReplayBudget, ReplayBudgetError,
                      Word, _charged_product, bracket_terms, linear_combination)
from .groups import (MAX_GROUP_ORDER, FiniteGroup, GradingTuple, GroupError, cyclic_group,
                     default_grading)
from .identity import GeneratorInstance, GeneratorKind, make_generator


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 1):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


# --- expression parsing -------------------------------------------------------

# One token: a run of letters joined by * with no space (x1*x2*x3), an integer
# literal, or one punctuation character.  _SCAN adds the spaces before it and,
# as group 2, the first other non-space character; every _SCAN match starts
# where the last one ended, so one finditer scan reads the whole line.  Digits
# are ASCII ([0-9]): \d would also match other scripts' digits, which int()
# reads ("x\u0661" as x1), while \s stays Unicode, as str.split in parse_expr
# is.  An x before such a digit is skipped, so the error names the digit; a
# bare x is named itself.  A run stops before a * that no letter follows.
_TOKEN = re.compile(r"x[0-9]+(?:\*x[0-9]+)*|[0-9]+|[+\-*()\[\],]")
_SCAN = re.compile(rf"\s*(?:({_TOKEN.pattern})|(?:x(?=\d))?(\S))")


def _tokenize(text: str, line: int):
    """The (token, 1-based column) pairs of an expression."""
    out = []
    for m in _SCAN.finditer(text):
        tok = m.group(1)
        if tok is None:
            raise ParseError(f"unexpected character {m.group(2)!r}", line, m.start(2) + 1)
        out.append((tok, m.start(1) + 1))
    return out


class _ExprParser:
    """Recursive descent over + - * ( ) [ , ] with unary minus.

    The parser walks plain token strings, ending in a None sentinel.  A
    column is needed only for an error message, and then the text is
    scanned again with _tokenize, which pairs each token with its column.
    Every level below parse works on term dicts without zero coefficients
    whose letters are all declared; parse wraps the expression's terms in
    its one FreePoly unchecked.  Each product is charged to one
    ReplayBudget before it is built, and nothing else is charged: nested
    brackets double the expansion per level, up to MAX_REPLAY_LETTERS.
    """

    def __init__(self, ctx: Context, tokens, text: str, line: int):
        self.ctx = ctx
        self.tokens = tokens
        self.text = text
        self.line = line
        self.i = 0
        self.budget = ReplayBudget()
        # each declared id's spelling, "x12" -> 12, for runs of letters
        self.letters = {f"x{k}": k for k in ctx.degrees}

    def fail(self, msg: str, i: int, offset: int = 0):
        """Raise msg at the column offset characters into token i, or just
        past the last token."""
        pairs = _tokenize(self.text, self.line)
        if i < len(pairs):
            col = pairs[i][1] + offset
        else:
            col = pairs[-1][1] + len(pairs[-1][0])
        raise ParseError(msg, self.line, col)

    def read_run(self, run: str, i: int) -> list[int]:
        """The ids of a run of letters (token i) that is not all declared
        spellings, read letter by letter: a leading zero is read by int()
        (x01 is x1), and the first letter that is not a declared variable
        is named at its own column."""
        ids = []
        offset = 0
        for letter in run.split("*"):
            try:
                vid = int(letter[1:])
            except ValueError:
                self.fail(_too_long(letter[1:], "variable id"), i, offset)
            if vid < 1 or vid not in self.ctx.degrees:
                self.fail(f"variable {letter} is not declared", i, offset)
            ids.append(vid)
            offset += len(letter) + 1
        return ids

    def expect(self, tok):
        if self.tokens[self.i] != tok:
            self.fail(f"expected {tok!r}", self.i)
        self.i += 1

    def parse(self) -> FreePoly:
        terms = self.expr()
        tok = self.tokens[self.i]
        if tok is not None:
            if tok[0] == "x":  # a run of letters: its first letter is named
                tok = tok.partition("*")[0]
            self.fail(f"trailing input {tok!r}", self.i)
        return FreePoly._make(self.ctx, terms)

    def expr(self) -> dict[Word, int]:
        """A sum of terms, without zero coefficients."""
        tokens = self.tokens
        summands = []  # (sign, term) pairs
        sign = 1
        if tokens[self.i] in ("+", "-"):
            sign = -1 if tokens[self.i] == "-" else 1
            self.i += 1
        while True:
            summands.append((sign, self.term()))
            tok = tokens[self.i]
            if tok != "+" and tok != "-":
                return linear_combination(summands)
            sign = -1 if tok == "-" else 1
            self.i += 1

    def term(self) -> dict[Word, int]:
        """A product of factors, without zero coefficients.

        A run of letters and integer literals is one word and one
        coefficient: a flat run is that monomial.  Each ( or [ factor
        ([a,b] is ab - ba), prefixed by the word of the run before it, and
        the word of the last run are multiplied into the product, each
        product built once by _charged_product; the coefficient is applied
        at the end.  A run of letters is one token, split at its *s and
        each letter looked up among the declared spellings in one C-level
        map; only a run with a letter that misses is read letter by letter.
        """
        tokens = self.tokens
        spelled = self.letters.__getitem__
        acc: dict[Word, int] | None = None  # the product of the factors so far
        word: list[int] = []
        coeff = 1
        i = self.i
        while True:
            tok = tokens[i]
            if tok is None:
                self.fail("unexpected end of expression", i)
            if tok[0] == "x":
                try:
                    ids = list(map(spelled, tok.split("*")))
                except KeyError:
                    ids = self.read_run(tok, i)
                word += ids
                i += 1
            elif tok.isdigit():
                try:
                    coeff *= int(tok)
                except ValueError:
                    self.fail(_too_long(tok, "integer"), i)
                i += 1
            elif tok == "(" or tok == "[":
                self.i = i + 1
                factor = self.expr()
                if tok == "[":
                    self.expect(",")
                    right = self.expr()
                    self.expect("]")
                    factor = bracket_terms(factor, right, self.budget)
                else:
                    self.expect(")")
                if word:
                    factor = _charged_product({tuple(word): 1}, factor, self.budget)
                    word = []
                acc = factor if acc is None else _charged_product(acc, factor, self.budget)
                i = self.i
            else:
                self.fail(f"unexpected token {tok!r}", i)
            if tokens[i] != "*":
                self.i = i
                if acc is None:
                    return {tuple(word): coeff} if coeff else {}
                if word:
                    acc = _charged_product(acc, {tuple(word): 1}, self.budget)
                return {w: coeff * c for w, c in acc.items()} if coeff else {}
            i += 1


def _too_long(digits: str, what: str) -> str:
    """The message for a run of digits longer than int() reads (Python's
    integer-string limit, 4300 digits by default)."""
    return f"{what} of {len(digits)} digits is too long to read"


def _read_int(text: str, what: str, line: int) -> int:
    """The number written in ASCII digits, or a ParseError at line naming
    what (int() alone would also read "+1", "1_0" and other scripts' digits)."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{what} {text!r} is not a nonnegative integer in ASCII digits", line)
    try:
        return int(text)
    except ValueError:
        raise ParseError(_too_long(text, what), line) from None


def parse_expr(ctx: Context, text: str, line: int = 1) -> FreePoly:
    tokens = _TOKEN.findall(text)
    # The tokens hold every non-space character exactly when _tokenize finds
    # no bad one, and then they are the tokens it pairs with columns.
    if "".join(tokens) != "".join(text.split()):
        _tokenize(text, line)  # raises at the first character outside a token
    if not tokens:
        raise ParseError("empty expression", line)
    tokens.append(None)
    try:
        return _ExprParser(ctx, tokens, text, line).parse()
    except RecursionError:  # each ( or [ is a few frames of the descent
        raise ParseError("expression nested too deeply", line) from None
    except ReplayBudgetError as exc:
        raise ParseError(f"expression expands too far: {exc}", line) from None


def parse_word(ctx: Context, text: str, line: int = 1) -> Word:
    """Parse an expression that must denote a single monomial with coefficient 1."""
    p = parse_expr(ctx, text, line)
    if len(p.terms) != 1:
        raise ParseError("expected a single monomial", line)
    (w, c), = p.terms.items()
    if c != 1:
        raise ParseError("monomial must have coefficient 1", line)
    if not w:
        raise ParseError("the empty word is not accepted here", line)
    return w


# --- file parsing -------------------------------------------------------------

@dataclass
class ParsedFile:
    ctx: Context
    poly: FreePoly | None = None
    word_m: Word | None = None
    word_n: Word | None = None
    generator: GeneratorInstance | None = None


def _lines(text: str) -> list[str]:
    r"""The lines of text, each ended at \n, \r\n or \r only, as universal
    newlines read them.  str.splitlines also ends one at \v, \f, \x1c-\x1e,
    \x85, U+2028 and U+2029, which an editor shows inside a line; they stay
    in it, as whitespace to the tokenizer's \s.  Splitting at a compiled
    pattern instead took four times as long."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_file(path: str) -> ParsedFile:
    """The problem in a UTF-8 file, read past a leading byte-order mark."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)  # faster than "utf-8-sig"
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", len(_lines(raw[:exc.start].decode("utf-8")))) from None
    return parse_text(text)


# The directives a file gives at most once; vars: lines may repeat.
_ONCE = frozenset({"group", "grading", "poly", "m", "n", "type", "h1", "h2", "h3"})


def parse_text(text: str) -> ParsedFile:
    group: FiniteGroup | None = None
    grading_spec: tuple[int, ...] | None = None
    grading_line = 1
    degrees: dict[int, int] = {}
    declared_on: list[int] = []  # the line of each id in degrees, in order
    body: list[tuple[str, str, int]] = []
    given: set[str] = set()  # the _ONCE directives read so far

    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key in _ONCE:
            if key in given:
                raise ParseError(f"directive {key!r} given twice", lineno)
            given.add(key)
        if key == "group":
            group = _parse_group(value, lineno)
        elif key == "grading":
            grading_spec = tuple(_read_int(t, "grading entry", lineno) for t in value.split())
            grading_line = lineno
        elif key == "vars":
            known = len(degrees)
            _parse_vars(value, lineno, degrees)
            declared_on += [lineno] * (len(degrees) - known)
        else:
            body.append((key, value, lineno))

    if group is None:
        raise ParseError("missing 'group:' header", 1)
    if not degrees:
        raise ParseError("missing 'vars:' header", 1)
    if grading_spec is None:
        grading = default_grading(group)
    else:
        try:
            grading = GradingTuple(group, grading_spec)
        except GroupError as exc:
            raise ParseError(str(exc), grading_line) from None
    ctx = Context(grading, {})
    for (k, d), lineno in zip(degrees.items(), declared_on):
        try:
            ctx.declare(k, d)
        except DeclarationError as exc:  # a degree out of the group's range
            raise ParseError(str(exc), lineno) from None

    out = ParsedFile(ctx)
    gen_kind: int | None = None
    parts: dict[str, tuple[Word, int]] = {}  # each part and its line
    for key, value, lineno in body:
        if key == "poly":
            out.poly = parse_expr(ctx, value, lineno)
        elif key == "m":
            out.word_m = parse_word(ctx, value, lineno)
        elif key == "n":
            out.word_n = parse_word(ctx, value, lineno)
        elif key == "type":
            if value not in ("1", "2"):
                raise ParseError("generator type must be 1 or 2", lineno)
            gen_kind = int(value)
        elif key in ("h1", "h2", "h3"):
            parts[key] = parse_word(ctx, value, lineno), lineno
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)

    want = {1: ("h1", "h2"), 2: ("h1", "h2", "h3")}.get(gen_kind, ())
    if gen_kind is not None:
        missing = [k for k in want if k not in parts]
        if missing:
            raise ParseError(f"generator is missing parts: {', '.join(missing)}", 1)
        out.generator = make_generator(GeneratorKind(gen_kind), ctx,
                                       tuple(parts[k][0] for k in want))
    for key, (_, lineno) in parts.items():  # in file order
        if key not in want:
            raise ParseError(f"generator part {key!r} given without a 'type:' line"
                             if gen_kind is None else
                             f"a type-{gen_kind} generator has no part {key!r}", lineno)
    return out


def _parse_group(value: str, lineno: int) -> FiniteGroup:
    m = re.fullmatch(r"[Zz]([0-9]+)", value)
    if m:
        try:
            order = int(m.group(1))
        except ValueError:  # more digits than int() reads, far above the limit
            raise ParseError(f"group order exceeds the limit {MAX_GROUP_ORDER}",
                             lineno) from None
        try:
            return cyclic_group(order)
        except GroupError as exc:  # order 0, or above MAX_GROUP_ORDER
            raise ParseError(str(exc), lineno) from None
    if value.lower().startswith("table"):
        rest = value[len("table"):].strip()
        try:
            rows = json.loads(rest)
            return FiniteGroup(tuple(tuple(r) for r in rows))
        except (json.JSONDecodeError, GroupError, TypeError) as exc:
            raise ParseError(f"bad group table: {exc}", lineno) from None
        except RecursionError:
            raise ParseError("bad group table: JSON nested too deeply", lineno) from None
        except ValueError:  # json reads every integer with int(), which has a digit limit
            raise ParseError("bad group table: an integer has more digits than can be read",
                             lineno) from None
    raise ParseError(f"unknown group {value!r} (use Z<n> or table [[...]])", lineno)


# One declaration of a vars: line, in ASCII digits only, so that int() reads
# exactly the digits matched (or raises ValueError when they are too long).
_DECLARATION = re.compile(r"x([0-9]+):([0-9]+)")


def _parse_vars(value: str, lineno: int, degrees: dict[int, int]) -> None:
    """Add the declarations of a vars: line to degrees, the ones read so far."""
    for tok in value.split():
        m = _DECLARATION.fullmatch(tok)
        if not m:
            raise ParseError(f"bad variable declaration {tok!r} (want xK:DEG)", lineno)
        ident, degree = m.groups()
        try:
            k = int(ident)
        except ValueError:  # too long for int(); _read_int says so
            k = _read_int(ident, "variable id", lineno)
        if k < 1:
            raise ParseError("variable ids start at 1", lineno)
        if k in degrees:
            raise ParseError(f"x{k} declared twice", lineno)
        try:
            degrees[k] = int(degree)
        except ValueError:
            degrees[k] = _read_int(degree, "degree", lineno)


def format_file(parsed: ParsedFile) -> str:
    """Render back to the text format; reparses to an equal object."""
    ctx = parsed.ctx
    group = ctx.grading.group
    cyc = cyclic_group(group.order)
    if group == cyc:
        lines = [f"group: Z{group.order}"]
    else:
        lines = ["group: table " + json.dumps([list(r) for r in group.table])]
    lines.append("grading: " + " ".join(str(e) for e in ctx.grading.tuple_))
    lines.append("vars: " + " ".join(f"x{k}:{d}" for k, d in sorted(ctx.degrees.items())))
    if parsed.poly is not None:
        lines.append("poly: " + repr(parsed.poly))
    if parsed.word_m is not None:
        lines.append("m: " + repr(FreePoly.word(ctx, parsed.word_m)))
    if parsed.word_n is not None:
        lines.append("n: " + repr(FreePoly.word(ctx, parsed.word_n)))
    if parsed.generator is not None:
        g = parsed.generator
        lines.append(f"type: {g.kind.value}")
        for i, p in enumerate(g.parts, start=1):
            lines.append(f"h{i}: " + repr(FreePoly.word(ctx, p)))
    return "\n".join(lines) + "\n"

