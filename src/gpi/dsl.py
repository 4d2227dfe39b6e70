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
Lie bracket.  Whitespace is insignificant inside expressions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .freealg import Context, FreePoly, Word, bracket, terms_product
from .groups import FiniteGroup, GradingTuple, GroupError, cyclic_group, default_grading
from .identity import GeneratorInstance, GeneratorKind, make_generator


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 1):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


# --- expression parsing -------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(x\d+)|(\d+)|([+\-*()\[\],]))")


def _tokenize(text: str, line: int):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        if m.lastindex:
            out.append((m.group(m.lastindex), m.start(m.lastindex) + 1))
        pos = m.end()
    return out


class _ExprParser:
    """Recursive descent over + - * ( ) [ , ] with unary minus."""

    def __init__(self, ctx: Context, tokens, line: int):
        self.ctx = ctx
        self.tokens = tokens
        self.line = line
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def col(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.line, self.col())
        self.take()

    def parse(self) -> FreePoly:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.line, self.col())
        return p

    def expr(self) -> FreePoly:
        terms: dict[Word, int] = {}
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        while True:
            for w, c in self.term().items():
                terms[w] = terms.get(w, 0) + sign * c
            if self.peek() not in ("+", "-"):
                return FreePoly(self.ctx, terms)
            sign = -1 if self.take() == "-" else 1

    def term(self) -> dict[Word, int]:
        """A product of factors, multiplied out dict by dict.

        No FreePoly is built until the whole expression is read, so each
        letter's declaration is checked a fixed number of times.
        """
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            acc = terms_product(acc, self.factor())
        return acc

    def factor(self) -> dict[Word, int]:
        """The terms of one factor, without zero coefficients, as FreePoly holds them."""
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line, self.col())
        if tok == "(":
            self.take()
            p = self.expr()
            self.expect(")")
            return p.terms
        if tok == "[":
            self.take()
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return bracket(a, b).terms
        if tok.startswith("x"):
            col = self.col()
            self.take()
            vid = int(tok[1:])
            if vid < 1 or vid not in self.ctx.degrees:
                raise ParseError(f"variable {tok} is not declared", self.line, col)
            return {(vid,): 1}
        if tok.isdigit():
            self.take()
            n = int(tok)
            return {(): n} if n else {}
        raise ParseError(f"unexpected token {tok!r}", self.line, self.col())


def parse_expr(ctx: Context, text: str, line: int = 1) -> FreePoly:
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty expression", line)
    return _ExprParser(ctx, tokens, line).parse()


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


def parse_file(path: str) -> ParsedFile:
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read())


def parse_text(text: str) -> ParsedFile:
    group: FiniteGroup | None = None
    grading_spec: tuple[int, ...] | None = None
    degrees: dict[int, int] = {}
    body: list[tuple[str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "group":
            group = _parse_group(value, lineno)
        elif key == "grading":
            try:
                grading_spec = tuple(int(t) for t in value.split())
            except ValueError:
                raise ParseError("grading entries must be integers", lineno) from None
        elif key == "vars":
            degrees.update(_parse_vars(value, lineno))
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
            raise ParseError(str(exc), 1) from None
    n = group.order
    for k, d in degrees.items():
        if not (0 <= d < n):
            raise ParseError(f"degree {d} of x{k} out of group range", 1)
    ctx = Context(grading, degrees)

    out = ParsedFile(ctx)
    gen_kind: int | None = None
    parts: dict[str, Word] = {}
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
            parts[key] = parse_word(ctx, value, lineno)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)

    if gen_kind is not None:
        want = ("h1", "h2") if gen_kind == 1 else ("h1", "h2", "h3")
        missing = [k for k in want if k not in parts]
        if missing:
            raise ParseError(f"generator is missing parts: {', '.join(missing)}", 1)
        out.generator = make_generator(GeneratorKind(gen_kind), ctx,
                                       tuple(parts[k] for k in want))
    return out


def _parse_group(value: str, lineno: int) -> FiniteGroup:
    m = re.fullmatch(r"[Zz](\d+)", value)
    if m:
        order = int(m.group(1))
        if order < 1:
            raise ParseError("cyclic group order must be positive", lineno)
        return cyclic_group(order)
    if value.lower().startswith("table"):
        rest = value[len("table"):].strip()
        try:
            rows = json.loads(rest)
            return FiniteGroup(tuple(tuple(r) for r in rows))
        except (json.JSONDecodeError, GroupError, TypeError) as exc:
            raise ParseError(f"bad group table: {exc}", lineno) from None
    raise ParseError(f"unknown group {value!r} (use Z<n> or table [[...]])", lineno)


def _parse_vars(value: str, lineno: int) -> dict[int, int]:
    degrees = {}
    for tok in value.split():
        m = re.fullmatch(r"x(\d+):(\d+)", tok)
        if not m:
            raise ParseError(f"bad variable declaration {tok!r} (want xK:DEG)", lineno)
        k = int(m.group(1))
        if k < 1:
            raise ParseError("variable ids start at 1", lineno)
        if k in degrees:
            raise ParseError(f"x{k} declared twice", lineno)
        degrees[k] = int(m.group(2))
    return degrees


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
        lines.append("poly: " + _format_poly(parsed.poly))
    if parsed.word_m is not None:
        lines.append("m: " + _format_word(parsed.word_m))
    if parsed.word_n is not None:
        lines.append("n: " + _format_word(parsed.word_n))
    if parsed.generator is not None:
        g = parsed.generator
        lines.append(f"type: {g.kind.value}")
        for i, p in enumerate(g.parts, start=1):
            lines.append(f"h{i}: " + _format_word(p))
    return "\n".join(lines) + "\n"


def _format_word(w: Word) -> str:
    return "*".join(f"x{v}" for v in w)


def _format_poly(p: FreePoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for w in p.support():
        c = p.terms[w]
        body = _format_word(w) if w else "1"
        mag = abs(c)
        piece = body if mag == 1 and w else f"{mag}*{body}"
        if not chunks:
            chunks.append(piece if c > 0 else "-" + piece)
        else:
            chunks.append(("+ " if c > 0 else "- ") + piece)
    return " ".join(chunks)
