"""The graded free associative algebra over the integers.

Words are tuples of variable ids; polynomials are sparse integer
combinations of words.  A Context fixes the grading tuple and the degree
of every declared variable.  Lie words and weak (degree-preserving,
Lie-valued) substitutions live here as well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .groups import GradingTuple

Word = tuple[int, ...]


class DeclarationError(ValueError):
    pass


class SubstitutionError(ValueError):
    pass


@dataclass(frozen=True)
class Context:
    """Variable declarations: id -> group element index, under a grading."""

    grading: GradingTuple
    degrees: dict[int, int]

    def __post_init__(self):
        for k, d in self.degrees.items():
            self._check(k, d)

    def _check(self, k: int, d: int) -> None:
        if k < 1:
            raise DeclarationError(f"variable id {k} must be positive")
        if not (0 <= d < self.grading.group.order):
            raise DeclarationError(f"degree {d} of x{k} out of group range")

    def degree(self, var: int) -> int:
        try:
            return self.degrees[var]
        except KeyError:
            raise DeclarationError(f"variable x{var} is not declared") from None

    def fresh_id(self) -> int:
        return max(self.degrees, default=0) + 1

    def declare(self, k: int, d: int) -> int:
        """Monotone in-place declaration; conflicts with existing ids raise."""
        if k in self.degrees:
            if self.degrees[k] != d:
                raise DeclarationError(f"x{k} redeclared with a different degree")
        else:
            self._check(k, d)
            self.degrees[k] = d
        return k


def word_degree(ctx: Context, w: Word) -> int:
    """Product of the factor degrees in word order; empty word -> identity."""
    table, declared = ctx.grading.group.table, ctx.degrees
    g = ctx.grading.group.identity_index
    try:
        for v in w:
            g = table[g][declared[v]]
    except KeyError:
        ctx.degree(v)  # raises DeclarationError naming the undeclared id
    return g


def check_declared(ctx: Context, words) -> None:
    """Raise DeclarationError naming the first undeclared id in words."""
    if not ctx.degrees.keys() >= set().union(*words):
        for w in words:
            for v in w:
                ctx.degree(v)


def word_key(w: Word):
    """Length-lexicographic canonical order on words."""
    return (len(w), w)


def multidegree(w: Word):
    """Per-variable occurrence counts, as a hashable key."""
    return tuple(sorted(Counter(w).items()))


def is_multilinear_word(w: Word) -> bool:
    return len(set(w)) == len(w)


class FreePoly:
    """Sparse integer polynomial in noncommuting graded variables."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict[Word, int] | None = None):
        self.ctx = ctx
        self.terms = {w: c for w, c in (terms or {}).items() if c != 0}
        check_declared(ctx, self.terms)

    @classmethod
    def _make(cls, ctx: Context, terms: dict[Word, int]) -> "FreePoly":
        """The polynomial holding terms itself, unchecked, for a caller whose
        terms have no zero coefficient and only declared letters."""
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        return p

    @classmethod
    def word(cls, ctx: Context, w) -> "FreePoly":
        return cls(ctx, {tuple(w): 1})

    @classmethod
    def var(cls, ctx: Context, k: int) -> "FreePoly":
        return cls(ctx, {(k,): 1})

    def _check(self, other: "FreePoly"):
        if self.ctx != other.ctx:
            raise DeclarationError("operands declared over different contexts")

    def __add__(self, other: "FreePoly") -> "FreePoly":
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._check(other)
        return FreePoly._make(self.ctx, linear_combination(((1, self.terms), (1, other.terms))))

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._check(other)
        return FreePoly._make(self.ctx, linear_combination(((1, self.terms), (-1, other.terms))))

    def __neg__(self) -> "FreePoly":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return FreePoly._make(self.ctx, linear_combination(((other, self.terms),)))
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._check(other)
        return FreePoly._make(self.ctx, terms_product(self.terms, other.terms))

    def __rmul__(self, other):
        return self * other if isinstance(other, int) else NotImplemented

    def __eq__(self, other):
        return isinstance(other, FreePoly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Word]:
        return sorted(self.terms, key=word_key)

    def __repr__(self):
        """The problem-file syntax, terms in word_key order (dsl.parse_expr reads it)."""
        if not self.terms:
            return "0"
        parts = []
        for w in self.support():
            c = self.terms[w]
            factors = [f"x{v}" for v in w]
            if abs(c) != 1 or not w:
                factors.insert(0, str(abs(c)))
            piece = "*".join(factors)
            if not parts:
                parts.append(piece if c > 0 else "-" + piece)
            else:
                parts.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(parts)


def terms_product(a: dict[Word, int], b: dict[Word, int]) -> dict[Word, int]:
    """The product of two term dicts, word by word, without zero coefficients."""
    prod: dict[Word, int] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            prod[w] = prod.get(w, 0) + c1 * c2
    return {w: c for w, c in prod.items() if c}


def linear_combination(pairs) -> dict[Word, int]:
    """The sum of coeff * terms over the (coeff, term dict) pairs, without
    zero coefficients: the one place term dicts are added, but for
    bracket_terms, which builds lr - rl in one dict."""
    acc: dict[Word, int] = {}
    for k, terms in pairs:
        for w, c in terms.items():
            acc[w] = acc.get(w, 0) + k * c
    return {w: c for w, c in acc.items() if c}


def bracket(p: FreePoly, q: FreePoly) -> FreePoly:
    """Lie bracket [p, q] = pq - qp."""
    return p * q - q * p


def multihomogeneous_components(p: FreePoly) -> list[FreePoly]:
    """Split into summands of pairwise different multidegree; sum is p."""
    buckets: dict[tuple, dict[Word, int]] = {}
    for w, c in p.terms.items():
        buckets.setdefault(multidegree(w), {})[w] = c
    return [FreePoly(p.ctx, terms) for _, terms in sorted(buckets.items())]


# --- the replay budget --------------------------------------------------------
#
# A certificate of a few hundred bytes can ask its replay for exponentially
# many letters: a substitution image k brackets deep expands to 2^k words,
# and k copies of a substituted letter multiply out to 2^k more.  Every word
# a replay builds is charged to one budget before it is built.

MAX_REPLAY_LETTERS = 2_000_000


class ReplayBudgetError(ValueError):
    pass


class ReplayBudget:
    """The letters one replay may still build; over MAX_REPLAY_LETTERS raises."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = MAX_REPLAY_LETTERS

    def spend(self, letters: int) -> None:
        self.left -= letters
        if self.left < 0:
            raise ReplayBudgetError(
                f"replay needs more than {MAX_REPLAY_LETTERS:,} letters (MAX_REPLAY_LETTERS)")


def _charged_product(a: dict[Word, int], b: dict[Word, int],
                     budget: ReplayBudget) -> dict[Word, int]:
    """terms_product(a, b), charged before it is built: its len(a) * len(b)
    words hold len(b) * (letters of a) + len(a) * (letters of b) letters."""
    budget.spend(len(b) * sum(map(len, a)) + len(a) * sum(map(len, b)))
    return terms_product(a, b)


# --- Lie words and weak substitutions ---------------------------------------
#
# A LieWord is either a variable id (int) or a pair (left, right) meaning a
# bracket.  Weak substitutions map variables to LieWords of equal degree.

LieWord = object  # int | tuple[LieWord, LieWord]


def lie_degree(ctx: Context, lw) -> int:
    if isinstance(lw, int):
        return ctx.degree(lw)
    l, r = lw
    return ctx.grading.group.mul(lie_degree(ctx, l), lie_degree(ctx, r))


def lie_expand(ctx: Context, lw) -> FreePoly:
    return FreePoly(ctx, _lie_terms(lw, ReplayBudget()))


def _lie_terms(lw, budget: ReplayBudget) -> dict[Word, int]:
    """The expansion of a Lie word, each bracket [l, r] as lr - rl."""
    if isinstance(lw, int):
        return {(lw,): 1}
    return bracket_terms(_lie_terms(lw[0], budget), _lie_terms(lw[1], budget), budget)


def bracket_terms(l: dict[Word, int], r: dict[Word, int],
                  budget: ReplayBudget) -> dict[Word, int]:
    """[l, r] = lr - rl on term dicts, without zero coefficients.  Both
    products are charged to budget before either is built, what
    _charged_product would charge for each, and built into one dict."""
    budget.spend(2 * (len(r) * sum(map(len, l)) + len(l) * sum(map(len, r))))
    acc: dict[Word, int] = {}
    for w1, c1 in l.items():
        for w2, c2 in r.items():
            w = w1 + w2
            acc[w] = acc.get(w, 0) + c1 * c2
    for w2, c2 in r.items():
        for w1, c1 in l.items():
            w = w2 + w1
            acc[w] = acc.get(w, 0) - c2 * c1
    return {w: c for w, c in acc.items() if c}


@dataclass(frozen=True)
class WeakSubstitution:
    """A graded endomorphism sending selected variables into the Lie algebra.

    Every image must have the same degree as the variable it replaces;
    unmapped variables are fixed.
    """

    ctx: Context
    images: dict[int, object]

    def __post_init__(self):
        for k, lw in self.images.items():
            want = self.ctx.degree(k)
            got = lie_degree(self.ctx, lw)
            if want != got:
                raise SubstitutionError(
                    f"image of x{k} has degree {got}, expected {want}")

    def __call__(self, p: FreePoly) -> FreePoly:
        """The image of p (image_terms), charged to a fresh budget."""
        if p.ctx != self.ctx:
            raise SubstitutionError("substitution context does not match")
        return FreePoly(self.ctx, self.image_terms(p.terms, ReplayBudget()))

    def image_terms(self, terms: dict[Word, int], budget: ReplayBudget) -> dict[Word, int]:
        """The image of a term dict whose letters are declared in self.ctx,
        without zero coefficients, built one word at a time.

        Every image is expanded and charged first.  A word is sliced
        before and after each mapped letter.  Its image is the slice before
        the first mapped letter, multiplied out, one mapped letter at a
        time, by the letter's image followed by the slice after it.
        Before that, the budget is charged what multiplying the word out
        one letter at a time would build (_substitution_charge).  That
        bounds every word built from the slices: each step builds the words
        that end in a mapped letter's image and, when the slice after it is
        not empty, the words that end in that slice.  The images' letters
        were checked with their degrees, so no letter is checked again.
        """
        images = {k: list(_lie_terms(lw, budget).items()) for k, lw in self.images.items()}
        image: dict[Word, int] = {}
        for w, c in terms.items():
            spots = [i for i, v in enumerate(w) if v in images]
            factors = [images[w[i]] for i in spots]
            budget.spend(_substitution_charge(len(w), spots, factors))
            cuts = [w[a:b] for a, b in zip([0] + [i + 1 for i in spots], spots + [len(w)])]
            acc = [(cuts[0], c)]
            for factor, cut in zip(factors, cuts[1:]):
                acc = [(u + x + cut, d * e) for u, d in acc for x, e in factor]
            for u, d in acc:
                image[u] = image.get(u, 0) + d
        return {u: d for u, d in image.items() if d}


def _substitution_charge(size: int, spots: list[int], factors: list[list]) -> int:
    """What multiplying out a word of this size one letter at a time builds,
    where the letter at spots[j] is mapped to the terms factors[j].

    Each letter multiplies the product of the letters before it, n words
    of length m, by its image, k words of length l, at a charge of
    n k (m + l) (_charged_product).  An unmapped letter is its own image,
    k = l = 1, so a run of r of them is charged n (m + 1) + ... + n (m + r)
    in closed form.  An image with no terms makes n = 0: nothing after it
    is built or charged.  A Lie word's expansion has words of one length.
    """
    n, m, prev, charge = 1, 0, 0, 0
    for i, terms in zip(spots, factors):
        r, k, l = i - prev, len(terms), len(terms[0][0]) if terms else 0
        charge += n * (r * m + r * (r + 1) // 2) + n * k * (m + r + l)
        n, m, prev = n * k, m + r + l, i + 1
    r = size - prev
    return charge + n * (r * m + r * (r + 1) // 2)
