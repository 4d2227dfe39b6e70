"""Seeded problem generators for the gpi benchmark, with answers known from construction.

Nothing here imports gpi: every expected exit code follows from how the input
was built, so the benchmark never asks the library under test what the right
answer is.

* decide:  sums of generator expansions, multiplied by context words and
  passed through weak substitutions, are graded identities; adding a nonzero
  multiple of any one word gives a non-identity, because a single word never
  evaluates to zero.
* express: every word a walk of swap0/reverse3 moves visits is congruent to
  the start word, so a sum over walks is an identity exactly when every walk's
  coefficients sum to zero.
* reduce:  every type-1 and type-2 generator over Z3 reduces to short parts.

A pool is one pass of problems.  Sizes are drawn by stratified sampling (one
draw per equal-probability slice of the size distribution) and the strata are
interleaved in a low-discrepancy order, so that every seed, and every prefix of
a pass, carries nearly the same mix of cheap and expensive inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

CATALOGUE = Path(__file__).with_name("reduce_catalogue.json")

Word = tuple[int, ...]
Poly = dict[Word, int]


@dataclass
class Problem:
    command: str                 # "check", "express" or "z3reduce"
    text: str                    # the problem file
    expect: int                  # exit code of the produce step
    certified: bool              # a certificate is emitted and must verify
    size: dict                   # group order, support, part lengths
    poly: Poly = field(default_factory=dict)        # express: input to re-expand
    parts: list[list[int]] = field(default_factory=list)  # z3reduce: target parts


# --- sampling helpers ---------------------------------------------------------

def spread_order(n: int) -> list[int]:
    """0..n-1 in van der Corput order: every prefix samples the range evenly."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def interleave(strata: list[list]) -> list:
    """Merge lists so that every prefix holds each list in proportion."""
    keyed = [((i + 0.5) / len(s), j, i, x)
             for j, s in enumerate(strata) for i, x in enumerate(s)]
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def stratified(rand: random.Random, count: int) -> list[float]:
    """One draw from each of `count` equal slices of [0, 1), spread-ordered.

    Each draw is uniform over the middle half of its slice: this keeps most of
    the seed-to-seed variety while halving how far the cost of a pass can move
    with the seed, which matters where sizes are heavy-tailed.
    """
    draws = [(k + 0.25 + 0.5 * rand.random()) / count for k in range(count)]
    return [draws[k] for k in spread_order(count)]


def log_uniform(u: float, lo: float, hi: float) -> int:
    return round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


# --- polynomials --------------------------------------------------------------

def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def _bracket(p: Poly, q: Poly) -> Poly:
    out = _mul(p, q)
    for w, c in _mul(q, p).items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def _word(w) -> Poly:
    return {tuple(w): 1}


def _format_poly(p: Poly) -> str:
    chunks = []
    for w, c in p.items():
        body = "*".join(f"x{v}" for v in w)
        piece = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not chunks:
            chunks.append(piece if c > 0 else "-" + piece)
        else:
            chunks.append(("+ " if c > 0 else "- ") + piece)
    return " ".join(chunks)


def _format_word(w) -> str:
    return "*".join(f"x{v}" for v in w)


def _problem_file(order: int, degrees: dict[int, int], body: list[str]) -> str:
    vars_line = " ".join(f"x{k}:{d}" for k, d in sorted(degrees.items()))
    return "\n".join([f"group: Z{order}", f"vars: {vars_line}", *body]) + "\n"


class _Vars:
    """Fresh variables of chosen degrees in Z_n."""

    def __init__(self, n: int):
        self.n = n
        self.degrees: dict[int, int] = {}

    def new(self, degree: int) -> int:
        k = len(self.degrees) + 1
        self.degrees[k] = degree % self.n
        return k


def _random_part(rand: random.Random, vs: _Vars, length: int, degree: int) -> list[int]:
    """A multilinear word of fresh variables whose degree is `degree`."""
    degs = [rand.randrange(vs.n) for _ in range(length - 1)]
    degs.append((degree - sum(degs)) % vs.n)
    return [vs.new(d) for d in degs]


# --- decide -------------------------------------------------------------------

DECIDE_ORDERS = (8, 16, 24, 32, 48, 64, 96)
DECIDE_MAX_SUPPORT = 1000
# Dense evaluation adds an n x n matrix per word, so support * n^2 is the work of
# one check; capping it keeps the largest orders to a few words and one op under
# about half a second, while Z8 inputs reach the full support.
DECIDE_CELL_BUDGET = 64_000


def _lie(rand: random.Random, vs: _Vars, degree: int, brackets: int) -> Poly:
    """Expansion of a random Lie word of fresh variables with `brackets` brackets."""
    if brackets == 0:
        return _word((vs.new(degree),))
    left = rand.randint(0, brackets - 1)
    a = rand.randrange(vs.n)
    return _bracket(_lie(rand, vs, a, left),
                    _lie(rand, vs, degree - a, brackets - 1 - left))


def _generator_block(rand: random.Random, vs: _Vars, brackets: int) -> Poly:
    """A generator expansion in context, under a weak substitution; 2 * 2**brackets words.

    Every variable is fresh, so no two words cancel and blocks never overlap.
    """
    n = vs.n
    if rand.random() < 0.5:
        targets = (0, 0)
    else:
        g = rand.randrange(n)
        targets = (-g, g, -g)
    parts = [_random_part(rand, vs, rand.randint(1, 3), t) for t in targets]
    if len(parts) == 2:
        h1, h2 = parts
        gen = {tuple(h1 + h2): 1, tuple(h2 + h1): -1}
    else:
        h1, h2, h3 = parts
        gen = {tuple(h1 + h2 + h3): 1, tuple(h3 + h2 + h1): -1}
    # spread the brackets over up to three part variables, depth 0..3 each
    part_vars = [v for p in parts for v in p]
    nsub = min(len(part_vars), 3)
    brackets = min(brackets, 3 * nsub)
    nsub = rand.randint(max(1, math.ceil(brackets / 3)), nsub)
    share = [brackets // nsub + (i < brackets % nsub) for i in range(nsub)]
    images = {v: _lie(rand, vs, vs.degrees[v], b)
              for v, b in zip(rand.sample(part_vars, nsub), share)}
    out: Poly = {}
    for w, c in gen.items():
        acc: Poly = {(): c}
        for v in w:
            acc = _mul(acc, images.get(v) or _word((v,)))
        out.update(acc)
    left = [vs.new(rand.randrange(n)) for _ in range(rand.randint(0, 2))]
    right = [vs.new(rand.randrange(n)) for _ in range(rand.randint(0, 1))]
    return _mul(_mul(_word(left), out), _word(right))


def decide_problem(rand: random.Random, n: int, support: int, identity: bool) -> Problem:
    """Blocks of 2 * 2**b words, largest first, until `support` is reached.

    Evaluation cancels within a block, so the cost of a check grows with the
    sum of squared block sizes; taking the largest block that fits makes that
    sum a function of the support alone.
    """
    vs = _Vars(n)
    poly: Poly = {}
    while support - len(poly) >= 2:
        brackets = min(9, int(math.log2((support - len(poly)) / 2)))
        poly.update(_generator_block(rand, vs, brackets))
    if not identity:
        ids = sorted(vs.degrees)
        w = tuple(rand.choice(ids) for _ in range(rand.randint(2, 6)))
        poly[w] = poly.get(w, 0) + rand.choice((-3, -2, -1, 1, 2, 3))
        poly = {w: c for w, c in poly.items() if c}
    text = _problem_file(n, vs.degrees, ["poly: " + _format_poly(poly)])
    return Problem("check", text, 0 if identity else 1, False,
                   {"n": n, "support": len(poly)})


def decide_pool(rand: random.Random, count: int) -> list[Problem]:
    per_order = max(1, count // len(DECIDE_ORDERS))
    strata = []
    for n in DECIDE_ORDERS:
        top = min(DECIDE_MAX_SUPPORT, DECIDE_CELL_BUDGET // (n * n))
        strata.append([decide_problem(rand, n, log_uniform(u, 2, top), k % 2 == 0)
                       for k, u in enumerate(stratified(rand, per_order))])
    return interleave(strata)


# --- express ------------------------------------------------------------------

EXPRESS_ORDERS = (2, 3)
EXPRESS_SUPPORT = (4, 1200)


def _random_move(rand: random.Random, w: Word, degrees: dict[int, int], n: int):
    """A random valid swap0 or reverse3 move applied to w, or None."""
    prefix = [0]
    for v in w:
        prefix.append((prefix[-1] + degrees[v]) % n)
    cuts = range(len(w) + 1)
    for _ in range(64):
        if rand.random() < 0.5:
            a, b, c = sorted(rand.sample(cuts, 3))
            if (prefix[b] - prefix[a]) % n == 0 and (prefix[c] - prefix[b]) % n == 0:
                return w[:a] + w[b:c] + w[a:b] + w[c:]
        else:
            a, b, c, d = sorted(rand.sample(cuts, 4))
            d1 = (prefix[b] - prefix[a]) % n
            d2 = (prefix[c] - prefix[b]) % n
            d3 = (prefix[d] - prefix[c]) % n
            if d1 == d3 and (d1 + d2) % n == 0:
                return w[:a] + w[c:d] + w[b:c] + w[a:b] + w[d:]
    return None


def _walk(rand: random.Random, start: Word, degrees: dict[int, int], n: int,
          support: int) -> list[Word]:
    """Distinct words a random walk of moves visits from start, up to `support`."""
    seen = {start: None}
    cur = start
    for _ in range(40 * support + 200):
        if len(seen) >= support:
            break
        nxt = _random_move(rand, cur, degrees, n)
        cur = rand.choice(list(seen)) if nxt is None else nxt
        seen.setdefault(cur, None)
    return list(seen)


def _coefficients(rand: random.Random, count: int, zero_sum: bool) -> list[int]:
    """Nonzero coefficients whose sum is zero, or nonzero, as asked."""
    coeffs = [rand.choice((-3, -2, -1, 1, 2, 3)) for _ in range(count - 1)]
    total = sum(coeffs)
    if zero_sum:
        if total == 0:
            coeffs[0] += 1 if coeffs[0] > 0 else -1
            total = sum(coeffs)
        return coeffs + [-total]
    return coeffs + [rand.choice([c for c in (-3, -2, -1, 1, 2, 3) if c != -total])]


def express_problem(rand: random.Random, n: int, support: int, length: int, walks: int,
                    identity: bool) -> Problem:
    """Walks from random orderings of the same `length` variables.

    Every walk's coefficients sum to zero except, for a non-identity, the last
    one's.  Words of different walks need not be congruent, so the partner
    search in express_in_J has candidates to reject.
    """
    degrees = {k: rand.randrange(n) for k in range(1, length + 1)}
    walks = max(1, min(walks, support // 2))
    poly: Poly = {}
    for i in range(walks):
        start = tuple(rand.sample(range(1, length + 1), length))
        words = _walk(rand, start, degrees, n, support // walks)
        zero_sum = identity or i < walks - 1
        for w, c in zip(words, _coefficients(rand, len(words), zero_sum)):
            poly[w] = poly.get(w, 0) + c
    poly = {w: c for w, c in poly.items() if c}
    text = _problem_file(n, degrees, ["poly: " + _format_poly(poly)])
    return Problem("express", text, 0 if identity else 1, identity,
                   {"n": n, "length": length, "walks": walks, "support": len(poly)},
                   poly=poly)


def express_pool(rand: random.Random, count: int) -> list[Problem]:
    """Z2 and Z3 alike, words of length 10-16 in one to three walks.

    Four in five inputs are identities.  Length, walk count and the answer
    are fixed per support slice, so that they do not add to the seed-to-seed
    spread of a pass's cost.
    """
    per = max(1, count // len(EXPRESS_ORDERS))
    strata = []
    for n in EXPRESS_ORDERS:
        strata.append([express_problem(rand, n, log_uniform(u, *EXPRESS_SUPPORT),
                                       length=10 + k % 7, walks=1 + k % 3,
                                       identity=k % 5 != 4)
                       for k, u in enumerate(stratified(rand, per))])
    return interleave(strata)


# --- reduce -------------------------------------------------------------------

def _reduce_problem(rand: random.Random, kind: int, degs: list[list[int]]) -> Problem:
    """A Z3 generator with the given part degrees, variables renamed at random."""
    if rand.random() < 0.5:  # the automorphism g -> -g of Z3
        degs = [[(-d) % 3 for d in part] for part in degs]
    total = sum(len(p) for p in degs)
    names = rand.sample(range(1, total + 1), total)
    degrees: dict[int, int] = {}
    parts = []
    for part in degs:
        word = [names[len(degrees) + i] for i in range(len(part))]
        degrees.update(zip(word, part))
        parts.append(word)
    body = [f"type: {kind}"] + [f"h{i}: {_format_word(p)}"
                                for i, p in enumerate(parts, start=1)]
    return Problem("z3reduce", _problem_file(3, degrees, body), 0, True,
                   {"n": 3, "type": kind, "parts": [len(p) for p in parts]},
                   parts=parts)


def random_generator_degrees(rand: random.Random, kind: int, lengths) -> list[list[int]]:
    """Part degrees of a random Z3 generator of the given kind and part lengths."""
    if kind == 1:
        targets = (0, 0)
    else:
        g = rand.randrange(3)
        targets = (-g, g, -g)
    out = []
    for length, t in zip(lengths, targets):
        degs = [rand.randrange(3) for _ in range(length - 1)]
        out.append(degs + [(t - sum(degs)) % 3])
    return out


def acceptance_problem(rand: random.Random) -> Problem:
    """The criterion-7 generator: type-1 parts up to 5, type-2 parts up to 4."""
    kind = rand.choice((1, 2))
    top = 5 if kind == 1 else 4
    lengths = [rand.randint(1, top) for _ in range(2 if kind == 1 else 3)]
    return _reduce_problem(rand, kind, random_generator_degrees(rand, kind, lengths))


def load_catalogue() -> dict:
    with open(CATALOGUE, encoding="utf-8") as fh:
        return json.load(fh)


def reduce_pool(rand: random.Random, count: int, catalogue: dict) -> list[Problem]:
    """40% acceptance size, 30% type-1 with parts 5-8, 30% type-2 with parts 5 or 6.

    The long-part instances come from the catalogue, which lists sampled part
    degrees sorted by the size of their reduction tree; each slot draws from
    one equal slice of that list, so every pass covers the same size range.
    """
    n_acc = max(1, round(0.4 * count))
    n_t1 = max(1, round(0.3 * count))
    n_t2 = max(2, count - n_acc - n_t1)
    strata = [[acceptance_problem(rand) for _ in range(n_acc)]]
    for family, slots in (("type1", n_t1), ("type2-len5", n_t2 // 2),
                          ("type2-len6", n_t2 - n_t2 // 2)):
        entries = catalogue["families"][family]
        kind = 1 if family == "type1" else 2
        strata.append([_reduce_problem(rand, kind, entries[int(u * len(entries))][1])
                       for u in stratified(rand, slots)])
    return interleave(strata)


def make_pool(workload: str, seed: int, count: int) -> list[Problem]:
    rand = random.Random(f"{workload}:{seed}")
    if workload == "decide":
        return decide_pool(rand, count)
    if workload == "express":
        return express_pool(rand, count)
    return reduce_pool(rand, count, load_catalogue())
