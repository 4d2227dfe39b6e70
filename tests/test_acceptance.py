"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single "criterion N: PASS/FAIL" line (visible in the
captured run log) and asserts the underlying property.  GPI_SEED pins the
random sampling.
"""

import random
import time

import pytest
import support

from gpi import certs
from gpi.freealg import Context, FreePoly, multihomogeneous_components, word_degree
from gpi.genmat import eval_poly
from gpi.identity import (GeneratorKind, degree_rule_holds, expand, identity_witness,
                          is_graded_identity, make_generator)
from gpi.certs import (RewriteChain, cert_leaves, cert_value, verify_certificate,
                       verify_chain, verify_combination)
from gpi.rewrite import NoExpressionError, express_in_J, shared_entry
from gpi.z3reduce import ReductionError, Side, nonzero_triple_forced, reduce_type1, reduce_type2
from gpi.groups import cyclic_group, default_grading

Z3 = default_grading(cyclic_group(3))


@pytest.fixture
def report(capfd):
    """One visible pass/fail line per criterion, then the assertion."""
    def _report(num: int, ok: bool, detail: str = ""):
        tail = f" ({detail})" if detail else ""
        with capfd.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{tail}",
                  flush=True)
        assert ok, f"criterion {num} failed: {detail}"
    return _report


# --- deterministic generation used by criteria 1, 4, 7, 8, 9 ------------------

def generate_criterion1(rand: random.Random):
    """Wrapped/substituted generator expansions; all must be identities."""
    out = []
    for grading in support.configs():
        for kind in GeneratorKind:
            for _ in range(300):
                g = support.random_generator(rand, grading, kind, 4, spare=3)
                ctx = g.ctx
                p = expand(g)
                part_vars = [v for part in g.parts for v in part]
                spare = [k for k in sorted(ctx.degrees) if k not in part_vars]
                if rand.random() < 0.5 and spare:
                    left = tuple(rand.sample(spare, rand.randint(0, min(2, len(spare)))))
                    right = tuple(k for k in spare if k not in left)[:1]
                    p = FreePoly.word(ctx, left) * p * FreePoly.word(ctx, right)
                if rand.random() < 0.5 and spare:
                    targets = rand.sample(part_vars, min(2, len(part_vars)))
                    sub = support.random_weak_substitution(
                        rand, ctx, targets, part_vars + spare, depth=2)
                    p = sub(p)
                out.append(p)
    return out


def generate_criterion4(rand: random.Random):
    """(identities, their combinations, non-identities)."""
    identities, combos, non_identities = [], [], []
    gradings = support.configs()
    while len(identities) < 200:
        grading = gradings[len(identities) % 2]
        ctx = support.random_context(rand, grading, 7)
        w = support.random_multilinear_word(rand, ctx, rand.randint(2, 7))
        f = FreePoly(ctx)
        for _ in range(rand.randint(1, 3)):
            m, n = support.random_congruent_pair(rand, ctx, w)
            if m == n:
                continue
            lam = rand.choice([-2, -1, 1, 2, 3])
            f = f + FreePoly(ctx, {m: lam, n: -lam})
        if f.is_zero():
            continue
        comb = express_in_J(f)
        identities.append(f)
        combos.append(comb)
    while len(non_identities) < 200:
        grading = gradings[len(non_identities) % 2]
        ctx = support.random_context(rand, grading, 7)
        nterms = rand.randint(1, 3)
        base = support.random_multilinear_word(rand, ctx, rand.randint(1, 7))
        terms = {}
        for _ in range(nterms):
            w = list(base)
            rand.shuffle(w)
            terms[tuple(w)] = rand.choice([-2, -1, 1, 2])
        f = FreePoly(ctx, terms)
        if f.is_zero() or is_graded_identity(f):
            continue
        non_identities.append(f)
    return identities, combos, non_identities


def generate_criterion7(rand: random.Random):
    out = []
    for _ in range(200):
        g = support.random_generator(rand, Z3, GeneratorKind.TYPE1, 5)
        out.append(reduce_type1(g))
    for _ in range(200):
        g = support.random_generator(rand, Z3, GeneratorKind.TYPE2, 4)
        out.append(reduce_type2(g))
    return out


@pytest.fixture(scope="module")
def crit1_identities():
    return generate_criterion1(support.rng(1))


@pytest.fixture(scope="module")
def crit4_data():
    return generate_criterion4(support.rng(4))


@pytest.fixture(scope="module")
def crit7_certs():
    return generate_criterion7(support.rng(7))


# --- the criteria -------------------------------------------------------------

def test_criterion_1(report, crit1_identities):
    start = time.monotonic()
    bad = sum(1 for p in crit1_identities if eval_poly(p))
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed <= 60
    report(1, ok, f"{len(crit1_identities)} instances, {elapsed:.1f}s")


def test_criterion_2(report):
    rand = support.rng(2)
    start = time.monotonic()
    bad = 0
    for grading in support.configs():
        for _ in range(1000):
            ctx = support.random_context(rand, grading, 6)
            w = support.random_word(rand, ctx, rand.randint(1, 6))
            if support.word_matrix(ctx, w).is_zero():
                bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed <= 30
    report(2, ok, f"2000 words, {elapsed:.1f}s")


def test_criterion_3(report):
    rand = support.rng(3)
    start = time.monotonic()
    bad = 0
    for grading in support.configs():
        for _ in range(500):
            ctx = support.random_context(rand, grading, 6)
            w = support.random_word(rand, ctx, rand.randint(1, 8))
            if support.word_matrix(ctx, w) != support.eval_word_direct(ctx, w):
                bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed <= 30
    report(3, ok, f"1000 words, {elapsed:.1f}s")


def test_criterion_4(report, crit4_data):
    start = time.monotonic()
    identities, combos, non_identities = crit4_data
    ok = True
    for f, comb in zip(identities, combos):
        if not (verify_combination(comb) and comb.expansion() == f):
            ok = False
    for f in non_identities:
        try:
            express_in_J(f)
            ok = False
        except NoExpressionError as exc:
            if exc.witness is None or not exc.witness.value.terms:
                ok = False
    mixed = identities[:100] + non_identities[:100]
    for f in mixed:
        expressed = True
        try:
            express_in_J(f)
        except NoExpressionError:
            expressed = False
        if expressed != is_graded_identity(f):
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 120
    report(4, ok, f"200 identities / 200 rejections / 200 mixed, {elapsed:.1f}s")


def test_criterion_5(report, crit4_data):
    _, combos, _ = crit4_data
    ok = True
    nchains = 0
    for comb in combos:
        ctx = comb.ctx
        for term in comb.terms:
            chain = RewriteChain(ctx, term.source, term.moves, term.target)
            nchains += 1
            if not verify_chain(chain):
                ok = False
            w = chain.start
            for mv in chain.moves:
                kind = GeneratorKind.TYPE1 if mv.b == mv.c else GeneratorKind.TYPE2
                if not degree_rule_holds(kind, ctx, mv.blocks(w)):
                    ok = False
                w = mv.apply(w)
            if shared_entry(ctx, chain.end, chain.start) is None:
                ok = False
    report(5, ok, f"{nchains} chains checked")


def test_criterion_6(report):
    rand = support.rng(6)
    start = time.monotonic()
    ok = True
    # bracket expansion lemma
    for _ in range(100):
        ctx = support.random_context(rand, Z3, 8)
        ws = [support.random_word(rand, ctx, rand.randint(1, 3)) for _ in range(4)]
        lhs, rhs = support.bracket_expand(ctx, *ws)
        if lhs != rhs:
            ok = False
    # telescopes, r <= 5
    for _ in range(100):
        nodes, g = support.random_telescope(rand, Z3, rand.randint(2, 5))
        if cert_value(g.ctx, nodes) != expand(g):
            ok = False
    # decomposition lemmas (both), via random nontrivial-degree words: LEFT
    # on the first part, RIGHT on the middle part of a type-2 generator
    done = 0
    while done < 100:
        length = rand.randint(4, 6)
        degrees = {k: rand.choice([1, 2]) for k in range(1, length + 1)}
        ctx = Context(Z3, degrees)
        h = tuple(range(1, length + 1))
        side = rand.choice([Side.RIGHT, Side.LEFT])
        d = word_degree(ctx, h)
        y = ctx.declare(length + 1, Z3.group.inv(d))
        w = ctx.declare(length + 2, d if side is Side.LEFT else Z3.group.inv(d))
        parts, i = ((h, (y,), (w,)), 0) if side is Side.LEFT else (((y,), h, (w,)), 1)
        reduction = support.LeafReduction(ctx)
        try:
            reduction.decompose(parts, i, side)
        except ReductionError:
            continue
        if cert_value(ctx, reduction.nodes) != expand(make_generator(
                GeneratorKind.TYPE2, ctx, parts)):
            ok = False
        done += 1
    # the split-commutator and zero-factor identities
    for _ in range(50):
        g = support.random_generator(rand, Z3, GeneratorKind.TYPE2, 2, spare=1)
        ctx = g.ctx
        spare = [k for k in sorted(ctx.degrees)
                 if all(k not in p for p in g.parts)]
        h3 = tuple(k for k in spare if ctx.degree(k) == 0)[:1]
        h1, h2, h4 = g.parts
        for side in Side:
            reduction = support.LeafReduction(ctx)
            reduction.pull_zero_factor(h1, h2, h3, h4, side)
            parts = (h3 + h4, h2, h1) if side is Side.LEFT else (h1, h2 + h3, h4)
            if cert_value(ctx, reduction.nodes) != expand(make_generator(
                    GeneratorKind.TYPE2, ctx, parts)):
                ok = False
    for _ in range(50):
        ctx = Context(Z3, {k: 0 for k in range(1, 7)})
        cut1, cut2 = sorted(rand.sample(range(1, 6), 2))
        ids = tuple(range(1, 7))
        reduction = support.LeafReduction(ctx)
        reduction.split_commutator(ids[:cut1], ids[cut1:cut2], ids[cut2:])
        if cert_value(ctx, reduction.nodes) != expand(make_generator(
                GeneratorKind.TYPE1, ctx, (ids[:cut2], ids[cut2:]))):
            ok = False
    # the nonzero-triple lemma, exhaustively, both directions
    for a1 in (1, 2):
        for a2 in (1, 2):
            for a3 in (1, 2):
                if not nonzero_triple_forced(Z3.group, a1, a2, a3, Side.LEFT):
                    ok = False
                if not nonzero_triple_forced(Z3.group, a1, a2, a3, Side.RIGHT):
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 30
    report(6, ok, f"structural identities, {elapsed:.1f}s")


def test_criterion_7(report, crit7_certs):
    start = time.monotonic()
    ok = True
    for cert in crit7_certs:
        if not verify_certificate(cert):
            ok = False
        if not all(leaf.is_reduced() for leaf in cert_leaves(cert.nodes)):
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 180
    report(7, ok, f"{len(crit7_certs)} reductions, {elapsed:.1f}s")


def test_criterion_8(report, crit1_identities, crit4_data):
    start = time.monotonic()
    identities = list(crit1_identities) + list(crit4_data[0])
    ok = True
    for f in identities:
        for comp in multihomogeneous_components(f):
            if identity_witness(comp) is not None:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 30
    report(8, ok, f"{len(identities)} identities, {elapsed:.1f}s")


def test_criterion_9(report, tmp_path, crit4_data, crit7_certs):
    def serialize(combos, reductions):
        lines = [certs.dumps(certs.jcomb_to_json(c)) for c in combos]
        lines += [certs.dumps(certs.reduction_to_json(c)) for c in reductions]
        return "".join(lines).encode()

    first = serialize(crit4_data[1], crit7_certs)
    again4 = generate_criterion4(support.rng(4))
    again7 = generate_criterion7(support.rng(7))
    second = serialize(again4[1], again7)
    a = tmp_path / "run1.certs"
    b = tmp_path / "run2.certs"
    a.write_bytes(first)
    b.write_bytes(second)
    ok = a.read_bytes() == b.read_bytes()
    report(9, ok, f"{len(crit4_data[1]) + len(crit7_certs)} certificates, "
                  f"{len(first)} bytes")
