import ast
import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
import support
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gpi import certs, dsl, freealg, genmat, rewrite, upgrade, z3reduce
from gpi.certs import (CertContext, CertLeaf, CertSubst, CertSum, JCombination, JTerm,
                       ReductionCertificate, RewriteChain, cert_value,
                       verify_certificate, verify_chain, verify_combination)
from gpi.cli import _CliInputError, _verify, _witness_json, main
from gpi.freealg import (Context, DeclarationError, FreePoly, ReplayBudget, ReplayBudgetError,
                         WeakSubstitution)
from gpi.genmat import eval_poly, eval_word_closed
from gpi.identity import (GeneratorError, GeneratorKind, expand, generator_terms,
                          identity_witness, make_generator)
from gpi.rewrite import congruence_chain, express_in_J
from gpi.z3reduce import reduce_type1, reduce_type2
from gpi.groups import cyclic_group, default_grading

Z3 = default_grading(cyclic_group(3))


def chain_fixture():
    c = Context(Z3, {1: 1, 2: 2, 3: 1})
    return congruence_chain(c, (1, 2, 3), (3, 2, 1))


class TestContextRoundTrip:
    def test_round_trip(self):
        c = Context(Z3, {1: 1, 2: 2, 7: 0})
        doc = certs.context_to_json(c)
        back = certs.context_from_json(doc)
        assert back == c

    def test_malformed(self):
        with pytest.raises(certs.CertificateFormatError):
            certs.context_from_json({"grading": [0, 1, 2], "vars": {}})


class TestChainDocuments:
    def test_round_trip(self):
        chain = chain_fixture()
        doc = certs.chain_to_json(chain)
        back = certs.certificate_from_json(doc)
        assert isinstance(back, RewriteChain)
        assert back.start == chain.start and back.end == chain.end
        assert back.moves == chain.moves
        assert verify_chain(back)

    def test_dumps_is_deterministic(self):
        chain = chain_fixture()
        assert certs.dumps(certs.chain_to_json(chain)) == \
            certs.dumps(certs.chain_to_json(chain_fixture()))

    def test_version_checked(self):
        doc = certs.chain_to_json(chain_fixture())
        doc["version"] = 99
        with pytest.raises(certs.CertificateFormatError):
            certs.certificate_from_json(doc)


class TestCombinationDocuments:
    def test_round_trip(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        f = expand(make_generator(GeneratorKind.TYPE2, c, ((1,), (2,), (3,))))
        comb = express_in_J(f)
        doc = certs.jcomb_to_json(comb)
        back = certs.certificate_from_json(json.loads(certs.dumps(doc)))
        assert isinstance(back, JCombination)
        assert verify_combination(back) and back.expansion() == f


    def test_term_from_a_word_to_itself_adds_nothing(self):
        c = Context(Z3, {1: 1, 2: 2, 3: 1})
        loop = JTerm(5, (1, 2, 3), (1, 2, 3), ())
        assert verify_combination(JCombination(c, (loop,)))
        assert JCombination(c, (loop,)).expansion().is_zero()
        step = JTerm(2, (1, 2, 3), (3, 2, 1), ())
        assert JCombination(c, (loop, step)).expansion() == \
            FreePoly(c, {(1, 2, 3): 2, (3, 2, 1): -2})


class TestReductionDocuments:
    def test_round_trip_type1(self):
        rand = support.rng(501)
        g = support.random_generator(rand, Z3, GeneratorKind.TYPE1, 4)
        cert = reduce_type1(g)
        doc = certs.reduction_to_json(cert)
        back = certs.certificate_from_json(json.loads(certs.dumps(doc)))
        assert isinstance(back, ReductionCertificate)
        assert verify_certificate(back)

    def test_round_trip_type2(self):
        rand = support.rng(502)
        g = support.random_generator(rand, Z3, GeneratorKind.TYPE2, 4)
        cert = reduce_type2(g)
        doc = certs.reduction_to_json(cert)
        back = certs.certificate_from_json(json.loads(certs.dumps(doc)))
        assert verify_certificate(back)

    def test_unknown_kind(self):
        doc = certs.chain_to_json(chain_fixture())
        doc["kind"] = "mystery"
        with pytest.raises(certs.CertificateFormatError):
            certs.certificate_from_json(doc)


class TestMatrixJson:
    def test_positions_are_one_based(self):
        c = Context(Z3, {1: 1})
        doc = certs.matrix_to_json(3, dict.fromkeys(eval_word_closed(c, (1,)), 1))
        assert doc["n"] == 3
        assert {(e["row"], e["col"]) for e in doc["entries"]} == \
            {(1, 2), (2, 3), (3, 1)}
        first = [e for e in doc["entries"] if e["row"] == 1][0]
        assert first["terms"] == [{"coeff": 1, "vars": [[1, 1, 2, 1]]}]


# A reduction certificate in format version 1 (the root a nested tree), as the
# version-1 encoder wrote it for [x1 x2 x3 x4, x5] with degrees 1, 1, 2, 2, 0.
V1_REDUCTION = (
    '{"grading":[0,1,2],"group":{"names":["0","1","2"],"order":3,'
    '"table":[[0,1,2],[1,2,0],[2,0,1]]},"kind":"reduction","payload":{"root":'
    '{"children":[[1,{"child":{"generator":{"kind":1,"parts":[[1,6,4],[5]]},'
    '"op":"leaf"},"images":[[6,[2,3]]],"op":"subst"}],[1,{"children":[[1,'
    '{"child":{"generator":{"kind":1,"parts":[[2,4],[5]]},"op":"leaf"},'
    '"left":[1,3],"op":"context","right":[]}],[1,{"child":{"generator":'
    '{"kind":1,"parts":[[1,3],[5]]},"op":"leaf"},"left":[],"op":"context",'
    '"right":[2,4]}]],"op":"sum"}]],"op":"sum"},"target":{"kind":1,"parts":'
    '[[1,2,3,4],[5]]}},"vars":{"1":1,"2":1,"3":2,"4":2,"5":0,"6":0},"version":1}')


def _table_doc(nodes, root, target_parts=((1,), (2,))):
    """A version-2 reduction document over x1, x2 of trivial degree."""
    c = Context(Z3, {1: 0, 2: 0})
    doc = {"version": 2, "kind": "reduction"}
    doc.update(certs.context_to_json(c))
    doc["payload"] = {"target": {"kind": 1, "parts": [list(p) for p in target_parts]},
                      "nodes": nodes, "root": root}
    return doc


LEAF = {"op": "leaf", "generator": {"kind": 1, "parts": [[1], [2]]}}


def tree_size(root) -> int:
    """Nodes of the certificate expanded as a tree, counted over its DAG."""
    size = {}
    for node in support.old_post_order(root):
        if isinstance(node, CertSum):
            size[id(node)] = 1 + sum(size[id(ch)] for _, ch in node.children)
        elif isinstance(node, (CertContext, CertSubst)):
            size[id(node)] = 1 + size[id(node.child)]
        else:
            size[id(node)] = 1
    return size[id(root)]


class TestReductionFormat:
    def test_version_1_tree_still_verifies(self):
        doc = json.loads(V1_REDUCTION)
        cert = certs.certificate_from_json(upgrade.upgrade(doc))
        assert verify_certificate(cert)
        again = certs.reduction_to_json(cert)
        assert again["version"] == certs.REDUCTION_VERSION == 2
        assert isinstance(again["payload"]["root"], int)
        assert len(again["payload"]["nodes"]) == 8
        assert verify_certificate(certs.certificate_from_json(again))
        # a tree built in memory may nest one dict twice: it is one row
        doc = json.loads(V1_REDUCTION)
        children = doc["payload"]["root"]["children"]
        children[1][1] = children[0][1]
        payload = upgrade.upgrade(doc)["payload"]
        assert [row["op"] for row in payload["nodes"]] == ["leaf", "subst", "sum"]
        assert payload["nodes"][2]["children"] == [[1, 1], [1, 1]] and payload["root"] == 2

    def test_tampered_version_1_tree_fails(self):
        doc = json.loads(V1_REDUCTION)
        doc["payload"]["root"]["children"][0][0] = 2
        assert not verify_certificate(certs.certificate_from_json(upgrade.upgrade(doc)))

    def test_version_1_child_must_be_a_node(self):
        doc = json.loads(V1_REDUCTION)
        doc["payload"]["root"]["children"][0][1] = 0
        with pytest.raises(certs.CertificateFormatError):
            upgrade.upgrade(doc)
        # a root built in memory that lists itself: the walk ends, and its row
        # names itself, which the loader refuses
        doc = json.loads(V1_REDUCTION)
        root = doc["payload"]["root"]
        root["children"][0][1] = root
        with pytest.raises(certs.CertificateFormatError,
                           match="^node 5: reference 5 does not name an earlier node$"):
            certs.certificate_from_json(upgrade.upgrade(doc))

    def test_only_the_current_version_loads(self):
        """The checker reads one version per kind; older ones go through
        gpi.upgrade first."""
        with pytest.raises(certs.CertificateFormatError, match="unsupported version 1"):
            certs.certificate_from_json(json.loads(V1_REDUCTION))

    def test_table_is_post_order_with_earlier_references(self):
        rand = support.rng(503)
        cert = reduce_type2(support.random_generator(rand, Z3, GeneratorKind.TYPE2, 5))
        payload = certs.reduction_to_json(cert)["payload"]
        for i, entry in enumerate(payload["nodes"]):
            refs = [ch for _, ch in entry.get("children", ())]
            refs += [entry["child"]] if "child" in entry else []
            assert all(type(r) is int and 0 <= r < i for r in refs)
        assert payload["root"] == len(payload["nodes"]) - 1

    def test_doubling_dag_answers_fast(self):
        # level k sums level k-1 with itself: 2^64 leaves as a tree
        nodes = [LEAF] + [{"op": "sum", "children": [[1, k], [1, k]]}
                          for k in range(64)]
        start = time.perf_counter()
        cert = certs.certificate_from_json(_table_doc(nodes, 64))
        assert not verify_certificate(cert)
        # the leaf plus a DAG that replays to zero: valid, same sharing
        nodes = [LEAF, {"op": "sum", "children": [[1, 0], [-1, 0]]}]
        nodes += [{"op": "sum", "children": [[1, k], [1, k]]} for k in range(1, 64)]
        nodes.append({"op": "sum", "children": [[1, 0], [1, 64]]})
        cert = certs.certificate_from_json(_table_doc(nodes, 65))
        assert verify_certificate(cert)
        assert time.perf_counter() - start < 1.0

    def test_long_context_chain(self):
        nodes = [LEAF] + [{"op": "context", "left": [], "right": [], "child": k}
                          for k in range(5000)]
        cert = certs.certificate_from_json(_table_doc(nodes, 5000))
        assert verify_certificate(cert)
        back = json.loads(certs.dumps(certs.reduction_to_json(cert)))
        assert len(back["payload"]["nodes"]) == 5001

    def test_long_version_1_tree_flattens_iteratively(self):
        root = LEAF
        for _ in range(5000):
            root = {"op": "context", "left": [], "right": [], "child": root}
        doc = _table_doc(None, root)
        doc["version"] = 1
        del doc["payload"]["nodes"]
        assert verify_certificate(certs.certificate_from_json(upgrade.upgrade(doc)))

    def test_table_smaller_than_tree(self):
        c = Context(Z3, dict(enumerate(
            (1, 0, 1, 0, 2, 1, 0, 1, 2, 1, 0, 2, 2, 1, 2, 1), start=1)))
        g = make_generator(GeneratorKind.TYPE2, c, (
            (1, 2, 3, 4, 5, 6), (7, 8, 9, 10, 11), (12, 13, 14, 15, 16)))
        cert = reduce_type2(g)
        table = certs.reduction_to_json(cert)["payload"]["nodes"]
        assert 0 < len(table) < tree_size(cert.root) // 10
        assert verify_certificate(certs.certificate_from_json(
            json.loads(certs.dumps(certs.reduction_to_json(cert)))))

    @pytest.mark.parametrize("row, code", [
        pytest.param({"generator": {"kind": 1, "parts": [[1, 2, 3, 4], [5]]}, "op": "leaf"}, 0,
                     id="leaf with a 4-letter part"),
        pytest.param({"child": 0, "images": [[1, 3]], "op": "subst"}, 0,
                     id="image of the wrong degree"),
        pytest.param({"child": 0, "left": [99], "op": "context", "right": []}, 2,
                     id="undeclared letter"),
    ])
    def test_rows_the_root_does_not_reach_are_loaded_not_replayed(self, row, code):
        """A row appended after the root of a `gpi z3reduce` document is
        loaded, so its letters must be declared (exit 2), but only what the
        root reaches is replayed: a row that fails the proof as the root
        (exit 1) leaves it valid (exit 0) as a row the root does not reach."""
        ctx = Context(Z3, {1: 1, 2: 1, 3: 2, 4: 2, 5: 0})
        doc = certs.reduction_to_json(reduce_type1(
            make_generator(GeneratorKind.TYPE1, ctx, ((1, 2, 3, 4), (5,)))))
        assert _verify_exit(doc) == 0
        doc["payload"]["nodes"].append(row)
        assert _verify_exit(doc) == code
        doc["payload"]["root"] = len(doc["payload"]["nodes"]) - 1
        assert _verify_exit(doc) == (code or 1)

    def test_the_earliest_faulty_row_decides(self):
        """Two rows the root reaches fail on replay: x2 -> x3 breaks the
        degree rule (exit 1), and x2 -> [x4, [x5, ... [x25, x26]]] expands
        past MAX_REPLAY_LETTERS (exit 2).  The rows replay in table order,
        so the earlier one decides; the root lists the later one first, so a
        walk from the root would meet the other one first."""
        ctx = Context(Z3, {1: 0, 2: 0, 3: 1, **dict.fromkeys(range(4, 27), 0)})
        deep = 26
        for v in range(25, 3, -1):
            deep = [v, deep]
        bad_degree = {"child": 0, "images": [[2, 3]], "op": "subst"}
        too_long = {"child": 0, "images": [[2, deep]], "op": "subst"}
        for rows, code, walk_meets in (((bad_degree, too_long), 1, ReplayBudgetError),
                                       ((too_long, bad_degree), 2, freealg.SubstitutionError)):
            doc = {**certs.context_to_json(ctx), "kind": "reduction", "version": 2, "payload": {
                "nodes": [LEAF, *rows, {"children": [[1, 2], [1, 1]], "op": "sum"}],
                "root": 3, "target": LEAF["generator"]}}
            assert _verify_exit(doc) == code
            cert = certs.certificate_from_json(doc)
            with pytest.raises(walk_meets):
                certs._replay(ctx, support.old_post_order(cert.root))


_VARS = tuple(range(1, 7))  # x1..x6, all of trivial degree, so every image is weak
_LIE_WORDS = st.recursive(st.sampled_from(_VARS), lambda inner: st.tuples(inner, inner),
                          max_leaves=4)
_WORDS = st.lists(st.sampled_from(_VARS), max_size=3).map(tuple)
_TRIVIAL = Context(Z3, dict.fromkeys(_VARS, 0))


@st.composite
def _dags(draw):
    """A reduction DAG over x1..x6: type-1 leaves, then sums, contexts and
    substitutions, each over nodes drawn from those before it, so nodes are
    shared; the last node is the root."""
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        perm, a, b = draw(st.permutations(_VARS)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        nodes.append(CertLeaf(make_generator(GeneratorKind.TYPE1, _TRIVIAL,
                                             (perm[:a], perm[a:a + b]))))
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(("sum", "context", "subst", "subst")))  # subst most often
        earlier = st.sampled_from(nodes)
        if op == "sum":
            nodes.append(CertSum(tuple(draw(st.lists(st.tuples(st.integers(-2, 2), earlier),
                                                     min_size=1, max_size=3)))))
        elif op == "context":
            nodes.append(CertContext(draw(_WORDS), draw(_WORDS), draw(earlier)))
        else:
            images = draw(st.dictionaries(st.sampled_from(_VARS), _LIE_WORDS,
                                          min_size=1, max_size=2))
            nodes.append(CertSubst(tuple(images.items()), draw(earlier)))
    return nodes[-1]


def _example_dag():
    """Every case at once: x1 three times in a word, x1 -> [x2, x2] (which
    expands to 0), a nested image, words with no mapped letter (those of
    [x4, x5]), and a sum shared by two substitutions."""
    leaf = CertLeaf(make_generator(GeneratorKind.TYPE1, _TRIVIAL, ((1, 2), (3,))))
    other = CertLeaf(make_generator(GeneratorKind.TYPE1, _TRIVIAL, ((4,), (5,))))
    shared = CertSum(((1, CertContext((1, 1), (), leaf)), (2, other)))
    return CertSum(((1, CertSubst(((1, (2, 2)), (3, (4, (5, 6)))), shared)),
                    (1, CertSubst(((1, (2, 3)),), shared))))


def _terms_or_refusal(build):
    """The terms build() returns, or None when it is over budget."""
    try:
        return build()
    except ReplayBudgetError:
        return None


_UNREDUCED_LEAF = {"generator": {"kind": 1, "parts": [[1, 2, 3, 4], [5]]}, "op": "leaf"}
_WITH_X7 = Context(Z3, {**_TRIVIAL.degrees, 7: 1})  # x1 -> x7 breaks the degree rule


def _row_children(row: dict) -> list[int]:
    return [ch for _, ch in row.get("children", ())] + ([row["child"]] if "child" in row else [])


@st.composite
def _reordered_documents(draw):
    """(document, root, target): a reduction document whose root sums the
    target's leaf and two multiples of a DAG from _dags, sometimes with an
    unreduced leaf at coefficient 0.  Its rows are in another order in
    which children come first, with rows the root does not reach
    interleaved: unreduced leaves, and substitutions x1 -> x7 of the wrong
    degree over earlier rows."""
    perm, a, b = draw(st.permutations(_VARS)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    target = make_generator(GeneratorKind.TYPE1, _TRIVIAL, (perm[:a], perm[a:a + b]))
    dag = draw(_dags())
    children = ((1, CertLeaf(target)), (1, dag), (draw(st.integers(-2, 2)), dag))
    if draw(st.booleans()):
        children += ((0, CertLeaf(make_generator(GeneratorKind.TYPE1, _TRIVIAL,
                                                 ((1, 2, 3, 4), (5,))))),)
    root = CertSum(children)
    doc = certs.reduction_to_json(
        ReductionCertificate(_WITH_X7, target, tuple(support.old_post_order(root))))
    rows, moved = doc["payload"]["nodes"], {}  # written row -> its row in the new table
    extras = draw(st.lists(st.sampled_from(("leaf", "subst")), max_size=3))
    table = []
    while len(moved) < len(rows) or extras:
        ready = [i for i in range(len(rows))
                 if i not in moved and all(ch in moved for ch in _row_children(rows[i]))]
        if extras and (not ready or draw(st.booleans())):
            if extras.pop() == "subst" and table:
                table.append({"child": draw(st.integers(0, len(table) - 1)),
                              "images": [[1, 7]], "op": "subst"})
            else:
                table.append(_UNREDUCED_LEAF)
            continue
        i = draw(st.sampled_from(ready))
        row = dict(rows[i])
        if "children" in row:
            row["children"] = [[c, moved[ch]] for c, ch in row["children"]]
        if "child" in row:
            row["child"] = moved[row["child"]]
        moved[i] = len(table)
        table.append(row)
    doc["payload"].update(nodes=table, root=moved[len(rows) - 1])
    return doc, root, target


@settings(max_examples=100, deadline=None)
@given(_reordered_documents())
def test_any_children_first_order_answers_as_the_walk(case):
    """A document verifies exactly when the leaves its root reaches are
    reduced and the walk from its root replays to the target, whatever
    order of its rows lists children first, and whatever rows the root
    does not reach are interleaved."""
    doc, root, target = case
    walk = support.old_post_order(root)
    if not all(n.generator.is_reduced() for n in walk if isinstance(n, CertLeaf)):
        expected = 1
    else:
        value = _terms_or_refusal(lambda: cert_value(_WITH_X7, walk).terms)
        expected = 2 if value is None else int(value != generator_terms(target))
    event(f"exit {expected}")
    assert _verify_exit(doc) == expected


class TestReplayOracles:
    @settings(max_examples=150, deadline=None)
    @given(_dags())
    @example(_example_dag())
    @example(CertSubst(((1, 2),), CertLeaf(make_generator(  # x1 -> x2 cancels every word
        GeneratorKind.TYPE1, _TRIVIAL, ((1,), (2,))))))
    def test_walk_and_substitution_match_the_old_ones(self, root):
        """Replayed in the order of the tuple-stack walk, every subst node's
        terms (no FreePoly around them, so no zero coefficient) and charge
        are the letter-by-letter product's (an image over budget is refused
        by both)."""
        nodes = support.old_post_order(root)
        values, budget = {}, ReplayBudget()
        budget.left = 20_000  # so that a blow-up is refused fast
        for node in nodes:
            if isinstance(node, CertSubst):
                mu = WeakSubstitution(_TRIVIAL, dict(node.images))
                p, oracle = FreePoly(_TRIVIAL, values[id(node.child)]), ReplayBudget()
                oracle.left = budget.left
                got = _terms_or_refusal(lambda: certs._node_terms(_TRIVIAL, node, values, budget))
                assert got == _terms_or_refusal(lambda: support.old_substitute(mu, p, oracle).terms)
                if got is None:
                    return
                assert budget.left == oracle.left and 0 not in got.values()
                values[id(node)] = got
            else:
                try:
                    values[id(node)] = certs._node_terms(_TRIVIAL, node, values, budget)
                except ReplayBudgetError:
                    return

    def test_each_node_checks_its_own_letters(self):
        """x9 is not declared: a context node that names it is refused where
        it is replayed, though a sum then cancels it and the root's value
        never names it."""
        c = Context(Z3, {1: 0, 2: 0})
        leaf = CertLeaf(make_generator(GeneratorKind.TYPE1, c, ((1,), (2,))))
        stray = CertContext((9,), (), leaf)
        root = CertSum(((1, leaf), (1, CertSum(((1, stray), (-1, stray))))))
        with pytest.raises(DeclarationError, match="x9 is not declared"):
            verify_certificate(ReductionCertificate(c, leaf.generator,
                                                    tuple(support.old_post_order(root))))

    def test_foreign_leaf_meets_the_degree_rule_of_the_certificate(self):
        """x1·[x2, x3] + [x1, x3]·x2 = [x1x2, x3].  Leaves built where every
        letter has degree 0 are refused: [x2, x3] breaks the type-1 rule under
        x1:1 x2:2 x3:0."""
        c = Context(Z3, {1: 1, 2: 2, 3: 0})
        target = make_generator(GeneratorKind.TYPE1, c, ((1, 2), (3,)))

        def root(leaf_ctx):
            a = CertLeaf(make_generator(GeneratorKind.TYPE1, leaf_ctx, ((2,), (3,))))
            b = CertLeaf(make_generator(GeneratorKind.TYPE1, leaf_ctx, ((1,), (3,))))
            return CertSum(((1, CertContext((1,), (), a)), (1, CertContext((), (2,), b))))

        flat = Context(Z3, {1: 0, 2: 0, 3: 0})
        nodes = tuple(support.old_post_order(root(flat)))
        assert cert_value(flat, nodes).terms == generator_terms(target)
        assert not verify_certificate(ReductionCertificate(c, target, nodes))
        with pytest.raises(GeneratorError, match="type-1 parts must both have trivial degree"):
            make_generator(GeneratorKind.TYPE1, c, ((2,), (3,)))


# sha256 of the documents below, as the reduction and encoder wrote them
PINNED_CHAIN_JCOMB_EVAL_DIGEST = "f3a3049e31db32dfffbfede512faed3a183b15bc9165e4d438bd19f5bc631448"
PINNED_CHAIN_JCOMB_V3_DIGEST = "bb27dc52eea754ffc9100d3e55cbe60a025f5b2513f11e3404282a0602941891"
PINNED_REDUCTION_DIGEST = "16dab9802c467c80d9e95994cb072bcc4b105b8a3bb5dbc8a41faa18e9e13266"


def pinned_reduction_generators() -> list:
    """Criterion 7's instances, then a few with parts up to length 8; the
    seeds are fixed, not taken from GPI_SEED."""
    rand = random.Random(support.DEFAULT_SEED + 7)  # criterion 7's instances
    gens = [support.random_generator(rand, Z3, GeneratorKind.TYPE1, 5) for _ in range(200)]
    gens += [support.random_generator(rand, Z3, GeneratorKind.TYPE2, 4) for _ in range(200)]
    rand = random.Random(support.DEFAULT_SEED + 8)
    for kind in (GeneratorKind.TYPE1, GeneratorKind.TYPE2) * 4:
        gens.append(support.random_generator(rand, Z3, kind, 8))
    return gens


def _reduction(g) -> ReductionCertificate:
    return (reduce_type1 if g.kind is GeneratorKind.TYPE1 else reduce_type2)(g)


def _reduction_document(g) -> dict:
    return certs.reduction_to_json(_reduction(g))


def test_reduction_bytes_pinned():
    """The v2 reduction documents of pinned_reduction_generators() hash to
    the digest recorded when this test was written.  A change to the
    recursion or the encoder that changes one byte of a certificate fails
    here; a deliberate one records a new digest."""
    gens = pinned_reduction_generators()
    digest = hashlib.sha256()
    for g in gens:
        doc = _reduction_document(g)
        digest.update(certs.dumps(doc).encode())
        # a subproblem reached twice is one node, so no two leaf rows agree
        leaves = [certs.dumps(row["generator"]) for row in doc["payload"]["nodes"]
                  if row["op"] == "leaf"]
        assert len(set(leaves)) == len(leaves)
    assert max(max(g.part_lengths()) for g in gens[400:]) == 8
    assert digest.hexdigest() == PINNED_REDUCTION_DIGEST


def _assert_walk_order(nodes):
    """nodes is the walk from its last node, node for node, with no extra row."""
    walked = support.old_post_order(nodes[-1])
    assert len(walked) == len(nodes)
    assert all(a is b for a, b in zip(nodes, walked))


def test_written_tables_replay_in_walk_order():
    """The reduction records its table as it builds the nodes, and that
    table is the walk from its root, node for node, with no extra row; so the
    written root reaches each row, and the loaded certificate keeps every
    row in the same order: a written document is replayed in the order of
    a walk from its root."""
    for g in pinned_reduction_generators():
        cert = _reduction(g)
        _assert_walk_order(cert.nodes)
        doc = json.loads(certs.dumps(certs.reduction_to_json(cert)))
        loaded = certs.certificate_from_json(doc)
        assert len(loaded.nodes) == len(doc["payload"]["nodes"])
        _assert_walk_order(loaded.nodes)


@st.composite
def _z3_generators(draw):
    """A Z3 generator of either type with parts of 1 to 8 letters, its
    letters of every degree or of nontrivial degrees only (but the last of
    each part, which gives the part its degree)."""
    group = Z3.group
    kind = draw(st.sampled_from(GeneratorKind))
    letters = st.sampled_from(range(group.order) if draw(st.booleans())
                              else [e for e in range(group.order) if e != group.identity_index])
    mid = draw(st.sampled_from(range(group.order)))
    targets = ((group.identity_index,) * 2 if kind is GeneratorKind.TYPE1
               else (group.inv(mid), mid, group.inv(mid)))
    degrees: dict[int, int] = {}
    parts = []
    for target in targets:
        head = draw(st.lists(letters, max_size=7))
        last = next(e for e in range(group.order) if group.product(head + [e]) == target)
        ids = tuple(range(len(degrees) + 1, len(degrees) + len(head) + 2))
        degrees.update(zip(ids, head + [last]))
        parts.append(ids)
    return make_generator(kind, Context(Z3, degrees), tuple(parts))


def _generator(kind: GeneratorKind, *parts: list[int]):
    """The Z3 generator whose parts have these letter degrees, ids 1, 2, ..."""
    flat = [d for part in parts for d in part]
    ids = iter(range(1, len(flat) + 1))
    return make_generator(kind, Context(Z3, dict(enumerate(flat, start=1))),
                          tuple(tuple(next(ids) for _ in part) for part in parts))


_T1, _T2 = GeneratorKind.TYPE1, GeneratorKind.TYPE2
# generators on whose reductions each lemma runs, on each side it has
_LEMMA_EXAMPLES = [
    _generator(_T1, [1, 2, 1, 2], [0]),            # a trivial head [1, 2]: split_commutator
    _generator(_T1, [0], [1, 1, 0, 1]),            # antisymmetry, then telescope LEFT
    _generator(_T1, [1, 1, 2, 2], [0]),            # no trivial letter: decompose LEFT
    _generator(_T2, [1, 2, 1, 1], [1], [2]),       # a trivial head [1, 2]: pull_zero_factor LEFT
    _generator(_T2, [2], [1, 1, 2, 2, 1], [2]),    # a trivial tail [2, 1]: pull_zero_factor RIGHT
    _generator(_T2, [0], [1, 1, 0, 1], [0]),       # telescope RIGHT
    _generator(_T2, [0], [2, 2, 1, 1], [0]),       # decompose RIGHT
]


def test_lemma_examples_build_the_walk(monkeypatch):
    """On _LEMMA_EXAMPLES the reduction runs its methods split_commutator,
    and pull_zero_factor, telescope and decompose on both sides, and each
    recorded table is the walk from its root."""
    ran = set()
    for name in ("split_commutator", "pull_zero_factor", "telescope", "decompose"):
        def spy(*args, _name=name, _lemma=getattr(z3reduce._Reduction, name)):
            ran.add((_name, next((a for a in args if isinstance(a, z3reduce.Side)), None)))
            return _lemma(*args)
        monkeypatch.setattr(z3reduce._Reduction, name, spy)
    for g in _LEMMA_EXAMPLES:
        _assert_walk_order(_reduction(g).nodes)
    assert ran == {("split_commutator", None)} | {
        (name, side) for name in ("pull_zero_factor", "telescope", "decompose")
        for side in z3reduce.Side}


@settings(max_examples=100, deadline=None)
@given(_z3_generators())
def test_built_tables_are_the_walk(g):
    """The table a reduction records as it builds its nodes is
    the walk from its root, node for node, with no extra row, over random Z3
    generators with and without trivial-degree letters."""
    nodes = _reduction(g).nodes
    event(f"type {g.kind.value}, {'a leaf' if len(nodes) == 1 else 'reduced'}")
    _assert_walk_order(nodes)


def pinned_chain_jcomb_eval_documents():
    """Criterion 4's jcomb documents, the chains between seeded congruent
    words with repeated letters over Z2, Z3 and S3, then the evaluation and
    the CLI witness of seeded non-identities, each as (is_chain_or_jcomb,
    document).  The chains pin the rule that matches repeated letters (the
    least unused position).  The seeds are fixed, not taken from GPI_SEED."""
    from test_acceptance import generate_criterion4
    _, combos, _ = generate_criterion4(random.Random(support.DEFAULT_SEED + 4))
    for comb in combos:
        yield True, certs.jcomb_to_json(comb)
    rand = random.Random(support.DEFAULT_SEED + 10)
    gradings = support.configs() + [default_grading(support.s3())]
    repeated = 0
    for grading in gradings:
        for _ in range(60):
            ctx = support.random_context(rand, grading, 4)
            word = support.random_word(rand, ctx, rand.randint(2, 8))
            m, n = support.random_congruent_pair(rand, ctx, word)
            repeated += len(set(word)) < len(word)
            yield True, certs.chain_to_json(congruence_chain(ctx, m, n))
    witnesses = 0
    for grading in gradings:
        for _ in range(30):
            ctx = support.random_context(rand, grading, 5)
            base = support.random_word(rand, ctx, rand.randint(1, 6))
            terms = {tuple(rand.sample(base, len(base))): rand.choice([-2, -1, 1, 2])
                     for _ in range(rand.randint(1, 3))}
            p = FreePoly(ctx, terms)
            yield False, certs.matrix_to_json(ctx.grading.n, eval_poly(p))
            w = identity_witness(p)
            if w is not None:
                witnesses += 1
                yield False, _witness_json(w)
    assert repeated >= 120 and witnesses >= 60


def test_chain_jcomb_eval_bytes_pinned():
    """The pinned documents, each chain and jcomb written back in format v2
    by support.as_v2, hash to the digest the version-2 encoder recorded:
    the version-3 documents record the same proofs, move for move.  as_v2
    builds its dicts by hand, so they are written with sorted keys
    (support.canonical), as the version-2 encoder wrote them."""
    digest = hashlib.sha256()
    for is_chain, doc in pinned_chain_jcomb_eval_documents():
        text = support.canonical(support.as_v2(doc)) if is_chain else certs.dumps(doc)
        digest.update(text.encode())
    assert digest.hexdigest() == PINNED_CHAIN_JCOMB_EVAL_DIGEST


def test_chain_jcomb_v3_bytes_pinned():
    """The pinned chain and jcomb documents, as the version-3 encoder
    writes them, hash to the digest recorded when this test was written,
    and each loads into the same moves as its version-2 form."""
    digest = hashlib.sha256()
    for is_chain, doc in pinned_chain_jcomb_eval_documents():
        if is_chain:
            assert doc["version"] == certs.CHAIN_VERSION == 3
            digest.update(certs.dumps(doc).encode())
            assert certs.certificate_from_json(doc) == \
                support.old_certificate_from_json(support.as_v2(doc))
    assert digest.hexdigest() == PINNED_CHAIN_JCOMB_V3_DIGEST


# --- the checker stands apart from the producers -------------------------------

def documents_of_every_version() -> dict:
    """A valid chain, jcomb and reduction document of every version `gpi
    verify` reads (certs.READ_VERSIONS and support.OLD_READ_VERSIONS), keyed by
    (kind, version).  Version 3 chains and
    jcombs are the encoder's, version 2 is support.as_v2 of them, and
    version 1 is version 2 relabelled: the two wrote chains and jcombs
    alike.  Reduction version 2 is the encoder's, version 1 V1_REDUCTION,
    for the same generator, whose long first part gives subst and context
    nodes.  The chains take a reverse3 and a swap0 move."""
    ctx = Context(Z3, {1: 1, 2: 2, 3: 1, 4: 0, 5: 0})
    words = (1, 2, 3, 4, 5), (3, 2, 1, 5, 4), (3, 2, 1, 4, 5)
    docs = {
        ("chain", 3): certs.chain_to_json(congruence_chain(ctx, words[0], words[1])),
        ("jcomb", 3): certs.jcomb_to_json(
            express_in_J(FreePoly(ctx, {words[0]: 1, words[1]: 1, words[2]: -2}))),
        ("reduction", 1): json.loads(V1_REDUCTION),
    }
    v1 = docs["reduction", 1]
    gen = make_generator(GeneratorKind.TYPE1, certs.context_from_json(v1),
                         tuple(map(tuple, v1["payload"]["target"]["parts"])))
    docs["reduction", 2] = certs.reduction_to_json(reduce_type1(gen))
    for kind in ("chain", "jcomb"):
        docs[kind, 2] = support.as_v2(docs[kind, 3])
        docs[kind, 1] = dict(docs[kind, 2], version=1)
    assert set(docs) == {(k, v) for k, vs in support.OLD_READ_VERSIONS.items()
                         for v in (*vs, certs.READ_VERSIONS[k])}
    return docs


def test_verify_runs_no_producer_code(tmp_path, capsys):
    """`gpi verify` on a document of every version calls no function defined
    in rewrite.py, z3reduce.py or dsl.py: the checker does not run the code
    that produces what it checks.  On a document of the current version it
    calls nothing in upgrade.py either."""
    watched = {os.path.realpath(m.__file__) for m in (rewrite, z3reduce, dsl, upgrade)}
    files: dict[str, str] = {}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_filename
            if name not in files:
                files[name] = os.path.realpath(name)
            if files[name] in watched:
                called.add((os.path.basename(name), frame.f_code.co_name))

    for (kind, version), doc in documents_of_every_version().items():
        path = tmp_path / f"{kind}-v{version}.json"
        path.write_text(certs.dumps(doc))
        sys.setprofile(profile)
        try:
            code = main(["verify", str(path)])
        finally:
            sys.setprofile(None)
        assert code == 0 and json.loads(capsys.readouterr().out)["valid"] is True
        assert {file for file, _ in called} <= {"upgrade.py"}
        assert bool(called) is (version != certs.READ_VERSIONS[kind])
        called.clear()


def test_verify_of_the_current_version_leaves_the_upgrader_unloaded(tmp_path):
    """In a fresh process, `gpi verify` on the current version of each kind
    never imports gpi.upgrade; a version-1 document then does."""
    docs = documents_of_every_version()
    paths = []
    for kind, version in [(k, v) for k, v in certs.READ_VERSIONS.items()] + [("jcomb", 1)]:
        paths.append(tmp_path / f"{kind}-v{version}.json")
        paths[-1].write_text(certs.dumps(docs[kind, version]))
    script = ("import sys\n"
              "from gpi.cli import main\n"
              "codes = [main(['verify', p]) for p in sys.argv[1:-1]]\n"
              "loaded = 'gpi.upgrade' in sys.modules\n"
              "codes.append(main(['verify', sys.argv[-1]]))\n"
              "print(codes, loaded, 'gpi.upgrade' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certs.__file__)))
    out = subprocess.run([sys.executable, "-c", script, *map(str, paths)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] False True"


# --- older versions: the upgrader against the loader it replaced ---------------

def test_upgrade_round_trips_every_pinned_document():
    """Each pinned chain and jcomb, written back as version 2 and as version
    1, upgrades to itself; V1_REDUCTION upgrades to the node table the
    encoder writes for the certificate the old loader read from it."""
    upgraded = 0
    for is_chain, doc in pinned_chain_jcomb_eval_documents():
        if is_chain:
            v2 = support.as_v2(doc)
            assert upgrade.upgrade(v2) == upgrade.upgrade(dict(v2, version=1)) == doc
            upgraded += 1
    v1 = json.loads(V1_REDUCTION)
    assert upgrade.upgrade(v1) == certs.reduction_to_json(support.old_certificate_from_json(v1))
    assert upgraded == 380


HOSTILE = [None, True, False, 0, -1, 1.0, "1", "", [], {}, [1, 0, 2], [[1]]]
_DROP = object()


def _field_paths(doc, prefix=()):
    """The path of every field of a JSON document: each key and each index."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _with_field(doc: dict, path: tuple, value) -> dict:
    """doc with the field at path set to value, or dropped (_DROP)."""
    doc = copy.deepcopy(doc)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    if value is _DROP:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    return doc


def _verify_exit(doc) -> int:
    try:
        return _verify(doc, "edited.json")[0]
    except _CliInputError:
        return 2


def test_upgrade_passes_nothing_the_old_loader_refused():
    """Version-1 and -2 documents with one field dropped or set to a hostile
    value, a seeded sample: `gpi verify` exits 0 only where the loader that
    read these versions before (support.old_verify_exit) exits 0, and in
    fact exits as that loader does."""
    cases = [(doc, path, value)
             for (kind, version), doc in documents_of_every_version().items()
             if version != certs.READ_VERSIONS[kind]
             for path in _field_paths(doc) for value in [_DROP, *HOSTILE]]
    rand = support.rng(23)
    start, seen = time.perf_counter(), Counter()
    for doc, path, value in rand.sample(cases, 3000):
        edited = _with_field(doc, path, value)
        old, new = support.old_verify_exit(edited), _verify_exit(edited)
        assert new != 0 or old == 0, (path, value)
        assert new == old, (path, value)
        seen[old] += 1
    assert len(cases) > 5000 and set(seen) == {0, 1, 2}
    assert time.perf_counter() - start < 3


def test_upgrade_of_moves_that_miss_a_long_word_stays_linear():
    """A version-2 chain on a 50,000-letter word with 50,000 two-letter moves
    that do not spell it is refused in time linear in the document: the
    upgrader builds no running word past the first move that misses it."""
    doc = documents_of_every_version()["chain", 2]
    move = {"kind": "swap0", "left": [], "blocks": [[4], [4]], "right": []}
    doc["payload"] = {"start": [4] * 50_000, "end": [4] * 50_000, "moves": [move] * 50_000}
    start = time.perf_counter()
    assert _verify(doc, "long.json") == (1, {"valid": False, "kind": "chain"})
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("edit, message", [
    (dict(kind="rotate"), "unknown move kind 'rotate'"),
    (dict(kind=3), "unknown move kind 3"),
    (dict(kind="reverse3", blocks=[[3], [2]]), "reverse3 takes 3 blocks"),
    (dict(kind="swap0", blocks=[[3], [2], [1]]), "swap0 takes 2 blocks"),
    (dict(kind="swap0", blocks=[[], [3]]),
     "a move's offset must be nonnegative and its blocks nonempty"),
])
def test_upgrader_names_a_bad_move(tmp_path, capsys, edit, message):
    """A version-2 chain with every move edited so that it is no written
    move: `gpi verify` exits 2 with one line naming what is wrong, as the
    upgrader reads the move's kind and block lengths."""
    doc = documents_of_every_version()["chain", 2]
    doc["payload"]["moves"] = [dict(mv, **edit) for mv in doc["payload"]["moves"]]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"gpi: {path}: {message}\n")


def test_claim_nested_too_deeply_is_bad_input():
    """An older document whose claim holds JSON nested too deeply to write
    back, here under a key of the group that the loader does not read, is
    bad input, not a traceback."""
    doc = documents_of_every_version()["chain", 2]
    doc["group"]["note"] = 0
    for _ in range(100_000):
        doc["group"]["note"] = [doc["group"]["note"]]
    with pytest.raises(_CliInputError, match="recursion"):
        _verify(doc, "deep.json")


def test_verify_matches_word_level_replay():
    """verify_combination answers as support.old_verify_combination, the
    word-level replay that walks every block for its degree and keys both
    endpoints, on the chain and jcomb of every version."""
    checked = 0
    for (kind, version), doc in documents_of_every_version().items():
        if version != certs.READ_VERSIONS[kind]:
            doc = upgrade.upgrade(doc)
        cert = certs.certificate_from_json(doc)
        if isinstance(cert, RewriteChain):
            cert = JCombination(cert.ctx, (JTerm(1, cert.start, cert.end, cert.moves),))
        elif not isinstance(cert, JCombination):
            continue
        assert verify_combination(cert) is support.old_verify_combination(cert) is True
        checked += 1
    assert checked == 6


def _fresh_sources(doc: dict) -> int:
    """The terms of a jcomb document whose source no earlier term ends on."""
    targets: set = set()
    fresh = 0
    for t in doc["payload"]["terms"]:
        fresh += tuple(t["source"]) not in targets
        targets.add(tuple(t["target"]))
    return fresh


def _verify_walks(tmp_path, capsys, comb: JCombination) -> tuple[Counter, dict]:
    """`gpi verify` on comb's document, which must be valid: the words it
    walks (genmat.word_path) and the blocks it walks (freealg.word_degree),
    counted, and the document."""
    doc = certs.jcomb_to_json(comb)
    path = tmp_path / "jcomb.json"
    path.write_text(certs.dumps(doc))
    watched = {genmat.word_path.__code__: "word_path", freealg.word_degree.__code__: "word_degree"}
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        code = main(["verify", str(path)])
    finally:
        sys.setprofile(None)
    assert code == 0 and json.loads(capsys.readouterr().out)["valid"] is True
    return calls, doc


def test_verify_walks_each_source_once(tmp_path, capsys):
    """`gpi verify` on a jcomb walks each term's source (genmat.word_path)
    unless an earlier term ends on it, and no block (freealg.word_degree):
    a move's degree rule is read from the rows of the replayed path.  Here
    every key class holds two words, so every source is walked."""
    rand = support.rng(412)
    ctx = Context(Z3, {1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2})
    terms: dict = {}
    for c in (1, 2, -1, 3, -2, 1):
        word = tuple(rand.sample((1, 2, 3, 4, 5, 6), 6))
        m, n = support.random_congruent_pair(rand, ctx, word, max_moves=4)
        terms[m] = terms.get(m, 0) + c
        terms[n] = terms.get(n, 0) - c
    calls, doc = _verify_walks(tmp_path, capsys, express_in_J(FreePoly(ctx, terms)))
    size = len(doc["payload"]["terms"])
    assert size > 1 and any(t["chain"]["moves"] for t in doc["payload"]["terms"])
    assert calls == {"word_path": _fresh_sources(doc)} and _fresh_sources(doc) == size


_CLASS_LENGTH = 8


def _chained_class(rand: random.Random) -> FreePoly:
    """An identity on one key class of five or more multilinear words of
    length _CLASS_LENGTH over Z3, coefficients 1, ..., 1, -(k - 1) in
    word_key order: each running sum but the last is nonzero, so every term
    but the first starts at the previous term's target."""
    ctx = Context(Z3, {k: k % 3 for k in range(1, _CLASS_LENGTH + 1)})
    words = {tuple(rand.sample(sorted(ctx.degrees), _CLASS_LENGTH))}
    while len(words) < 5:
        words.add(support.random_congruent_pair(rand, ctx, min(words), max_moves=4)[1])
    ranked = sorted(words, key=freealg.word_key)
    return FreePoly(ctx, {**dict.fromkeys(ranked, 1), ranked[-1]: 1 - len(ranked)})


def test_verify_starts_a_term_from_an_earlier_targets_path(tmp_path, capsys):
    """In a key class of three words or more, a term's source is often the
    previous term's target, and `gpi verify` starts that term from the path
    the previous one ended on: it walks fewer words than there are terms.
    First x1x2x3 + x2x3x1 - 2x3x1x2 over Z3 with every letter of degree 0:
    two terms and one walk; then a class of random congruent words."""
    ctx = Context(Z3, {1: 0, 2: 0, 3: 0})
    f = FreePoly(ctx, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): -2})
    calls, doc = _verify_walks(tmp_path, capsys, express_in_J(f))
    assert [(t["source"], t["target"]) for t in doc["payload"]["terms"]] == [
        ([1, 2, 3], [2, 3, 1]), ([2, 3, 1], [3, 1, 2])]
    assert calls == {"word_path": 1}
    calls, doc = _verify_walks(tmp_path, capsys, express_in_J(_chained_class(support.rng(413))))
    size = len(doc["payload"]["terms"])
    assert size > 2 and calls == {"word_path": _fresh_sources(doc)} == {"word_path": 1}


def test_tampered_chain_fails_where_a_term_starts_at_a_target():
    """A jcomb whose second term starts at its first term's target: each
    move of either term's chain dropped, moved one letter left or right, or
    with its block lengths reversed, wherever it still fits, and either
    term's target set to another word of the class, makes `gpi verify` exit
    1, as the word-level replay (support.old_verify_exit) does."""
    f = _chained_class(support.rng(414))
    doc = certs.jcomb_to_json(express_in_J(f))
    first, second = doc["payload"]["terms"][:2]
    assert second["source"] == first["target"]
    assert _verify_exit(doc) == 0
    others = [list(w) for w in f.terms if list(w) not in (first["target"], second["target"])]
    tampered = []
    for t in (0, 1):
        moves = doc["payload"]["terms"][t]["chain"]["moves"]
        path = ("payload", "terms", t, "chain", "moves")
        for i, (kind, offset, *lengths) in enumerate(moves):
            tampered.append(_with_field(doc, path, moves[:i] + moves[i + 1:]))
            for edited in ([kind, offset - 1, *lengths], [kind, offset + 1, *lengths],
                           [kind, offset, *lengths[::-1]]):
                if edited != moves[i] and 0 <= edited[1] <= _CLASS_LENGTH - sum(lengths):
                    tampered.append(_with_field(doc, path + (i,), edited))
        tampered.append(_with_field(doc, ("payload", "terms", t, "target"), others[0]))
    assert len(tampered) > 5
    for bad in tampered:
        assert _verify_exit(bad) == support.old_verify_exit(bad) == 1


def _relative_imports() -> dict[str, set[str]]:
    """Each module of the gpi package and the modules it imports from the
    package, read from the source, function bodies included."""
    out = {}
    for path in Path(certs.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update([node.module] if node.module else (a.name for a in node.names))
        out[path.stem] = names
    return out


def test_certs_imports_only_what_it_trusts():
    """The import closure of certs is the algebra the checker trusts; the
    producers, the upgrader and the CLI import certs, never the reverse."""
    imports = _relative_imports()
    closure, todo = set(), ["certs"]
    while todo:
        for name in imports[todo.pop()] - closure:
            closure.add(name)
            todo.append(name)
    assert closure == {"freealg", "groups", "genmat", "identity"}
    assert all("certs" in imports[m] for m in ("rewrite", "z3reduce", "cli", "upgrade"))
