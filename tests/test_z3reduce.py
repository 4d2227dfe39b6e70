import pytest
import support

from gpi import z3reduce
from gpi.freealg import Context, FreePoly, bracket
from gpi.identity import GeneratorKind, expand, is_graded_identity, make_generator
from gpi.certs import (CertLeaf, CertSum, ReductionCertificate, cert_leaves, cert_value, dumps,
                       reduction_to_json, verify_certificate)
from gpi.z3reduce import (ReductionError, Side, enumerate_reduced, nonzero_triple_forced,
                          reduce_type1, reduce_type2)
from gpi.groups import cyclic_group, default_grading

Z3 = default_grading(cyclic_group(3))


def ctx3(degs: dict) -> Context:
    return Context(Z3, degs)


def expanded(c: Context, *parts) -> FreePoly:
    """The generator with these parts expanded: two parts are type 1, three type 2."""
    return expand(make_generator(GeneratorKind(len(parts) - 1), c, parts))


class TestBracketExpand:
    def test_single_variables(self):
        c = ctx3({1: 1, 2: 2, 3: 1, 4: 2})
        lhs, rhs = support.bracket_expand(c, (1,), (2,), (3,), (4,))
        assert lhs == rhs

    def test_equal_parts(self):
        c = ctx3({1: 1, 2: 2})
        lhs, rhs = support.bracket_expand(c, (1,), (2,), (1,), (2,))
        assert lhs == rhs

    def test_random_words(self):
        rand = support.rng(401)
        for _ in range(60):
            c = support.random_context(rand, Z3, 8)
            ws = [support.random_word(rand, c, rand.randint(1, 3))
                  for _ in range(4)]
            lhs, rhs = support.bracket_expand(c, *ws)
            assert lhs == rhs


class TestSplitCommutator:
    def test_single_variables(self):
        c = ctx3({1: 0, 2: 0, 3: 0})
        r = support.LeafReduction(c)
        r.split_commutator((1,), (2,), (3,))
        value = cert_value(c, r.nodes)
        x1, x2, x3 = (FreePoly.var(c, k) for k in (1, 2, 3))
        assert value == x1 * bracket(x2, x3) + bracket(x1, x3) * x2
        assert value == bracket(x1 * x2, x3)

    def test_symmetric_parts(self):
        c = ctx3({1: 0, 3: 0})
        r = support.LeafReduction(c)
        x1, x3 = FreePoly.var(c, 1), FreePoly.var(c, 3)
        r.split_commutator((1,), (1,), (3,))
        assert cert_value(c, r.nodes) == bracket(x1 * x1, x3)

    def test_nontrivial_degree_rejected(self):
        c = ctx3({1: 0, 2: 0, 3: 1})
        with pytest.raises(ReductionError):
            support.LeafReduction(c).split_commutator((1,), (2,), (3,))


def peeled(c, h1, h2, h3, h4, side):
    """The type-2 generator pull_zero_factor rewrites, expanded."""
    parts = (h3 + h4, h2, h1) if side is Side.LEFT else (h1, h2 + h3, h4)
    return expand(make_generator(GeneratorKind.TYPE2, c, parts))


class TestPullZeroFactor:
    def test_single_variables(self):
        c = ctx3({1: 1, 2: 2, 3: 0, 4: 1})
        for side in Side:
            r = support.LeafReduction(c)
            r.pull_zero_factor((1,), (2,), (3,), (4,), side)
            assert cert_value(c, r.nodes) == peeled(c, (1,), (2,), (3,), (4,), side)

    def test_empty_factor_passthrough(self):
        c = ctx3({1: 1, 2: 2, 4: 1})
        r = support.LeafReduction(c)
        node = r.pull_zero_factor((1,), (2,), (), (4,), Side.RIGHT)
        assert isinstance(node, CertLeaf) and r.nodes == [node]
        assert cert_value(c, r.nodes) == peeled(c, (1,), (2,), (), (4,), Side.RIGHT)

    def test_wrong_degree_rejected(self):
        c = ctx3({1: 1, 2: 2, 3: 1, 4: 1})
        with pytest.raises(ReductionError):
            support.LeafReduction(c).pull_zero_factor((1,), (2,), (3,), (4,), Side.LEFT)

    @pytest.mark.parametrize("degrees, h3, msg", [
        ({1: 1, 2: 2, 3: 0, 4: 1}, (1,), "the concatenated word must be multilinear"),
        ({1: 1, 2: 1, 3: 0, 4: 1}, (3,), "outer parts must have degree inverse to the middle"),
    ])
    def test_input_refused(self, degrees, h3, msg):
        c = ctx3(degrees)
        with pytest.raises(ReductionError, match=f"^{msg}$"):
            support.LeafReduction(c).pull_zero_factor((1,), (2,), h3, (4,), Side.LEFT)

    def test_random_words(self):
        rand = support.rng(402)
        for _ in range(40):
            g = support.random_generator(rand, Z3, GeneratorKind.TYPE2, 2, spare=2)
            c = g.ctx
            h1, h2, h4 = g.parts
            spare = [k for k in sorted(c.degrees) if c.degree(k) == 0
                     and all(k not in p for p in g.parts)]
            h3 = (spare[0],) if spare else ()
            for side in Side:
                r = support.LeafReduction(c)
                r.pull_zero_factor(h1, h2, h3, h4, side)
                assert cert_value(c, r.nodes) == peeled(c, h1, h2, h3, h4, side)


class TestTelescope:
    def test_y_r2(self):
        # [x1 x2 x3 x4, x5] with x2 moved to the front
        c = ctx3({1: 0, 2: 0, 3: 1, 4: 2, 5: 0})
        r = support.LeafReduction(c)
        r.telescope(((1, 2, 3, 4), (5,)), 0, 1, Side.LEFT)
        assert cert_value(c, r.nodes) == expanded(c, (1, 2, 3, 4), (5,))

    def test_v_r2(self):
        c = ctx3({1: 0, 2: 0, 3: 1, 4: 2, 5: 1})
        r = support.LeafReduction(c)
        r.telescope(((1, 2, 3), (4,), (5,)), 0, 1, Side.LEFT)
        assert cert_value(c, r.nodes) == expanded(c, (1, 2, 3), (4,), (5,))

    def test_w_r2_sign(self):
        # the middle word is h1 followed by x_r .. x_1; x_r moves to the back
        c = ctx3({1: 0, 2: 0, 3: 1, 4: 2, 5: 2})
        r = support.LeafReduction(c)
        node = r.telescope(((4,), (3, 2, 1), (5,)), 1, 1, Side.RIGHT)
        assert cert_value(c, r.nodes) == \
            FreePoly(c, {(4, 3, 2, 1, 5): 1, (5, 3, 2, 1, 4): -1})
        # the substituted summand carries a minus sign
        coeff, child = node.children[1]
        assert coeff == -1 and child.images == ((1, (1, 2)),)

    def test_nontrivial_letter_rejected(self):
        c = ctx3({1: 0, 2: 1, 3: 2, 4: 0})
        with pytest.raises(ReductionError):
            support.LeafReduction(c).telescope(((1, 2, 3), (4,)), 0, 1, Side.LEFT)

    @pytest.mark.parametrize("side", list(Side))
    def test_no_letter_to_move_past(self, side):
        """LEFT moves z past u, RIGHT past v; an empty one is refused."""
        c = ctx3({1: 0, 2: 0, 3: 0})
        h, k = ((2, 1), 0) if side is Side.LEFT else ((1, 2), 1)
        with pytest.raises(ReductionError, match="^the telescoped letter must move past a letter$"):
            support.LeafReduction(c).telescope((h, (3,)), 0, k, side)

    def test_random_r_up_to_5(self):
        rand = support.rng(403)
        for _ in range(30):
            nodes, g = support.random_telescope(rand, Z3, rand.randint(2, 5))
            assert cert_value(g.ctx, nodes) == expand(g)


class TestNonzeroTripleLemma:
    def test_exhaustive(self):
        g = Z3.group
        for a1 in (1, 2):
            for a2 in (1, 2):
                for a3 in (1, 2):
                    assert nonzero_triple_forced(g, a1, a2, a3, Side.LEFT)
                    assert nonzero_triple_forced(g, a1, a2, a3, Side.RIGHT)

    def test_trivial_degree_rejected(self):
        with pytest.raises(ReductionError):
            nonzero_triple_forced(Z3.group, 0, 1, 2, Side.LEFT)


class TestDecompose:
    def test_tail(self):
        # the middle part (1, 2, 3, 4) of a type-2 generator
        c = ctx3({1: 1, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1})
        r = support.LeafReduction(c)
        node = r.decompose(((5,), (1, 2, 3, 4), (6,)), 1, Side.RIGHT)
        assert cert_value(c, r.nodes) == expanded(c, (5,), (1, 2, 3, 4), (6,))
        (z, (a, b)), = node.children[0][1].images
        assert c.degree(z) == 0 and (a, b) == (2, 3)
        assert Z3.group.mul(c.degree(a), c.degree(b)) == 0

    def test_head(self):
        c = ctx3({1: 1, 2: 1, 3: 2, 4: 2, 5: 0})
        r = support.LeafReduction(c)
        node = r.decompose(((1, 2, 3, 4), (5,)), 0, Side.LEFT)
        assert cert_value(c, r.nodes) == expanded(c, (1, 2, 3, 4), (5,))
        # the image word contains the fresh trivial-degree variable
        z = node.children[0][1].child.generator.parts[0][1]
        assert c.degree(z) == 0

    def test_trivial_degree_present_rejected(self):
        c = ctx3({1: 1, 2: 0, 3: 1, 4: 1})
        with pytest.raises(ReductionError):
            support.LeafReduction(c).decompose(((5,), (1, 2, 3, 4), (6,)), 1, Side.RIGHT)

    def test_too_short(self):
        c = ctx3({1: 1, 2: 2, 3: 1})
        with pytest.raises(ReductionError):
            support.LeafReduction(c).decompose(((1, 2, 3), (4,)), 0, Side.LEFT)


class TestReduceType1:
    def test_already_reduced_is_a_leaf(self):
        c = ctx3({1: 0, 2: 0})
        g = make_generator(GeneratorKind.TYPE1, c, ((1,), (2,)))
        cert = reduce_type1(g)
        assert isinstance(cert.root, CertLeaf)
        assert verify_certificate(cert)

    def test_long_part_with_trivial_variable(self):
        c = ctx3({1: 1, 2: 0, 3: 2, 4: 0, 5: 0})
        g = make_generator(GeneratorKind.TYPE1, c, ((1, 2, 3, 4), (5,)))
        cert = reduce_type1(g)
        assert verify_certificate(cert)

    def test_long_part_without_trivial_variable(self):
        c = ctx3({1: 1, 2: 1, 3: 2, 4: 2, 5: 0})
        g = make_generator(GeneratorKind.TYPE1, c, ((1, 2, 3, 4), (5,)))
        cert = reduce_type1(g)
        assert verify_certificate(cert)

    def test_random(self):
        rand = support.rng(404)
        for _ in range(40):
            g = support.random_generator(rand, Z3, GeneratorKind.TYPE1, 5)
            cert = reduce_type1(g)
            assert verify_certificate(cert)
            assert all(leaf.is_reduced() for leaf in cert_leaves(cert.nodes))

    def test_rejected_outside_order_3(self):
        g2 = default_grading(cyclic_group(2))
        c = Context(g2, {1: 0, 2: 0})
        g = make_generator(GeneratorKind.TYPE1, c, ((1,), (2,)))
        with pytest.raises(ReductionError):
            reduce_type1(g)

    def test_type2_generator_refused(self):
        c = ctx3({1: 1, 2: 2, 3: 1})
        g = make_generator(GeneratorKind.TYPE2, c, ((1,), (2,), (3,)))
        with pytest.raises(ReductionError, match="^reduce_type1 expects a type-1 generator$"):
            reduce_type1(g)

    def test_reducing_twice_writes_one_certificate(self):
        """decompose declares fresh variables in the reduction's own copy of
        the context, so the caller's context keeps its degrees and a second
        reduction of the same generator writes the same bytes."""
        c = ctx3({1: 1, 2: 1, 3: 2, 4: 2, 5: 0})
        g = make_generator(GeneratorKind.TYPE1, c, ((1, 2, 3, 4), (5,)))
        first, second = (dumps(reduction_to_json(reduce_type1(g))) for _ in range(2))
        assert first == second and len(first) == 644
        assert g.ctx.degrees == {1: 1, 2: 1, 3: 2, 4: 2, 5: 0}


class TestReduceType2:
    def test_already_reduced_is_a_leaf(self):
        c = ctx3({1: 1, 2: 2, 3: 1})
        g = make_generator(GeneratorKind.TYPE2, c, ((1,), (2,), (3,)))
        cert = reduce_type2(g)
        assert isinstance(cert.root, CertLeaf)
        assert verify_certificate(cert)

    def test_first_part_oversized_with_trivial_variable(self):
        c = ctx3({1: 1, 2: 0, 3: 2, 4: 2, 5: 1, 6: 0, 7: 0, 8: 1, 9: 1, 10: 0})
        g = make_generator(GeneratorKind.TYPE2, c,
                           ((1, 2, 3, 4), (5, 6, 7), (8, 9, 10)))
        assert g.part_lengths() == (4, 3, 3)
        cert = reduce_type2(g)
        assert verify_certificate(cert)

    def test_middle_part_oversized_without_trivial_variable(self):
        c = ctx3({1: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 0, 7: 0, 8: 2, 9: 0})
        g = make_generator(GeneratorKind.TYPE2, c,
                           ((1,), (2, 3, 4, 5), (6, 7, 8, 9)))
        cert = reduce_type2(g)
        assert verify_certificate(cert)

    def test_random(self):
        rand = support.rng(405)
        for _ in range(40):
            g = support.random_generator(rand, Z3, GeneratorKind.TYPE2, 4)
            cert = reduce_type2(g)
            assert verify_certificate(cert)
            assert all(leaf.is_reduced() for leaf in cert_leaves(cert.nodes))

    def test_leaves_are_identities(self):
        rand = support.rng(406)
        for _ in range(10):
            g = support.random_generator(rand, Z3, GeneratorKind.TYPE2, 4)
            cert = reduce_type2(g)
            for leaf in cert_leaves(cert.nodes):
                assert is_graded_identity(expand(leaf))


class TestVerifyCertificate:
    def _sample(self):
        rand = support.rng(407)
        g = support.random_generator(rand, Z3, GeneratorKind.TYPE1, 4)
        return reduce_type1(g)

    def test_tampered_coefficient(self):
        cert = self._sample()
        root = cert.root
        if isinstance(root, CertLeaf):  # force a sum wrapper to tamper with
            root = CertSum(((1, root),))
        bad_children = ((root.children[0][0] + 1,) + root.children[0][1:],) \
            + root.children[1:]
        bad = ReductionCertificate(cert.ctx, cert.target,
                                   tuple(support.old_post_order(CertSum(bad_children))))
        assert not verify_certificate(bad)

    def test_oversized_leaf(self):
        c = ctx3({1: 0, 2: 0, 3: 0, 4: 0, 5: 0})
        g = make_generator(GeneratorKind.TYPE1, c, ((1, 2, 3, 4), (5,)))
        bad = ReductionCertificate(c, g, (CertLeaf(g),))
        assert not verify_certificate(bad)


class TestEnumerateReduced:
    def test_max_len_1_type1(self):
        gens = enumerate_reduced(Z3, max_part_len=1)
        t1 = [g for g in gens if g.kind is GeneratorKind.TYPE1]
        assert len(t1) == 1
        assert all(g.ctx.degree(v) == 0 for g in t1 for p in g.parts for v in p)

    def test_max_len_1_type2(self):
        gens = enumerate_reduced(Z3, max_part_len=1)
        t2 = [g for g in gens if g.kind is GeneratorKind.TYPE2]
        assert len(t2) == 3

    def test_full_count_regression(self):
        gens = enumerate_reduced(Z3, max_part_len=3)
        assert len(gens) == 6760
        t1 = sum(1 for g in gens if g.kind is GeneratorKind.TYPE1)
        assert (t1, len(gens) - t1) == (169, 6591)

    def test_part_length_bound_below_1(self):
        with pytest.raises(ReductionError, match="^part length bound must be at least 1$"):
            enumerate_reduced(Z3, 0)

    def test_all_shapes_valid_and_reduced(self):
        for g in enumerate_reduced(Z3, max_part_len=2):
            assert max(g.part_lengths()) <= 2

    def test_limit_is_the_exact_count(self, monkeypatch):
        """Z3 with parts up to length 2 has S = 1 + 3 shapes per part, and
        S^2 + 3 S^3 = 208 in all: a limit of 207 refuses it unbuilt."""
        monkeypatch.setattr(z3reduce, "MAX_ENUMERATED_SHAPES", 208)
        assert len(enumerate_reduced(Z3, max_part_len=2)) == 208
        monkeypatch.setattr(z3reduce, "MAX_ENUMERATED_SHAPES", 207)
        with pytest.raises(ReductionError, match="more than 207 reduced shapes"):
            enumerate_reduced(Z3, max_part_len=2)

    def test_limit_admits_z3_parts_of_length_4(self):
        s = 1 + 3 + 9 + 27
        assert s * s + 3 * s ** 3 == 193_600 <= z3reduce.MAX_ENUMERATED_SHAPES


def test_cert_value_of_sum_is_linear():
    c = ctx3({1: 0, 2: 0, 3: 0, 4: 0})
    a = CertLeaf(make_generator(GeneratorKind.TYPE1, c, ((1,), (2,))))
    b = CertLeaf(make_generator(GeneratorKind.TYPE1, c, ((3,), (4,))))
    node = CertSum(((2, a), (-1, b)))
    assert cert_value(c, (a, b, node)) == \
        2 * cert_value(c, (a,)) - cert_value(c, (b,))
