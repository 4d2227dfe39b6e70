"""Reducing generators over the order-3 cyclic group to short parts.

A type-2 generator with an oversized part is rewritten as a combination
of generators whose parts have length at most three.  The result is a
certificate DAG (sums, contexts, substitutions over reduced leaves)
that replays symbolically to the original expansion, each distinct node
once.
"""

from gpi import (Context, GeneratorKind, cyclic_group, default_grading,
                 enumerate_reduced, expand, make_generator, reduce_type2,
                 verify_certificate)
from gpi.certs import CertContext, CertLeaf, CertSubst, CertSum, cert_leaves

grading = default_grading(cyclic_group(3))

ctx = Context(grading, {1: 1, 2: 1, 3: 0, 4: 1, 5: 0, 6: 2})
gen = make_generator(GeneratorKind.TYPE2, ctx, ((1, 2, 5, 3), (4,), (6,)))
print("target generator parts:", gen.parts, "lengths", gen.part_lengths())
print("expansion:", expand(gen))
print()

cert = reduce_type2(gen)

# The certificate is a DAG: a subproof reached twice is one node.  Its node
# table lists each distinct node once, children first and the root last;
# print it, naming children by their row number.
nodes = cert.nodes
row = {id(node): i for i, node in enumerate(nodes)}
for i, node in enumerate(nodes):
    if isinstance(node, CertLeaf):
        print(f"#{i} leaf {node.generator.parts}")
    elif isinstance(node, CertSum):
        terms = " ".join(f"{c:+d}*#{row[id(ch)]}" for c, ch in node.children)
        print(f"#{i} sum {terms}")
    elif isinstance(node, CertContext):
        print(f"#{i} context left={node.left} right={node.right} of #{row[id(node.child)]}")
    elif isinstance(node, CertSubst):
        print(f"#{i} substitution {dict(node.images)} of #{row[id(node.child)]}")
print()
leaves = list(cert_leaves(cert.root))
print("distinct nodes:", len(nodes), "- distinct leaves:", len(leaves),
      "- all parts of length <= 3:", all(leaf.is_reduced() for leaf in leaves))
print("certificate verifies by symbolic replay:", verify_certificate(cert))

print()
shapes = enumerate_reduced(grading)
t1 = sum(1 for g in shapes if g.kind is GeneratorKind.TYPE1)
print(f"reduced shapes with parts <= 3: {len(shapes)}"
      f" ({t1} of type 1, {len(shapes) - t1} of type 2)")
