"""Certified rewriting: congruence chains and expressing identities.

Two monomials whose evaluations share a nonzero entry are congruent
modulo the generator ideal; the congruence is witnessed by an explicit
chain of swap0/reverse3 context moves.  Any identity is then an
integer combination of such certified differences.
"""

from gpi import (Context, FreePoly, congruence_chain, cyclic_group,
                 default_grading, express_in_J, shared_entry,
                 verify_chain, verify_combination)

grading = default_grading(cyclic_group(3))
ctx = Context(grading, {1: 1, 2: 2, 3: 1})

m, n = (1, 2, 3), (3, 2, 1)
pos = shared_entry(ctx, m, n)
print("shared entry of x1*x2*x3 and x3*x2*x1 at (row, col):",
      (pos[0] + 1, pos[1] + 1))

chain = congruence_chain(ctx, m, n)
print("chain from", chain.start, "to", chain.end)
w = chain.start
for mv in chain.moves:  # each move cuts its blocks from the running word
    print("  move:", mv.kind, "offset", mv.offset, "block lengths", mv.lengths,
          "blocks", mv.blocks(w))
    w = mv.apply(w)
print("chain verifies:", verify_chain(chain))

# an identity combining two congruent pairs, expressed in the ideal
print()
f = FreePoly(ctx, {(1, 2, 3): 2, (3, 2, 1): -2})
comb = express_in_J(f)
print("expressing 2*(x1*x2*x3 - x3*x2*x1):")
for t in comb.terms:
    print(f"  {t.coeff} * ({t.source} - {t.target}),"
          f" chain of {len(t.moves)} move(s)")
print("combination verifies and expands back to f:",
      verify_combination(comb, claimed=f))
