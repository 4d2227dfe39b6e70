"""Evaluating a word at the generic matrices, as keys.

Under the elementary grading by a tuple (t_0, ..., t_{n-1}) each generic
matrix has one nonzero entry per row, and so does every product: a word
evaluates to n keys (row, col, monomial), each with coefficient 1.  The
group acts on the rows, so the key in the first row fixes all the others.
A key's monomial is the path's scalar variables (k, i, j), sorted;
mono_exponents counts the repeats for printing.
"""

from gpi import (Context, ScalarPoly, cyclic_group, default_grading, eval_word_closed,
                 mono_exponents)

grading = default_grading(cyclic_group(3))
group, tuple_ = grading.group, grading.tuple_
print("grading tuple:", tuple_)

# x1 of degree 1, x2 of degree 2, x3 of degree 1
ctx = Context(grading, {1: 1, 2: 2, 3: 1})
keys = eval_word_closed(ctx, (1, 2, 3))
print()
print("x1*x2*x3 evaluates to one entry per row (1-based positions):")
for row, col, mono in keys:
    print(f"  ({row + 1},{col + 1}): {ScalarPoly({mono_exponents(mono): 1})}")


def relabel(key, pi):
    """The key with every row index i replaced by pi[i]."""
    row, col, mono = key
    return (pi[row], pi[col], tuple(sorted((k, pi[i], pi[j]) for k, i, j in mono)))


# Rows are 0-based here.  Let a = t_r * t_0^-1 and pi(i) = the row whose
# tuple element is a * t_i: pi carries the path from row 0 step by step
# onto the path from row r (see gpi.genmat.word_entry).
print()
print("the first row's key fixes every row's key:")
for r in range(grading.n):
    a = group.mul(tuple_[r], group.inv(tuple_[0]))
    pi = [tuple_.index(group.mul(a, t)) for t in tuple_]
    print(f"  row {r + 1}: pi = {[p + 1 for p in pi]},",
          "the first key relabelled by pi is this row's key:", relabel(keys[0], pi) == keys[r])
