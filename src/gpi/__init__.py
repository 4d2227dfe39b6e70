"""Exact computation with graded generic matrix algebras.

Decide graded polynomial identities of the pair (full matrix algebra,
its diagonal-graded Lie structure) by evaluation at generic matrices,
rewrite monomials modulo the generator ideal with verifiable move
chains, and reduce generators over the cyclic group of order three to
instances with short parts, again with verifiable certificates.
"""

from .groups import FiniteGroup, GradingTuple, GroupError, cyclic_group, default_grading
from .freealg import (MAX_REPLAY_LETTERS, Context, DeclarationError, FreePoly, LieWord,
                      ReplayBudgetError, SubstitutionError, WeakSubstitution, Word,
                      bracket, lie_degree, lie_expand,
                      multidegree, multihomogeneous_components, word_degree)
from .genmat import ScalarPoly, eval_poly, eval_word_closed, mono_exponents
from .identity import (MAX_REDUCED_PART_LEN, GeneratorError, GeneratorInstance, GeneratorKind,
                       Witness, expand, identity_witness, is_graded_identity,
                       make_generator, validate_generator)
from .certs import (JCombination, JTerm, Move, MoveError,
                    ReductionCertificate, RewriteChain, apply_move, verify_certificate,
                    verify_chain, verify_combination)
from .rewrite import (NoExpressionError, NotCongruentError, SigmaWitness, congruence_chain,
                      express_in_J, extract_sigma, shared_entry)
from .z3reduce import ReductionError, enumerate_reduced, reduce_type1, reduce_type2
from .dsl import ParseError, format_file, parse_expr, parse_file, parse_text, parse_word
from . import certs

__version__ = "0.1.0"

__all__ = [
    "FiniteGroup", "GradingTuple", "GroupError", "cyclic_group", "default_grading",
    "MAX_REPLAY_LETTERS", "Context", "DeclarationError", "FreePoly", "LieWord",
    "ReplayBudgetError", "SubstitutionError",
    "WeakSubstitution", "Word", "bracket", "lie_degree",
    "lie_expand", "multidegree", "multihomogeneous_components", "word_degree",
    "ScalarPoly", "eval_poly", "eval_word_closed", "mono_exponents",
    "GeneratorError", "GeneratorInstance", "GeneratorKind", "Witness", "expand",
    "identity_witness", "is_graded_identity", "make_generator", "validate_generator",
    "JCombination", "JTerm", "Move", "MoveError", "NoExpressionError",
    "NotCongruentError", "RewriteChain", "SigmaWitness", "apply_move",
    "congruence_chain", "express_in_J", "extract_sigma", "shared_entry",
    "verify_chain", "verify_combination",
    "MAX_REDUCED_PART_LEN", "ReductionCertificate", "ReductionError",
    "enumerate_reduced", "reduce_type1", "reduce_type2", "verify_certificate",
    "ParseError", "format_file", "parse_expr", "parse_file", "parse_text",
    "parse_word", "certs",
]
