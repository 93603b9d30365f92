"""Exact variable-ordering heuristics for cylindrical algebraic decomposition.

Everything is computed over the integers with arbitrary precision: sparse
polynomial arithmetic, subresultant resultants and discriminants, projection
operators, Sturm-chain real-root counting, and the twelve ordering heuristics
built on top of them.  A small harness generates random problem corpora and
scores heuristic choices against externally measured decomposition costs.
"""

from cadorder.formula import Constraint, Problem, QFF, Relop, Variable, VariableOrdering
from cadorder.generator import GenParams, generate_corpus, random_problem
from cadorder.heuristics import (
    HeuristicId,
    HeuristicReport,
    Measures,
    OrderingCapError,
    brown_order,
    greedy_sotd_order,
    newh_order,
    ordering_search,
    sotd,
    suggest,
    triangular_order,
    variable_measures,
)
from cadorder.polys import (
    ExactDivisionError,
    Polynomial,
    discriminant,
    poly_gcd,
    prem,
    resultant,
    sign_normalize,
    squarefree_part,
)
from cadorder.probio import ProblemFormatError, parse_problem, print_problem
from cadorder.projection import (
    ProjectionCascade,
    ProjectionSet,
    mccallum_project,
    newh_omitted_set,
    newh_set,
    project_cascade,
    ttiprojection,
)
from cadorder.realroots import count_real_roots, ndrr, sturm_chain

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "ExactDivisionError",
    "GenParams",
    "HeuristicId",
    "HeuristicReport",
    "Measures",
    "OrderingCapError",
    "Polynomial",
    "Problem",
    "ProblemFormatError",
    "ProjectionCascade",
    "ProjectionSet",
    "QFF",
    "Relop",
    "Variable",
    "VariableOrdering",
    "brown_order",
    "count_real_roots",
    "discriminant",
    "generate_corpus",
    "greedy_sotd_order",
    "mccallum_project",
    "ndrr",
    "newh_omitted_set",
    "newh_order",
    "newh_set",
    "ordering_search",
    "parse_problem",
    "poly_gcd",
    "prem",
    "print_problem",
    "project_cascade",
    "random_problem",
    "resultant",
    "sign_normalize",
    "sotd",
    "squarefree_part",
    "sturm_chain",
    "suggest",
    "triangular_order",
    "ttiprojection",
    "variable_measures",
]
