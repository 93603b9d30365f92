"""Exact variable-ordering heuristics for cylindrical algebraic decomposition.

Everything is computed over the integers with arbitrary precision: sparse
polynomial arithmetic, resultants and discriminants, projection
operators, Descartes-bisection real-root counting, and the twelve ordering
heuristics built on top of them.  A small harness generates random problem
corpora and scores heuristic choices against measured decomposition costs.
"""

from cadorder.formula import Constraint, Problem, QFF, Relop, Variable, VariableOrdering
from cadorder.generator import GenParams, generate_corpus, random_problem
from cadorder.heuristics import (
    HeuristicId,
    HeuristicReport,
    Measures,
    OrderingCapError,
    sotd,
    suggest,
    variable_measures,
)
from cadorder.polys import (
    ExactDivisionError,
    Polynomial,
    discriminant,
    poly_gcd,
    resultant,
    sign_normalize,
    squarefree_part,
)
from cadorder.probio import ProblemFormatError, parse_problem, print_problem
from cadorder.projection import (
    mccallum_project,
    newh_omitted_set,
    newh_set,
    project_cascade,
    ttiprojection,
)
from cadorder.realroots import count_real_roots, ndrr

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
    "QFF",
    "Relop",
    "Variable",
    "VariableOrdering",
    "count_real_roots",
    "discriminant",
    "generate_corpus",
    "mccallum_project",
    "ndrr",
    "newh_omitted_set",
    "newh_set",
    "parse_problem",
    "poly_gcd",
    "print_problem",
    "project_cascade",
    "random_problem",
    "resultant",
    "sign_normalize",
    "sotd",
    "squarefree_part",
    "suggest",
    "ttiprojection",
    "variable_measures",
]
