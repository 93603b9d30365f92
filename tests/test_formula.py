"""Problem model: constraints, QFFs, system types, orderings."""

import re

import pytest

from cadorder.formula import Constraint, Problem, QFF, Relop, Variable, VariableOrdering
from cadorder.polys import Polynomial

X = Polynomial.var(3, 0)
Y = Polynomial.var(3, 1)
Z = Polynomial.var(3, 2)
VARS = (Variable("x", 0), Variable("y", 1), Variable("z", 2))


def make_problem(*qff_specs):
    qffs = tuple(
        QFF(tuple(Constraint(p, r) for p, r in spec)) for spec in qff_specs
    )
    return Problem(VARS, qffs)


def test_constraint_sign_normalizes_and_mirrors():
    c = Constraint(-X + 1, Relop.LT)
    assert c.poly == X - 1
    assert c.relop is Relop.GT
    c = Constraint(-X, Relop.LE)
    assert (c.poly, c.relop) == (X, Relop.GE)
    c = Constraint(-X, Relop.EQ)
    assert (c.poly, c.relop) == (X, Relop.EQ)
    c = Constraint(X, Relop.NE)
    assert (c.poly, c.relop) == (X, Relop.NE)
    with pytest.raises(ValueError):
        Constraint(Polynomial.zero(3), Relop.EQ)


def test_qff_counts_equational_constraints():
    q = QFF((Constraint(X, Relop.EQ), Constraint(Y, Relop.LT), Constraint(Z, Relop.EQ)))
    assert [c.poly for c in q.equational_constraints()] == [X, Z]
    assert q.polynomials() == [X, Y, Z]
    with pytest.raises(ValueError):
        QFF(())


def test_system_type_counts_ecs_in_sequence():
    p = make_problem([(X, Relop.EQ), (Y, Relop.LT)], [(Z, Relop.LT), (Y, Relop.GT)])
    assert p.system_type() == "10"
    p2 = make_problem([(X, Relop.EQ), (Y, Relop.EQ)], [(Z, Relop.EQ), (Y - 1, Relop.EQ)])
    assert p2.system_type() == "22"


def test_defining_polynomials_deduplicate():
    p = make_problem(
        [(X + Y, Relop.EQ), (-X - Y, Relop.LT)],  # same poly after normalization
        [(Z, Relop.LT), (X + Y, Relop.GT)],
    )
    assert p.defining_polynomials() == frozenset({X + Y, Z})


ONE_QFF = (QFF((Constraint(X, Relop.EQ),)),)


@pytest.mark.parametrize(
    "variables, qffs, message",
    [
        ((), (QFF((Constraint(Polynomial.var(1, 0), Relop.EQ),)),), "no variables declared"),
        ((Variable("x", 0), Variable("y", 1), Variable("x", 2)), ONE_QFF,
         "duplicate variable names"),
        ((Variable("x", 0), Variable("y", 2), Variable("z", 1)), ONE_QFF,
         "variable 'y' has index 2, expected 1"),
        ((Variable("x", 0), Variable("a>b", 1), Variable("z", 2)), ONE_QFF,
         "invalid variable name 'a>b'"),
        ((Variable("x", 0), Variable("y z", 1), Variable("1z", 2)), ONE_QFF,
         "invalid variable name 'y z'"),
        ((Variable("x", 0), Variable("", 1), Variable("z", 2)), ONE_QFF,
         "invalid variable name ''"),
        (VARS, (), "no QFFs"),
        ((Variable("x", 0),), (QFF((Constraint(Polynomial.var(2, 0), Relop.EQ),)),),
         "QFF 1: polynomial uses 2 variable slots, 1 declared"),
    ],
    ids=["no-variables", "duplicate", "misnumbered", "relop-in-name", "space-in-name",
         "empty-name", "no-qffs", "slots"],
)
def test_problem_rejects_violations_at_construction(variables, qffs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Problem(variables, qffs)


def test_ordering_from_text():
    p = make_problem([(X, Relop.EQ), (Y, Relop.LT)])
    o = p.ordering("z>y>x")
    assert isinstance(o, VariableOrdering)
    assert str(o) == "z>y>x"
    assert o.indices == (2, 1, 0)
    assert o.names == ("z", "y", "x")
    assert len(o) == 3
    assert p.ordering(" x > y>z ").indices == (0, 1, 2)


def test_ordering_rejects_non_permutations():
    p = make_problem([(X, Relop.EQ), (Y, Relop.LT)])
    with pytest.raises(ValueError):
        p.ordering("z>y")
    with pytest.raises(ValueError):
        p.ordering("z>y>y")
    with pytest.raises(KeyError):
        p.ordering("w>y>x")
    with pytest.raises(ValueError):
        VariableOrdering((VARS[0], VARS[0]))
