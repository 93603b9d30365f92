"""Projection operators, cascades, and the EC-heuristic special sets."""

import pytest

from oracles import _naive_tti_step, naive_cascade, oracle_discriminant, sylvester_resultant
from cadorder.formula import Constraint, Problem, QFF, Relop, Variable, VariableOrdering
from cadorder.generator import GenParams, random_problem
from cadorder.polys import Polynomial, sign_normalize
import cadorder.projection as projection
from cadorder.projection import (
    mccallum_project,
    newh_omitted_set,
    newh_set,
    normalize_set,
    project_cascade,
    projection_stage,
    ttiprojection,
)

X = Polynomial.var(3, 0)
Y = Polynomial.var(3, 1)
Z = Polynomial.var(3, 2)
VARS = (Variable("x", 0), Variable("y", 1), Variable("z", 2))


def make_problem(*qff_specs, variables=VARS):
    qffs = tuple(
        QFF(tuple(Constraint(p, r) for p, r in spec)) for spec in qff_specs
    )
    return Problem(variables, qffs)


def corpus(seed, labels=("00", "10", "20", "11", "21", "22"), **kw):
    params = GenParams(n_vars=3, max_tdeg=3, terms=3, coeff_bound=10, seed=seed, **kw)
    return [random_problem(label, params, i) for label in labels for i in range(2)]


# --------------------------------------------------------- full projection


def test_mccallum_circle():
    assert mccallum_project([X**2 + Y**2 - 1], 0) == {Y**2 - 1}


def test_mccallum_saddle():
    assert mccallum_project([X * Y - Z], 0) == {Y, Z}


def test_mccallum_variable_free_input_passes_through():
    assert mccallum_project([Y**2 - 2], 0) == {Y**2 - 2}


def test_mccallum_rejects_zero():
    with pytest.raises(ValueError):
        mccallum_project([X, Polynomial.zero(3)], 0)


def test_mccallum_rejects_a_negative_variable_index():
    with pytest.raises(ValueError, match="out of range"):
        mccallum_project([X * Y + Y**2 + 1], -1)


def test_projection_set_rejects_unremoved_variable(monkeypatch):
    # a broken primitive that leaves x in every output must not pass through
    # either operator's return path
    monkeypatch.setattr(projection, "squarefree_part", lambda f: X * Y)
    p = make_problem([(Y**2 - 2, Relop.EQ)])
    with pytest.raises(AssertionError, match="still mentions the eliminated variable"):
        mccallum_project([Y**2 - 2], 0)
    with pytest.raises(AssertionError, match="still mentions the eliminated variable"):
        ttiprojection(p, 0)


def test_normalize_set_reduces_and_is_idempotent():
    raw = [
        Polynomial.zero(3),
        Polynomial.const(3, 7),
        -4 * Y**2 + 4,          # content and sign
        (Y - 1) ** 2,           # repeated factor
        Y**2 - 1,               # duplicate of the first after reduction
        6 * Z,
    ]
    out = normalize_set(raw)
    assert out == {Y**2 - 1, Y - 1, Z}
    assert normalize_set(out) == out


# ------------------------------------------------------ reduced projection


def test_tti_single_qff_with_ec():
    p = make_problem([(X**2 + Y**2 - 1, Relop.EQ), (X - Y, Relop.LT)])
    assert ttiprojection(p, 0) == {Y**2 - 1, 2 * Y**2 - 1}


def test_tti_cross_resultant_between_declared_ecs():
    p = make_problem([(X - Y, Relop.EQ)], [(X - Z, Relop.EQ)])
    out = ttiprojection(p, 0)
    assert Y - Z in out
    assert out == {Y, Z, Y - Z}


def test_tti_equals_full_on_ec_free_problems():
    p = make_problem(
        [(X**2 - Y, Relop.LT), (X + Y, Relop.GT)],
        [(X * Z - 1, Relop.NE), (Y - Z, Relop.LE)],
    )
    assert ttiprojection(p, 0) == mccallum_project(p.defining_polynomials(), 0)
    for q in corpus(901, labels=("00",)):
        full = mccallum_project(q.defining_polynomials(), 0)
        assert ttiprojection(q, 0) == full


def test_tti_equals_full_even_with_polynomial_content():
    # x^2*y + x*y = x*y*(x+1): the cross-QFF resultant must be taken on the
    # primitive squarefree basis or the two operators diverge
    p = make_problem(
        [(X**2 * Y + X * Y, Relop.LT)],
        [(X - Y, Relop.GT)],
    )
    assert ttiprojection(p, 0) == mccallum_project(p.defining_polynomials(), 0)


def test_tti_matches_independent_recomputation():
    for q in corpus(902, labels=("10", "21", "00")):
        assert ttiprojection(q, 0) == _naive_tti_step(q, 0)


# ----------------------------------------------------------------- cascades


def test_cascade_two_variables_has_one_stage():
    vars2 = (Variable("x", 0), Variable("y", 1))
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    p = make_problem([(x**2 + y**2 - 1, Relop.LT)], variables=vars2)
    assert len(project_cascade(p, p.ordering("x>y"))) == 1


def test_cascade_hand_chained():
    p = make_problem([(X**2 + Y**2 - 1, Relop.LT), (X * Y - Z, Relop.GT)])
    c = project_cascade(p, p.ordering("z>y>x"), kind="full")
    # eliminating z turns x*y - z into its trailing coefficient x*y while the
    # circle passes through as a z-free content; eliminating y then reduces
    # x*y to its primitive part y, whose resultant with the circle is x^2 - 1
    assert list(c) == [
        {X**2 + Y**2 - 1, X * Y},
        {X**2 - 1, X},
    ]
    assert list(c) == naive_cascade(p, p.ordering("z>y>x"), "full")


@pytest.mark.parametrize("nvars", [1, 3])
def test_unknown_kind_is_rejected_before_any_work(nvars):
    variables = VARS[:nvars]
    x = Polynomial.var(nvars, 0)
    p = make_problem([(x**2 - 1, Relop.EQ)], variables=variables)
    with pytest.raises(ValueError, match="unknown projection kind 'lazard'"):
        project_cascade(p, VariableOrdering(variables[::-1]), kind="lazard")


@pytest.mark.parametrize("prefix", [(), (2, 2), (5,), (-1,), (0, 3)])
@pytest.mark.parametrize("kind", ["full", "tti"])
def test_projection_stage_rejects_a_bad_prefix_before_any_work(prefix, kind, monkeypatch):
    p = random_problem("21", GenParams(seed=3))

    def no_work(*args):
        raise AssertionError("projected before checking the prefix")

    monkeypatch.setattr(projection, "mccallum_project", no_work)
    monkeypatch.setattr(projection, "ttiprojection", no_work)
    with projection.Workspace() as ws:
        with pytest.raises(ValueError):
            projection_stage(p, kind, prefix)
    assert ws.memo == {}


@pytest.mark.parametrize("kind", ["full", "tti"])
def test_projection_stage_is_the_cascade_stage_with_that_prefix(kind):
    p = random_problem("21", GenParams(max_tdeg=3, terms=3, coeff_bound=10, seed=3))
    for spec in ("z>y>x", "y>x>z"):
        o = p.ordering(spec)
        cascade = project_cascade(p, o, kind)
        for k in range(1, p.nvars):
            prefix = o.indices[:k]
            assert projection_stage(p, kind, prefix) == cascade[k - 1]
            with projection.Workspace():
                assert projection_stage(p, kind, list(prefix)) == cascade[k - 1]
                assert project_cascade(p, o, kind)[k - 1] == cascade[k - 1]


def test_a_nested_workspace_joins_the_open_one():
    outer, inner = projection.Workspace(), projection.Workspace()
    assert projection._OPEN.get() is None
    with outer as ws:
        assert ws is outer and projection._OPEN.get() is outer
        with inner as joined:
            assert joined is outer and projection._OPEN.get() is outer
            with outer as again:  # the open workspace itself joins too
                assert again is outer
            assert projection._OPEN.get() is outer
        assert projection._OPEN.get() is outer  # leaving the inner block leaves it open
        with pytest.raises(ArithmeticError), inner:
            raise ArithmeticError("inner failed")
        assert projection._OPEN.get() is outer
        assert inner.memo == {}
    assert projection._OPEN.get() is None  # leaving the outermost block drops it
    with inner as ws:  # a workspace that joined once can open later
        assert ws is inner and projection._OPEN.get() is inner
    assert projection._OPEN.get() is None


@pytest.mark.parametrize("kind", ["full", "tti"])
def test_a_cascade_in_a_nested_workspace_fills_the_open_memo(kind):
    p = random_problem("21", GenParams(max_tdeg=2, terms=3, coeff_bound=5, seed=1))
    o = VariableOrdering(p.variables[::-1])
    with projection.Workspace() as outer:
        with projection.Workspace():
            stages = project_cascade(p, o, kind)
        assert outer.memo[p, kind, o.indices[:1]] is stages[0]
        assert project_cascade(p, o, kind)[-1] is stages[-1]


@pytest.mark.parametrize("kind", ["full", "tti"])
@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_cascade_without_a_workspace_projects_once_per_stage(kind, nvars, monkeypatch):
    p = random_problem("21", GenParams(n_vars=nvars, max_tdeg=2, terms=3, coeff_bound=5, seed=1))
    calls = []
    for name in ("mccallum_project", "ttiprojection"):
        def counted(*args, op=getattr(projection, name)):
            calls.append(args[-1])
            return op(*args)

        monkeypatch.setattr(projection, name, counted)
    o = VariableOrdering(p.variables[::-1])
    assert len(project_cascade(p, o, kind)) == nvars - 1
    assert calls == list(o.indices[:-1])


def test_tti_cascade_equals_full_cascade_without_ecs():
    for q in corpus(903, labels=("00",)):
        for spec in ("x>y>z", "z>x>y"):
            full = project_cascade(q, q.ordering(spec), kind="full")
            tti = project_cascade(q, q.ordering(spec), kind="tti")
            assert full == tti


def test_cascade_stage_variable_containment():
    for q in corpus(904):
        for spec in ("z>y>x", "x>z>y"):
            ordering = q.ordering(spec)
            for kind in ("full", "tti"):
                c = project_cascade(q, ordering, kind=kind)
                assert len(c) == q.nvars - 1
                for k, stage in enumerate(c):
                    allowed = {v.index for v in ordering.variables[k + 1:]}
                    for f in stage:
                        assert f.variables() <= allowed
                if c:
                    lowest = ordering.variables[-1].index
                    for f in c[-1]:
                        assert f.variables() <= {lowest}


# ---------------------------------------------------------- special sets


def test_newh_set_two_qffs():
    p = make_problem(
        [(X**2 + Y**2 - 1, Relop.EQ), (X - Y, Relop.LT)],
        [(X * Y - Z, Relop.EQ), (X + Z, Relop.GT)],
    )
    # discs and lcoeffs stay raw (only degrees are measured downstream):
    # disc of the circle survives as 4y^2-4, unit lcoeff 1 and the
    # degree-one disc convention drop out, the saddle contributes its
    # lcoeff y, and the pair contributes the cross resultant
    assert newh_set(p, 0) == {4 * Y**2 - 4, Y, Z**2 + Y**4 - Y**2}


def test_newh_set_linear_ec_can_be_empty():
    # unlike the projection operators this set keeps only leading
    # coefficients, so a monic linear constraint contributes nothing
    p = make_problem([(X - Y, Relop.EQ)])
    assert newh_set(p, 0) == frozenset()
    p = make_problem([(Y * X - 1, Relop.EQ)])
    assert newh_set(p, 0) == frozenset([Y])


def test_newh_set_ec_free_qff_expands_fully():
    p = make_problem([(X**2 - Y, Relop.LT), (X + Y, Relop.GT)])
    assert newh_set(p, 0) == {4 * Y, Y**2 - Y}


def test_newh_set_second_ec_resultant():
    p = make_problem([(X - Y, Relop.EQ), (X - Z, Relop.EQ)])
    out = newh_set(p, 0)
    assert Y - Z in out


def test_newh_omitted_empty_when_nothing_is_left_out():
    ec_free = make_problem([(X**2 - Y, Relop.LT), (X + Y, Relop.GT)])
    assert newh_omitted_set(ec_free, 0) == frozenset()
    two_ecs = make_problem([(X - Y, Relop.EQ), (X - Z, Relop.EQ)])
    assert newh_omitted_set(two_ecs, 0) == frozenset()


def test_newh_omitted_holds_the_complement():
    p = make_problem([(X**2 + Y**2 - 1, Relop.EQ), (Y * X**2 - Z, Relop.LT)])
    assert newh_set(p, 0) == {4 * Y**2 - 4}
    omitted = newh_omitted_set(p, 0)
    assert {4 * Y * Z, Y} <= omitted
    assert not omitted & newh_set(p, 0)


def test_newh_union_is_the_full_degree_closure():
    for q in corpus(905):
        v = 0
        polys = sorted(q.defining_polynomials(), key=lambda f: sorted(f.terms))
        raw = []
        for f in polys:
            if f.degree(v) >= 2:
                raw.append(oracle_discriminant(f, v))
            raw.append(f.lcoeff(v))
        for i, f in enumerate(polys):
            for g in polys[i + 1:]:
                raw.append(sylvester_resultant(f, g, v))
        closure = frozenset(
            sign_normalize(f) for f in raw if not (f.is_zero() or f.is_const())
        )
        assert newh_set(q, v) | newh_omitted_set(q, v) == closure


def test_all_projection_outputs_are_free_of_the_eliminated_variable():
    for q in corpus(906, labels=("11", "20")):
        for v in range(3):
            for out in (
                mccallum_project(q.defining_polynomials(), v),
                ttiprojection(q, v),
            ):
                for f in out:
                    assert v not in f.variables()
