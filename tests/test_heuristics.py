"""The twelve ordering heuristics: measures, searches, tie-breaks, reports."""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    SEARCH_IDS, naive_cascade, naive_newh, naive_search, naive_sotd, _naive_full_step,
    _naive_tti_step,
)
from cadorder import projection
from cadorder.formula import Constraint, Problem, QFF, Relop, Variable
from cadorder.generator import GenParams, random_problem
from cadorder.heuristics import (
    HeuristicId,
    Measures,
    OrderingCapError,
    _HEURISTICS,
    sotd,
    suggest,
    variable_measures,
)
from cadorder.polys import Polynomial

X = Polynomial.var(3, 0)
Y = Polynomial.var(3, 1)
Z = Polynomial.var(3, 2)
VARS = (Variable("x", 0), Variable("y", 1), Variable("z", 2))

ALL_IDS = list(HeuristicId)
GREEDY_IDS = {"full": "gs", "tti": "gs-tti"}


def make_problem(*qff_specs, variables=VARS):
    qffs = tuple(
        QFF(tuple(Constraint(p, r) for p, r in spec)) for spec in qff_specs
    )
    return Problem(variables, qffs)


def gen(label, seed, index=0, **kw):
    defaults = dict(n_vars=3, max_tdeg=3, terms=3, coeff_bound=10)
    defaults.update(kw)
    params = GenParams(seed=seed, **defaults)
    return random_problem(label, params, index)


MEASURE_PROBLEM = make_problem(
    [(X**2 * Y + 1, Relop.LT)], [(Y * Z - 2, Relop.EQ)]
)


# ---------------------------------------------------------------- measures


def test_variable_measures_table():
    P = MEASURE_PROBLEM.defining_polynomials()
    assert variable_measures(P, 0) == Measures(2, 1, 2, 3, 1)
    assert variable_measures(P, 1) == Measures(1, 2, 2, 3, 2)
    assert variable_measures(P, 2) == Measures(1, 1, 1, 2, 1)


def test_variable_measures_absent_variable_is_all_zero():
    assert variable_measures([X**2 - 1, X + 1], 2) == Measures(0, 0, 0, 0, 0)


@pytest.mark.parametrize("v", [-1, 3])
def test_variable_measures_rejects_an_out_of_range_index(v):
    with pytest.raises(ValueError, match="out of range"):
        variable_measures([X * Y + Y**2 + 1], v)


def test_sotd_values():
    assert sotd([X**2 * Y + 1]) == 3
    assert sotd([]) == 0
    assert sotd([X**2 * Y + 1], [Y**2 - 1]) == 5
    assert sotd([Polynomial.const(3, 9)]) == 0


# ------------------------------------------------- positional heuristics


def test_triangular_fixture():
    r = suggest(MEASURE_PROBLEM, "triangular")
    assert r.id is HeuristicId.TRIANGULAR
    assert r.choice.names == ("z", "y", "x")
    assert not r.fallback_lex and r.tiebreaks_used == ()
    assert "y: m1=1 m2=2 m3=2" in r.notes


def test_brown_fixture():
    r = suggest(MEASURE_PROBLEM, "brown")
    assert r.choice.names == ("z", "y", "x")
    assert not r.fallback_lex


def test_brown_m1_decides():
    vars2 = (Variable("x", 0), Variable("y", 1))
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    p = make_problem([(x**3, Relop.LT), (y, Relop.GT)], variables=vars2)
    assert suggest(p, "brown").choice.names == ("y", "x")


def test_absent_variable_ranks_greatest():
    # measures of an absent variable are all zero, which sorts first
    p = make_problem([(X**3, Relop.LT), (Y, Relop.GT)])
    assert suggest(p, "brown").choice.names == ("z", "y", "x")
    assert suggest(p, "triangular").choice.names == ("z", "y", "x")


def test_symmetric_input_falls_back_to_declaration_order():
    vars2 = (Variable("x", 0), Variable("y", 1))
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    p = make_problem([(x**2 + y**2, Relop.LT)], variables=vars2)
    for hid in ("triangular", "brown"):
        r = suggest(p, hid)
        assert r.choice.names == ("x", "y")
        assert r.fallback_lex and r.tiebreaks_used == ("lex",)
    g = suggest(p, "gs")
    assert g.choice.names == ("x", "y") and g.fallback_lex


def test_single_variable_problem():
    vars1 = (Variable("x", 0),)
    x = Polynomial.var(1, 0)
    p = make_problem([(x**2 - 1, Relop.LT)], variables=vars1)
    assert suggest(p, "triangular").choice.names == ("x",)
    r = suggest(p, "ndrr")
    assert r.choice.names == ("x",) and len(r.candidates) == 1
    assert r.candidates[r.choice]["ndrr"] == 2


# ------------------------------------------------ enumeration heuristics


def test_ordering_search_enumerates_and_minimizes():
    p = gen("11", seed=3)
    r = suggest(p, "sotd")
    assert len(r.candidates) == 6
    assert r.choice in r.candidates
    vals = [t["sotd"] for t in r.candidates.values()]
    assert r.candidates[r.choice]["sotd"] == min(vals)


def test_ordering_search_tie_takes_first_by_declaration_indices():
    p = gen("11", seed=7)
    r = suggest(p, "sotd")
    ties = [o for o, t in r.candidates.items() if t["sotd"] == r.candidates[r.choice]["sotd"]]
    assert ties == [r.choice, p.ordering("y>z>x")]
    assert r.choice == p.ordering("y>x>z")
    assert r.fallback_lex and r.tiebreaks_used == ("lex",)


def test_ordering_search_cap():
    n = 9
    names = tuple(f"x{i + 1}" for i in range(n))
    variables = tuple(Variable(nm, i) for i, nm in enumerate(names))
    f = Polynomial.var(n, 0) * Polynomial.var(n, 8) - 1
    p = Problem(variables, (QFF((Constraint(f, Relop.LT),)),))
    with pytest.raises(OrderingCapError):
        suggest(p, "sotd")
    assert suggest(p, "triangular").choice  # positional heuristics stay usable


def test_search_matches_naive_recomputation():
    cases = [
        gen("10", seed=21, max_tdeg=3, terms=2, coeff_bound=7),
        gen("21", seed=22, max_tdeg=2, terms=3, coeff_bound=7),
        gen("00", seed=23, max_tdeg=3, terms=2, coeff_bound=7),
    ]
    for p in cases:
        for (measure, kind), hid in SEARCH_IDS.items():
            names, value = naive_search(p, measure, kind)
            r = suggest(p, hid)
            assert r.choice.names == names
            assert r.candidates[r.choice][measure] == value


def test_tti_searches_degenerate_to_full_without_ecs():
    p = gen("00", seed=11)
    assert suggest(p, "s-tti").choice == suggest(p, "sotd").choice
    assert suggest(p, "s-tti").id is HeuristicId.S_TTI
    assert suggest(p, "n-tti").choice == suggest(p, "ndrr").choice
    assert suggest(p, "gs-tti").choice == suggest(p, "gs").choice


# ------------------------------------------------------------- tie-breaks


def test_sn_resolves_sotd_tie_with_ndrr():
    p = gen("20", seed=21)
    plain = suggest(p, "sotd")
    assert plain.fallback_lex and plain.choice == p.ordering("x>y>z")
    r = suggest(p, "sn")
    assert r.id is HeuristicId.SN
    assert r.choice == p.ordering("x>z>y")
    assert r.tiebreaks_used == ("ndrr",)
    assert not r.fallback_lex
    assert r.candidates[r.choice]["sotd"] == 207
    assert r.candidates[r.choice]["ndrr"] == 23
    assert r.candidates[plain.choice]["ndrr"] == 28


def test_ns_resolves_ndrr_tie_with_sotd():
    p = gen("20", seed=2)
    plain = suggest(p, "ndrr")
    assert plain.fallback_lex and plain.choice == p.ordering("x>y>z")
    r = suggest(p, "ns")
    assert r.id is HeuristicId.NS
    assert r.choice == p.ordering("y>x>z")
    assert r.tiebreaks_used == ("sotd",)
    assert r.candidates[r.choice]["ndrr"] == 17
    assert r.candidates[r.choice]["sotd"] == 240
    assert r.candidates[plain.choice]["sotd"] == 272


def test_combined_total_tie_falls_back_to_lex():
    p = gen("11", seed=7)
    r = suggest(p, "sn")
    assert r.choice == p.ordering("y>x>z")
    assert r.fallback_lex
    assert r.tiebreaks_used == ("ndrr", "lex")


def test_combined_without_primary_tie_equals_plain_search():
    p = gen("20", seed=3)
    plain = suggest(p, "sotd")
    assert not plain.fallback_lex
    r = suggest(p, "sn")
    assert r.choice == plain.choice
    assert r.tiebreaks_used == ()


# ----------------------------------------------------------------- greedy


def replay_greedy(problem, kind):
    """The greedy choice and whether some step tied, by schoolbook steps."""
    remaining = list(problem.variables)
    chosen = []
    current = None
    fallback = False
    while len(remaining) > 1:
        best = None
        ties = 0
        for v in remaining:
            if current is None and kind == "tti":
                ps = _naive_tti_step(problem, v.index)
            elif current is None:
                ps = _naive_full_step(problem.defining_polynomials(), v.index)
            else:
                ps = _naive_full_step(current, v.index)
            val = naive_sotd(ps)
            if best is None or val < best[0]:
                best, ties = (val, v, ps), 0
            elif val == best[0]:
                ties += 1
        fallback = fallback or ties > 0
        chosen.append(best[1])
        remaining.remove(best[1])
        current = best[2]
    chosen.extend(remaining)
    return tuple(v.name for v in chosen), fallback


@pytest.mark.parametrize("kind", ["full", "tti"])
def test_greedy_matches_step_by_step_replay(kind):
    for seed in (31, 32, 33):
        p = gen("21", seed=seed)
        expected = replay_greedy(p, kind)
        r = suggest(p, GREEDY_IDS[kind])
        assert (r.choice.names, r.fallback_lex) == expected
        assert len(r.notes) == 2 and r.notes[0].startswith("step 1:")


def test_greedy_two_variables_is_a_single_decision():
    vars2 = (Variable("x", 0), Variable("y", 1))
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    p = make_problem([(x**2 + y - 1, Relop.EQ)], variables=vars2)
    r = suggest(p, "gs")
    assert len(r.notes) == 1
    assert r.notes[0].count(":") == 3  # "step 1:" plus one value per variable


# ------------------------------------------------------------------- newh


NEWH_VARS = (Variable("z", 0), Variable("y", 1), Variable("x", 2))
NZ = Polynomial.var(3, 0)
NY = Polynomial.var(3, 1)
NX = Polynomial.var(3, 2)


def test_newh_two_qff_fixture_degrades_to_lex():
    # declared z, y, x; m1 is z:1, y:2, x:2 so z goes first; the special
    # set w.r.t. z is {x^2+y^2-1}, which cannot split x from y, and the
    # omitted set {x-y, x*y+x} cannot either
    p = make_problem(
        [(NX**2 + NY**2 - 1, Relop.EQ), (NX - NY, Relop.LT)],
        [(NX * NY - NZ, Relop.EQ), (NX + NZ, Relop.GT)],
        variables=NEWH_VARS,
    )
    r = suggest(p, "newh")
    assert r.id is HeuristicId.NEWH
    assert r.choice.names == ("z", "y", "x")
    assert r.fallback_lex
    assert r.tiebreaks_used == ("special-set-degree", "lex")
    ext = suggest(p, "newh-ext")
    assert ext.id is HeuristicId.NEWH_EXT
    assert ext.choice.names == ("z", "y", "x")
    assert ext.fallback_lex
    assert ext.tiebreaks_used == ("special-set-degree", "omitted-set-degree", "lex")


def test_newh_special_set_splits_the_tie():
    # lcoeff_z of the constraint is y^2, so y looks worse than x there
    p = make_problem(
        [(NX**2 + NY**2 * NZ + NY**2, Relop.EQ)],
        variables=NEWH_VARS,
    )
    r = suggest(p, "newh")
    assert r.choice.names == ("z", "x", "y")
    assert not r.fallback_lex
    assert r.tiebreaks_used == ("special-set-degree",)


def test_newh_stage_one_total_order_matches_m1_ranking():
    p = make_problem([(X**3 + Y**2 + Z, Relop.LT)])
    r = suggest(p, "newh")
    assert r.choice.names == ("z", "y", "x")
    assert r.tiebreaks_used == ()
    assert not r.fallback_lex


def test_newh_first_position_tie_is_lexicographic():
    vars2 = (Variable("x", 0), Variable("y", 1))
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    p = make_problem([(x * y - 1, Relop.EQ)], variables=vars2)
    r = suggest(p, "newh")
    assert r.choice.names[0] == "x"
    assert r.fallback_lex
    assert "lex-first" in r.tiebreaks_used


def test_newh_fully_symmetric_problem():
    p = make_problem([(X**2 + Y**2 - 1, Relop.LT)])
    r = suggest(p, "newh-ext")
    assert r.choice.names == ("z", "x", "y")  # z absent: m1=0 ranks first
    assert r.fallback_lex


@settings(max_examples=25, deadline=None)
@given(
    nvars=st.integers(1, 4),
    label=st.sampled_from(["0", "1", "2", "00", "10", "20", "11", "12", "21", "22"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_newh_and_greedy_match_the_oracles(nvars, label, seed):
    p = gen(label, seed, n_vars=nvars, max_tdeg=2, terms=2)
    for hid, extended in (("newh", False), ("newh-ext", True)):
        r = suggest(p, hid)
        assert (r.choice.names, r.tiebreaks_used) == naive_newh(p, extended), hid
    for kind, hid in GREEDY_IDS.items():
        r = suggest(p, hid)
        assert (r.choice.names, r.fallback_lex) == replay_greedy(p, kind), hid


# ------------------------------------------------------- report contracts


def run_direct(p, hid):
    """One heuristic through its table row, with no workspace of its own."""
    hid = HeuristicId(hid)
    family, args = _HEURISTICS[hid]
    return family(p, hid, *args)


def test_suggest_dispatch_and_timing():
    p = gen("21", seed=41)
    r = suggest(p, "s-tti")
    assert r.id is HeuristicId.S_TTI
    assert r.choice == run_direct(p, "s-tti").choice
    assert r.elapsed > 0
    assert suggest(p, HeuristicId.BROWN).choice == suggest(p, "brown").choice
    assert set(_HEURISTICS) == set(HeuristicId)
    with pytest.raises(ValueError):
        suggest(p, "fastest")


def report_fields(r):
    return {f.name: getattr(r, f.name) for f in fields(r) if f.name != "elapsed"}


@settings(max_examples=30, deadline=None)
@given(
    nvars=st.integers(1, 4),
    label=st.sampled_from(["0", "1", "2", "00", "10", "20", "11", "12", "21", "22"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_workspace_changes_no_report(nvars, label, seed):
    p = gen(label, seed, n_vars=nvars, max_tdeg=2, terms=2)
    for hid in ALL_IDS:
        direct = run_direct(p, hid)
        assert projection._OPEN.get() is None
        assert report_fields(suggest(p, hid)) == report_fields(direct), hid


def test_suggest_opens_one_workspace_per_call_and_always_drops_it(monkeypatch):
    seen = []
    squarefree_part = projection.squarefree_part

    def spy(f):
        seen.append(projection._OPEN.get())
        return squarefree_part(f)

    monkeypatch.setattr(projection, "squarefree_part", spy)
    p = gen("21", seed=41)
    suggest(p, "sotd")
    suggest(p, "gs")
    assert projection._OPEN.get() is None
    assert None not in seen and len({id(ws) for ws in seen}) == 2

    with pytest.raises(OrderingCapError):
        suggest(gen("0", seed=3, n_vars=9, max_tdeg=2, terms=2), "sotd")
    assert projection._OPEN.get() is None

    def broken(f, g, v):
        assert projection._OPEN.get() is not None
        raise ArithmeticError("resultant failed")

    monkeypatch.setattr(projection, "resultant", broken)
    with pytest.raises(ArithmeticError):
        suggest(p, "sotd")
    assert projection._OPEN.get() is None


@pytest.mark.parametrize("kind", ["full", "tti"])
def test_greedy_reuses_the_stages_of_a_search_in_the_same_workspace(kind, monkeypatch):
    p = gen("21", seed=41)
    calls = []
    for name in ("mccallum_project", "ttiprojection"):
        def counted(*args, op=getattr(projection, name), name=name):
            calls.append(name)
            return op(*args)

        monkeypatch.setattr(projection, name, counted)
    with projection.Workspace():
        run_direct(p, SEARCH_IDS["sotd", kind])
        assert calls
        calls.clear()
        r = run_direct(p, GREEDY_IDS[kind])
        assert calls == []
        a = projection.project_cascade(p, p.ordering("x>y>z"), kind)
        b = projection.project_cascade(p, p.ordering("x>z>y"), kind)
        assert a[0] is b[0]
        assert calls == []
    assert r.choice == suggest(p, GREEDY_IDS[kind]).choice
    if kind == "full":  # only full cascades have a tiebreak heuristic
        p = gen("20", seed=2)
        with projection.Workspace():
            run_direct(p, "ndrr")
            calls.clear()
            r = run_direct(p, "ns")
        assert r.tiebreaks_used == ("sotd",)
        assert calls == []


def test_choices_are_permutations_and_replays_are_identical():
    for label, seed in (("00", 51), ("22", 52)):
        p = gen(label, seed)
        for hid in ALL_IDS:
            a = suggest(p, hid)
            b = suggest(p, hid)
            assert sorted(v.name for v in a.choice.variables) == ["x", "y", "z"]
            assert a.choice == b.choice
            assert a.tiebreaks_used == b.tiebreaks_used
            assert a.fallback_lex == b.fallback_lex
            assert a.notes == b.notes
            assert a.candidates == b.candidates


def test_choices_are_invariant_under_constant_scaling():
    p = gen("21", seed=61)
    scaled_qffs = []
    for i, qff in enumerate(p.qffs):
        scale = (3, -2)[i % 2]
        scaled_qffs.append(
            QFF(tuple(Constraint(c.poly * scale, c.relop) for c in qff.constraints))
        )
    q = Problem(p.variables, tuple(scaled_qffs))
    for hid in ALL_IDS:
        assert suggest(p, hid).choice == suggest(q, hid).choice, hid


def rename_problem(p, sigma, new_names):
    """sigma maps old variable index -> new index; declaration follows the
    new indices, so the renamed problem's lexicographic fallback differs."""
    n = p.nvars
    inverse = {sigma[k]: k for k in range(n)}

    def remap(f):
        terms = {}
        for e, c in f.terms.items():
            e2 = tuple(e[inverse[j]] for j in range(n))
            terms[e2] = c
        return Polynomial(n, terms)

    variables = tuple(Variable(new_names[j], j) for j in range(n))
    qffs = tuple(
        QFF(tuple(Constraint(remap(c.poly), c.relop) for c in qff.constraints))
        for qff in p.qffs
    )
    return Problem(variables, qffs)


def test_choices_are_equivariant_under_renaming():
    p = gen("11", seed=62)
    sigma = {0: 2, 1: 0, 2: 1}
    new_names = ("a", "b", "c")
    q = rename_problem(p, sigma, new_names)
    for hid in ALL_IDS:
        rp = suggest(p, hid)
        rq = suggest(q, hid)
        assert rp.fallback_lex == rq.fallback_lex, hid
        if not rp.fallback_lex:
            expected = tuple(new_names[sigma[v.index]] for v in rp.choice.variables)
            assert rq.choice.names == expected, hid
