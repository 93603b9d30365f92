"""Release acceptance checklist.

One test per shipping criterion.  Run ``pytest tests/test_acceptance.py -v``
to get a single PASSED/FAILED line per criterion.  Corpora are seeded and
sized so the whole file finishes in a few minutes; the two oracle criteria
and the end-to-end criterion also assert their wall-clock budgets.
"""

import csv
import random
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from cadorder import cli
from cadorder.formula import Constraint, Problem, QFF, Relop, Variable
from cadorder.generator import GenParams, generate_corpus, random_polynomial
from cadorder.harness import ChoiceRow, CostTable, compute_savings, write_aggregate
from cadorder.heuristics import HeuristicId, suggest
from cadorder.polys import Polynomial, resultant
from cadorder.projection import mccallum_project, normalize_set, project_cascade
from cadorder.realroots import count_real_roots

from oracles import SEARCH_IDS, dense_coeffs, descartes_root_count, naive_search, sylvester_resultant

LABELS = ["00", "10", "20", "11", "12", "22"]
FIXTURES = Path(__file__).parent / "fixtures"


def upoly(*coeffs):
    return Polynomial(1, {(i,): c for i, c in enumerate(coeffs) if c})


def strip_relops(p):
    """Same polynomials, every constraint an inequality (no ECs anywhere)."""
    qffs = tuple(
        QFF(tuple(Constraint(c.poly, Relop.LT) for c in qff.constraints))
        for qff in p.qffs
    )
    return Problem(p.variables, qffs)


def rename_problem(p, sigma, new_names):
    n = p.nvars
    inverse = {sigma[k]: k for k in range(n)}

    def remap(f):
        return Polynomial(
            n, {tuple(e[inverse[j]] for j in range(n)): c for e, c in f.terms.items()}
        )

    variables = tuple(Variable(new_names[j], j) for j in range(n))
    qffs = tuple(
        QFF(tuple(Constraint(remap(c.poly), c.relop) for c in qff.constraints))
        for qff in p.qffs
    )
    return Problem(variables, qffs)


def scale_problem(p):
    qffs = []
    for i, qff in enumerate(p.qffs):
        scale = (3, -2)[i % 2]
        qffs.append(
            QFF(tuple(Constraint(c.poly * scale, c.relop) for c in qff.constraints))
        )
    return Problem(p.variables, tuple(qffs))


@pytest.fixture(scope="module")
def corpus60():
    params = GenParams(n_vars=3, max_tdeg=3, terms=2, coeff_bound=10, seed=2026)
    corpus = generate_corpus(LABELS, 10, params)
    assert len(corpus) == 60
    return [(f"{label}-{i}", label, p) for i, (label, p) in enumerate(corpus)]


@pytest.fixture(scope="module")
def reports(corpus60):
    return {
        (pid, hid): suggest(p, hid)
        for pid, _, p in corpus60
        for hid in HeuristicId
    }


def test_criterion_01_resultant_equals_sylvester_cofactor_oracle():
    start = time.perf_counter()
    checked = 0
    for nvars in (1, 2, 3):
        params = GenParams(n_vars=nvars, max_tdeg=4, terms=3, coeff_bound=10, seed=5)
        rng = random.Random(1000 + nvars)
        for _ in range(34):
            f = random_polynomial(params, rng)
            g = random_polynomial(params, rng)
            for v in range(nvars):
                assert f.degree(v) <= 4 and g.degree(v) <= 4
            assert resultant(f, g, 0) == sylvester_resultant(f, g, 0)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 100
    assert elapsed < 10.0


def test_criterion_02_root_counts_match_descartes_bisection_oracle():
    start = time.perf_counter()
    rng = random.Random(20)
    for _ in range(200):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)]
        lead = 0
        while lead == 0:
            lead = rng.randint(-50, 50)
        f = upoly(*coeffs, lead)
        assert count_real_roots(f) == descartes_root_count(dense_coeffs(f, 0))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_criterion_03_projection_laws_hold_over_fifty_problems():
    params = GenParams(n_vars=3, max_tdeg=3, terms=3, coeff_bound=10, seed=303)
    corpus = generate_corpus(LABELS, 9, params)
    assert len(corpus) >= 50
    all_orderings = [">".join(p) for p in permutations("xyz")]
    for i, (label, p) in enumerate(corpus):
        ordering = p.ordering(all_orderings[i % 6])
        for kind in ("full", "tti"):
            cascade = project_cascade(p, ordering, kind)
            for k, stage in enumerate(cascade):
                allowed = {v.index for v in ordering.variables[k + 1:]}
                for f in stage:
                    assert f.variables() <= allowed
                assert normalize_set(stage) == stage
            assert all(len(f.variables()) <= 1 for f in cascade[-1])

        ec_free = strip_relops(p)
        full = project_cascade(ec_free, ordering, "full")
        tti = project_cascade(ec_free, ordering, "tti")
        assert full == tti

        inputs = p.defining_polynomials()
        once = normalize_set(inputs)
        assert normalize_set(once) == once


def test_criterion_04_heuristics_deterministic_and_metamorphic(corpus60, reports):
    names3 = ("x", "y", "z")
    sigma = {0: 2, 1: 0, 2: 1}
    new_names = ("a", "b", "c")
    for pid, _, p in corpus60:
        scaled = scale_problem(p)
        renamed = rename_problem(p, sigma, new_names)
        for hid in HeuristicId:
            r = reports[(pid, hid)]
            assert tuple(sorted(r.choice.names)) == names3, (pid, hid)
            replay = suggest(p, hid)
            assert (replay.choice, replay.fallback_lex) == (r.choice, r.fallback_lex)
            assert suggest(scaled, hid).choice == r.choice, (pid, hid)
            rq = suggest(renamed, hid)
            assert rq.fallback_lex == r.fallback_lex, (pid, hid)
            if not r.fallback_lex:
                expected = tuple(new_names[sigma[v.index]] for v in r.choice.variables)
                assert rq.choice.names == expected, (pid, hid)


def test_criterion_05_searches_match_naive_recomputation():
    corpora = [
        generate_corpus(LABELS, 5, GenParams(3, 3, 2, 7, seed=101)),
        generate_corpus(LABELS, 4, GenParams(3, 2, 3, 7, seed=102)),
    ]
    problems = [p for corpus in corpora for _, p in corpus]
    assert len(problems) >= 50
    for p in problems:
        for (measure, kind), hid in SEARCH_IDS.items():
            names, value = naive_search(p, measure, kind)
            r = suggest(p, hid)
            assert r.choice.names == names
            assert r.candidates[r.choice][measure] == value


def test_criterion_06_degenerate_equivalences(corpus60, reports):
    pairs = [("s-tti", "sotd"), ("n-tti", "ndrr"), ("gs-tti", "gs")]
    ec_free_seen = 0
    for pid, label, _ in corpus60:
        if label != "00":
            continue
        ec_free_seen += 1
        for reduced, full in pairs:
            a = reports[(pid, HeuristicId(reduced))]
            b = reports[(pid, HeuristicId(full))]
            assert (a.choice, a.fallback_lex) == (b.choice, b.fallback_lex), (pid, reduced)
    assert ec_free_seen == 10

    unique_seen = 0
    for primary, chained in (("sotd", "sn"), ("ndrr", "ns")):
        for pid, _, _ in corpus60:
            base = reports[(pid, HeuristicId(primary))]
            vals = [v[primary] for v in base.candidates.values()]
            if vals.count(min(vals)) == 1:
                unique_seen += 1
                chained_r = reports[(pid, HeuristicId(chained))]
                assert chained_r.choice == base.choice, (pid, chained)
    assert unique_seen > 20  # the equivalence was exercised, not vacuous


def test_criterion_07_savings_golden_fixture(tmp_path):
    costs_path = tmp_path / "costs.csv"
    costs_path.write_text(
        "problem_id,ordering,cells,time_s\n"
        "10-000,x>y,100,1.0\n"
        "10-000,y>x,300,3.0\n"
        "20-000,x>y,200,2.0\n"
        "20-000,y>x,200,2.0\n"
    )
    choices = [
        ChoiceRow("10-000", "brown", "x>y", 0.0, False),
        ChoiceRow("10-000", "ndrr", "y>x", 0.5, False),
        ChoiceRow("20-000", "brown", "x>y", 0.0, True),
        ChoiceRow("20-000", "ndrr", "y>x", 0.0, False),
    ]
    savings, aggregate, _, exclusions = compute_savings(CostTable.load(costs_path), choices)
    assert exclusions == []
    by_key = {(s.problem_id, s.heuristic): s for s in savings}
    assert by_key[("10-000", "brown")].cell_saving_pct == Fraction(50)
    assert by_key[("10-000", "brown")].time_saving_pct == Fraction(50)
    assert by_key[("10-000", "ndrr")].cell_saving_pct == Fraction(-50)
    assert by_key[("10-000", "ndrr")].time_saving_pct == Fraction(-75)
    assert by_key[("20-000", "brown")].cell_saving_pct == Fraction(0)

    # grouping scheme: one block per system type, then the combined block
    assert [g for g, *_ in aggregate] == ["10", "10", "20", "20", "all", "all"]
    write_aggregate(aggregate, tmp_path / "aggregate.csv")
    assert (tmp_path / "aggregate.csv").read_text() == (
        "group,heuristic,mean_cell_saving_pct,mean_time_saving_pct\n"
        "10,brown,50.0,50.0\n"
        "10,ndrr,-50.0,-75.0\n"
        "20,brown,0.0,0.0\n"
        "20,ndrr,0.0,0.0\n"
        "all,brown,25.0,25.0\n"
        "all,ndrr,-25.0,-37.5\n"
    )


def _rows_without(path, drop):
    with open(path, newline="") as fh:
        return [
            {k: v for k, v in row.items() if k not in drop}
            for row in csv.DictReader(fh)
        ]


def test_criterion_08_pipeline_deterministic_end_to_end(tmp_path):
    start = time.perf_counter()
    gen_argv = [
        "gen", "--types", ",".join(LABELS), "--count", "1", "--seed", "20260814",
        "--max-tdeg", "3", "--terms", "3", "--coeff-bound", "10",
    ]
    outputs = {}
    for run in ("a", "b"):
        root = tmp_path / run
        assert cli.main(gen_argv + ["--out", str(root / "corpus")]) == 0
        for bundled in sorted((FIXTURES / "corpus").iterdir()):
            assert (root / "corpus" / bundled.name).read_bytes() == bundled.read_bytes()

        choices = root / "choices.csv"
        assert cli.main([
            "sweep", "--corpus", str(FIXTURES / "corpus"),
            "--heuristics", "all", "--out", str(choices),
        ]) == 0
        assert cli.main([
            "eval", "--costs", str(FIXTURES / "costs.csv"),
            "--choices", str(choices), "--out", str(root / "savings.csv"),
            "--manifest", str(FIXTURES / "corpus" / "manifest.csv"),
        ]) == 0
        outputs[run] = {
            "choices": _rows_without(choices, {"heuristic_time_s"}),
            "savings": _rows_without(root / "savings.csv", {"time_saving_pct"}),
            "aggregate": _rows_without(root / "aggregate.csv", {"mean_time_saving_pct"}),
            "summary": (root / "summary.csv").read_bytes(),
        }
    assert outputs["a"] == outputs["b"]
    assert len(outputs["a"]["choices"]) == 72  # 6 problems x 12 heuristics
    assert all(row["status"] == "ok" for row in outputs["a"]["choices"])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_09_worked_example_fixtures():
    x, y, z = (Polynomial.var(3, i) for i in range(3))
    circle, saddle = x**2 + y**2 - 1, x * y - z
    assert resultant(circle, saddle, 0) == z**2 + y**4 - y**2

    projected = mccallum_project([x**2 + y**2 - 1], 0)
    assert projected == {y**2 - 1}

    variables = tuple(Variable(n, i) for i, n in enumerate("xyz"))
    problem = Problem(
        variables,
        (
            QFF((Constraint(x**2 * y + 1, Relop.LT),)),
            QFF((Constraint(y * z - 2, Relop.EQ),)),
        ),
    )
    assert suggest(problem, "brown").choice.names == ("z", "y", "x")
    assert suggest(problem, "triangular").choice.names == ("z", "y", "x")
