"""Savings arithmetic, cost-table ingestion, and CSV round-trips."""

import csv
import itertools
import math
import re
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import naive_csv_texts, naive_savings

from cadorder import harness
from cadorder.formula import Constraint, Problem, QFF, Relop, Variable
from cadorder.generator import GenParams, random_problem
from cadorder.harness import (
    ChoiceRow,
    CostTable,
    HarnessInputError,
    _ratio,
    compute_savings,
    default_group_of,
    format_pct,
    read_choices,
    read_records,
    run_sweep,
    write_aggregate,
    write_choices,
    write_savings,
    write_summary,
)
from cadorder.heuristics import HeuristicId
from cadorder.polys import Polynomial

COSTS_CSV = """problem_id,ordering,cells,time_s
10-000,x>y,100,1.0
10-000,y>x,300,3.0
20-000,x>y,200,2.0
20-000,y>x,200,2.0
"""

CHOICES = [
    ChoiceRow("10-000", "brown", "x>y", 0.0, False),
    ChoiceRow("10-000", "ndrr", "y>x", 0.5, False),
    ChoiceRow("20-000", "brown", "x>y", 0.0, True),
    ChoiceRow("20-000", "ndrr", "y>x", 0.0, False),
]


def load_costs(tmp_path, text=COSTS_CSV):
    path = tmp_path / "costs.csv"
    path.write_text(text)
    return CostTable.load(path)


# ------------------------------------------------------------- formatting


def test_format_pct_rounds_half_to_even_at_one_decimal():
    assert format_pct(Fraction(1, 2)) == "0.5"
    assert format_pct(Fraction(1, 4)) == "0.2"
    assert format_pct(Fraction(35, 100)) == "0.4"
    assert format_pct(Fraction(-1, 4)) == "-0.2"
    assert format_pct(Fraction(50)) == "50.0"
    assert format_pct(Fraction(-75)) == "-75.0"
    assert format_pct(Fraction(0)) == "0.0"


def test_default_group_is_the_id_prefix():
    assert default_group_of("10-000") == "10"
    assert default_group_of("22-17") == "22"
    assert default_group_of("nodash") == "nodash"


# --------------------------------------------------------- golden savings


def test_savings_golden_fixture(tmp_path):
    costs = load_costs(tmp_path)
    savings, aggregate, summary, exclusions = compute_savings(costs, CHOICES)
    assert exclusions == []

    by_key = {(s.problem_id, s.heuristic): s for s in savings}
    s = by_key[("10-000", "brown")]
    assert (s.cell_saving_pct, s.time_saving_pct) == (Fraction(50), Fraction(50))
    s = by_key[("10-000", "ndrr")]
    assert (s.cell_saving_pct, s.time_saving_pct) == (Fraction(-50), Fraction(-75))
    s = by_key[("20-000", "brown")]
    assert (s.cell_saving_pct, s.time_saving_pct) == (Fraction(0), Fraction(0))

    assert aggregate == [
        ("10", "brown", Fraction(50), Fraction(50)),
        ("10", "ndrr", Fraction(-50), Fraction(-75)),
        ("20", "brown", Fraction(0), Fraction(0)),
        ("20", "ndrr", Fraction(0), Fraction(0)),
        ("all", "brown", Fraction(25), Fraction(25)),
        ("all", "ndrr", Fraction(-25), Fraction(-75, 2)),
    ]

    assert [r["group"] for r in summary] == ["10", "20"]  # no overall row
    row = summary[0]
    assert row["problems"] == 1
    assert row["mean_cells"] == Fraction(200)
    assert row["median_cells"] == Fraction(200)
    assert row["median_problem_mean_cells"] == Fraction(200)
    assert row["mean_time_s"] == Fraction(2)


def test_aggregate_rows_are_means_of_their_savings_rows(tmp_path):
    costs = load_costs(tmp_path)
    savings, aggregate, _, _ = compute_savings(costs, CHOICES)
    for group, heuristic, cell, time_ in aggregate:
        rows = [
            s for s in savings
            if s.heuristic == heuristic
            and (group == "all" or default_group_of(s.problem_id) == group)
        ]
        assert cell == sum(r.cell_saving_pct for r in rows) / len(rows)
        assert time_ == sum(r.time_saving_pct for r in rows) / len(rows)


def test_written_csvs_for_golden_fixture(tmp_path):
    costs = load_costs(tmp_path)
    savings, aggregate, summary, _ = compute_savings(costs, CHOICES)
    write_savings(savings, tmp_path / "savings.csv")
    write_aggregate(aggregate, tmp_path / "aggregate.csv")
    write_summary(summary, tmp_path / "summary.csv")
    assert (tmp_path / "savings.csv").read_text() == (
        "problem_id,heuristic,ordering,cell_saving_pct,time_saving_pct\n"
        "10-000,brown,x>y,50.0,50.0\n"
        "10-000,ndrr,y>x,-50.0,-75.0\n"
        "20-000,brown,x>y,0.0,0.0\n"
        "20-000,ndrr,y>x,0.0,0.0\n"
    )
    assert (tmp_path / "aggregate.csv").read_text() == (
        "group,heuristic,mean_cell_saving_pct,mean_time_saving_pct\n"
        "10,brown,50.0,50.0\n"
        "10,ndrr,-50.0,-75.0\n"
        "20,brown,0.0,0.0\n"
        "20,ndrr,0.0,0.0\n"
        "all,brown,25.0,25.0\n"
        "all,ndrr,-25.0,-37.5\n"
    )
    assert (tmp_path / "summary.csv").read_text() == (
        "group,problems,mean_cells,median_cells,median_problem_mean_cells,"
        "mean_time_s,median_time_s,median_problem_mean_time_s\n"
        "10,1,200.00,200.00,200.00,2.00,2.00,2.00\n"
        "20,1,200.00,200.00,200.00,2.00,2.00,2.00\n"
    )


# ------------------------------------------------------------- exclusions


def test_non_ok_choices_are_excluded_not_scored(tmp_path):
    costs = load_costs(tmp_path)
    choices = CHOICES + [
        ChoiceRow("10-000", "sotd", "", 0.0, False, "ordering-cap-exceeded")
    ]
    savings, _, _, exclusions = compute_savings(costs, choices)
    assert len(savings) == 4
    assert exclusions == ["10-000/sotd: status ordering-cap-exceeded"]


def test_partial_problems_are_excluded_everywhere(tmp_path):
    text = COSTS_CSV + "30-000,x>y,50,0.5\n"  # y>x missing: partial
    costs = load_costs(tmp_path, text)
    assert costs.partial == {"30-000"}
    choices = CHOICES + [ChoiceRow("30-000", "brown", "x>y", 0.0, False)]
    savings, aggregate, summary, exclusions = compute_savings(costs, choices)
    assert exclusions == ["30-000/brown: partial cost table"]
    assert all(s.problem_id != "30-000" for s in savings)
    assert all(g != "30" for g, *_ in aggregate)
    assert all(r["group"] != "30" for r in summary)


# ----------------------------------------------------------- input errors


def test_missing_problem_and_missing_ordering_are_errors(tmp_path):
    costs = load_costs(tmp_path)
    with pytest.raises(HarnessInputError, match="no cost rows"):
        compute_savings(costs, [ChoiceRow("99-000", "brown", "x>y", 0.0, False)])
    with pytest.raises(HarnessInputError, match="y>x>z.*10-000"):
        compute_savings(costs, [ChoiceRow("10-000", "brown", "y>x>z", 0.0, False)])


def test_zero_average_cost_is_an_error(tmp_path):
    text = (
        "problem_id,ordering,cells,time_s\n"
        "p,x>y,0,1.0\n"
        "p,y>x,0,1.0\n"
    )
    costs = load_costs(tmp_path, text)
    with pytest.raises(HarnessInputError, match="zero average"):
        compute_savings(costs, [ChoiceRow("p", "brown", "x>y", 0.0, False)])


@pytest.mark.parametrize(
    "text, match",
    [
        ("problem_id,ordering,cells\np,x>y,1\n", "expected columns"),
        ("problem_id,ordering,cells,time_s\np,x>y,ten,1.0\n", "bad numeric"),
        ("problem_id,ordering,cells,time_s\np,x>y,-1,1.0\n", "negative"),
        (
            "problem_id,ordering,cells,time_s\np,x>y,1,1.0\np,x>y,2,2.0\n",
            "duplicate",
        ),
        (
            "problem_id,ordering,cells,time_s\np,x>y,1,1.0\np,x>y>z,1,1.0\n",
            "mixes orderings",
        ),
        (
            "problem_id,ordering,cells,time_s\np1,x>y,10,1.0\np1,x>x,30,3.0\n",
            "bad.csv:3: ordering x>x repeats a variable",
        ),
        (
            "problem_id,ordering,cells,time_s\np1,x>y,10,1.0\np1,y>z,30,3.0\n",
            "bad.csv: problem p1 has orderings over different variable sets",
        ),
        ("problem_id,ordering,cells,time_s\np,x>y,1,1.0\np,y>x,1\n", "bad.csv:3: fewer fields"),
        ("problem_id,ordering,cells,time_s\n\np,x>y,1,1.0\np,y>x,ten,1.0\n", "bad.csv:4: bad numeric"),
        ("problem_id,ordering,cells,time_s\np,x>y,1,1/0\n", "bad.csv:2: bad numeric"),
        ("problem_id,ordering,cells,time_s\np,x>y,1,1.2.3\n", "bad.csv:2: bad numeric"),
        ("problem_id,ordering,cells,time_s\np,x>y,1,\n", "bad.csv:2: bad numeric"),
        ("problem_id,ordering,cells,time_s\np,x>y,1,-0.5\n", "bad.csv:2: negative"),
    ],
)
def test_cost_table_load_rejects_malformed_input(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(HarnessInputError, match=match):
        CostTable.load(path)


def test_cost_table_holds_integer_ticks_at_one_scale(tmp_path):
    costs = load_costs(tmp_path, "problem_id,ordering,cells,time_s\n"
                       "p,x>y,1,0.125\np,y>x,2,1/3\nq,x>y,3,2\nq,y>x,4,1e-3\n")
    assert costs.scale == 3000
    assert costs.rows == {"p": {"x>y": (1, 375), "y>x": (2, 1000)},
                          "q": {"x>y": (3, 6000), "y>x": (4, 3)}}


CHOICES_HEADER = "problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status\n"


@pytest.mark.parametrize(
    "text, match",
    [
        ("problem_id,heuristic\np,brown\n", "expected columns"),
        (CHOICES_HEADER + "p,brown,x>y,fast,false,ok\n", "bad heuristic_time_s 'fast'"),
        (CHOICES_HEADER + "p,brown,x>y,nan,false,ok\n", "2: bad heuristic_time_s 'nan'"),
        (CHOICES_HEADER + "p,brown,x>y,inf,false,ok\n", "2: bad heuristic_time_s 'inf'"),
        (
            CHOICES_HEADER + "p,brown,x>y,0.5,false,ok\np,sotd,x>y,-0.5,false,ok\n",
            "3: bad heuristic_time_s '-0.5'",
        ),
        (CHOICES_HEADER + "p1\n", "choices.csv:2: fewer fields"),
        (
            CHOICES_HEADER + "p,brown,x>y,0.5,false,ok\np,sotd,x>y,0.5,false,ok\n"
            "p,brown,y>x,0.5,false,ok\n",
            "choices.csv:4: duplicate row for p / brown",
        ),
        (CHOICES_HEADER + "p,brown,x>y,0.5,yes,ok\n", "choices.csv:2: bad fallback_lex 'yes'"),
        (
            CHOICES_HEADER + "p,brown,x>y,0.5,true,ok\np,sotd,x>y,0.5,True,ok\n",
            "choices.csv:3: bad fallback_lex 'True'",
        ),
        (CHOICES_HEADER + "p,brown,x>y,0.5,,ok\n", "choices.csv:2: bad fallback_lex ''"),
        (CHOICES_HEADER + "p,brown,x>y,,false,ok\n", "choices.csv:2: bad heuristic_time_s ''"),
    ],
    ids=["columns", "word", "nan", "inf", "negative", "short", "duplicate",
         "fallback-word", "fallback-case", "fallback-empty", "time-blank"],
)
def test_read_choices_validates(tmp_path, text, match):
    path = tmp_path / "choices.csv"
    path.write_text(text)
    with pytest.raises(HarnessInputError, match=match):
        read_choices(path)


def test_read_records_reads_as_dict_reader(tmp_path):
    # values in the order asked, blank lines skipped, extra fields ignored,
    # a repeated column's last value kept, and a quoted line break counted
    # in the line number
    text = 'a,b,a\n1,2,3\n\n\n4,5,6,7\n"8\n9",10,11\n'
    path = tmp_path / "records.csv"
    path.write_text(text)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = [(reader.line_num, (rec["b"], rec["a"])) for rec in reader]
    assert list(read_records(path, ("b", "a"))) == expected
    assert expected == [(2, ("2", "3")), (5, ("5", "6")), (7, ("10", "11"))]
    # one column is still a tuple, and the columns may be any iterable
    assert list(read_records(path, iter(["a"]))) == [(2, ("3",)), (5, ("6",)), (7, ("11",))]


# Spellings that Fraction accepts or rejects besides plain decimals: signs,
# spaces, underscores, a bare point, exponents, ratios, non-ASCII digits.
ODD_SPELLINGS = [
    " 1.5", "1.5\n", "+2", "-0", "-0.25", "1_000", "1_0.5", "1__0", ".5", "5.", ".",
    "1e-3", "2.5E+2", "1e", "1/3", "4/6", " 1/3 ", "1 / 3", "1/0", "0/0", "1.2.3",
    "\u0661\u0662", "\u0663.\u0665", "\u00b2", "\uff11", "", "-", "abc", "nan", "inf",
    "0x10", "1,5",
]


@settings(max_examples=300)
@given(st.one_of(
    st.from_regex(r"[0-9]{1,30}(\.[0-9]{1,30})?", fullmatch=True),
    st.sampled_from(ODD_SPELLINGS),
    st.text("0123456789._+-/eE \u0661\u00b2", max_size=8),
))
def test_ratio_reads_as_fraction(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _ratio(text)
    else:
        num, den = _ratio(text)
        assert type(num) is int and type(den) is int and den > 0
        assert Fraction(num, den) == want


@given(st.one_of(st.sampled_from([0.0, 1e-07, 5e-324, 1e22, 0.1, 1e16, 123456.789]),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_ratio_of_a_float_repr_is_its_decimal(t):
    assert Fraction(*_ratio(repr(t))) == Fraction(*Decimal(repr(t)).as_integer_ratio())


def test_repeated_choice_rows_are_errors(tmp_path):
    costs = load_costs(tmp_path)
    # Scored on their own, these would read +50.0 and -50.0 and average 0.0.
    both = [ChoiceRow("10-000", "brown", "x>y", 0.0, False),
            ChoiceRow("10-000", "ndrr", "x>y", 0.0, False),
            ChoiceRow("10-000", "brown", "y>x", 0.0, False)]
    with pytest.raises(HarnessInputError, match="duplicate choice row for 10-000 / brown"):
        compute_savings(costs, both)
    failed = ChoiceRow("10-000", "brown", "", 0.0, False, "error: boom")
    with pytest.raises(HarnessInputError, match="duplicate"):
        compute_savings(costs, [failed, CHOICES[0]])


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_heuristic_time_is_an_error(tmp_path, t):
    costs = load_costs(tmp_path)
    with pytest.raises(HarnessInputError, match="10-000/brown: heuristic time .* not finite"):
        compute_savings(costs, [ChoiceRow("10-000", "brown", "x>y", t, False)])


def test_all_block_adds_the_group_sums(tmp_path):
    costs = load_costs(tmp_path)
    labels = {"10-000": "a", "20-000": "b"}
    _, aggregate, _, _ = compute_savings(costs, CHOICES[:1] + CHOICES[2:3], labels.get)
    assert aggregate == [("a", "brown", 50, 50), ("b", "brown", 0, 0),
                         ("all", "brown", 25, 25)]
    labels["10-000"] = "all"
    with pytest.raises(HarnessInputError, match="10-000 is in a group named 'all'"):
        compute_savings(costs, CHOICES, labels.get)


def test_savings_rows_hold_reduced_integer_ratios(tmp_path):
    costs = load_costs(tmp_path)
    savings, _, _, _ = compute_savings(costs, CHOICES)
    row = savings[1]  # 10-000 ndrr: -50% cells, -75% time
    assert (row.cell_saving, row.time_saving) == ((-50, 1), (-75, 1))
    assert row.time_saving_pct == Fraction(-75)
    with pytest.raises(AttributeError):
        row.cell_saving = (0, 1)
    assert not hasattr(row, "__dict__") and not hasattr(CHOICES[0], "__dict__")


def test_eval_keeps_one_object_per_distinct_value(tmp_path):
    path = tmp_path / "choices.csv"
    path.write_text(CHOICES_HEADER + "10-000,brown,x>y,0.0,false,ok\n"
                    "10-000,ndrr,x>y,0.5,false,ok\n20-000,brown,x>y,0.0,true,ok\n"
                    "20-000,ndrr,y>x,0.0,false,ok\n")
    rows = read_choices(path)
    assert rows[0].problem_id is rows[1].problem_id
    assert rows[2].problem_id is rows[3].problem_id
    assert rows[0].heuristic is rows[2].heuristic and rows[1].heuristic is rows[3].heuristic
    assert rows[0].ordering is rows[1].ordering is rows[2].ordering
    assert rows[0].status is rows[3].status
    costs = load_costs(tmp_path)
    assert all(a is b for a, b in zip(costs.rows["10-000"], costs.rows["20-000"]))
    savings, _, _, _ = compute_savings(costs, rows)
    # both choices of 10-000 are x>y: one cell saving, a time saving each
    assert savings[0].cell_saving is savings[1].cell_saving
    assert (savings[0].time_saving, savings[1].time_saving) == ((50, 1), (25, 1))


# ------------------------------------------------ differential: exact eval

TIMES = st.one_of(
    st.integers(0, 9).map(str),
    st.builds(lambda k, places: f"{k // 10 ** places}.{k % 10 ** places:0{places}d}",
              st.integers(0, 4000), st.integers(1, 3)),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(0, 20), st.integers(1, 9)),
    st.sampled_from(["0.50", ".5", "2.", "1e-3", "2.5E+1"]),
)
HEURISTIC_TIMES = st.one_of(
    st.sampled_from([0.0, 0.005, 0.125, 0.5, 0.995, 2.0, 1e-07, 5e-324, 1e+16]),
    st.floats(0, 5, allow_nan=False),
)


@st.composite
def studies(draw):
    """(costs.csv text, choices) over 2- and 3-variable problems, some partial."""
    lines = ["problem_id,ordering,cells,time_s"]
    choices = []
    for k in range(draw(st.integers(1, 5))):
        pid = f"{draw(st.sampled_from(['10', '20']))}-{k:03d}"
        names = ("x", "y", "z")[: draw(st.sampled_from([2, 3]))]
        orderings = [">".join(p) for p in itertools.permutations(names)]
        if draw(st.integers(0, 3)) == 0:
            orderings = orderings[:-1]  # partial
        cells = [draw(st.integers(0, 400)) for _ in orderings]
        times = [draw(TIMES) for _ in orderings]
        cells[0] += not any(cells)
        times[0] = times[0] if any(Fraction(t) for t in times) else "1"
        lines += [f"{pid},{o},{c},{t}" for o, c, t in zip(orderings, cells, times)]
        for h in draw(st.lists(st.sampled_from(["brown", "ndrr", "sotd"]),
                               min_size=1, max_size=3, unique=True)):
            choices.append(ChoiceRow(
                pid, h, draw(st.sampled_from(orderings)), draw(HEURISTIC_TIMES), False,
                draw(st.sampled_from(["ok", "ok", "ok", "error: boom"])),
            ))
    return "\n".join(lines) + "\n", choices


# Savings of exactly 0.25, -31.25 and 0.35 (ties at one decimal), medians of
# 0.125, 1.0625 and 0.375 (ties at two decimals), a rational time, negative
# savings and a partial problem, with 2- and 3-variable problems in group 10.
TIES = (
    "problem_id,ordering,cells,time_s\n"
    "10-000,x>y,399,1\n10-000,y>x,401,3\n"
    + "".join(f"10-001,{o},{c},0.125\n" for o, c in zip(
        (">".join(p) for p in itertools.permutations("xyz")), (5, 5, 5, 5, 5, 7)))
    + "20-000,x>y,1993,1/3\n20-000,y>x,2007,2.5\n"
    "20-001,x>y,10,0.375\n20-001,y>x,10,0.375\n"
    "30-000,x>y,1,1\n",
    [
        ChoiceRow("10-000", "brown", "x>y", 0.995, False),
        ChoiceRow("10-000", "ndrr", "y>x", 0.5, False),
        ChoiceRow("10-001", "brown", "z>y>x", 0.0, False),
        ChoiceRow("20-000", "brown", "x>y", 0.0, False),
        ChoiceRow("30-000", "brown", "x>y", 0.0, False),
    ],
)


def fraction_costs(text: str):
    """The cost rows {problem: {ordering: (cells, Fraction time)}} and the
    partial problems of costs.csv text, read with Fraction alone."""
    rows: dict[str, dict[str, tuple[int, Fraction]]] = {}
    for pid, ordering, cells, time_s in csv.reader(text.splitlines()[1:]):
        rows.setdefault(pid, {})[ordering] = (int(cells), Fraction(time_s))
    partial = {pid for pid, per in rows.items()
               if len(per) != math.factorial(len(next(iter(per)).split(">")))}
    return rows, partial


@settings(max_examples=150, deadline=None)
@given(studies())
@example(TIES)
def test_exact_eval_matches_per_row_fraction_oracle(study):
    text, choices = study
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "costs.csv").write_text(text)
        costs = CostTable.load(tmp / "costs.csv")
        savings, aggregate, summary, _ = compute_savings(costs, choices)
        want = naive_savings(*fraction_costs(text), choices, default_group_of)
        got = (
            [(s.problem_id, s.heuristic, s.ordering, s.cell_saving_pct, s.time_saving_pct)
             for s in savings],
            aggregate,
            summary,
        )
        assert got == want
        values = [v for *_, c, t in got[0] + got[1] for v in (c, t)]
        values += [v for r in summary for k, v in r.items() if k not in ("group", "problems")]
        assert all(type(v) is Fraction for v in values)
        write_savings(savings, tmp / "savings.csv")
        write_aggregate(aggregate, tmp / "aggregate.csv")
        write_summary(summary, tmp / "summary.csv")
        written = tuple((tmp / n).read_text()
                        for n in ("savings.csv", "aggregate.csv", "summary.csv"))
        assert written == naive_csv_texts(*want)


# ------------------------------------------------------------------ sweep


def test_sweep_rows_and_choice_roundtrip(tmp_path):
    params = GenParams(n_vars=3, max_tdeg=3, terms=3, coeff_bound=10, seed=77)
    corpus = [("11-000", random_problem("11", params, 0))]
    rows = run_sweep(corpus, list(HeuristicId))
    assert len(rows) == 12
    assert [r.heuristic for r in rows] == sorted(h.value for h in HeuristicId)
    assert all(r.status == "ok" and r.ordering.count(">") == 2 for r in rows)

    again = run_sweep(corpus, list(HeuristicId))
    strip = lambda rs: [(r.problem_id, r.heuristic, r.ordering, r.fallback_lex, r.status) for r in rs]
    assert strip(rows) == strip(again)

    path = tmp_path / "choices.csv"
    write_choices(rows, path)
    back = read_choices(path)
    assert strip(back) == strip(rows)
    assert all(abs(a.heuristic_time_s - b.heuristic_time_s) < 1e-6 for a, b in zip(back, rows))


def test_sweep_records_cap_failures_and_continues():
    n = 9
    variables = tuple(Variable(f"x{i + 1}", i) for i in range(n))
    f = Polynomial.var(n, 0) * Polynomial.var(n, 8) - 1
    big = Problem(variables, (QFF((Constraint(f, Relop.LT),)),))
    rows = run_sweep(
        [("big-000", big)], [HeuristicId.SOTD, HeuristicId.BROWN]
    )
    by_h = {r.heuristic: r for r in rows}
    assert by_h["sotd"].status == "ordering-cap-exceeded"
    assert by_h["sotd"].ordering == ""
    assert by_h["brown"].status == "ok"


def test_sweep_records_other_failures_and_continues(monkeypatch):
    suggest = harness.suggest

    def failing(problem, hid):
        if hid is HeuristicId.NDRR:
            raise ArithmeticError("boom")
        return suggest(problem, hid)

    monkeypatch.setattr(harness, "suggest", failing)
    params = GenParams(n_vars=2, max_tdeg=2, terms=2, coeff_bound=5, seed=5)
    corpus = [(f"10-00{i}", random_problem("10", params, i)) for i in (1, 0)]
    hids = [HeuristicId.SOTD, HeuristicId.NDRR, HeuristicId.BROWN]
    rows = run_sweep(corpus, hids)
    assert [(r.problem_id, r.heuristic) for r in rows] == sorted(
        (pid, h.value) for pid, _ in corpus for h in hids
    )
    for r in rows:
        if r.heuristic == "ndrr":
            assert r[2:] == ("", 0.0, False, "error: boom")
        else:
            assert r.status == "ok" and r.ordering.count(">") == 1
