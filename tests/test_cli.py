"""End-to-end command line behaviour: exit codes, files written, messages."""

import csv
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from oracles import naive_csv_texts, naive_savings

from cadorder import __version__, cli
from cadorder.harness import ChoiceRow, default_group_of
from cadorder.heuristics import HeuristicId

CIRCLE_PAIR = """\
vars: x,y,z
qff: x^2+y^2-1 < 0, x*y-z < 0
"""


def write_prob(tmp_path, text=CIRCLE_PAIR, name="p.prob"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "cadorder", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"cadorder {__version__}"


# ---------------------------------------------------------------- suggest


def test_suggest_single_heuristic(tmp_path, capsys):
    path = write_prob(tmp_path)
    code, out, err = run(capsys, "suggest", path, "--heuristic", "brown")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "z>x>y"  # x and y tie on every measure, so declaration order
    assert lines[1].startswith("# heuristic=brown fallback_lex=true elapsed_s=")


def test_suggest_all_heuristics(tmp_path, capsys):
    path = write_prob(tmp_path)
    code, out, _ = run(capsys, "suggest", path, "--all")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert {ln.split(":")[0] for ln in lines} == {h.value for h in cli.HeuristicId}
    assert all(ln.split(": ")[1].count(">") == 2 for ln in lines)


def test_suggest_requires_a_heuristic_choice(tmp_path, capsys):
    path = write_prob(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["suggest", path])
    assert exc.value.code == 1


def test_suggest_missing_file(capsys):
    code, _, err = run(capsys, "suggest", "/nonexistent/p.prob", "--heuristic", "brown")
    assert code == 2
    assert err.startswith("error: cannot read /nonexistent/p.prob")


def test_suggest_reports_parse_errors_with_positions(tmp_path, capsys):
    path = write_prob(tmp_path, "vars: x,y\nqff: x^y < 0\nqff: + < 0\n")
    code, _, err = run(capsys, "suggest", path, "--heuristic", "brown")
    assert code == 2
    for line in err.splitlines():
        assert line.startswith("error: line ")
    assert "line 2" in err and "line 3" in err


def test_suggest_over_the_enumeration_cap(tmp_path, capsys):
    names = ",".join(f"x{i}" for i in range(1, 10))
    path = write_prob(tmp_path, f"vars: {names}\nqff: x1*x9-1 < 0\n")
    code, _, err = run(capsys, "suggest", path, "--heuristic", "sotd")
    assert code == 2 and err.startswith("error: ")
    code, out, _ = run(capsys, "suggest", path, "--heuristic", "brown")
    assert code == 0 and out.splitlines()[0].count(">") == 8
    # --all still reports every id, the searches as over the cap, then fails
    code, out, err = run(capsys, "suggest", path, "--all")
    assert code == 2 and err.startswith("error: ") and "cap is 8" in err
    lines = dict(line.split(": ") for line in out.splitlines())
    assert list(lines) == [h.value for h in HeuristicId]
    searches = {"sotd", "ndrr", "sn", "ns", "s-tti", "n-tti"}
    assert {h for h, o in lines.items() if o == "ordering-cap-exceeded"} == searches
    assert all(o.count(">") == 8 for h, o in lines.items() if h not in searches)


def test_internal_errors_exit_3(tmp_path, capsys, monkeypatch):
    def boom(problem, hid):
        raise RuntimeError("wired to fail")

    monkeypatch.setattr(cli, "suggest", boom)
    path = write_prob(tmp_path)
    code, _, err = run(capsys, "suggest", path, "--heuristic", "brown")
    assert code == 3
    assert err == "internal error: RuntimeError: wired to fail\n"


# ---------------------------------------------------------------- measure


def test_measure_prints_cascade_diagnostics(tmp_path, capsys):
    path = write_prob(tmp_path)
    code, out, _ = run(capsys, "measure", path, "--ordering", "z>y>x")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ordering: z>y>x"
    assert "input_polys: 2" in lines
    assert "input_sotd: 7" in lines
    # no equational constraints, so both cascade kinds agree
    for kind in ("full", "tti"):
        assert f"{kind}_cascade_sotd: 16" in lines
        assert f"{kind}_final_ndrr: 3" in lines
        assert f"{kind}_stage level=2 eliminated=z size=2 sotd=6" in lines
        assert f"{kind}_stage level=1 eliminated=y size=2 sotd=3" in lines


def test_measure_rejects_unknown_ordering(tmp_path, capsys):
    path = write_prob(tmp_path)
    code, _, err = run(capsys, "measure", path, "--ordering", "a>b>c")
    assert code == 2 and err.startswith("error: ")


# -------------------------------------------------------------------- gen


def gen_args(out_dir, seed=9):
    return [
        "gen", "--types", "00,10", "--count", "2", "--seed", str(seed),
        "--out", str(out_dir), "--max-tdeg", "3", "--terms", "3",
        "--coeff-bound", "10",
    ]


def test_gen_writes_manifest_and_problems(tmp_path, capsys):
    out = tmp_path / "corpus"
    code, stdout, _ = run(capsys, *gen_args(out))
    assert code == 0
    assert stdout == f"wrote 4 problems to {out}\n"
    with open(out / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["id"] for r in rows] == ["00-000", "00-001", "10-000", "10-001"]
    for r in rows:
        assert (out / r["path"]).exists()
        assert r["label"] == r["id"].split("-")[0]


def test_gen_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *gen_args(a))[0] == 0
    assert run(capsys, *gen_args(b))[0] == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()
    assert run(capsys, *gen_args(tmp_path / "c", seed=10))[0] == 0
    assert (a / "00-000.prob").read_text() != (tmp_path / "c" / "00-000.prob").read_text()


@pytest.mark.parametrize("flag,value", [
    ("--types", "3x"),
    ("--seed", "-1"),
    ("--vars", "0"),
    ("--terms", "0"),
])
def test_gen_rejects_bad_input(tmp_path, capsys, flag, value):
    argv = {"--types": "00", "--count": "1", "--seed": "1", flag: value}
    code, _, err = run(
        capsys, "gen", *(a for kv in argv.items() for a in kv),
        "--out", str(tmp_path / "c"),
    )
    assert code == 2 and err.startswith("error: ")


def test_gen_rejects_a_repeated_type(tmp_path, capsys):
    # a repeat would write problems identical to the first copy's
    out = tmp_path / "c"
    code, _, err = run(capsys, "gen", "--types", "10,10", "--count", "1", "--seed", "3",
                       "--out", str(out))
    assert code == 2
    assert err == "error: system type '10' is given more than once\n"
    assert not out.exists()


# ---------------------------------------------------------- sweep and eval


def test_sweep_eval_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(capsys, *gen_args(corpus))[0] == 0

    choices_path = tmp_path / "choices.csv"
    code, stdout, _ = run(
        capsys, "sweep", "--corpus", str(corpus),
        "--heuristics", "brown,triangular,sotd", "--out", str(choices_path),
    )
    assert code == 0
    assert stdout == f"wrote 12 choices to {choices_path}\n"

    orderings = [">".join(p) for p in permutations("xyz")]
    costs_path = tmp_path / "costs.csv"
    with open(costs_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["problem_id", "ordering", "cells", "time_s"])
        for pid in ("00-000", "00-001", "10-000", "10-001"):
            for i, o in enumerate(orderings):
                w.writerow([pid, o, 100 + 10 * i, f"{1 + i}.0"])

    savings_path = tmp_path / "savings.csv"
    code, stdout, err = run(
        capsys, "eval", "--costs", str(costs_path), "--choices", str(choices_path),
        "--out", str(savings_path), "--manifest", str(corpus / "manifest.csv"),
    )
    assert code == 0 and err == ""
    assert stdout == f"wrote 12 savings rows to {savings_path}\n"
    with open(savings_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    with open(tmp_path / "aggregate.csv", newline="") as fh:
        agg = list(csv.DictReader(fh))
    assert [r["group"] for r in agg] == ["00"] * 3 + ["10"] * 3 + ["all"] * 3
    with open(tmp_path / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [r["group"] for r in summary] == ["00", "10"]
    assert all(r["problems"] == "2" for r in summary)


def test_repeated_heuristic_ids_are_swept_once():
    assert cli._parse_heuristics("brown, sotd,brown") == [HeuristicId.BROWN, HeuristicId.SOTD]


def test_all_is_a_heuristics_token(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(capsys, "gen", "--types", "10,21", "--count", "1", "--seed", "1", "--vars", "2",
               "--max-tdeg", "2", "--terms", "2", "--out", str(corpus))[0] == 0
    written = []
    for spec in ("all", "sotd,all"):
        out = tmp_path / f"{spec}.csv"
        assert run(capsys, "sweep", "--corpus", str(corpus), "--heuristics", spec,
                   "--out", str(out))[0] == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        written.append([{k: v for k, v in r.items() if k != "heuristic_time_s"} for r in rows])
    assert len(written[0]) == 2 * len(HeuristicId)
    assert written[0] == written[1]


def test_sweep_rejects_unknown_heuristic(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(capsys, *gen_args(corpus))[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--corpus", str(corpus), "--heuristics", "bogus",
                  "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 1
    assert "unknown heuristic 'bogus'" in capsys.readouterr().err


def test_sweep_and_eval_reject_a_short_manifest_row(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(capsys, *gen_args(corpus))[0] == 0
    manifest = corpus / "manifest.csv"
    with open(manifest, "a") as fh:
        fh.write("00-009,00\n")
    code, _, err = run(
        capsys, "sweep", "--corpus", str(corpus), "--heuristics", "brown",
        "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2
    assert err == f"error: {manifest}:6: fewer fields than the header\n"
    manifest.write_text("id,label\n00-000\n")
    choices = tmp_path / "choices.csv"
    choices.write_text("problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status\n")
    costs = tmp_path / "costs.csv"
    costs.write_text("problem_id,ordering,cells,time_s\n")
    code, _, err = run(
        capsys, "eval", "--costs", str(costs), "--choices", str(choices),
        "--out", str(tmp_path / "s.csv"), "--manifest", str(manifest),
    )
    assert code == 2
    assert err == f"error: {manifest}:2: fewer fields than the header\n"


def test_sweep_and_eval_reject_a_repeated_manifest_id(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(capsys, *gen_args(corpus))[0] == 0
    manifest = corpus / "manifest.csv"
    first = manifest.read_text().splitlines()[1]
    with open(manifest, "a") as fh:
        fh.write(first + "\n")
    out = tmp_path / "c.csv"
    code, _, err = run(
        capsys, "sweep", "--corpus", str(corpus), "--heuristics", "triangular",
        "--out", str(out),
    )
    assert code == 2
    assert err == f"error: {manifest}:6: repeated id {first.split(',')[0]}\n"
    assert not out.exists()
    # Kept, the second label would put p-000 in group b without a word.
    manifest.write_text("id,label\np-000,a\nq-000,b\np-000,b\n")
    choices = tmp_path / "choices.csv"
    choices.write_text(
        "problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status\n"
        "p-000,brown,x>y,0.0,false,ok\n"
    )
    costs = tmp_path / "costs.csv"
    costs.write_text("problem_id,ordering,cells,time_s\np-000,x>y,10,1.0\np-000,y>x,30,3.0\n")
    code, _, err = run(
        capsys, "eval", "--costs", str(costs), "--choices", str(choices),
        "--out", str(tmp_path / "s.csv"), "--manifest", str(manifest),
    )
    assert code == 2
    assert err == f"error: {manifest}:4: repeated id p-000\n"
    assert not (tmp_path / "s.csv").exists()


# 300 nested parentheses, 1 200 unary minuses: deeper than the interpreter's
# recursion limit allows a recursive-descent parser to go
DEEP_PROBLEMS = {
    "parens.prob": f"vars: x,y\nqff: {'(' * 300}x{')' * 300} = y\n",
    "minuses.prob": f"vars: x,y\nqff: {'-' * 1200}x^2 + y^2 < 1\n",
}


def test_deeply_nested_problems_are_suggested_and_swept(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in DEEP_PROBLEMS.items():
        path = write_prob(corpus, text, name=name)
        assert run(capsys, "suggest", path, "--all")[0] == 0
    out = tmp_path / "choices.csv"
    assert run(capsys, "sweep", "--corpus", str(corpus), "--heuristics", "all",
               "--out", str(out))[0] == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(HeuristicId) == 24
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_on_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(
        capsys, "sweep", "--corpus", str(empty), "--heuristics", "all",
        "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2
    assert err == f"error: no problems found under {empty}\n"


def test_sweep_names_the_malformed_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_prob(corpus, name="a.prob")
    bad = write_prob(corpus, "vars: x,y\nqff: x^2 + $y < 0\n", name="b.prob")
    out = tmp_path / "c.csv"
    code, _, err = run(
        capsys, "sweep", "--corpus", str(corpus), "--heuristics", "brown",
        "--out", str(out),
    )
    assert code == 2
    assert err == f"error: {bad}: line 2, col 12: unexpected character '$'\n"
    assert not out.exists()


def test_eval_reports_exclusions_on_stderr(tmp_path, capsys):
    choices_path = tmp_path / "choices.csv"
    choices_path.write_text(
        "problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status\n"
        "p-000,brown,x>y,0.0,false,ok\n"
        "p-000,sotd,,0.1,false,ordering-cap-exceeded\n"
    )
    costs_path = tmp_path / "costs.csv"
    costs_path.write_text(
        "problem_id,ordering,cells,time_s\np-000,x>y,10,1.0\np-000,y>x,30,3.0\n"
    )
    code, stdout, err = run(
        capsys, "eval", "--costs", str(costs_path), "--choices", str(choices_path),
        "--out", str(tmp_path / "savings.csv"),
    )
    assert code == 0
    assert err == "excluded: p-000/sotd: status ordering-cap-exceeded\n"
    assert stdout == f"wrote 1 savings rows to {tmp_path / 'savings.csv'}\n"


@pytest.mark.parametrize("outputs,clash", [
    (("aggregate.csv",), "aggregate.csv"),  # the default aggregate path is --out
    (("summary.csv",), "summary.csv"),
    (("s.csv", "--aggregate-out", "s.csv"), "s.csv"),
    (("s.csv", "--summary-out", "sub/../a.csv", "--aggregate-out", "a.csv"), "sub/../a.csv"),
])
def test_eval_refuses_two_outputs_at_one_path(tmp_path, capsys, monkeypatch, outputs, clash):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    out, *rest = outputs
    code, stdout, err = run(
        capsys, "eval", "--costs", "missing-costs.csv", "--choices", "missing-choices.csv",
        "--out", out, *rest,
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error: the ") and err.rstrip().endswith("distinct paths")
    assert f"written to {clash};" in err  # refused before the missing inputs are read
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize("choices,outputs,clash", [
    ("c.csv", ("--out", "c.csv"), "the savings CSV would overwrite the --choices input c.csv"),
    ("c.csv", ("--out", "s.csv", "--aggregate-out", "sub/../costs.csv"),
     "the aggregate CSV would overwrite the --costs input sub/../costs.csv"),
    ("c.csv", ("--out", "s.csv", "--summary-out", "manifest.csv"),
     "the summary CSV would overwrite the --manifest input manifest.csv"),
    # the default aggregate.csv next to --out is the choices file
    ("aggregate.csv", ("--out", "s.csv"),
     "the aggregate CSV would overwrite the --choices input aggregate.csv"),
])
def test_eval_refuses_to_overwrite_an_input(tmp_path, capsys, monkeypatch, choices, outputs, clash):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    inputs = {
        "costs.csv": "problem_id,ordering,cells,time_s\np-000,x>y,10,1.0\np-000,y>x,30,3.0\n",
        choices: "problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status\n"
                 "p-000,brown,x>y,0.0,false,ok\n",
        "manifest.csv": "id,label,seed,path\np-000,p,0,p-000.prob\n",
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    code, stdout, err = run(
        capsys, "eval", "--costs", "costs.csv", "--choices", choices,
        "--manifest", "manifest.csv", *outputs,
    )
    assert code == 2 and stdout == ""
    assert err == f"error: {clash}; give the outputs paths distinct from the inputs\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*inputs, "sub"])
    assert all((tmp_path / name).read_text() == text for name, text in inputs.items())


def test_eval_missing_cost_rows_is_an_input_error(tmp_path, capsys):
    choices_path = tmp_path / "choices.csv"
    choices_path.write_text(
        "problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status\n"
        "q-000,brown,x>y,0.0,false,ok\n"
    )
    costs_path = tmp_path / "costs.csv"
    costs_path.write_text(
        "problem_id,ordering,cells,time_s\np-000,x>y,10,1.0\np-000,y>x,30,3.0\n"
    )
    code, _, err = run(
        capsys, "eval", "--costs", str(costs_path), "--choices", str(choices_path),
        "--out", str(tmp_path / "savings.csv"),
    )
    assert code == 2 and "q-000" in err


def test_eval_rejects_a_manifest_label_all(tmp_path, capsys):
    # Scored, "all" would count p-000 twice in the overall mean: 33.3, not 25.0.
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,label\np-000,all\nq-000,other\n")
    choices = tmp_path / "choices.csv"
    choices.write_text(
        "problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status\n"
        "p-000,brown,x>y,0.0,false,ok\nq-000,brown,x>y,0.0,false,ok\n"
    )
    costs = tmp_path / "costs.csv"
    costs.write_text(
        "problem_id,ordering,cells,time_s\np-000,x>y,10,1.0\np-000,y>x,30,3.0\n"
        "q-000,x>y,10,1.0\nq-000,y>x,10,1.0\n"
    )
    code, _, err = run(
        capsys, "eval", "--costs", str(costs), "--choices", str(choices),
        "--out", str(tmp_path / "s.csv"), "--manifest", str(manifest),
    )
    assert code == 2
    assert err == f"error: {manifest}:2: label 'all' is reserved for the overall means\n"
    assert not (tmp_path / "s.csv").exists()


def test_eval_at_study_size_matches_the_per_row_oracle(tmp_path, capsys):
    """A seeded study shaped like the benchmark's: 300 problems in nine
    groups, every ordering of three variables costed in milliseconds, and
    twelve choices per problem with microsecond heuristic times."""
    rng = random.Random(13)
    orderings = [">".join(p) for p in permutations("xyz")]
    heuristics = sorted(h.value for h in HeuristicId)
    rows, choices = {}, []
    cost_lines = ["problem_id,ordering,cells,time_s"]
    choice_lines = ["problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status"]
    for k in range(300):
        pid = f"{rng.choice('012')}{rng.choice('012')}-{k:05d}"
        rows[pid] = {}
        for o in orderings:
            cells, ms = rng.randint(1, 20_000), rng.randint(1, 600_000)
            rows[pid][o] = (cells, Fraction(ms, 1000))
            cost_lines.append(f"{pid},{o},{cells},{ms // 1000}.{ms % 1000:03d}")
        for h in heuristics:
            o, t = rng.choice(orderings), f"0.{rng.randint(1, 999_999):06d}"
            choices.append(ChoiceRow(pid, h, o, float(t), False))
            choice_lines.append(f"{pid},{h},{o},{t},false,ok")
    (tmp_path / "costs.csv").write_text("\n".join(cost_lines) + "\n")
    (tmp_path / "choices.csv").write_text("\n".join(choice_lines) + "\n")
    code, _, err = run(
        capsys, "eval", "--costs", str(tmp_path / "costs.csv"),
        "--choices", str(tmp_path / "choices.csv"), "--out", str(tmp_path / "savings.csv"),
    )
    assert code == 0 and err == ""
    written = tuple((tmp_path / n).read_text()
                    for n in ("savings.csv", "aggregate.csv", "summary.csv"))
    assert written == naive_csv_texts(*naive_savings(rows, set(), choices, default_group_of))


# ----------------------------------------------------------------- wiring


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("cadorder ")


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1
