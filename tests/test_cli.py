"""End-to-end command line behaviour: exit codes, files written, messages."""

import csv
from itertools import permutations

import pytest

from cadorder import cli

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


def test_sweep_rejects_unknown_heuristic(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(capsys, *gen_args(corpus))[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--corpus", str(corpus), "--heuristics", "bogus",
                  "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 1
    assert "unknown heuristic 'bogus'" in capsys.readouterr().err


def test_sweep_on_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(
        capsys, "sweep", "--corpus", str(empty), "--heuristics", "all",
        "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2
    assert err == f"error: no problems found under {empty}\n"


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
