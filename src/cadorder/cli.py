"""Command line interface.

Subcommands: suggest (recommend an ordering for one problem), gen (write a
seeded random corpus), sweep (run heuristics over a corpus into a choices
CSV), eval (join choices with a cost table into savings CSVs), and measure
(print cascade diagnostics for one ordering).

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from cadorder import __version__
from cadorder.formula import Problem
from cadorder.generator import GenParams, generate_corpus, item_seed
from cadorder.harness import (
    CostTable,
    HarnessInputError,
    compute_savings,
    default_group_of,
    read_choices,
    run_sweep,
    write_aggregate,
    write_choices,
    write_savings,
    write_summary,
)
from cadorder.heuristics import (
    HeuristicId,
    OrderingCapError,
    sotd,
    suggest,
)
from cadorder.probio import ProblemFormatError, parse_problem, print_problem
from cadorder.projection import project_cascade
from cadorder.realroots import ndrr

_ALL_IDS = [h.value for h in HeuristicId]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_problem(path: str) -> Problem:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_problem(text)


class _InputError(Exception):
    pass


# -- suggest -------------------------------------------------------------------


def _cmd_suggest(args) -> int:
    problem = _load_problem(args.file)
    ids = _ALL_IDS if args.all else [args.heuristic]
    for hid in ids:
        report = suggest(problem, HeuristicId(hid))
        if args.all:
            print(f"{hid}: {report.choice}")
        else:
            print(report.choice)
            print(f"# heuristic={hid} fallback_lex={str(report.fallback_lex).lower()} "
                  f"elapsed_s={report.elapsed:.6f}")
            if report.tiebreaks_used:
                print(f"# tiebreaks: {', '.join(report.tiebreaks_used)}")
            for note in report.notes:
                print(f"# {note}")
            if report.candidates and len(report.candidates) <= 24:
                for ordering, vals in report.candidates.items():
                    shown = " ".join(f"{k}={v}" for k, v in vals.items())
                    print(f"# {ordering}: {shown}")
    return 0


# -- gen ----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    types = [t.strip() for t in args.types.split(",") if t.strip()]
    if not types:
        raise _InputError("no system types given")
    try:
        params = GenParams(
            n_vars=args.vars,
            max_tdeg=args.max_tdeg,
            terms=args.terms,
            coeff_bound=args.coeff_bound,
            seed=args.seed,
        )
        corpus = generate_corpus(types, args.count, params)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    counters: dict[str, int] = {}
    with open(out_dir / "manifest.csv", "w", newline="") as fh:
        manifest = csv.writer(fh)
        manifest.writerow(["id", "label", "seed", "path"])
        for label, problem in corpus:
            i = counters.get(label, 0)
            counters[label] = i + 1
            pid = f"{label}-{i:03d}"
            rel = f"{pid}.prob"
            (out_dir / rel).write_text(print_problem(problem))
            manifest.writerow([pid, label, item_seed(params.seed, label, i), rel])
    print(f"wrote {len(corpus)} problems to {out_dir}")
    return 0


# -- sweep ----------------------------------------------------------------------


def _parse_heuristics(spec: str, parser: argparse.ArgumentParser) -> list[HeuristicId]:
    if spec.strip() == "all":
        return list(HeuristicId)
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(HeuristicId(token))
        except ValueError:
            parser.error(
                f"unknown heuristic '{token}' (known: {', '.join(_ALL_IDS)}, all)"
            )
    if not out:
        parser.error("no heuristics given")
    return out


def _load_corpus(corpus_dir: str) -> list[tuple[str, Problem]]:
    root = Path(corpus_dir)
    if not root.is_dir():
        raise _InputError(f"{corpus_dir} is not a directory")
    entries: list[tuple[str, Path]] = []
    manifest = root / "manifest.csv"
    if manifest.exists():
        with open(manifest, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"id", "path"}.issubset(reader.fieldnames):
                raise _InputError(f"{manifest}: expected columns id,path")
            for rec in reader:
                entries.append((rec["id"], root / rec["path"]))
    else:
        entries = [(p.stem, p) for p in sorted(root.glob("*.prob"))]
    if not entries:
        raise _InputError(f"no problems found under {corpus_dir}")
    corpus = []
    for pid, path in entries:
        try:
            corpus.append((pid, parse_problem(path.read_text())))
        except OSError as exc:
            raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return corpus


def _cmd_sweep(args, parser) -> int:
    heuristics = _parse_heuristics(args.heuristics, parser)
    corpus = _load_corpus(args.corpus)
    rows = run_sweep(corpus, heuristics)
    write_choices(rows, args.out)
    failures = [r for r in rows if r.status != "ok"]
    print(f"wrote {len(rows)} choices to {args.out}"
          + (f" ({len(failures)} failures)" if failures else ""))
    return 0


# -- eval -----------------------------------------------------------------------


def _group_lookup(manifest_path: str | None):
    if manifest_path is None:
        return default_group_of
    labels: dict[str, str] = {}
    with open(manifest_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"id", "label"}.issubset(reader.fieldnames):
            raise _InputError(f"{manifest_path}: expected columns id,label")
        for rec in reader:
            labels[rec["id"]] = rec["label"]

    def group_of(pid: str) -> str:
        return labels.get(pid) or default_group_of(pid)

    return group_of


def _cmd_eval(args) -> int:
    costs = CostTable.load(args.costs)
    choices = read_choices(args.choices)
    group_of = _group_lookup(args.manifest)
    savings, aggregate, summary, exclusions = compute_savings(costs, choices, group_of)
    write_savings(savings, args.out)
    out = Path(args.out)
    aggregate_path = args.aggregate_out or out.with_name("aggregate.csv")
    summary_path = args.summary_out or out.with_name("summary.csv")
    write_aggregate(aggregate, aggregate_path)
    write_summary(summary, summary_path)
    for note in exclusions:
        print(f"excluded: {note}", file=sys.stderr)
    print(f"wrote {len(savings)} savings rows to {args.out}")
    return 0


# -- measure -----------------------------------------------------------------------


def _cmd_measure(args) -> int:
    problem = _load_problem(args.file)
    try:
        ordering = problem.ordering(args.ordering)
    except (KeyError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    print(f"ordering: {ordering}")
    inputs = problem.defining_polynomials()
    print(f"input_polys: {len(inputs)}")
    print(f"input_sotd: {sotd(inputs)}")
    for kind in ("full", "tti"):
        cascade = project_cascade(problem, ordering, kind)
        total = sotd(inputs, *(st.polys for st in cascade.stages))
        final = cascade.stages[-1].polys if cascade.stages else inputs
        print(f"{kind}_cascade_sotd: {total}")
        print(f"{kind}_final_ndrr: {ndrr(final)}")
        for st in cascade.stages:
            print(
                f"{kind}_stage level={st.level} "
                f"eliminated={problem.variables[st.eliminated].name} "
                f"size={len(st.polys)} sotd={sotd(st.polys)}"
            )
    return 0


# -- wiring ------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="cadorder", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cadorder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suggest", help="recommend a variable ordering", parents=[])
    p.add_argument("file", help="input .prob file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--heuristic", choices=_ALL_IDS, help="heuristic to run")
    group.add_argument("--all", action="store_true", help="run every heuristic")
    p.set_defaults(fn=lambda a: _cmd_suggest(a))

    p = sub.add_parser("gen", help="generate a random problem corpus")
    p.add_argument("--types", required=True, help="comma-separated system types, e.g. 22,12,00")
    p.add_argument("--count", type=int, required=True, help="problems per type")
    p.add_argument("--seed", type=int, required=True, help="64-bit corpus seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--vars", type=int, default=3, help="variables per problem (default 3)")
    p.add_argument("--max-tdeg", type=int, default=4, help="max total degree (default 4)")
    p.add_argument("--terms", type=int, default=4, help="monomials per polynomial (default 4)")
    p.add_argument("--coeff-bound", type=int, default=20,
                   help="max coefficient magnitude (default 20)")
    p.set_defaults(fn=lambda a: _cmd_gen(a))

    p = sub.add_parser("sweep", help="run heuristics over a corpus")
    p.add_argument("--corpus", required=True, help="directory of .prob files")
    p.add_argument("--heuristics", required=True,
                   help="comma-separated heuristic ids, or 'all'")
    p.add_argument("--out", required=True, help="choices CSV to write")
    p.set_defaults(fn=lambda a, _p=parser: _cmd_sweep(a, _p))

    p = sub.add_parser("eval", help="compute savings from choices and costs")
    p.add_argument("--costs", required=True, help="costs CSV (problem_id,ordering,cells,time_s)")
    p.add_argument("--choices", required=True, help="choices CSV from sweep")
    p.add_argument("--out", required=True, help="savings CSV to write")
    p.add_argument("--aggregate-out", help="aggregate CSV (default: aggregate.csv next to --out)")
    p.add_argument("--summary-out", help="cost summary CSV (default: summary.csv next to --out)")
    p.add_argument("--manifest", help="manifest.csv mapping problem ids to group labels")
    p.set_defaults(fn=lambda a: _cmd_eval(a))

    p = sub.add_parser("measure", help="print cascade measures for one ordering")
    p.add_argument("file", help="input .prob file")
    p.add_argument("--ordering", required=True, help="ordering, greatest first, e.g. 'z>y>x'")
    p.set_defaults(fn=lambda a: _cmd_measure(a))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ProblemFormatError as exc:
        for ln, col, msg in exc.errors:
            where = f"line {ln}, col {col}: " if ln else ""
            print(f"error: {where}{msg}", file=sys.stderr)
        return 2
    except (HarnessInputError, _InputError, OrderingCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
