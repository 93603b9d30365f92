"""Sweep and evaluation harness with CSV reporting.

The harness reproduces the percentage-saving bookkeeping used to compare
ordering heuristics against the average over all orderings:

* cell saving of a choice = 100 * (avg_cells - chosen_cells) / avg_cells;
* time saving additionally charges the heuristic's own runtime:
  100 * (avg_time - heuristic_time - chosen_time) / avg_time.

All arithmetic is exact (fractions end to end); one-decimal rounding happens
only when rows are formatted for CSV output.  Problems whose cost table does
not cover every ordering are excluded from the statistics and reported.

CSV schemas (header row, comma separator):

* choices.csv  problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status
* costs.csv    problem_id,ordering,cells,time_s
* savings.csv  problem_id,heuristic,ordering,cell_saving_pct,time_saving_pct
* aggregate.csv group,heuristic,mean_cell_saving_pct,mean_time_saving_pct
* summary.csv  per-group cost statistics (mean / median / median of
  per-problem averages, for cells and times)
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence

from cadorder.formula import Problem
from cadorder.heuristics import HeuristicId, OrderingCapError, suggest

__all__ = [
    "HarnessInputError",
    "ChoiceRow",
    "SavingsRow",
    "CostTable",
    "run_sweep",
    "write_choices",
    "read_choices",
    "compute_savings",
    "write_savings",
    "write_aggregate",
    "write_summary",
    "format_pct",
    "default_group_of",
]


class HarnessInputError(ValueError):
    """Malformed or inconsistent harness input files."""


@dataclass(frozen=True)
class ChoiceRow:
    problem_id: str
    heuristic: str
    ordering: str
    heuristic_time_s: float
    fallback_lex: bool
    status: str = "ok"


@dataclass(frozen=True)
class SavingsRow:
    problem_id: str
    heuristic: str
    ordering: str
    cell_saving_pct: Fraction
    time_saving_pct: Fraction


def _fixed(x: Fraction, places: int) -> str:
    """Exact fixed-point rendering with `places` decimals, ties to even."""
    unit = 10 ** places
    scaled = round(x * unit)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), unit)
    return f"{sign}{whole}.{frac:0{places}d}"


def format_pct(x: Fraction) -> str:
    """Exact one-decimal rendering (ties to even), e.g. Fraction(1,2) -> '0.5'."""
    return _fixed(x, 1)


# -- sweeping ------------------------------------------------------------------


def run_sweep(
    corpus: Iterable[tuple[str, Problem]],
    heuristics: Sequence[HeuristicId],
) -> list[ChoiceRow]:
    """Run each heuristic on each problem; failures become status rows."""
    rows: list[ChoiceRow] = []
    for problem_id, problem in corpus:
        for hid in heuristics:
            try:
                report = suggest(problem, hid)
            except OrderingCapError:
                rows.append(
                    ChoiceRow(problem_id, hid.value, "", 0.0, False,
                              "ordering-cap-exceeded")
                )
            except Exception as exc:  # keep sweeping, report the failure
                rows.append(
                    ChoiceRow(problem_id, hid.value, "", 0.0, False,
                              f"error: {exc}")
                )
            else:
                rows.append(
                    ChoiceRow(
                        problem_id,
                        hid.value,
                        str(report.choice),
                        report.elapsed,
                        report.fallback_lex,
                        "ok",
                    )
                )
    rows.sort(key=lambda r: (r.problem_id, r.heuristic))
    return rows


def write_choices(rows: Iterable[ChoiceRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(
            ["problem_id", "heuristic", "ordering", "heuristic_time_s",
             "fallback_lex", "status"]
        )
        for r in rows:
            out.writerow(
                [r.problem_id, r.heuristic, r.ordering,
                 f"{r.heuristic_time_s:.6f}",
                 "true" if r.fallback_lex else "false", r.status]
            )


def read_choices(path: str | Path) -> list[ChoiceRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"problem_id", "heuristic", "ordering", "heuristic_time_s",
                    "fallback_lex", "status"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise HarnessInputError(
                f"{path}: expected columns {sorted(expected)}"
            )
        for lineno, rec in enumerate(reader, start=2):
            try:
                time_s = float(rec["heuristic_time_s"]) if rec["heuristic_time_s"] else 0.0
            except ValueError as exc:
                raise HarnessInputError(
                    f"{path}:{lineno}: bad heuristic_time_s {rec['heuristic_time_s']!r}"
                ) from exc
            rows.append(
                ChoiceRow(
                    rec["problem_id"], rec["heuristic"], rec["ordering"],
                    time_s, rec["fallback_lex"] == "true", rec["status"],
                )
            )
    return rows


# -- cost tables -----------------------------------------------------------------


class CostTable:
    """Per-problem CAD costs, one row per (problem, ordering).

    A problem with fewer rows than orderings (orderings are permutations of
    the variable set appearing in its rows) is marked partial.
    """

    def __init__(self):
        self.rows: dict[str, dict[str, tuple[int, Fraction]]] = {}
        self.partial: set[str] = set()

    @classmethod
    def load(cls, path: str | Path) -> "CostTable":
        table = cls()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            expected = {"problem_id", "ordering", "cells", "time_s"}
            if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
                raise HarnessInputError(f"{path}: expected columns {sorted(expected)}")
            for lineno, rec in enumerate(reader, start=2):
                pid, ordering = rec["problem_id"], rec["ordering"]
                try:
                    cells = int(rec["cells"])
                    time_s = Fraction(rec["time_s"])
                except (ValueError, ZeroDivisionError) as exc:
                    raise HarnessInputError(f"{path}:{lineno}: bad numeric field") from exc
                if cells < 0 or time_s < 0:
                    raise HarnessInputError(f"{path}:{lineno}: negative cost")
                per = table.rows.setdefault(pid, {})
                if ordering in per:
                    raise HarnessInputError(
                        f"{path}:{lineno}: duplicate row for {pid} / {ordering}"
                    )
                per[ordering] = (cells, time_s)
        for pid, per in table.rows.items():
            nvars = {len(o.split(">")) for o in per}
            if len(nvars) != 1:
                raise HarnessInputError(
                    f"{path}: problem {pid} mixes orderings over different variable counts"
                )
            if len(per) != math.factorial(nvars.pop()):
                table.partial.add(pid)
        return table


def default_group_of(problem_id: str) -> str:
    """Group key used for aggregation: the id prefix before the first dash."""
    head = problem_id.split("-", 1)[0]
    return head if head else problem_id


def _median(values: list[Fraction]) -> Fraction:
    vs = sorted(values)
    n = len(vs)
    mid = n // 2
    if n % 2:
        return vs[mid]
    return (vs[mid - 1] + vs[mid]) / 2


def compute_savings(
    costs: CostTable,
    choices: Iterable[ChoiceRow],
    group_of: Callable[[str], str] | None = None,
) -> tuple[
    list[SavingsRow],
    list[tuple[str, str, Fraction, Fraction]],
    list[dict],
    list[str],
]:
    """Exact per-choice savings plus per-group aggregates and cost summary.

    Returns (savings rows, aggregate rows, summary rows, exclusion notes).
    Aggregate rows are (group, heuristic, mean cell pct, mean time pct) with
    an "all" group last.  A missing cost row for a chosen ordering of a
    fully-measured problem is an input error.
    """
    group_of = group_of or default_group_of
    savings: list[SavingsRow] = []
    exclusions: list[str] = []
    for row in sorted(choices, key=lambda r: (r.problem_id, r.heuristic)):
        if row.status != "ok":
            exclusions.append(
                f"{row.problem_id}/{row.heuristic}: status {row.status}"
            )
            continue
        per = costs.rows.get(row.problem_id)
        if per is None:
            raise HarnessInputError(
                f"no cost rows for problem {row.problem_id}"
            )
        if row.problem_id in costs.partial:
            exclusions.append(
                f"{row.problem_id}/{row.heuristic}: partial cost table"
            )
            continue
        chosen = per.get(row.ordering)
        if chosen is None:
            raise HarnessInputError(
                f"costs are missing ordering {row.ordering} of problem {row.problem_id}"
            )
        n = len(per)
        avg_cells = Fraction(sum(c for c, _ in per.values()), n)
        avg_time = Fraction(sum(t for _, t in per.values()), n)
        if avg_cells == 0 or avg_time == 0:
            raise HarnessInputError(
                f"problem {row.problem_id} has zero average cost; "
                "savings are undefined"
            )
        cell_pct = 100 * (avg_cells - chosen[0]) / avg_cells
        heuristic_time = Fraction(str(row.heuristic_time_s))
        time_pct = 100 * (avg_time - heuristic_time - chosen[1]) / avg_time
        savings.append(
            SavingsRow(row.problem_id, row.heuristic, row.ordering, cell_pct, time_pct)
        )

    by_group: dict[str, dict[str, list[SavingsRow]]] = {}
    for s in savings:
        by_group.setdefault(group_of(s.problem_id), {}).setdefault(s.heuristic, []).append(s)
        by_group.setdefault("all", {}).setdefault(s.heuristic, []).append(s)
    groups = sorted(g for g in by_group if g != "all") + (
        ["all"] if "all" in by_group else []
    )
    aggregate = []
    for g in groups:
        for heuristic in sorted(by_group[g]):
            rows = by_group[g][heuristic]
            aggregate.append(
                (
                    g,
                    heuristic,
                    sum(r.cell_saving_pct for r in rows) / len(rows),
                    sum(r.time_saving_pct for r in rows) / len(rows),
                )
            )

    summary = _cost_summary(costs, group_of)
    return savings, aggregate, summary, exclusions


def _cost_summary(costs: CostTable, group_of: Callable[[str], str]) -> list[dict]:
    """Per-group cost statistics over fully-measured problems (no overall
    row; the combined column only appears in the savings aggregate)."""
    groups: dict[str, list[str]] = {}
    for pid in costs.rows:
        if pid in costs.partial:
            continue
        groups.setdefault(group_of(pid), []).append(pid)
    ordered = sorted(groups)
    out = []
    for g in ordered:
        cells: list[Fraction] = []
        times: list[Fraction] = []
        cell_means: list[Fraction] = []
        time_means: list[Fraction] = []
        for pid in groups[g]:
            per = costs.rows[pid]
            pc = [Fraction(c) for c, _ in per.values()]
            pt = [t for _, t in per.values()]
            cells.extend(pc)
            times.extend(pt)
            cell_means.append(sum(pc) / len(pc))
            time_means.append(sum(pt) / len(pt))
        out.append(
            {
                "group": g,
                "problems": len(groups[g]),
                "mean_cells": sum(cells) / len(cells),
                "median_cells": _median(cells),
                "median_problem_mean_cells": _median(cell_means),
                "mean_time_s": sum(times) / len(times),
                "median_time_s": _median(times),
                "median_problem_mean_time_s": _median(time_means),
            }
        )
    return out


# -- writers -----------------------------------------------------------------------


def write_savings(rows: Iterable[SavingsRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(
            ["problem_id", "heuristic", "ordering", "cell_saving_pct",
             "time_saving_pct"]
        )
        for r in rows:
            out.writerow(
                [r.problem_id, r.heuristic, r.ordering,
                 format_pct(r.cell_saving_pct), format_pct(r.time_saving_pct)]
            )


def write_aggregate(rows, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(
            ["group", "heuristic", "mean_cell_saving_pct", "mean_time_saving_pct"]
        )
        for g, heuristic, cell, time_ in rows:
            out.writerow([g, heuristic, format_pct(cell), format_pct(time_)])


def write_summary(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        stats = ["mean_cells", "median_cells", "median_problem_mean_cells",
                 "mean_time_s", "median_time_s", "median_problem_mean_time_s"]
        out.writerow(["group", "problems", *stats])
        for r in rows:
            out.writerow([r["group"], r["problems"], *(_fixed(r[k], 2) for k in stats)])
