"""Sweep and evaluation harness with CSV reporting.

The harness reproduces the percentage-saving bookkeeping used to compare
ordering heuristics against the average over all orderings:

* cell saving of a choice = 100 * (avg_cells - chosen_cells) / avg_cells;
* time saving additionally charges the heuristic's own runtime:
  100 * (avg_time - heuristic_time - chosen_time) / avg_time.

A sweep's heuristic_time_s is `suggest`'s elapsed time: the heuristic run
alone, with its own projection workspace (the memo of squarefree parts,
resultants, discriminants and cascade stages it builds and drops within the
call), and nothing shared with other heuristics or problems, because
`run_sweep` opens no workspace around it.

The eval is exact and runs on integers until a caller reads a value:

* each time is read once, as an integer ratio (a plain decimal is its digits
  over a power of ten); cost-table times become integer ticks at one scale
  (the lcm of the table's time denominators), and each problem's totals are
  taken once; a heuristic time is the exact decimal ratio of its float;
* a `SavingsRow` holds each saving as a reduced (numerator, denominator)
  pair, and its `cell_saving_pct`/`time_saving_pct` properties build a
  `Fraction` only when read; a cell saving depends only on the problem and
  the chosen ordering, so it is computed once per (problem, ordering) and
  the rows that chose that ordering share the pair;
* each (group, heuristic) sum is taken once as an unreduced pair and
  becomes one `Fraction`, the group mean; each "all" mean adds its groups'
  sums (mean times row count) in `Fraction` arithmetic, which reduces by
  gcds of partial-sum denominators instead of one gcd of the whole sum;
* each summary statistic is one `Fraction`.

Rounding (ties to even) happens only when values are formatted for CSV
output, and `write_savings` formats straight from the pairs.  Problems whose
cost table does not cover every ordering are excluded from the statistics and
reported.

The eval keeps one object per distinct value.  `ChoiceRow` and `SavingsRow`
are named tuples (immutable, no `__dict__`; they compare equal to plain
tuples of their fields).  `read_choices` gives every row of one file the same
`str` object for equal `problem_id`, `heuristic`, `ordering` and `status`
texts, and `CostTable.load` does the same for ordering texts (and splits and
checks each distinct one once).  The table of shared strings is local to
the call and dropped when it returns; nothing is interned process-wide.

CSV schemas (header row, comma separator):

* choices.csv  problem_id,heuristic,ordering,heuristic_time_s,fallback_lex,status
  (fallback_lex is `true` or `false`)
* costs.csv    problem_id,ordering,cells,time_s
* savings.csv  problem_id,heuristic,ordering,cell_saving_pct,time_saving_pct
* aggregate.csv group,heuristic,mean_cell_saving_pct,mean_time_saving_pct
* summary.csv  per-group cost statistics (mean / median / median of
  per-problem averages, for cells and times)
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

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
    "read_records",
    "compute_savings",
    "write_savings",
    "write_aggregate",
    "write_summary",
    "format_pct",
    "default_group_of",
]


class HarnessInputError(ValueError):
    """Malformed or inconsistent harness input files."""


_choice_key = itemgetter(0, 1)  # (problem_id, heuristic)


class ChoiceRow(NamedTuple):
    problem_id: str
    heuristic: str
    ordering: str
    heuristic_time_s: float
    fallback_lex: bool
    status: str = "ok"


class SavingsRow(NamedTuple):
    """One scored choice.  `cell_saving` and `time_saving` are percentages as
    reduced (numerator, denominator) pairs with a positive denominator."""

    problem_id: str
    heuristic: str
    ordering: str
    cell_saving: tuple[int, int]
    time_saving: tuple[int, int]

    @property
    def cell_saving_pct(self) -> Fraction:
        return Fraction(*self.cell_saving)

    @property
    def time_saving_pct(self) -> Fraction:
        return Fraction(*self.time_saving)


def _fixed(num: int, den: int, places: int) -> str:
    """Exact fixed-point rendering of num/den (den > 0) with `places`
    decimals, ties to even."""
    unit = 10 ** places
    # floor(num / den * unit + 1/2) in one divmod; an exact tie that rounded
    # up to an odd number steps back to the even one.
    scaled, rest = divmod(2 * unit * num + den, 2 * den)
    if not rest and scaled % 2:
        scaled -= 1
    whole, frac = divmod(abs(scaled), unit)
    return f"{'-' if scaled < 0 else ''}{whole}.{str(frac).zfill(places)}"


def format_pct(x: Fraction) -> str:
    """Exact one-decimal rendering (ties to even), e.g. Fraction(1,2) -> '0.5'."""
    return _fixed(x.numerator, x.denominator, 1)


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
                outcome = ("", 0.0, False, "ordering-cap-exceeded")
            except Exception as exc:  # keep sweeping, report the failure
                outcome = ("", 0.0, False, f"error: {exc}")
            else:
                outcome = (str(report.choice), report.elapsed, report.fallback_lex, "ok")
            rows.append(ChoiceRow(problem_id, hid.value, *outcome))
    rows.sort(key=_choice_key)
    return rows


def read_records(
    path: str | Path, columns: Iterable[str]
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """(line number, the row's `columns` values as a tuple in the order asked)
    for each non-blank row of a CSV file whose header names at least `columns`,
    a repeated name read from its last place.  The line number is the row's
    last physical line, counting blank lines.  A missing column, or a row with
    fewer fields than the header, is a HarnessInputError naming the file (and
    line)."""
    columns = tuple(columns)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = set(columns)
        if header is None or not expected.issubset(header):
            raise HarnessInputError(f"{path}: expected columns {sorted(expected)}")
        place = {name: i for i, name in enumerate(header)}
        at = [place[c] for c in columns]
        # itemgetter returns a bare value for one index, so fewer go by hand
        pick = itemgetter(*at) if len(at) > 1 else lambda row: tuple(row[i] for i in at)
        for row in reader:
            if not row:  # a blank line
                continue
            if len(row) < len(header):
                raise HarnessInputError(
                    f"{path}:{reader.line_num}: fewer fields than the header"
                )
            yield reader.line_num, pick(row)


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def write_choices(rows: Iterable[ChoiceRow], path: str | Path) -> None:
    _write_csv(
        path,
        ["problem_id", "heuristic", "ordering", "heuristic_time_s", "fallback_lex", "status"],
        ([r.problem_id, r.heuristic, r.ordering, f"{r.heuristic_time_s:.6f}",
          "true" if r.fallback_lex else "false", r.status] for r in rows),
    )


def read_choices(path: str | Path) -> list[ChoiceRow]:
    rows = []
    seen: set[tuple[str, str]] = set()
    # The first str read with each text; the rows share it.  Dropped when the
    # call returns.
    one = {}.setdefault
    columns = ("problem_id", "heuristic", "ordering", "heuristic_time_s",
               "fallback_lex", "status")
    for lineno, (pid, heuristic, ordering, raw, fallback_lex, status) in read_records(
            path, columns):
        pid, heuristic = one(pid, pid), one(heuristic, heuristic)
        key = (pid, heuristic)
        if key in seen:
            raise HarnessInputError(f"{path}:{lineno}: duplicate row for {pid} / {heuristic}")
        seen.add(key)
        try:
            time_s = float(raw)
        except ValueError:
            time_s = math.nan
        if not (math.isfinite(time_s) and time_s >= 0):
            raise HarnessInputError(
                f"{path}:{lineno}: bad heuristic_time_s {raw!r} "
                "(want a finite non-negative number of seconds)"
            )
        if fallback_lex not in ("true", "false"):
            raise HarnessInputError(f"{path}:{lineno}: bad fallback_lex {fallback_lex!r}")
        rows.append(ChoiceRow(pid, heuristic, one(ordering, ordering), time_s,
                              fallback_lex == "true", one(status, status)))
    return rows


# -- cost tables -----------------------------------------------------------------


def _ratio(text: str) -> tuple[int, int]:
    """`text` as an exact (numerator, denominator) pair: ASCII digits with at
    most one decimal point as the digits over a power of ten, unreduced; any
    other spelling as `Fraction(text)` reads it, or rejects it."""
    whole, _, frac = text.partition(".")
    digits = whole + frac
    if digits.isascii() and digits.isdigit():
        return int(digits), 10 ** len(frac)
    return Fraction(text).as_integer_ratio()


class CostTable:
    """Per-problem CAD costs, one row per (problem, ordering).

    `rows` maps a problem to {ordering: (cells, ticks)}: a time in seconds is
    ticks / `scale`, the lcm of the denominators of the table's times.  A
    problem with fewer rows than orderings (orderings are permutations of the
    variable set appearing in its rows) is marked partial.  An ordering that
    repeats a variable, and a problem whose orderings name different variable
    sets, are input errors.
    """

    def __init__(self):
        self.rows: dict[str, dict[str, tuple[int, int]]] = {}
        self.partial: set[str] = set()
        self.scale = 1

    @classmethod
    def load(cls, path: str | Path) -> "CostTable":
        table = cls()
        variable_sets: dict[str, set[frozenset[str]]] = {}
        read: dict[str, dict[str, tuple[int, int, int]]] = {}  # (cells, num, den)
        # Each distinct ordering text: the first str read with it and its
        # variable set, checked once.  Dropped when the call returns.
        orderings: dict[str, tuple[str, frozenset[str]]] = {}
        for lineno, (pid, ordering, cells, time_s) in read_records(
                path, ("problem_id", "ordering", "cells", "time_s")):
            try:
                cells = int(cells)
                num, den = _ratio(time_s)
            except (ValueError, ZeroDivisionError) as exc:
                raise HarnessInputError(f"{path}:{lineno}: bad numeric field") from exc
            if cells < 0 or num < 0:
                raise HarnessInputError(f"{path}:{lineno}: negative cost")
            per = read.setdefault(pid, {})
            if ordering in per:
                raise HarnessInputError(
                    f"{path}:{lineno}: duplicate row for {pid} / {ordering}"
                )
            known = orderings.get(ordering)
            if known is None:
                names = ordering.split(">")
                variables = frozenset(names)
                if len(variables) != len(names):
                    raise HarnessInputError(
                        f"{path}:{lineno}: ordering {ordering} repeats a variable"
                    )
                known = orderings[ordering] = ordering, variables
            ordering, variables = known
            per[ordering] = (cells, num, den)
            variable_sets.setdefault(pid, set()).add(variables)
        table.scale = scale = math.lcm(*{d for per in read.values() for *_, d in per.values()})
        for pid, per in read.items():
            sets = variable_sets[pid]
            if len({len(s) for s in sets}) != 1:
                raise HarnessInputError(
                    f"{path}: problem {pid} mixes orderings over different variable counts"
                )
            if len(sets) != 1:
                raise HarnessInputError(
                    f"{path}: problem {pid} has orderings over different variable sets"
                )
            if len(per) != math.factorial(len(sets.pop())):
                table.partial.add(pid)
            table.rows[pid] = {o: (c, num * (scale // den)) for o, (c, num, den) in per.items()}
        return table


def default_group_of(problem_id: str) -> str:
    """Group key used for aggregation: the id prefix before the first dash."""
    head = problem_id.split("-", 1)[0]
    return head if head else problem_id


def _median(values: list[int], scale: int = 1) -> Fraction:
    """Exact median of values / scale."""
    vs = sorted(values)
    mid = len(vs) // 2
    if len(vs) % 2:
        return Fraction(vs[mid], scale)
    return Fraction(vs[mid - 1] + vs[mid], 2 * scale)


_T = TypeVar("_T")


def _tree_sum(values: Sequence[_T], plus: Callable[[_T, _T], _T]) -> _T:
    """Exact sum of rationals, added pairwise in a balanced tree.  Added in
    sequence, one operand grows at every step, which costs time quadratic in
    the length of the list."""
    while len(values) > 1:
        odd = [values[-1]] if len(values) % 2 else []
        values = [plus(x, y) for x, y in zip(values[0::2], values[1::2])] + odd
    return values[0]


def _add_pairs(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """p + q for (numerator, denominator) pairs, unreduced."""
    return p[0] * q[1] + q[0] * p[1], p[1] * q[1]


def _mean(total: tuple[int, int], count: int) -> Fraction:
    """The mean of `count` values whose sum is the pair `total`."""
    return Fraction(total[0], total[1] * count)


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


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
    fully-measured problem, a repeated (problem, heuristic) choice, a
    non-finite heuristic time and a scored problem whose group is named
    "all" are input errors.
    """
    group_of = group_of or default_group_of
    scale = costs.scale
    savings: list[SavingsRow] = []
    exclusions: list[str] = []
    # Scored rows of each (group, heuristic), in the order they are scored.
    members: dict[tuple[str, str], list[SavingsRow]] = {}
    # The group, n, total cells and total ticks of the problem whose choices
    # are being scored, and its cell saving per chosen ordering; choices are
    # visited sorted by problem, so each is computed once.
    totals_of = previous = None
    for row in sorted(choices, key=_choice_key):
        key = _choice_key(row)
        if key == previous:
            raise HarnessInputError(f"duplicate choice row for {key[0]} / {key[1]}")
        previous = key
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
        if totals_of != row.problem_id:
            group = group_of(row.problem_id)
            if group == "all":
                raise HarnessInputError(
                    f"problem {row.problem_id} is in a group named 'all', "
                    "which is reserved for the overall means"
                )
            n = len(per)
            total_cells = sum(c for c, _ in per.values())
            total_ticks = sum(t for _, t in per.values())
            if total_cells == 0 or total_ticks == 0:
                raise HarnessInputError(
                    f"problem {row.problem_id} has zero average cost; "
                    "savings are undefined"
                )
            totals_of = row.problem_id
            cell_of: dict[str, tuple[int, int]] = {}
        try:
            # The decimal that repr() prints, as an exact ratio.
            hnum, hden = _ratio(repr(row.heuristic_time_s))
        except ValueError:
            raise HarnessInputError(
                f"{row.problem_id}/{row.heuristic}: heuristic time "
                f"{row.heuristic_time_s!r} is not finite"
            ) from None
        # 100 * (avg - chosen) / avg with avg = total / n, multiplied through
        # by n (and, for times, by the scale and the heuristic time's
        # denominator) so that only integers remain.
        cells, ticks = chosen
        cell = cell_of.get(row.ordering)
        if cell is None:
            cell = cell_of[row.ordering] = _reduced(100 * (total_cells - n * cells),
                                                    total_cells)
        scored = SavingsRow(
            row.problem_id, row.heuristic, row.ordering, cell,
            _reduced(100 * (hden * (total_ticks - n * ticks) - n * scale * hnum),
                     hden * total_ticks),
        )
        savings.append(scored)
        members.setdefault((group, row.heuristic), []).append(scored)

    # Each (group, heuristic) is summed once, as an unreduced pair.  The
    # "all" block adds the group sums, each its group mean times its row
    # count: Fraction addition reduces by the gcd of the two denominators,
    # far cheaper than one gcd of the overall sum.
    aggregate = []
    overall: dict[str, list[tuple[int, Fraction, Fraction]]] = {}
    for (g, heuristic), rows in sorted(members.items()):
        cell = _mean(_tree_sum([r.cell_saving for r in rows], _add_pairs), len(rows))
        time_ = _mean(_tree_sum([r.time_saving for r in rows], _add_pairs), len(rows))
        overall.setdefault(heuristic, []).append((len(rows), cell, time_))
        aggregate.append((g, heuristic, cell, time_))
    for heuristic, parts in sorted(overall.items()):
        count = sum(n for n, _, _ in parts)
        aggregate.append(("all", heuristic,
                          _tree_sum([n * cell for n, cell, _ in parts], add) / count,
                          _tree_sum([n * time_ for n, _, time_ in parts], add) / count))

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
    scale = costs.scale
    out = []
    for g in ordered:
        cells: list[int] = []
        ticks: list[int] = []
        # A problem's mean is total / n; n differs between variable counts,
        # so the totals are compared at the common multiple `per_mean`.
        per_mean = math.lcm(*{len(costs.rows[pid]) for pid in groups[g]})
        cell_means: list[int] = []
        tick_means: list[int] = []
        for pid in groups[g]:
            per = costs.rows[pid]
            pc = [c for c, _ in per.values()]
            pt = [t for _, t in per.values()]
            cells += pc
            ticks += pt
            cell_means.append(sum(pc) * (per_mean // len(pc)))
            tick_means.append(sum(pt) * (per_mean // len(pt)))
        out.append(
            {
                "group": g,
                "problems": len(groups[g]),
                "mean_cells": Fraction(sum(cells), len(cells)),
                "median_cells": _median(cells),
                "median_problem_mean_cells": _median(cell_means, per_mean),
                "mean_time_s": Fraction(sum(ticks), len(ticks) * scale),
                "median_time_s": _median(ticks, scale),
                "median_problem_mean_time_s": _median(tick_means, per_mean * scale),
            }
        )
    return out


# -- writers -----------------------------------------------------------------------


def write_savings(rows: Iterable[SavingsRow], path: str | Path) -> None:
    _write_csv(
        path,
        ["problem_id", "heuristic", "ordering", "cell_saving_pct", "time_saving_pct"],
        ([r.problem_id, r.heuristic, r.ordering,
          _fixed(*r.cell_saving, 1), _fixed(*r.time_saving, 1)] for r in rows),
    )


def write_aggregate(rows, path: str | Path) -> None:
    _write_csv(
        path,
        ["group", "heuristic", "mean_cell_saving_pct", "mean_time_saving_pct"],
        ([g, heuristic, format_pct(cell), format_pct(time_)]
         for g, heuristic, cell, time_ in rows),
    )


def write_summary(rows: list[dict], path: str | Path) -> None:
    stats = ["mean_cells", "median_cells", "median_problem_mean_cells",
             "mean_time_s", "median_time_s", "median_problem_mean_time_s"]
    _write_csv(
        path,
        ["group", "problems", *stats],
        ([r["group"], r["problems"],
          *(_fixed(r[k].numerator, r[k].denominator, 2) for k in stats)] for r in rows),
    )
