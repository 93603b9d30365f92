"""The twelve variable-ordering heuristics.

`suggest(problem, heuristic)` is the one way to run a heuristic: one table,
`_HEURISTICS`, gives each `HeuristicId` one row, its family and the settings
that family takes (the Measures fields to sort by; the measure, tie-break
measure and projection kind; the projection kind; or whether to add the
omitted-set stage).  Two kinds of family:

* positional heuristics order variables directly by per-variable measures
  (triangular-style m1/m2/m3 keys, brown-style m1/m4/m5 keys, greedy
  projection growth, and the equational-constraint strategy with its
  extended form);
* enumeration heuristics build the projection cascade for every ordering
  and pick the minimizer of a measure (sum of total degrees of all
  monomials, or the number of distinct real roots of the final univariate
  stage), optionally tie-breaking one measure with the other, over either
  the full or the reduced (equational-constraint aware) first projection.

All ties fall back to the first candidate in declaration order; reports say
when that happened.  Smaller measures make a variable *greater* in the
returned ordering, which lists variables greatest first.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from cadorder.formula import Problem, Variable, VariableOrdering
from cadorder.polys import Polynomial
from cadorder.projection import (
    Workspace,
    newh_omitted_set,
    newh_set,
    project_cascade,
    projection_stage,
)
from cadorder.realroots import ndrr

__all__ = [
    "HeuristicId",
    "HeuristicReport",
    "OrderingCapError",
    "ORDERING_CAP",
    "Measures",
    "MEASURES",
    "variable_measures",
    "sotd",
    "suggest",
]

ORDERING_CAP = 8


class OrderingCapError(ValueError):
    """Raised when full ordering enumeration would exceed the cap."""


class HeuristicId(enum.Enum):
    TRIANGULAR = "triangular"
    BROWN = "brown"
    SOTD = "sotd"
    NDRR = "ndrr"
    SN = "sn"
    NS = "ns"
    GS = "gs"
    S_TTI = "s-tti"
    N_TTI = "n-tti"
    GS_TTI = "gs-tti"
    NEWH = "newh"
    NEWH_EXT = "newh-ext"


class Measures(NamedTuple):
    """Per-variable degree measures over a polynomial set.

    m1: max degree in v; m2: max total degree of the leading coefficient in
    v among polynomials containing v; m3: sum of degrees in v; m4: max total
    degree of monomials containing v; m5: number of distinct monomials
    containing v.  Empty ranges give 0.
    """

    m1: int
    m2: int
    m3: int
    m4: int
    m5: int


@dataclass
class HeuristicReport:
    id: HeuristicId
    choice: VariableOrdering
    candidates: dict[VariableOrdering, dict[str, int]] = field(default_factory=dict)
    tiebreaks_used: tuple[str, ...] = ()
    elapsed: float = 0.0
    notes: tuple[str, ...] = ()

    @property
    def fallback_lex(self) -> bool:
        """Whether some tie was left to declaration order ("lex", or newh's
        "lex-first" for the greatest position)."""
        return any(t.startswith("lex") for t in self.tiebreaks_used)


def variable_measures(P: Iterable[Polynomial], v: int) -> Measures:
    m1 = m2 = m3 = 0
    monos: set[tuple[int, ...]] = set()
    for f in P:
        d = f.degree(v)
        if d > 0:
            m1 = max(m1, d)
            m3 += d
            m2 = max(m2, f.lcoeff(v).total_degree())
        for e in f.monomials():
            if e[v]:
                monos.add(e)
    m4 = max((sum(e) for e in monos), default=0)
    return Measures(m1, m2, m3, m4, len(monos))


def sotd(*sets: Iterable[Polynomial]) -> int:
    """Sum of total degrees of every monomial of every polynomial given."""
    total = 0
    for S in sets:
        for f in S:
            for e in f.monomials():
                total += sum(e)
    return total


# -- positional heuristics ----------------------------------------------------


def _positional_order(
    problem: Problem, hid: HeuristicId, fields: tuple[str, ...]
) -> HeuristicReport:
    """Sort by the given Measures fields ascending; smaller means greater."""
    P = problem.defining_polynomials()
    keys = {}
    for v in problem.variables:
        m = variable_measures(P, v.index)
        keys[v] = tuple(getattr(m, f) for f in fields)
    ordered = sorted(problem.variables, key=lambda v: keys[v])
    fallback = any(keys[a] == keys[b] for a, b in zip(ordered, ordered[1:]))
    return HeuristicReport(
        hid,
        VariableOrdering(tuple(ordered)),
        tiebreaks_used=("lex",) if fallback else (),
        notes=tuple(
            f"{v.name}: " + " ".join(f"{f}={x}" for f, x in zip(fields, k))
            for v, k in keys.items()
        ),
    )


# -- enumeration heuristics ---------------------------------------------------


def _all_orderings(problem: Problem) -> list[VariableOrdering]:
    if problem.nvars > ORDERING_CAP:
        raise OrderingCapError(
            f"{problem.nvars} variables would need {problem.nvars}! cascades; "
            f"the enumeration cap is {ORDERING_CAP}"
        )
    return [
        VariableOrdering(perm)
        for perm in itertools.permutations(problem.variables)
    ]


def _measure_sotd(problem: Problem, stages: tuple[frozenset[Polynomial], ...]) -> int:
    return sotd(problem.defining_polynomials(), *stages)


def _measure_ndrr(problem: Problem, stages: tuple[frozenset[Polynomial], ...]) -> int:
    # a single-variable problem has no stages: its input is the univariate one
    return ndrr(stages[-1] if stages else problem.defining_polynomials())


# The cascade measures the enumeration heuristics minimize, by name; each
# takes the problem and the stages of one cascade (`project_cascade`).
MEASURES: dict[str, Callable[[Problem, tuple[frozenset[Polynomial], ...]], int]] = {
    "sotd": _measure_sotd,
    "ndrr": _measure_ndrr,
}


def _ordering_search(
    problem: Problem, hid: HeuristicId, measure: str, tiebreak: str | None, kind: str
) -> HeuristicReport:
    """Evaluate one measure over every ordering's cascade, keep the minimum.

    With a tiebreak, orderings that tie on the measure are compared by the
    tiebreak measure, computed for those orderings only.  Remaining ties go
    to the candidate that enumerates first, i.e. lexicographically by
    declaration index sequence.  The tiebreak re-reads the tied cascades
    through `project_cascade`, which returns the stages the first pass built
    into the workspace `suggest` opened.
    """
    measure_fn = MEASURES[measure]
    candidates: dict[VariableOrdering, dict[str, int]] = {
        o: {measure: measure_fn(problem, project_cascade(problem, o, kind))}
        for o in _all_orderings(problem)
    }
    best_val = min(vals[measure] for vals in candidates.values())
    tied = [o for o, vals in candidates.items() if vals[measure] == best_val]
    tiebreaks: tuple[str, ...] = ()
    if tiebreak and len(tied) > 1:
        tiebreaks = (tiebreak,)
        tiebreak_fn = MEASURES[tiebreak]
        for ordering in tied:
            candidates[ordering][tiebreak] = tiebreak_fn(
                problem, project_cascade(problem, ordering, kind)
            )
        best_tb = min(candidates[o][tiebreak] for o in tied)
        tied = [o for o in tied if candidates[o][tiebreak] == best_tb]
    if len(tied) > 1:
        tiebreaks = tiebreaks + ("lex",)
    return HeuristicReport(hid, tied[0], candidates=candidates, tiebreaks_used=tiebreaks)


def _greedy_sotd_order(problem: Problem, hid: HeuristicId, kind: str) -> HeuristicReport:
    """Allocate the next-greatest variable as the one whose single projection
    step produces the set with the smallest sum of total degrees.  Each step
    is the `projection_stage` of the chosen prefix plus one candidate, so it
    is the stage an enumerated cascade with that prefix holds; the workspace
    `suggest` opened builds the chosen prefix's stages once.  `min` keeps the
    first of tied candidates, i.e. declaration order."""
    remaining = list(problem.variables)
    chosen: list[Variable] = []
    fallback = False
    notes: list[str] = []
    while len(remaining) > 1:
        prefix = tuple(v.index for v in chosen)
        vals = {
            v: sotd(projection_stage(problem, kind, prefix + (v.index,)))
            for v in remaining
        }
        best = min(remaining, key=vals.__getitem__)
        fallback = fallback or list(vals.values()).count(vals[best]) > 1
        notes.append(
            f"step {len(chosen) + 1}: " + " ".join(f"{v.name}:{x}" for v, x in vals.items())
        )
        chosen.append(best)
        remaining.remove(best)
    chosen.extend(remaining)
    return HeuristicReport(
        hid,
        VariableOrdering(tuple(chosen)),
        tiebreaks_used=("lex",) if fallback else (),
        notes=tuple(notes),
    )


# newh's tie-break stages after m1, in order: (tiebreak label, note title,
# the set taken with respect to the greatest variable).
_NEWH_STAGES = (
    ("special-set-degree", "special set degrees", newh_set),
    ("omitted-set-degree", "omitted set degrees", newh_omitted_set),
)


def _newh_order(problem: Problem, hid: HeuristicId, extended: bool) -> HeuristicReport:
    """Equational-constraint strategy.

    Stage 1 ranks variables by max degree over the input polynomials
    (ascending; a tie for the greatest position is broken by declaration
    order before anything else).  Stage 2 compares still-tied variables by
    their maximum degree in the special projection set taken with respect to
    the fixed greatest variable; `newh-ext` adds a third stage over the
    complementary (omitted) set.  A stage runs only while two of the other
    variables share a key, and appends its degree to every key.
    """
    P = problem.defining_polynomials()
    m1 = {v: variable_measures(P, v.index).m1 for v in problem.variables}
    v1, *rest = sorted(problem.variables, key=lambda v: (m1[v], v.index))
    tiebreaks = ["lex-first"] if list(m1.values()).count(m1[v1]) > 1 else []
    notes = ["m1: " + " ".join(f"{v.name}={m1[v]}" for v in problem.variables)]

    key = {v: (m1[v],) for v in rest}
    for label, title, stage_set in _NEWH_STAGES[: 2 if extended else 1]:
        if len(set(key.values())) == len(key):
            break
        S = stage_set(problem, v1.index)
        for v in rest:
            key[v] += (max((g.degree(v.index) for g in S), default=0),)
        tiebreaks.append(label)
        notes.append(f"{title}: " + " ".join(f"{v.name}={key[v][-1]}" for v in rest))

    rest.sort(key=lambda v: (key[v], v.index))
    if any(key[a] == key[b] for a, b in zip(rest, rest[1:])):
        tiebreaks.append("lex")
    return HeuristicReport(
        hid,
        VariableOrdering(tuple([v1] + rest)),
        tiebreaks_used=tuple(tiebreaks),
        notes=tuple(notes),
    )


# -- dispatch ------------------------------------------------------------------


# Every heuristic as one row: its family and the settings the family takes
# after (problem, id).
_HEURISTICS: dict[HeuristicId, tuple[Callable[..., HeuristicReport], tuple]] = {
    HeuristicId.TRIANGULAR: (_positional_order, (("m1", "m2", "m3"),)),
    HeuristicId.BROWN: (_positional_order, (("m1", "m4", "m5"),)),
    HeuristicId.SOTD: (_ordering_search, ("sotd", None, "full")),
    HeuristicId.NDRR: (_ordering_search, ("ndrr", None, "full")),
    HeuristicId.SN: (_ordering_search, ("sotd", "ndrr", "full")),
    HeuristicId.NS: (_ordering_search, ("ndrr", "sotd", "full")),
    HeuristicId.GS: (_greedy_sotd_order, ("full",)),
    HeuristicId.S_TTI: (_ordering_search, ("sotd", None, "tti")),
    HeuristicId.N_TTI: (_ordering_search, ("ndrr", None, "tti")),
    HeuristicId.GS_TTI: (_greedy_sotd_order, ("tti",)),
    HeuristicId.NEWH: (_newh_order, (False,)),
    HeuristicId.NEWH_EXT: (_newh_order, (True,)),
}


def suggest(problem: Problem, heuristic: HeuristicId | str) -> HeuristicReport:
    """Run one heuristic on a problem; the report includes wall-clock time.

    The heuristic runs inside a projection `Workspace` entered inside the
    timed region, which joins one the caller has open.  `run_sweep` and the
    command line open none around it, so there each call runs in its own
    workspace: `elapsed` is the cost of this heuristic alone, its own memo
    included, and no work is shared with any other call.
    """
    hid = HeuristicId(heuristic) if not isinstance(heuristic, HeuristicId) else heuristic
    start = time.perf_counter()
    with Workspace():
        family, settings = _HEURISTICS[hid]
        report = family(problem, hid, *settings)
    report.elapsed = time.perf_counter() - start
    return report
