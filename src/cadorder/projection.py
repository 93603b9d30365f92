"""Projection operators for sign- and truth-invariant decompositions.

Two operators are provided: the full projection of a polynomial set (taking
contents, coefficients, discriminants and pairwise resultants of a primitive
squarefree basis) and the reduced projection of a problem whose QFFs carry
equational constraints, where only the first equational constraint of each
QFF is expanded and the remaining interactions enter through resultants.

Projection output is always normalized: zero and constant polynomials are
dropped and the survivors are made primitive, squarefree, sign-normalized
and deduplicated.  The special sets used by the equational-constraint
ordering heuristic keep raw (non-primitive, non-squarefree) polynomials
because only their degrees are measured.

This module is the one place that builds a cascade stage (`_stages`,
behind `project_cascade` and the greedy search's `projection_stage`), the
closure the special sets are built from, and the canonical form of a
polynomial set (`normalize_set`).  A cascade is the tuple of its stages,
each a frozenset of polynomials, greatest variable first; stage k leaves
``nvars - k - 1`` variables.  A stage is computed from its key alone.

It is also the one place where projection work is shared.  A `Workspace`
opened with ``with Workspace():`` is one dict that memoizes, for the code
that runs inside the block, squarefree parts, resultants and discriminants
under ``(function, *arguments)`` (resultant arguments in order: swapping f
and g can flip the sign) and stages under ``(problem, kind, ordered prefix
of eliminated variable indices)``, so a greedy step and a cascade with the
same prefix share one stage.  A squarefree part is also stored under
itself.  Entering a workspace while one is open joins the open one: the
block reads and fills the open memo, and only the outermost block closes
it.  `heuristics.suggest`, `realroots.ndrr` and ``cadorder measure`` each
enter one, so a heuristic call run with none open (as the sweep and the
command line run it) shares nothing with other heuristics or problems.
Outside a workspace nothing is stored.  On a miss the lookup calls
`squarefree_part`, `resultant`, `discriminant`, `mccallum_project` and
`ttiprojection` as module attributes, so a wrapper bound over them sees
exactly the work that was done.
"""

from __future__ import annotations

from contextvars import ContextVar
from itertools import combinations
from typing import Callable, Collection, Hashable, Iterable

from cadorder.formula import Problem, VariableOrdering
from cadorder.polys import (
    Polynomial,
    content_primitive,
    discriminant,
    resultant,
    sign_normalize,
    squarefree_part,
)

__all__ = [
    "Workspace",
    "normalize_set",
    "mccallum_project",
    "ttiprojection",
    "projection_stage",
    "project_cascade",
    "newh_set",
    "newh_omitted_set",
]


class Workspace:
    """Memo of projection work, active inside ``with Workspace():``.

    Entering a workspace while one is open joins the open one: ``with``
    yields the open workspace, and leaving the block leaves it open.  See
    the module docstring for what is stored and under which keys.  The memo
    is one plain dict and lives as long as the object; leaving the
    outermost block only stops new lookups from reaching it.
    """

    def __init__(self):
        self.memo: dict[Hashable, object] = {}
        self._tokens: list = []  # per entry: the token that opened it, or None

    def __enter__(self) -> "Workspace":
        open_ws = _OPEN.get()
        if open_ws is not None:
            self._tokens.append(None)
            return open_ws
        self._tokens.append(_OPEN.set(self))
        return self

    def __exit__(self, *exc) -> None:
        token = self._tokens.pop()
        if token is not None:
            _OPEN.reset(token)


# The workspace the running code reads through, or None.
_OPEN: ContextVar[Workspace | None] = ContextVar("cadorder.projection.open", default=None)


def _memo(fn: Callable, *args, key: Hashable = None):
    """fn(*args) through the open workspace, if any, under key (by default
    ``(fn, *args)``); a computed squarefree part is also stored under itself."""
    ws = _OPEN.get()
    if ws is None:
        return fn(*args)
    memo = ws.memo
    if key is None:
        key = (fn, *args)
    out = memo.get(key)
    if out is None:
        out = memo[key] = fn(*args)
        if fn is squarefree_part:
            memo.setdefault((fn, out), out)
    return out


def normalize_set(polys: Iterable[Polynomial]) -> frozenset[Polynomial]:
    """Canonical form of a polynomial set: the distinct squarefree parts of
    its non-constant members (zero counts as constant).

    Relies on the contract of `squarefree_part`: for non-constant input it
    returns a primitive, non-constant, sign-normalized polynomial, so no
    further content stripping or sign normalization is needed here.
    """
    return frozenset(_memo(squarefree_part, f) for f in polys if not f.is_const())


def _normalize_raw(polys: Iterable[Polynomial]) -> frozenset[Polynomial]:
    """Dedup and sign-normalize only; degrees must stay untouched."""
    return frozenset(sign_normalize(f) for f in polys if not f.is_const())


def _full_contributions(
    A: Iterable[Polynomial], v: int
) -> tuple[list[Polynomial], list[Polynomial]]:
    """Raw members of the full projection (contents, coefficients of the
    primitive squarefree basis, discriminants and pairwise resultants),
    together with the basis itself."""
    out: list[Polynomial] = []
    parts: list[Polynomial] = []
    for f in A:
        if f.is_zero():
            raise ValueError("cannot project the zero polynomial")
        cont, prim = content_primitive(f, v)
        out.append(cont)
        parts.append(_memo(squarefree_part, prim))
    basis = [p for p in dict.fromkeys(parts) if not p.is_const()]
    for f in basis:
        out.extend(f.coefficients(v))
        if f.degree(v) >= 2:
            out.append(_memo(discriminant, f, v))
    out.extend(_memo(resultant, f, g, v) for f, g in combinations(basis, 2))
    return out, basis


def _eliminated(out: Iterable[Polynomial], v: int) -> frozenset[Polynomial]:
    """The normalized projection output, checked to be free of v."""
    polys = normalize_set(out)
    for f in polys:
        if v in f.variables():
            raise AssertionError(f"projection output {f} still mentions the eliminated variable")
    return polys


def mccallum_project(A: Iterable[Polynomial], v: int) -> frozenset[Polynomial]:
    """Full projection of the set A eliminating variable v."""
    return _eliminated(_full_contributions(A, v)[0], v)


def ttiprojection(problem: Problem, v: int) -> frozenset[Polynomial]:
    """Reduced projection of a problem eliminating variable v.

    QFFs with an equational constraint contribute the coefficients and
    discriminant of their first EC polynomial plus its resultants with the
    QFF's other polynomials; EC-free QFFs contribute their full projection.
    Across QFFs, resultants are taken between the designated polynomials of
    each pair of QFFs, where a QFF's designation is its first EC polynomial
    when it has one and its primitive squarefree basis otherwise (so that on
    a problem with no equational constraints at all the operator coincides
    exactly with the full projection of the combined polynomial set).
    """
    out: list[Polynomial] = []
    designated: list[list[Polynomial]] = []
    for qff in problem.qffs:
        A = list(dict.fromkeys(qff.polynomials()))
        ecs = qff.equational_constraints()
        if ecs:
            e = ecs[0].poly
            out.extend(e.coefficients(v))
            if e.degree(v) >= 2:
                out.append(_memo(discriminant, e, v))
            for g in A:
                if g != e:
                    out.append(_memo(resultant, e, g, v))
            designated.append([e])
        else:
            contrib, basis = _full_contributions(A, v)
            out.extend(contrib)
            designated.append(basis)
    for i, Ei in enumerate(designated):
        for Ej in designated[i + 1:]:
            for f in Ei:
                for g in Ej:
                    if f != g:
                        out.append(_memo(resultant, f, g, v))
    return _eliminated(out, v)


def _check_kind(kind: str) -> None:
    if kind not in ("full", "tti"):
        raise ValueError(f"unknown projection kind {kind!r}")


def _stages(
    problem: Problem, kind: str, prefix: tuple[int, ...]
) -> tuple[frozenset[Polynomial], ...]:
    """The stage for each leading part ``prefix[:k + 1]`` of `prefix`,
    memoized under ``(problem, kind, prefix[:k + 1])``.  Stage 0 is the full
    projection of the problem's polynomials for kind "full" and the reduced
    projection for "tti"; every later stage is the full projection of the one
    before.  A bad kind or prefix raises ValueError before any work is done."""
    _check_kind(kind)
    if len(set(prefix)) < len(prefix) or not all(0 <= i < problem.nvars for i in prefix):
        raise ValueError(f"{prefix} is not distinct variable indices of {problem.nvars} variables")
    stages: list[frozenset[Polynomial]] = []
    for k, v in enumerate(prefix):
        if stages:
            op, source = mccallum_project, stages[-1]
        elif kind == "full":
            op, source = mccallum_project, problem.defining_polynomials()
        else:
            op, source = ttiprojection, problem
        stages.append(_memo(op, source, v, key=(problem, kind, prefix[:k + 1])))
    return tuple(stages)


def projection_stage(
    problem: Problem, kind: str, prefix: tuple[int, ...]
) -> frozenset[Polynomial]:
    """The set left after eliminating the variables with indices `prefix`,
    in that order, from the problem; an empty prefix raises ValueError."""
    if not prefix:
        raise ValueError("an empty prefix eliminates no variable")
    return _stages(problem, kind, tuple(prefix))[-1]


def project_cascade(
    problem: Problem, ordering: VariableOrdering, kind: str = "full"
) -> tuple[frozenset[Polynomial], ...]:
    """The stages of repeatedly projecting the problem along the ordering,
    greatest variable first, until one variable remains, so stage k leaves
    ``nvars - k - 1`` variables."""
    return _stages(problem, kind, ordering.indices[:-1])


def _lead_closure(polys: Collection[Polynomial], v: int) -> list[Polynomial]:
    """Raw discriminants (degree at least 2), leading coefficients and
    pairwise resultants of polys with respect to v."""
    out: list[Polynomial] = []
    for f in polys:
        if f.degree(v) >= 2:
            out.append(_memo(discriminant, f, v))
        out.append(f.lcoeff(v))
    out.extend(_memo(resultant, f, g, v) for f, g in combinations(polys, 2))
    return out


def newh_set(problem: Problem, v: int) -> frozenset[Polynomial]:
    """Special set feeding the equational-constraint heuristic.

    With respect to v: discriminants, leading coefficients and pairwise
    resultants of the first-constraint polynomial of each QFF; the same
    closure over all polynomials of each EC-free QFF; and, for QFFs with two
    or more ECs, the resultant of the first EC polynomial with the second.
    Kept raw (no primitive/squarefree reduction) since only degrees matter.
    """
    out = _lead_closure(dict.fromkeys(qff.constraints[0].poly for qff in problem.qffs), v)
    for qff in problem.qffs:
        ecs = [c.poly for c in qff.equational_constraints()]
        if not ecs:
            out += _lead_closure(dict.fromkeys(qff.polynomials()), v)
        elif len(ecs) >= 2 and ecs[0] != ecs[1]:
            out.append(_memo(resultant, ecs[0], ecs[1], v))
    return _normalize_raw(out)


def newh_omitted_set(problem: Problem, v: int) -> frozenset[Polynomial]:
    """Everything the full first projection closure has beyond newh_set."""
    return _normalize_raw(_lead_closure(problem.defining_polynomials(), v)) - newh_set(problem, v)
