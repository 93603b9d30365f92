"""Problem model: variables, relational constraints, QFFs and orderings.

A problem is a declared variable list plus a sequence of quantifier-free
formulas (QFFs), each a conjunction of polynomial constraints.  Constraint
polynomials are stored sign-normalized; when normalization flips the sign,
the relation is mirrored so the constraint keeps its meaning.  A problem is
checked when it is built: Constraint, QFF and Problem raise ValueError on a
malformed part, so a Problem's variables have distinct identifier names,
numbered by position, and its text from ``print_problem`` parses back.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from cadorder.polys import Polynomial, sign_normalize

__all__ = [
    "Variable",
    "Relop",
    "Constraint",
    "QFF",
    "Problem",
    "VariableOrdering",
]

# A variable name, as the .prob format writes it.
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Variable:
    name: str
    index: int

    def __str__(self):
        return self.name


class Relop(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


_MIRROR = {
    Relop.EQ: Relop.EQ,
    Relop.NE: Relop.NE,
    Relop.LT: Relop.GT,
    Relop.GT: Relop.LT,
    Relop.LE: Relop.GE,
    Relop.GE: Relop.LE,
}


@dataclass(frozen=True)
class Constraint:
    """A single relation ``poly relop 0`` with poly sign-normalized."""

    poly: Polynomial
    relop: Relop

    def __post_init__(self):
        if self.poly.is_zero():
            raise ValueError("constraint polynomial must be nonzero")
        normalized = sign_normalize(self.poly)
        if normalized is not self.poly:
            object.__setattr__(self, "poly", normalized)
            object.__setattr__(self, "relop", _MIRROR[self.relop])

    @property
    def is_equational(self) -> bool:
        return self.relop is Relop.EQ


@dataclass(frozen=True)
class QFF:
    """Conjunction of constraints."""

    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.constraints:
            raise ValueError("a QFF needs at least one constraint")

    def equational_constraints(self) -> list[Constraint]:
        return [c for c in self.constraints if c.is_equational]

    def polynomials(self) -> list[Polynomial]:
        return [c.poly for c in self.constraints]


@dataclass(frozen=True)
class Problem:
    variables: tuple[Variable, ...]
    qffs: tuple[QFF, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "qffs", tuple(self.qffs))
        n = len(self.variables)
        if not n:
            raise ValueError("no variables declared")
        if len(set(self.names)) != n:
            raise ValueError("duplicate variable names")
        for i, v in enumerate(self.variables):
            if v.index != i:
                raise ValueError(f"variable '{v.name}' has index {v.index}, expected {i}")
            if not _IDENTIFIER.fullmatch(v.name):
                raise ValueError(f"invalid variable name {v.name!r}")
        if not self.qffs:
            raise ValueError("no QFFs")
        for qi, qff in enumerate(self.qffs, start=1):
            for c in qff.constraints:
                if c.poly.nvars != n:
                    raise ValueError(
                        f"QFF {qi}: polynomial uses {c.poly.nvars} variable slots,"
                        f" {n} declared"
                    )

    # -- structure ----------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def system_type(self) -> str:
        """EC count of each QFF in sequence order, e.g. '21'."""
        digits = []
        for qff in self.qffs:
            k = len(qff.equational_constraints())
            if k > 9:
                raise ValueError("system type digits only cover up to 9 ECs per QFF")
            digits.append(str(k))
        return "".join(digits)

    def defining_polynomials(self) -> frozenset[Polynomial]:
        """The deduplicated, sign-normalized set of constraint polynomials."""
        return frozenset(c.poly for qff in self.qffs for c in qff.constraints)

    # -- orderings ------------------------------------------------------------

    def ordering(self, spec: str) -> "VariableOrdering":
        """The ordering written greatest-first, e.g. 'z>y>x'."""
        by_name = {v.name: v for v in self.variables}
        seq = []
        for token in spec.split(">"):
            name = token.strip()
            if name not in by_name:
                raise KeyError(f"undeclared variable '{name}'")
            seq.append(by_name[name])
        if sorted(v.index for v in seq) != list(range(self.nvars)):
            raise ValueError(
                f"ordering {'>'.join(v.name for v in seq)} is not a permutation "
                "of the declared variables"
            )
        return VariableOrdering(tuple(seq))


@dataclass(frozen=True)
class VariableOrdering:
    """A total order on the problem variables, listed greatest-first."""

    variables: tuple[Variable, ...] = field()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        idx = [v.index for v in self.variables]
        if len(set(idx)) != len(idx):
            raise ValueError("ordering repeats a variable")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(v.index for v in self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __str__(self):
        return ">".join(v.name for v in self.variables)

    def __len__(self):
        return len(self.variables)

    def __iter__(self):
        return iter(self.variables)
