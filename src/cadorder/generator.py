"""Seeded random problem generator.

System types are digit strings: one digit per QFF giving its number of
equational constraints; every generated QFF has exactly two constraints, the
equations first, the rest strict inequalities (type "21" is two QFFs, the
first with two equations, the second with one equation and one inequality).

Determinism contract: every (seed, label, index) triple names its own
substream (derived by hashing, so corpora are stable under reordering and
independent of how many problems were drawn before), and identical
parameters always reproduce identical problems.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from cadorder.formula import QFF, Constraint, Problem, Relop, Variable
from cadorder.polys import Polynomial

__all__ = [
    "GenParams",
    "variable_names",
    "item_seed",
    "random_polynomial",
    "random_problem",
    "generate_corpus",
]

_CONSTRAINTS_PER_QFF = 2


@dataclass(frozen=True)
class GenParams:
    n_vars: int = 3
    max_tdeg: int = 4
    terms: int = 4
    coeff_bound: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError("n_vars must be at least 1")
        if self.max_tdeg < 1:
            raise ValueError("max_tdeg must be at least 1")
        if self.terms < 1:
            raise ValueError("terms must be at least 1")
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


def variable_names(n: int) -> tuple[str, ...]:
    if n <= 4:
        return ("x", "y", "z", "v")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def item_seed(seed: int, label: str, index: int) -> int:
    """Substream seed for one corpus item, stable across platforms."""
    digest = hashlib.blake2b(
        f"{seed}:{label}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@lru_cache(maxsize=8)
def _monomial_pool(n_vars: int, max_tdeg: int) -> tuple[tuple[int, ...], ...]:
    """Every exponent tuple of total degree <= max_tdeg, sorted.  Built one
    variable at a time, so the work is the size of the pool, not
    (max_tdeg+1)^n_vars.  Memoized for the life of the process, one entry for
    each of the eight most recently used (n_vars, max_tdeg) pairs; the pool
    is a tuple, so the callers that share it cannot change it."""
    pool: list[tuple[int, ...]] = [()]
    for _ in range(n_vars):
        pool = [e + (k,) for e in pool for k in range(max_tdeg - sum(e) + 1)]
    return tuple(pool)


def random_polynomial(params: GenParams, rng: random.Random) -> Polynomial:
    """Draw a nonzero nonconstant polynomial: up to ``params.terms`` distinct
    monomials of total degree <= max_tdeg, nonzero coefficients bounded by
    coeff_bound in magnitude."""
    pool = _monomial_pool(params.n_vars, params.max_tdeg)
    k = min(params.terms, len(pool))
    while True:
        monos = rng.sample(pool, k)
        terms = {}
        for e in monos:
            c = rng.randint(1, params.coeff_bound)
            if rng.choice((1, -1)) < 0:
                c = -c
            terms[e] = c
        poly = Polynomial(params.n_vars, terms)
        if not poly.is_const():
            return poly


def _check_label(label: str) -> None:
    if not label or not label.isdigit():
        raise ValueError(f"malformed system type {label!r}: digits only")
    if any(int(d) > _CONSTRAINTS_PER_QFF for d in label):
        raise ValueError(
            f"malformed system type {label!r}: at most "
            f"{_CONSTRAINTS_PER_QFF} equations per QFF"
        )


def random_problem(label: str, params: GenParams, index: int = 0) -> Problem:
    """One random problem of the given system type."""
    _check_label(label)
    rng = random.Random(item_seed(params.seed, label, index))
    variables = tuple(
        Variable(name, i) for i, name in enumerate(variable_names(params.n_vars))
    )
    qffs = []
    for digit in label:
        n_eq = int(digit)
        constraints = []
        for j in range(_CONSTRAINTS_PER_QFF):
            relop = Relop.EQ if j < n_eq else Relop.LT
            constraints.append(Constraint(random_polynomial(params, rng), relop))
        qffs.append(QFF(tuple(constraints)))
    return Problem(variables, tuple(qffs))


def generate_corpus(
    types: list[str], count: int, params: GenParams
) -> list[tuple[str, Problem]]:
    """``count`` problems per system type, in (types, index) order.  Each
    type is given once: a repeat would draw the same problems again."""
    if count < 1:
        raise ValueError("count must be at least 1")
    for i, label in enumerate(types):
        _check_label(label)
        if label in types[:i]:
            raise ValueError(f"system type {label!r} is given more than once")
    return [
        (label, random_problem(label, params, index=i))
        for label in types
        for i in range(count)
    ]
