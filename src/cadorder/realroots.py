"""Counting distinct real roots of univariate integer polynomials.

Sturm chains are built fraction-free: each new entry is the negated
pseudo-remainder of the previous two, rescaled so the implicit multiplier is
positive (otherwise pseudo-division by a negative leading coefficient would
corrupt the sign sequence), then divided by its positive integer content to
keep coefficients small.  The number of distinct real roots is the drop in
sign variations between -infinity and +infinity.
"""

from __future__ import annotations

from typing import Iterable

from cadorder.polys import Polynomial, _int_content_primitive, prem, squarefree_part
from cadorder.projection import normalize_set

__all__ = ["sturm_chain", "count_real_roots", "ndrr"]


def _univariate_in(f: Polynomial) -> int | None:
    """Index of the single variable of f, or None for constants; raises on
    zero or genuinely multivariate input."""
    if f.is_zero():
        raise ValueError("Sturm chain of the zero polynomial is undefined")
    vs = f.variables()
    if len(vs) > 1:
        raise ValueError(f"{f} is not univariate")
    return next(iter(vs)) if vs else None


def _chain(f: Polynomial, v: int) -> list[Polynomial]:
    """Sturm chain of f itself, f non-constant in v, no squarefree pass."""
    chain = [f, _int_content_primitive(f.derivative(v))[1]]
    while True:
        a, b = chain[-2], chain[-1]
        da, db = a.degree(v), b.degree(v)
        r = prem(a, b, v)
        if r.is_zero():
            break
        lb = next(iter(b.lcoeff(v).terms.values()))
        if lb < 0 and (da - db + 1) % 2 == 1:
            # make the implicit multiplier positive
            r = -r
        chain.append(_int_content_primitive(-r)[1])
    return chain


def sturm_chain(f: Polynomial) -> list[Polynomial]:
    """Sturm chain of the squarefree part of f (nonzero, univariate)."""
    v = _univariate_in(f)
    f0 = squarefree_part(f)
    if v is None or f0.is_const():
        return [f0]
    return _chain(f0, v)


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def count_real_roots(f: Polynomial) -> int:
    """Number of distinct real roots of a nonzero univariate polynomial.

    Uses the chain of f itself, without a squarefree pass: a repeated factor
    ends the chain at gcd(f, f') instead of a constant, and multiplies every
    entry's sign at -infinity and +infinity alike, so the drop in sign
    variations still counts each distinct real root once.
    """
    v = _univariate_in(f)
    if v is None:
        return 0
    chain = _chain(_int_content_primitive(f)[1], v)
    at_neg = []
    at_pos = []
    for p in chain:
        d = p.degree(v)
        lead = next(iter(p.lcoeff(v).terms.values()))
        s = 1 if lead > 0 else -1
        at_pos.append(s)
        at_neg.append(s if d % 2 == 0 else -s)
    return _variations(at_neg) - _variations(at_pos)


def ndrr(polys: Iterable[Polynomial]) -> int:
    """Sum of distinct-real-root counts over the canonical set of polys
    (`normalize_set`: distinct squarefree parts of the non-constant members).

    Root counts shared between different polynomials are counted once per
    polynomial; only exact duplicates of the canonical form collapse.
    Constants contribute zero.
    """
    return sum(count_real_roots(g) for g in normalize_set(polys))
