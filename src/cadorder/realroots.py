"""Counting distinct real roots of univariate integer polynomials.

Descartes' rule of signs with bisection (Collins and Akritas, 1976) on the
dense integer coefficient list of the squarefree part.  A root at 0 is
counted and divided out; the positive roots of f(x) and of f(-x) lie below
2^k, a power of two above Fujiwara's root bound, and x = 2^k y maps them
into (0, 1).  There the sign variations of (y + 1)^n p(1 / (y + 1)) bound
the roots and are exact when 0 or 1; otherwise 2^n p(y / 2) is the left
half, its Taylor shift by 1 the right half, and a zero constant term of the
right half a root at the midpoint.
"""

from __future__ import annotations

from typing import Iterable

from cadorder.polys import Polynomial, squarefree_part
from cadorder.projection import Workspace, _memo, normalize_set

__all__ = ["count_real_roots", "ndrr"]


def _shift1(c: list[int]) -> list[int]:
    """Coefficients of p(x + 1) from those of p, lowest degree first."""
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _roots_01(c: list[int]) -> int:
    """Number of roots in (0, 1) of the squarefree p with coefficients c.
    The halves wait on a list, not on the call stack, so roots closer than
    2^-1000 do not run into the recursion limit."""
    count, todo = 0, [c]
    while todo:
        c = todo.pop()
        signs = [a > 0 for a in _shift1(c[::-1]) if a]
        v = sum(s != t for s, t in zip(signs, signs[1:]))
        if v < 2:
            count += v
            continue
        n = len(c) - 1
        left = [a << (n - i) for i, a in enumerate(c)]  # 2^n p(x / 2)
        right = _shift1(left)  # 2^n p((x + 1) / 2)
        if right[0] == 0:  # a root at the midpoint
            count += 1
            right = right[1:]
        todo += left, right
    return count


def count_real_roots(f: Polynomial) -> int:
    """Number of distinct real roots of a nonzero univariate polynomial; the
    squarefree part comes through the open workspace, if any."""
    if f.is_zero():
        raise ValueError("root count of the zero polynomial is undefined")
    vs = f.variables()
    if len(vs) > 1:
        raise ValueError(f"{f} is not univariate")
    if not vs:
        return 0
    (v,) = vs
    g = _memo(squarefree_part, f)
    c = [0] * (g.degree(v) + 1)
    for e, a in g.terms.items():
        c[e[v]] = a
    at_zero = 1 if c[0] == 0 else 0
    c = c[at_zero:]
    # |c_i / c_n| < 2^(bits(c_i) - top), so 2^k is above Fujiwara's bound
    # 2 max |c_i / c_n|^(1 / (n - i)) on the absolute value of every root
    n, top = len(c) - 1, abs(c[-1]).bit_length() - 1
    k = 1 + max([0] + [-((top - abs(a).bit_length()) // (n - i))
                       for i, a in enumerate(c[:-1]) if a])
    pos = [a << (k * i) for i, a in enumerate(c)]
    neg = [-a if i % 2 else a for i, a in enumerate(pos)]
    return at_zero + _roots_01(pos) + _roots_01(neg)


def ndrr(polys: Iterable[Polynomial]) -> int:
    """Sum of distinct-real-root counts over the canonical set of polys
    (`normalize_set`: distinct squarefree parts of the non-constant members).

    Root counts shared between different polynomials are counted once per
    polynomial; only exact duplicates of the canonical form collapse.
    Constants contribute zero.  Runs inside a workspace (joining the open
    one, if any), so each member's squarefree part is taken once.
    """
    with Workspace():
        return sum(count_real_roots(g) for g in normalize_set(polys))
