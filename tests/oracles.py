"""Independent recomputation routes backing the test-suite.

Everything here is deliberately naive and self-contained: resultants come
from cofactor expansion of the Sylvester matrix, real-root counts from a
Descartes/bisection scan over exact rationals, the ordering search from
a from-scratch cascade recomputation built on those two, newh's ranking from
special and omitted sets built of Sylvester resultants, and the savings
bookkeeping from per-row `Fraction` averages and sequential `Fraction` sums.  Only the
Polynomial value type and its ring operations are shared with the package;
none of the algorithms under test (subresultant PRS, the integer
Descartes/bisection root counter, projection operators, heuristics) are
imported.  The root-count oracle follows the same rule of signs as the
package's counter but shares none of its steps: it takes the squarefree
part by rational Euclid, bounds the roots by Cauchy's bound, maps each
interval to (0, 1) by a rational affine substitution and evaluates the
midpoint, where the package works on scaled integer lists.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from cadorder.polys import (
    Polynomial,
    content_primitive,
    exact_div,
    sign_normalize,
    squarefree_part,
)

# -- Sylvester-determinant resultant ------------------------------------------


def sylvester_matrix(f: Polynomial, g: Polynomial, v: int) -> list[list[Polynomial]]:
    m, n = max(f.degree(v), 0), max(g.degree(v), 0)
    fc = [f.coefficient(v, m - i) for i in range(m + 1)]  # leading first
    gc = [g.coefficient(v, n - i) for i in range(n + 1)]
    size = m + n
    zero = Polynomial.zero(f.nvars)
    rows = []
    for i in range(n):
        rows.append([zero] * i + fc + [zero] * (size - i - m - 1))
    for j in range(m):
        rows.append([zero] * j + gc + [zero] * (size - j - n - 1))
    return rows


def _det(rows: list[list[Polynomial]], nvars: int) -> Polynomial:
    size = len(rows)
    memo: dict[tuple[int, frozenset[int]], Polynomial] = {}

    def expand(r: int, cols: frozenset[int]) -> Polynomial:
        if r == size:
            return Polynomial.const(nvars, 1)
        key = (r, cols)
        if key in memo:
            return memo[key]
        acc = Polynomial.zero(nvars)
        for pos, k in enumerate(sorted(cols)):
            entry = rows[r][k]
            if entry.is_zero():
                continue
            minor = entry * expand(r + 1, cols - {k})
            acc = acc + minor if pos % 2 == 0 else acc - minor
        memo[key] = acc
        return acc

    return expand(0, frozenset(range(size)))


def sylvester_resultant(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    """res_v(f, g) as the determinant of the Sylvester matrix.

    Empty matrix (both arguments free of v) gives the constant 1, matching
    the package convention.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    return _det(sylvester_matrix(f, g, v), f.nvars)


def oracle_discriminant(f: Polynomial, v: int) -> Polynomial:
    d = f.degree(v)
    if d < 2:
        return Polynomial.const(f.nvars, 1)
    r = sylvester_resultant(f, f.derivative(v), v)
    if r.is_zero():
        return r
    num = -r if (d * (d - 1) // 2) % 2 else r
    return exact_div(num, f.lcoeff(v))


# -- Descartes/bisection real-root counting -----------------------------------


def _fr_div(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b over the rationals (dense, constant term first)."""
    r = list(a)
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        q = r[-1] / b[-1]
        off = len(r) - len(b)
        for i in range(len(b)):
            r[off + i] -= q * b[i]
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _fr_squarefree(c: list[Fraction]) -> list[Fraction]:
    """Squarefree part of a univariate rational polynomial by plain Euclid."""
    a = list(c)
    b = [k * v for k, v in enumerate(a)][1:]  # derivative
    while b and any(b):
        a, b = b, _fr_div(a, b)
    g = a  # gcd(p, p'); p / g is exact by construction
    if len(g) == 1:
        return list(c)
    p = list(c)
    out = [Fraction(0)] * (len(p) - len(g) + 1)
    while len(p) >= len(g):
        if p[-1] == 0:
            p.pop()
            continue
        q = p[-1] / g[-1]
        k = len(p) - len(g)
        out[k] = q
        for i in range(len(g)):
            p[k + i] -= q * g[i]
        p.pop()
    return out


def _eval(c: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _variations(c: list[Fraction]) -> int:
    signs = [v > 0 for v in c if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _compose_affine(c: list[Fraction], a: Fraction, b: Fraction) -> list[Fraction]:
    """Coefficients of p(a + b*x)."""
    n = len(c)
    out = [Fraction(0)] * n
    pw: list[list[Fraction]] = [[Fraction(1)]]  # (a+bx)^j coefficients
    for _ in range(n - 1):
        prev = pw[-1]
        nxt = [Fraction(0)] * (len(prev) + 1)
        for i, v in enumerate(prev):
            nxt[i] += v * a
            nxt[i + 1] += v * b
        pw.append(nxt)
    for j, cj in enumerate(c):
        if cj:
            for i, v in enumerate(pw[j]):
                out[i] += cj * v
    while out and out[-1] == 0:
        out.pop()
    return out


def _descartes_01(c: list[Fraction]) -> int:
    """Descartes bound for roots of p inside the open interval (0, 1)."""
    n = len(c) - 1
    rev = list(reversed(c))  # u^n * p(1/u)
    shifted = [Fraction(0)] * (n + 1)
    for j, cj in enumerate(rev):  # substitute u = x + 1
        if cj:
            for k in range(j + 1):
                shifted[k] += cj * comb(j, k)
    return _variations(shifted)


def _count_open(c: list[Fraction], lo: Fraction, hi: Fraction) -> int:
    q = _compose_affine(c, lo, hi - lo)  # roots in (0,1) now
    v = _descartes_01(q)
    if v == 0:
        return 0
    if v == 1:
        return 1
    mid = (lo + hi) / 2
    here = 1 if _eval(c, mid) == 0 else 0
    return _count_open(c, lo, mid) + here + _count_open(c, mid, hi)


def descartes_root_count(coeffs: list[int] | list[Fraction]) -> int:
    """Number of distinct real roots of a univariate polynomial.

    Squarefree reduction by rational Euclid, Cauchy bound, then
    Descartes/bisection on the open positive and negative ranges with an
    explicit zero-root check.  Exact throughout.
    """
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if len(c) <= 1:
        return 0
    c = _fr_squarefree(c)
    count = 0
    if c[0] == 0:
        count += 1
        while c and c[0] == 0:
            c.pop(0)
    if len(c) <= 1:
        return count
    bound = Fraction(1) + max(abs(x) for x in c[:-1]) / abs(c[-1])
    count += _count_open(c, Fraction(0), bound)
    neg = [v if i % 2 == 0 else -v for i, v in enumerate(c)]
    count += _count_open(neg, Fraction(0), bound)
    return count


def dense_coeffs(p: Polynomial, v: int) -> list[int]:
    """Dense integer coefficient list of a univariate polynomial, low first."""
    out = [0] * (max(p.degree(v), 0) + 1)
    for e, c in p.terms.items():
        if any(k and i != v for i, k in enumerate(e)):
            raise ValueError("polynomial is not univariate in the given variable")
        out[e[v]] += c
    return out


# -- naive cascade / ordering search -------------------------------------------


def _naive_normalize(polys) -> frozenset[Polynomial]:
    out = set()
    for p in polys:
        if p.is_zero() or p.is_const():
            continue
        p = squarefree_part(p)
        p = exact_div(p, Polynomial.const(p.nvars, p.int_content()))
        out.add(sign_normalize(p))
    return frozenset(out)


def _naive_full_step(polys, v: int) -> frozenset[Polynomial]:
    contributions = []
    basis = []
    for f in sorted(polys, key=lambda p: sorted(p.terms)):
        if f.degree(v) <= 0:
            contributions.append(f)
            continue
        cont, prim = content_primitive(f, v)
        contributions.append(cont)
        prim = squarefree_part(prim)
        if prim not in basis:
            basis.append(prim)
    for f in basis:
        contributions.extend(f.coefficients(v))
        if f.degree(v) >= 2:
            contributions.append(oracle_discriminant(f, v))
    for f, g in itertools.combinations(basis, 2):
        contributions.append(sylvester_resultant(f, g, v))
    return _naive_normalize(contributions)


def _naive_tti_step(problem, v: int):
    contributions = []
    designated = []
    for qff in problem.qffs:
        ecs = [c.poly for c in qff.constraints if c.relop.value == "="]
        qff_polys = []
        for c in qff.constraints:
            if c.poly not in qff_polys:
                qff_polys.append(c.poly)
        if ecs:
            e = ecs[0]
            contributions.extend(e.coefficients(v))
            if e.degree(v) >= 2:
                contributions.append(oracle_discriminant(e, v))
            for g in qff_polys:
                if g != e:
                    contributions.append(sylvester_resultant(e, g, v))
            designated.append([e])
        else:
            step = _naive_full_step(qff_polys, v)
            contributions.extend(step)
            basis = []
            for f in sorted(qff_polys, key=lambda p: sorted(p.terms)):
                if f.degree(v) <= 0:
                    continue
                prim = squarefree_part(content_primitive(f, v)[1])
                if prim not in basis:
                    basis.append(prim)
            designated.append(basis)
    for di, dj in itertools.combinations(designated, 2):
        for f in di:
            for g in dj:
                if f != g:
                    contributions.append(sylvester_resultant(f, g, v))
    return _naive_normalize(contributions)


def naive_cascade(problem, ordering, kind: str) -> list[frozenset[Polynomial]]:
    """Stage sets for the ordering (greatest variable first), recomputed with
    schoolbook resultants."""
    stages = []
    indices = [v.index for v in ordering]
    for step, v in enumerate(indices[:-1]):
        if step == 0:
            if kind == "tti":
                current = _naive_tti_step(problem, v)
            else:
                current = _naive_full_step(problem.defining_polynomials(), v)
        else:
            current = _naive_full_step(current, v)
        stages.append(current)
    return stages


def naive_sotd(*sets) -> int:
    return sum(sum(e) for polys in sets for p in polys for e in p.terms)


def naive_ndrr(polys) -> int:
    seen = set()
    total = 0
    for p in polys:
        if p.is_const():
            continue
        q = sign_normalize(squarefree_part(p))
        if q in seen or q.is_const():
            continue
        seen.add(q)
        vs = q.variables()
        if len(vs) != 1:
            raise ValueError("ndrr needs univariate polynomials")
        total += descartes_root_count(dense_coeffs(q, next(iter(vs))))
    return total


# The heuristic id whose search naive_search(problem, measure, kind) redoes.
SEARCH_IDS = {
    ("sotd", "full"): "sotd", ("ndrr", "full"): "ndrr",
    ("sotd", "tti"): "s-tti", ("ndrr", "tti"): "n-tti",
}


def naive_search(problem, measure: str, kind: str):
    """First permutation (by declaration-index order) minimizing the measure."""
    best = None
    best_val = None
    for perm in itertools.permutations(problem.variables):
        stages = naive_cascade(problem, perm, kind)
        if measure == "sotd":
            val = naive_sotd(problem.defining_polynomials(), *stages)
        else:
            final = stages[-1] if stages else problem.defining_polynomials()
            val = naive_ndrr(final)
        if best_val is None or val < best_val:
            best, best_val = perm, val
    return tuple(v.name for v in best), best_val


# -- newh ------------------------------------------------------------------------


def _naive_lead_closure(polys, v: int) -> frozenset[Polynomial]:
    """Discriminants (degree 2 or more), leading coefficients and pairwise
    Sylvester resultants in v, sign-normalized, constants dropped."""
    polys = list(dict.fromkeys(polys))
    out = [oracle_discriminant(f, v) for f in polys if f.degree(v) >= 2]
    out += [f.lcoeff(v) for f in polys]
    out += [sylvester_resultant(f, g, v) for f, g in itertools.combinations(polys, 2)]
    return frozenset(sign_normalize(f) for f in out if not f.is_const())


def naive_newh(problem, extended: bool):
    """newh's (or with `extended`, newh-ext's) choice and tie-breaks, from
    every variable's m1 and degrees in the special and omitted sets, all
    computed up front.

    The greatest variable is the first declared one of least m1 ("lex-first"
    when another shares that m1).  The others go by m1, then, while two of
    them still share their whole key, by their degree in the special set
    ("special-set-degree"), then, for newh-ext only, in the omitted set
    ("omitted-set-degree"); what still ties goes by declaration ("lex").
    """
    vs = problem.variables
    polys = problem.defining_polynomials()
    m1 = {v: max([0] + [p.degree(v.index) for p in polys]) for v in vs}
    first = min(vs, key=lambda v: (m1[v], v.index))
    w = first.index
    special = _naive_lead_closure([qff.constraints[0].poly for qff in problem.qffs], w)
    for qff in problem.qffs:
        ecs = [c.poly for c in qff.constraints if c.relop.value == "="]
        if not ecs:
            special |= _naive_lead_closure([c.poly for c in qff.constraints], w)
        elif len(ecs) >= 2 and ecs[0] != ecs[1]:
            r = sylvester_resultant(ecs[0], ecs[1], w)
            if not r.is_const():
                special |= {sign_normalize(r)}
    omitted = _naive_lead_closure(polys, w) - special
    keys = {v: (m1[v],
                max([0] + [g.degree(v.index) for g in special]),
                max([0] + [g.degree(v.index) for g in omitted])) for v in vs}

    rest = [v for v in vs if v is not first]
    tiebreaks = ["lex-first"] if [m1[v] for v in vs].count(m1[first]) > 1 else []

    def ties(width):
        return len({keys[v][:width] for v in rest}) < len(rest)

    width = 1
    for label in ("special-set-degree", "omitted-set-degree")[: 1 + extended]:
        if not ties(width):
            break
        tiebreaks.append(label)
        width += 1
    if ties(width):
        tiebreaks.append("lex")
    rest.sort(key=lambda v: (keys[v][:width], v.index))
    return (first.name, *(v.name for v in rest)), tuple(tiebreaks)


# -- savings bookkeeping ----------------------------------------------------------


def naive_fixed(x: Fraction, places: int) -> str:
    """`places` decimals, ties to even, via Fraction rounding."""
    scaled = round(x * 10 ** places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


def _fraction_median(values: list[Fraction]) -> Fraction:
    vs = sorted(values)
    mid = len(vs) // 2
    return vs[mid] if len(vs) % 2 else (vs[mid - 1] + vs[mid]) / 2


def naive_savings(rows, partial, choices, group_of):
    """Savings, aggregate means and cost summary, recomputed row by row.

    ``rows`` maps problem id to {ordering: (cells, Fraction time)} and
    ``partial`` holds the problems to leave out; every "ok" choice must name
    a fully measured problem.  Returns (savings, aggregate, summary) as
    plain tuples and dicts of Fractions.
    """
    savings = []
    for c in sorted(choices, key=lambda r: (r.problem_id, r.heuristic)):
        if c.status != "ok" or c.problem_id in partial:
            continue
        per = rows[c.problem_id]
        avg_cells = Fraction(sum(cells for cells, _ in per.values()), len(per))
        avg_time = Fraction(sum(t for _, t in per.values()), len(per))
        cells, time_s = per[c.ordering]
        cell_pct = 100 * (avg_cells - cells) / avg_cells
        time_pct = 100 * (avg_time - Fraction(str(c.heuristic_time_s)) - time_s) / avg_time
        savings.append((c.problem_id, c.heuristic, c.ordering, cell_pct, time_pct))

    members: dict[tuple[str, str], list] = {}
    for s in savings:
        members.setdefault((group_of(s[0]), s[1]), []).append(s)
        members.setdefault(("all", s[1]), []).append(s)
    keys = sorted(k for k in members if k[0] != "all") + sorted(
        k for k in members if k[0] == "all")
    aggregate = []
    for g, h in keys:
        ms = members[(g, h)]
        cell_sum, time_sum = Fraction(0), Fraction(0)
        for s in ms:
            cell_sum += s[3]
            time_sum += s[4]
        aggregate.append((g, h, cell_sum / len(ms), time_sum / len(ms)))

    summary = []
    full = [pid for pid in rows if pid not in partial]
    for g in sorted({group_of(pid) for pid in full}):
        pids = [pid for pid in full if group_of(pid) == g]
        cells = [Fraction(c) for pid in pids for c, _ in rows[pid].values()]
        times = [t for pid in pids for _, t in rows[pid].values()]
        cell_means = [Fraction(sum(c for c, _ in rows[pid].values()), len(rows[pid]))
                      for pid in pids]
        time_means = [sum(t for _, t in rows[pid].values()) / len(rows[pid]) for pid in pids]
        summary.append({
            "group": g,
            "problems": len(pids),
            "mean_cells": sum(cells) / len(cells),
            "median_cells": _fraction_median(cells),
            "median_problem_mean_cells": _fraction_median(cell_means),
            "mean_time_s": sum(times) / len(times),
            "median_time_s": _fraction_median(times),
            "median_problem_mean_time_s": _fraction_median(time_means),
        })
    return savings, aggregate, summary


def naive_csv_texts(savings, aggregate, summary) -> tuple[str, str, str]:
    """savings.csv, aggregate.csv and summary.csv as text with \\n line ends."""
    stats = ["mean_cells", "median_cells", "median_problem_mean_cells",
             "mean_time_s", "median_time_s", "median_problem_mean_time_s"]
    lines = (
        ["problem_id,heuristic,ordering,cell_saving_pct,time_saving_pct"]
        + [f"{p},{h},{o},{naive_fixed(c, 1)},{naive_fixed(t, 1)}"
           for p, h, o, c, t in savings],
        ["group,heuristic,mean_cell_saving_pct,mean_time_saving_pct"]
        + [f"{g},{h},{naive_fixed(c, 1)},{naive_fixed(t, 1)}" for g, h, c, t in aggregate],
        [",".join(["group", "problems", *stats])]
        + [",".join([r["group"], str(r["problems"]), *(naive_fixed(r[k], 2) for k in stats)])
           for r in summary],
    )
    return tuple("".join(line + "\n" for line in part) for part in lines)
