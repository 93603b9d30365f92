"""Differential tests of the memoized primitives against sympy.

A third, independent implementation next to `oracles.py`: resultants and
discriminants must agree exactly (resultants with the larger degree first,
see `test_resultant_sign_follows_the_sylvester_determinant`), gcds with a
single-term operand and gcds by the subresultant fallback exactly (integer
content included), squarefree parts up to sympy's content and sign, and
real-root counts with `Poly.count_roots` (distinct roots).  The `.prob`
parser is checked against sympy's expansion, since it shares the kernel's
arithmetic with `Polynomial`.
"""

import random
import time
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from cadorder import polys
from cadorder.formula import Relop
from cadorder.generator import GenParams, random_polynomial
from cadorder.polys import (
    Polynomial,
    discriminant,
    poly_gcd,
    resultant,
    sign_normalize,
    squarefree_part,
)
from cadorder.probio import ProblemFormatError, parse_problem
from cadorder.realroots import count_real_roots

sympy = pytest.importorskip("sympy")

SYMS = sympy.symbols("x0:3")


def to_sympy(f: Polynomial):
    return sympy.Add(*(
        c * sympy.Mul(*(s**k for s, k in zip(SYMS, e)))
        for e, c in f.terms.items()
    ))


def from_sympy(expr, nvars: int) -> Polynomial:
    poly = sympy.Poly(expr, *SYMS[:nvars])
    return Polynomial(nvars, {e: int(c) for e, c in poly.terms()})


def rand_poly(rng, nvars, max_deg=3, terms=4, bound=6, factor=True):
    """A random polynomial, sometimes a product with a repeated factor."""
    def one():
        out = {}
        for _ in range(rng.randint(1, terms)):
            e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
            out[e] = rng.randint(-bound, bound)
        return Polynomial(nvars, out)

    f = one()
    while f.is_const():
        f = one()
    if factor and rng.random() < 0.4:
        g = one()
        if not g.is_zero():
            f = f * g**2
    return f


def assert_resultant_and_discriminant_equal_sympy(f, g, v):
    nvars, x = f.nvars, SYMS[v]
    m, n = f.degree(v), g.degree(v)
    if m >= 1 and n >= 1:
        if m < n:
            f, g, m, n = g, f, n, m
        want = from_sympy(sympy.resultant(to_sympy(f), to_sympy(g), x), nvars)
        assert resultant(f, g, v) == want
        assert resultant(g, f, v) == want * (-1) ** (m * n)
    if f.degree(v) >= 2:
        want = from_sympy(sympy.discriminant(to_sympy(f), x), nvars)
        assert discriminant(f, v) == want


@pytest.mark.parametrize("seed", range(6))
def test_resultant_and_discriminant_equal_sympy(seed):
    rng = random.Random(seed)
    for _ in range(12):
        nvars = rng.randint(1, 3)
        f = rand_poly(rng, nvars, factor=False)
        g = rand_poly(rng, nvars, factor=False)
        assert_resultant_and_discriminant_equal_sympy(f, g, rng.randrange(nvars))


@pytest.mark.parametrize("seed", range(6))
def test_resultant_and_discriminant_with_a_linear_operand_equal_sympy(seed):
    # g = b1*v + b0 is linear in v, and so is the derivative of the quadratic q
    rng = random.Random(400 + seed)
    for _ in range(12):
        nvars = rng.randint(1, 3)
        v = rng.randrange(nvars)
        xv = Polynomial.var(nvars, v)

        def free():  # free of v, zero a quarter of the time
            if rng.random() < 0.25:
                return Polynomial.zero(nvars)
            f = rand_poly(rng, nvars, factor=False)
            return Polynomial(nvars, {e[:v] + (0,) + e[v + 1:]: c for e, c in f.terms.items()})

        b1 = free() or Polynomial.const(nvars, rng.choice((-3, 2, 5)))
        g = b1 * xv + free()
        f = rand_poly(rng, nvars, factor=False) + rng.choice((-2, 1, 3)) * xv ** rng.randint(1, 5)
        q = b1 * xv**2 + free() * xv + free()
        assert_resultant_and_discriminant_equal_sympy(f, g, v)
        assert_resultant_and_discriminant_equal_sympy(q, g, v)


def test_resultant_sign_follows_the_sylvester_determinant():
    # sympy 1.14's resultant(f, g) drops the (-1)^(mn) sign when deg f < deg g
    # (it gives -56 here), so the tests above call it with deg f >= deg g;
    # its own Sylvester determinant agrees with ours
    from sympy.polys.subresultants_qq_zz import sylvester

    x = Polynomial.var(1, 0)
    f, g = 2 * x, 3 * x**3 + 5 * x + 7
    assert resultant(f, g, 0) == 56 == sylvester(to_sympy(f), to_sympy(g), SYMS[0]).det()
    assert resultant(g, f, 0) == -56


EXPONENTS = st.tuples(*[st.integers(0, 3)] * 3)
COEFFICIENTS = st.integers(-12, 12).filter(bool)


@settings(max_examples=150, deadline=None)
@given(e=EXPONENTS, c=COEFFICIENTS, g=st.dictionaries(EXPONENTS, COEFFICIENTS, min_size=1, max_size=4))
def test_gcd_with_a_single_term_equals_sympy_gcd(e, c, g):
    m, g = Polynomial(3, {e: c}), Polynomial(3, g)
    want = sign_normalize(from_sympy(sympy.gcd(to_sympy(m), to_sympy(g)), 3))
    assert poly_gcd(m, g) == want
    assert poly_gcd(g, m) == want


@pytest.mark.parametrize("seed", range(4))
def test_gcd_fallback_equals_sympy_gcd(seed, monkeypatch):
    # with GCDHEU failing, every gcd of multi-term operands, the inner
    # content gcds included, runs the subresultant sequence of the
    # primitive parts in the greatest variable v
    rng = random.Random(700 + seed)
    ends = []
    subresultants = polys._subresultants

    def spy(A, B):
        out = subresultants(A, B)
        ends.append("v-free" if out[1] else "zero")
        return out

    monkeypatch.setattr(polys, "_heuristic_gcd", lambda f, g: None)
    monkeypatch.setattr(polys, "_subresultants", spy)
    x, y, z = (Polynomial.var(3, i) for i in range(3))
    cases = []
    for _ in range(5):  # a planted common factor
        w = rand_poly(rng, 3, max_deg=2, terms=3, factor=False)
        f, g = (rand_poly(rng, 3, max_deg=2, factor=False) * w for _ in range(2))
        cases.append((f, g))
    # coprime in v = z: the sequence ends on a nonzero member free of z
    cases += [(z**2 + x, z + y), (x * z**3 - 3 * y, (y * z + 2) * (x + 1))]
    # g free of z: its primitive part in z has degree 0
    cases += [((x + 1) * (y * z + 2), (x + 1) * (x**2 - 3 * y)), (z**2 * y - x, 2 * y - 6)]
    for f, g in cases:
        want = sign_normalize(from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)), 3))
        assert poly_gcd(f, g) == want
        assert poly_gcd(g, f) == want
    assert {"v-free", "zero"} <= set(ends)


@pytest.mark.parametrize("seed", range(6))
def test_squarefree_part_equals_sympy_sqf_part(seed):
    rng = random.Random(100 + seed)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        f = rand_poly(rng, nvars, max_deg=2, terms=3)
        g = from_sympy(sympy.sqf_part(sympy.Poly(to_sympy(f), *SYMS[:nvars])).as_expr(), nvars)
        c = g.int_content()
        g = Polynomial(nvars, {e: a // c for e, a in g.terms.items()})
        assert squarefree_part(f) == sign_normalize(g)


@pytest.mark.parametrize("seed,tdeg,terms", [(5, 4, 5), (6, 5, 5), (7, 5, 6), (8, 4, 6)])
def test_squarefree_part_of_a_large_repeated_factor_equals_sympy(seed, tdeg, terms):
    # f*g^2 at these sizes took over a minute with a remainder-sequence gcd
    rng = random.Random(seed)
    params = GenParams(3, tdeg, terms, 10, seed)
    f, g = random_polynomial(params, rng), random_polynomial(params, rng)
    start = time.process_time()
    got = squarefree_part(f * g**2)
    assert time.process_time() - start < 1.0
    want = sympy.sqf_part(sympy.Poly(to_sympy(f * g**2), *SYMS)).primitive()[1]
    assert got == sign_normalize(from_sympy(want.as_expr(), 3))


def test_count_real_roots_counts_distinct_roots():
    x = Polynomial.var(1, 0)
    assert count_real_roots((x - 1) ** 2 * (x + 2)) == 2
    assert sympy.Poly(to_sympy((x - 1) ** 2 * (x + 2)), SYMS[0]).count_roots() == 2


def dyadic_product(rng):
    """A product of (2^k x - a) factors, some repeated, at random times
    x^2 + c: its roots fall on bisection midpoints and at 0."""
    x = Polynomial.var(1, 0)
    f = Polynomial.const(1, 1)
    for _ in range(rng.randint(1, 4)):
        f = f * (2 ** rng.randint(0, 5) * x - rng.randint(-16, 16)) ** rng.randint(1, 2)
    if rng.random() < 0.5:
        f = f * (x**2 + rng.randint(-9, 9))
    return f


@pytest.mark.parametrize("seed", range(6))
def test_count_real_roots_equals_sympy_count_roots(seed):
    rng = random.Random(200 + seed)
    cases = [rand_poly(rng, 1, max_deg=5, terms=5, bound=9) for _ in range(20)]
    cases += [dyadic_product(rng) for _ in range(70)]
    for f in cases:
        want = sympy.Poly(to_sympy(f), SYMS[0]).count_roots()
        assert count_real_roots(f) == want, f


# binding strengths of what an expression text is, loosest first
SUM, PRODUCT, NEGATION, POWER, ATOM = range(5)


def rand_expr(rng, depth, minimal):
    """A random expression tree as (.prob text, sympy expression, binding
    strength) over x, y, z.  With ``minimal`` the text has only the
    parentheses the grammar needs: ``+ - * /`` associate to the left, unary
    minus is bare and a power's base is an atom or parenthesized; otherwise
    every subexpression is parenthesized."""
    def wrap(text, strength, need):
        return text if minimal and strength >= need else f"({text})"

    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            i = rng.randrange(3)
            return "xyz"[i], SYMS[i], ATOM
        k = rng.randint(0, 9)
        return str(k), sympy.Integer(k), ATOM
    op = rng.choice("+-*^n/")
    # a power's base is at most one operation deep, so degrees stay small
    a, ea, sa = rand_expr(rng, depth - 1 if op != "^" else min(depth - 1, 1), minimal)
    if op == "^":
        k = rng.randint(0, 4)
        return f"{wrap(a, sa, ATOM)}^{k}", ea**k, POWER
    if op == "n":
        return f"-{wrap(a, sa, NEGATION)}", -ea, NEGATION
    if op == "/":
        num, den = rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)
        if minimal:  # a chain like x/2/3 divides by 6
            return f"{wrap(a, sa, PRODUCT)}/{num}/{den}", ea / (num * den), PRODUCT
        return f"({a})/({num}/{den})", ea / sympy.Rational(num, den), PRODUCT
    b, eb, sb = rand_expr(rng, depth - 1, minimal)
    binds = SUM if op in "+-" else PRODUCT
    text = f"{wrap(a, sa, binds)}{op}{wrap(b, sb, binds + 1)}"
    return text, {"+": ea + eb, "-": ea - eb, "*": ea * eb}[op], binds


@pytest.mark.parametrize("seed", range(8))
def test_parser_equals_sympy_expansion(seed):
    rng = random.Random(300 + seed)
    minimal = seed % 2 == 1
    for _ in range(25):
        lhs, elhs, _ = rand_expr(rng, 3, minimal)
        rhs, erhs, _ = rand_expr(rng, 3, minimal)
        if rng.random() < 0.1:  # both sides equal: the constraint is zero
            rhs, erhs = f"({lhs})*1", elhs
        text = f"vars: x,y,z\nqff: {lhs} < {rhs}\n"
        diff = sympy.expand(elhs - erhs)
        if diff == 0:
            with pytest.raises(ProblemFormatError):
                parse_problem(text)
            continue
        terms = sympy.Poly(diff, *SYMS).terms()
        scale = lcm(*(int(c.q) for _, c in terms))
        want = Polynomial(3, {e: int(c * scale) for e, c in terms})
        got = parse_problem(text).qffs[0].constraints[0]
        assert got.poly == sign_normalize(want), text
        assert got.relop is (Relop.LT if got.poly == want else Relop.GT), text
