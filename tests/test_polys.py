"""Polynomial core: arithmetic, conventions, gcd/squarefree, resultants."""

import random
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

import cadorder.polys as polys_mod
from cadorder import _kernel_py
from cadorder.polys import (
    ExactDivisionError,
    Polynomial,
    content_primitive,
    discriminant,
    exact_div,
    poly_gcd,
    resultant,
    sign_normalize,
    squarefree_part,
)
from oracles import sylvester_resultant

NAMES = ("x", "y", "z")
X = Polynomial.var(3, 0)
Y = Polynomial.var(3, 1)
Z = Polynomial.var(3, 2)
ONE = Polynomial.const(3, 1)


def rand_poly(rng, nvars=3, tdeg=3, terms=3, bound=9):
    d = {}
    for _ in range(terms):
        e = [0] * nvars
        for _ in range(rng.randrange(tdeg + 1)):
            e[rng.randrange(nvars)] += 1
        d[tuple(e)] = rng.randrange(1, bound + 1) * rng.choice((1, -1))
    return Polynomial(nvars, d)


# -- value semantics ------------------------------------------------------------


def test_constructor_drops_zero_coefficients_and_validates():
    p = Polynomial(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): 3}
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(0)


@pytest.mark.parametrize("terms", [
    {(1,): 1.5}, {(1,): Fraction(3, 2)}, {(1.5,): 1}, {(1,): "2"},
], ids=["float-coefficient", "fraction-coefficient", "float-exponent", "text-coefficient"])
def test_constructor_rejects_values_that_are_not_integers(terms):
    # int() would truncate 1.5 and 3/2 to 1, and 1.5 used to be kept as an exponent
    with pytest.raises(ValueError, match="not an integer"):
        Polynomial(1, terms)


def test_const_and_var_reject_values_that_are_not_integers():
    with pytest.raises(ValueError, match="coefficient 1.5 is not an integer"):
        Polynomial.const(1, 1.5)
    with pytest.raises(ValueError, match="exponent 1.5 is not an integer"):
        Polynomial.var(1, 0, 1.5)
    assert Polynomial.var(1, 0, 2.0).terms == {(2,): 1}


def test_constructor_stores_integral_values_as_int():
    p = Polynomial(1, {(2.0,): Fraction(6, 2), (1,): 4.0})
    assert p.terms == {(2,): 3, (1,): 4}
    assert all(type(x) is int for e, c in p.terms.items() for x in (*e, c))
    assert p.to_str() == "3*x0^2+4*x0"


def test_polynomials_are_immutable_hashable_values():
    p = X + Y
    q = Y + X
    assert p == q and hash(p) == hash(q)
    assert p != X
    assert len({p, q}) == 1
    with pytest.raises(AttributeError):
        p.nvars = 5
    assert Polynomial.const(3, 7) == 7
    assert Polynomial.zero(3) == 0


def test_cross_context_arithmetic_is_rejected():
    with pytest.raises(ValueError):
        X + Polynomial.var(2, 0)
    with pytest.raises(ValueError):
        resultant(X, Polynomial.var(2, 0), 0)


def test_ring_arithmetic_basics():
    f = 2 * X * X - 3 * Y + 1
    g = X * Y - 5
    assert f - f == 0
    assert f * 0 == 0
    assert f * ONE == f
    assert (f + g) * (f - g) == f * f - g * g
    assert -(-f) == f
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    assert X ** 0 == 1
    with pytest.raises(ValueError):
        X ** -1


def test_degree_conventions():
    assert Polynomial.zero(3).degree(0) == -1
    assert ONE.degree(0) == 0
    assert (X * X * Y + Z).degree(0) == 2
    assert (X * X * Y + Z).degree(1) == 1
    assert (X * X * Y + Z).total_degree() == 3
    with pytest.raises(ValueError):
        Polynomial.zero(3).total_degree()


def test_graded_lex_leading_term_and_sign_normalize():
    # total degree first, then lexicographic with earlier slots weighing more
    f = X * X - Y * Y * Y
    assert f.lead_term() == ((0, 3, 0), -1)
    assert sign_normalize(f).lead_term() == ((0, 3, 0), 1)
    assert sign_normalize(Polynomial.zero(3)) == 0
    # ties in total degree: x^2 beats x*y beats y^2
    g = X * Y + Y * Y
    assert g.lead_term() == ((1, 1, 0), 1)


def test_coefficient_extraction():
    f = 2 * X * X * Y + 3 * X - Z + 1
    assert f.lcoeff(0) == 2 * Y
    assert f.coefficient(0, 1) == Polynomial.const(3, 3)
    assert f.coefficient(0, 0) == 1 - Z
    cs = f.coefficients(0)
    assert len(cs) == 3
    assert cs[0] == 2 * Y and cs[2] == 1 - Z
    assert Polynomial.zero(3).coefficients(0) == []


@pytest.mark.parametrize("v", [-1, -3, 3])
def test_variable_index_out_of_range_is_rejected(v):
    # e[:v] + (0,) + e[v + 1:] with v = -1 builds tuples of the wrong length
    f = X * Y + Y**2 + 1
    for method in (lambda: f.coefficient(v, 0), lambda: f.coefficients(v),
                   lambda: f.derivative(v), lambda: f.degree(v),
                   lambda: Polynomial.zero(3).degree(v)):
        with pytest.raises(ValueError, match="out of range"):
            method()
    with pytest.raises(ValueError, match="out of range"):
        Polynomial.var(3, v)


def test_to_str_round_shapes():
    assert (X * X + Y - 1).to_str(NAMES) == "x^2+y-1"
    assert (-4 * Y * Y + 4).to_str(NAMES) == "-4*y^2+4"
    assert Polynomial.zero(3).to_str(NAMES) == "0"
    assert (X * Y * Z).to_str(NAMES) == "x*y*z"


# -- division, content, gcd -------------------------------------------------------


def test_exact_div_and_errors():
    f = (X + Y) * (X - 2 * Z)
    assert exact_div(f, X + Y) == X - 2 * Z
    with pytest.raises(ExactDivisionError):
        exact_div(X + 1, X + Y)
    with pytest.raises(ZeroDivisionError):
        exact_div(X, Polynomial.zero(3))
    assert exact_div(Polynomial.zero(3), X) == 0


EXPONENTS = st.tuples(*[st.integers(0, 3)] * 3)
COEFFICIENTS = st.integers(-12, 12).filter(bool)


@settings(max_examples=300, deadline=None)
@given(
    a=st.dictionaries(EXPONENTS, COEFFICIENTS, max_size=5),
    e=EXPONENTS,
    c=COEFFICIENTS,
    multiple=st.booleans(),
)
def test_single_term_division_is_exact_or_refused(a, e, c, multiple):
    b = {e: c}
    if multiple:  # half the dividends are multiples of b, half mostly not
        a = _kernel_py.kmul(a, b)
    q = _kernel_py.kexact_div(a, b)
    if q is not None:
        assert _kernel_py.kmul(q, b) == a
        assert all(min(eq) >= 0 for eq in q)
    else:
        assert not multiple
        assert any(min(map(sub, ea, e)) < 0 or ca % c for ea, ca in a.items())


@pytest.mark.parametrize("a,b,want", [
    ({(2, 1, 0): 6, (1, 0, 0): -4}, {(1, 0, 0): -2}, {(1, 1, 0): -3, (0, 0, 0): 2}),
    ({(2, 1, 0): 6, (0, 0, 0): 4}, {(1, 0, 0): 2}, None),  # a lower-degree term
    ({(2, 1, 0): 6, (0, 0, 1): -4}, {(0, 0, 0): 1}, {(2, 1, 0): 6, (0, 0, 1): -4}),
    ({(2, 1, 0): 6, (0, 0, 1): -4}, {(0, 0, 0): -1}, {(2, 1, 0): -6, (0, 0, 1): 4}),
    ({(2, 1, 0): 6, (0, 0, 1): -4}, {(0, 0, 0): 2}, {(2, 1, 0): 3, (0, 0, 1): -2}),
    ({(2, 1, 0): 6, (0, 0, 1): -4}, {(0, 0, 0): 3}, None),
    ({(1, 0, 0): 7}, {(0, 0, 0): -2}, None),
    ({(1, 1, 1): 5}, {(0, 2, 0): 5}, None),
])
def test_single_term_division_fixtures(a, b, want):
    assert _kernel_py.kexact_div(a, b) == want


def test_content_primitive_round_trip():
    f = 6 * Y * X * X - 4 * Y * Y * X
    cont, prim = content_primitive(f, 0)
    assert cont * prim == f
    assert cont == 2 * Y
    g = -3 * X - 6
    cont, prim = content_primitive(g, 0)
    assert cont == 3 and prim == -X - 2  # content positive, sign stays on prim
    with pytest.raises(ValueError):
        content_primitive(Polynomial.zero(3), 0)


def prem(f, g, v):
    """`_list_prem` on the coefficients of f and g in v, joined back into a
    polynomial."""
    r = polys_mod._list_prem(f._coefficient_terms(v, f.degree(v)),
                             g._coefficient_terms(v, g.degree(v)))
    return Polynomial(f.nvars, {e[:v] + (i,) + e[v + 1:]: x
                                for i, c in enumerate(r) for e, x in c.items()})


def test_prem_is_exact_multiplier_pseudo_remainder():
    rng = random.Random(11)
    for _ in range(60):
        f = rand_poly(rng)
        g = rand_poly(rng)
        v = rng.randrange(3)
        if g.degree(v) < 1 or f.degree(v) < g.degree(v):
            continue
        r = prem(f, g, v)
        # lc(g)^(df-dg+1) * f = q*g + r for some q; check by reconstructing q
        lhs = g.lcoeff(v) ** (f.degree(v) - g.degree(v) + 1) * f - r
        assert r.is_zero() or r.degree(v) < g.degree(v)
        exact_div(lhs, g)  # must not raise


def _free_poly(draw, nvars, v, min_size, max_size=3):
    """A polynomial free of variable v, exponents 0-2 in the others."""
    exps = st.tuples(*[st.integers(0, 2)] * nvars).map(lambda e: e[:v] + (0,) + e[v + 1:])
    return Polynomial(nvars, draw(st.dictionaries(exps, COEFFICIENTS, min_size=min_size,
                                                  max_size=max_size)))


def _in_v(coefficients, nvars, v):
    """sum(c_k * v^k) over the v-free c_0 .. c_d."""
    return sum((c * Polynomial.var(nvars, v, k) for k, c in enumerate(coefficients)),
               Polynomial.zero(nvars))


@st.composite
def prem_pairs(draw):
    """(f, g, v): deg_v f 3-6, deg_v f - deg_v g >= 2, middle coefficients
    often zero, and lc(g) not constant when there is a variable besides v,
    so that some pseudo-division steps pop a zero top entry."""
    nvars = draw(st.integers(1, 3))
    v = draw(st.integers(0, nvars - 1))
    df = draw(st.integers(3, 6))
    dg = draw(st.integers(1, df - 2))
    lg = _free_poly(draw, nvars, v, 1)
    if nvars > 1:
        lg = lg * Polynomial.var(nvars, (v + 1) % nvars)
    f = [_free_poly(draw, nvars, v, 0) for _ in range(df)] + [_free_poly(draw, nvars, v, 1)]
    g = [_free_poly(draw, nvars, v, 0) for _ in range(dg)] + [lg]
    return _in_v(f, nvars, v), _in_v(g, nvars, v), v


@settings(max_examples=200, deadline=None)
@given(prem_pairs())
def test_list_pseudo_remainder_property(pair):
    f, g, v = pair
    r = prem(f, g, v)
    assert r.degree(v) < g.degree(v)
    exact_div(g.lcoeff(v) ** (f.degree(v) - g.degree(v) + 1) * f - r, g)  # must not raise


def test_poly_gcd_fixture_and_properties():
    assert poly_gcd(2 * X * X - 2, 4 * X - 4) == 2 * X - 2
    assert poly_gcd(Polynomial.zero(3), -3 * X) == 3 * X
    assert poly_gcd(Polynomial.const(3, 4), Polynomial.const(3, 6)) == 2
    with pytest.raises(ValueError):
        poly_gcd(Polynomial.zero(3), Polynomial.zero(3))
    rng = random.Random(23)
    for _ in range(40):
        f, g, w = rand_poly(rng), rand_poly(rng), rand_poly(rng, tdeg=2, terms=2)
        if f.is_zero() or g.is_zero() or w.is_zero():
            continue
        d = poly_gcd(f * w, g * w)
        # the common factor divides the gcd and the gcd divides both products
        exact_div(d, poly_gcd(w, d))
        exact_div(f * w, d)
        exact_div(g * w, d)
        assert d == sign_normalize(d)


def test_poly_gcd_of_a_single_term(monkeypatch):
    cases = [
        (6 * X**2 * Y, 4 * X * Y**3 - 10 * X**3, 2 * X),
        (-4 * X * Z, -6 * X**2 * Z + 2 * X * Z**2, 2 * X * Z),
        (-3 * Y * Z, X * Y + Z, ONE),
        (-2 * X**2 * Y, 4 * X**3, 2 * X**2),
    ]
    # the single-term case is closed-form: it never reaches the heuristic gcd
    monkeypatch.setattr(polys_mod, "_heuristic_gcd", None)
    for m, g, want in cases:
        assert poly_gcd(m, g) == want
        assert poly_gcd(g, m) == want


X2, Y2 = Polynomial.var(2, 0), Polynomial.var(2, 1)


@pytest.mark.parametrize("f,g", [
    (X2**2 + Y2, X * Z + X),
    (X2 * Y2, X**2),  # a single-term operand
    (Polynomial.zero(2), X),
])
def test_poly_gcd_rejects_mixed_variable_contexts(f, g):
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="different variable contexts"):
            poly_gcd(a, b)


def test_poly_gcd_fast_path_matches_full_remainder_sequence(monkeypatch):
    rng = random.Random(31)
    cases = []
    for _ in range(25):
        f, w = rand_poly(rng), rand_poly(rng, tdeg=2, terms=2)
        g = rand_poly(rng)
        if not (f.is_zero() or g.is_zero() or w.is_zero()):
            cases.append((f * w, g * w))
            cases.append((f, g))
    # common factors in two and three variables, with integer contents
    cases.append((6 * (X * Y - Z + 2) * (X + Y), 4 * (X * Y - Z + 2) ** 2))
    cases.append(((X * Z - Y * Y) * (X - Z) ** 2, (X * Z - Y * Y) * (X - Z) * (Y + 3)))
    cases.append(((2 * X * Y * Z + 5) * (X - Y), -(2 * X * Y * Z + 5) * (Z * Z - 7)))
    fast = [poly_gcd(a, b) for a, b in cases]
    # with the heuristic gcd failing, every gcd runs the remainder sequence
    monkeypatch.setattr(polys_mod, "_heuristic_gcd", lambda f, g: None)
    slow = [poly_gcd(a, b) for a, b in cases]
    assert fast == slow
    assert slow[-3:] == [2 * (X * Y - Z + 2), (X * Z - Y * Y) * (X - Z), 2 * X * Y * Z + 5]


def test_poly_gcd_falls_back_after_six_failed_points(monkeypatch):
    cases = [((X * Y - Z + 2) * (X + Y), (X * Y - Z + 2) * (Y - 3)), (X * X - 1, X + 1)]
    want = [poly_gcd(a, b) for a, b in cases]
    tries, runs = [], []
    heuristic = polys_mod._heuristic_gcd

    def no_divisor(h, v, xi):  # a candidate that divides neither input
        tries.append(xi)
        return Polynomial.var(h.nvars, v) + 97

    def counted(f, g):
        runs.append(f)
        return heuristic(f, g)

    monkeypatch.setattr(polys_mod, "_xi_adic", no_divisor)
    monkeypatch.setattr(polys_mod, "_heuristic_gcd", counted)
    assert [poly_gcd(a, b) for a, b in cases] == want
    assert len(tries) == 6 * len(runs) and tries[:6] == sorted(set(tries[:6]))


@pytest.mark.parametrize("xi", [3, 4, 10, 11, 1000])
def test_xi_adic_rebuild_evaluates_back(xi):
    # negative coefficients and coefficients far above xi, in a v-free h
    h = -7 * X * X + (5 * xi**3 - 1) * X * Y + (-xi**4 + xi // 2 + 1) + 3 * Y
    r = polys_mod._xi_adic(h, 2, xi)
    assert polys_mod._evaluate(r, 2, xi) == h
    # every digit lies in (-xi/2, xi/2]
    assert all(-xi < 2 * c <= xi for c in r.terms.values())


def test_squarefree_part_fixtures():
    f = (X - 1) * (X - 1) * (X + 2)
    assert squarefree_part(f) == (X - 1) * (X + 2)
    assert squarefree_part(4 * X * X) == X
    assert squarefree_part(Polynomial.const(3, -6)) == 6
    # distinct factors survive, whichever variables they mention
    assert squarefree_part(X * Y - Y) == X * Y - Y
    assert squarefree_part(X * Y * Y) == X * Y
    assert squarefree_part(-3 * X * Y) == X * Y
    with pytest.raises(ValueError):
        squarefree_part(Polynomial.zero(3))


def test_squarefree_part_has_no_repeated_factors():
    rng = random.Random(47)
    for _ in range(30):
        f = rand_poly(rng)
        if f.is_zero() or f.is_const():
            continue
        s = squarefree_part(f * f)
        assert s == squarefree_part(f)  # idempotent across powers
        # the contract normalize_set relies on: primitive, sign-normalized,
        # non-constant, whatever the input's integer content and sign
        assert squarefree_part(-6 * f * f) == s
        assert s.int_content() == 1 and sign_normalize(s) == s and not s.is_const()
        g = s
        for v in s.variables():
            g = poly_gcd(g, s.derivative(v))
        assert g.is_const()  # jointly coprime with its derivatives


def test_squarefree_part_commutes_with_variable_swap():
    def swap(f):
        return Polynomial(3, {(e[1], e[0], e[2]): c for e, c in f.terms.items()})

    rng = random.Random(48)
    for _ in range(30):
        f = rand_poly(rng)
        if f.is_zero() or f.is_const():
            continue
        # equal up to sign: normalization re-picks the sign in the new order
        assert squarefree_part(swap(f)) == sign_normalize(swap(squarefree_part(f)))


# -- resultants and discriminants -------------------------------------------------


def test_resultant_fixtures():
    two, three = Polynomial.const(3, 2), Polynomial.const(3, 3)
    assert resultant(X - two, X - three, 0) == -1
    f = X * X + Y * Y - 1
    g = X * Y - Z
    assert resultant(f, g, 0) == Z * Z + Y ** 4 - Y * Y
    assert resultant(X * X + 1, three, 0) == 9
    assert resultant(three, X * X + 1, 0) == 9
    # both arguments free of the main variable
    assert resultant(Y + 1, Z - 2, 0) == 1
    # a linear operand b1*x + b0; with b0 = 0 only a_0 survives, times (-b1)^m
    assert resultant(X**3 + Y * X + Z, Y * X, 0) == -(Y**3) * Z
    assert resultant(Y * X, X**3 + Y * X + Z, 0) == Y**3 * Z  # (-1)^(3*1) on swapping
    # b1 not constant, gaps in A: a_3 b0^3 + a_0 (-b1)^3 at b0 = 1
    assert resultant(2 * X**3 - 5, (Y + Z) * X + 1, 0) == 2 + 5 * (Y + Z) ** 3
    assert resultant(Y * X + 2, X - Z, 0) == -(Y * Z) - 2
    assert resultant(X - Z, Y * X + 2, 0) == Y * Z + 2
    with pytest.raises(ValueError):
        resultant(Polynomial.zero(3), X, 0)


def test_resultant_vanishes_iff_common_factor():
    f = (X + Y) * (X - Z)
    g = (X + Y) * (X + 1)
    assert resultant(f, g, 0) == 0
    rng = random.Random(5)
    for _ in range(20):
        f = rand_poly(rng)
        if f.degree(0) < 1:
            continue
        assert resultant(f, f, 0) == 0


def test_resultant_multiplicativity():
    rng = random.Random(17)
    done = 0
    while done < 15:
        f, g, h = (rand_poly(rng, tdeg=2, terms=2) for _ in range(3))
        if any(p.degree(0) < 1 for p in (f, g, h)):
            continue
        assert resultant(f * g, h, 0) == resultant(f, h, 0) * resultant(g, h, 0)
        done += 1


def test_resultant_swap_sign():
    rng = random.Random(29)
    done = 0
    while done < 15:
        f, g = rand_poly(rng), rand_poly(rng)
        m, n = f.degree(0), g.degree(0)
        if m < 1 or n < 1:
            continue
        sign = -1 if (m * n) % 2 else 1
        assert resultant(f, g, 0) == sign * resultant(g, f, 0)
        done += 1


@st.composite
def linear_pairs(draw):
    """(A, B, v): A of degree 1-6 in v with gaps among its coefficients,
    B = b1*v + b0 with b0 often 0 and b1 often not constant (all a_k, b0
    and b1 free of v)."""
    nvars = draw(st.integers(1, 3))
    v = draw(st.integers(0, nvars - 1))
    m = draw(st.integers(1, 6))
    a = [_free_poly(draw, nvars, v, 0) for _ in range(m)] + [_free_poly(draw, nvars, v, 1)]
    B = _in_v([_free_poly(draw, nvars, v, 0), _free_poly(draw, nvars, v, 1)], nvars, v)
    return _in_v(a, nvars, v), B, v  # a zero a_k is a gap


@settings(max_examples=150, deadline=None)
@given(linear_pairs())
def test_resultant_with_a_linear_operand_is_the_sylvester_determinant(pair):
    A, B, v = pair
    want = sylvester_resultant(A, B, v)
    assert resultant(A, B, v) == want
    assert resultant(B, A, v) == sylvester_resultant(B, A, v) == want * (-1) ** A.degree(v)


def test_resultant_with_a_linear_operand_skips_content_and_prem(monkeypatch):
    counts = {"prem": 0, "content": 0}
    real_prem, real_content = polys_mod._list_prem, polys_mod._int_content_primitive

    def counted_prem(*args):
        counts["prem"] += 1
        return real_prem(*args)

    def counted_content(f):
        counts["content"] += 1
        return real_content(f)

    monkeypatch.setattr(polys_mod, "_list_prem", counted_prem)
    monkeypatch.setattr(polys_mod, "_int_content_primitive", counted_content)
    resultant(6 * X**4 * Y - 4 * X**2 + 2 * Z, 3 * Y * X + 9 * Z, 0)
    resultant(3 * X - 6, 2 * X**2 + 4 * Y, 0)
    discriminant(4 * X**2 + 6 * Y * X - 2, 0)  # through resultant(f, f')
    assert counts == {"prem": 0, "content": 0}
    resultant(X**2 + Y, X**2 - Z, 0)  # the counters see the subresultant path
    assert counts["prem"] > 0 and counts["content"] > 0


@st.composite
def subresultant_pairs(draw):
    """(A, B, v), both of degree at least 2 in v, of one of three shapes:
    A = B*Q + R with deg_v R <= deg_v B - 2, so a remainder degree drops by
    two or more (delta > 1); A and B with a common factor of positive degree
    in v (zero resultant); or two unrelated operands."""
    nvars = draw(st.integers(1, 3))
    v = draw(st.integers(0, nvars - 1))

    def poly(d):  # degree d in v, v-free coefficients with exponents 0-2
        cs = [_free_poly(draw, nvars, v, 0, 2) for _ in range(d)]
        return _in_v(cs + [_free_poly(draw, nvars, v, 1, 2)], nvars, v)

    shape = draw(st.sampled_from(("drop", "common", "plain")))
    if shape == "drop":
        dB = draw(st.integers(2, 3))
        B = poly(dB)
        A = B * poly(draw(st.integers(0, 2))) + poly(draw(st.integers(0, dB - 2)))
    elif shape == "common":
        C = poly(draw(st.integers(1, 2)))
        A, B = C * poly(draw(st.integers(1, 2))), C * poly(draw(st.integers(1, 2)))
    else:
        A, B = poly(draw(st.integers(2, 4))), poly(draw(st.integers(2, 4)))
    return A, B, v, shape


@settings(max_examples=150, deadline=None)
@given(subresultant_pairs())
def test_subresultant_path_is_the_sylvester_determinant(pair):
    A, B, v, shape = pair
    m, n = A.degree(v), B.degree(v)
    assert m >= 2 and n >= 2  # the linear closed form never answers
    want = sylvester_resultant(A, B, v)
    assert resultant(A, B, v) == want
    assert resultant(B, A, v) == want * (-1) ** (m * n)
    assert shape != "common" or want == 0


def test_discriminant_fixtures():
    b, c = Y, Z
    assert discriminant(X * X + b * X + c, 0) == b * b - 4 * c
    assert discriminant(X * X + Y * Y - 1, 0) == 4 - 4 * Y * Y
    # degree < 2 convention
    assert discriminant(X + Y, 0) == 1
    assert discriminant(Y + 1, 0) == 1
    # repeated root means zero discriminant
    assert discriminant((X - Y) * (X - Y), 0) == 0
