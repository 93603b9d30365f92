"""Distinct-real-root counting by Descartes' rule with bisection."""

import random
import time

import pytest

from oracles import dense_coeffs, descartes_root_count
from cadorder import projection, realroots
from cadorder.polys import Polynomial, poly_gcd, squarefree_part
from cadorder.realroots import count_real_roots, ndrr

X = Polynomial.var(1, 0)
Y = Polynomial.var(3, 1)  # univariate in a 3-variable ring


def upoly(*coeffs):
    """Univariate polynomial from ascending coefficients [a0, a1, ...]."""
    f = Polynomial.zero(1)
    for d, c in enumerate(coeffs):
        f = f + Polynomial.const(1, c) * X**d
    return f


def rand_upoly(rng, max_deg=8, bound=50):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-bound, bound)
    return upoly(*coeffs, lead)


# ---------------------------------------------------------------- counts


def test_chain_rejects_zero_and_multivariate():
    with pytest.raises(ValueError):
        count_real_roots(Polynomial.zero(1))
    x, y = (Polynomial.var(2, i) for i in range(2))
    with pytest.raises(ValueError):
        count_real_roots(x * y + 1)


@pytest.mark.parametrize(
    "f, expected",
    [
        (X**3 - X, 3),  # -1, 0, 1
        (X**2 + 1, 0),
        (X**5 - 3 * X + 1, 3),
        ((X - 1) ** 2 * (X + 2), 2),  # multiplicity does not inflate
        (X - 5, 1),
        (upoly(7), 0),
        (X**2 - 2, 2),
        (X**4 - X**2, 3),  # a double root at 0
        ((X - 1) * (2 * X - 1) * (4 * X - 1), 3),  # roots on bisection midpoints
        ((Y - 1) ** 2 * (Y**2 - 3) * (Y + 4) ** 3, 4),
    ],
)
def test_count_fixtures(f, expected):
    assert count_real_roots(f) == expected
    if not f.is_const():
        (v,) = f.variables()
        assert descartes_root_count(dense_coeffs(f, v)) == expected


@pytest.mark.parametrize("d, a", [(6, 10), (12, 100), (20, 10**3), (40, 10**6)])
def test_count_mignotte_like_within_cpu_bound(d, a):
    # x^d - 2(ax - 1)^2 has two roots within about a^(-d/2) of 1/a, which
    # takes the deepest bisection: the known worst case of this counter
    start = time.process_time()
    assert count_real_roots(X**d - 2 * (a * X - 1) ** 2) == 4
    assert time.process_time() - start < 5.0


@pytest.mark.parametrize("k", [1100, 3000])
def test_count_roots_closer_than_the_recursion_limit(k):
    # separating roots 2^-k apart takes about k bisection levels, more than
    # Python's default recursion limit of 1000
    assert count_real_roots((2**k * X - 1) * (2**k * X - 2)) == 2


def test_count_invariant_under_squarefree_and_scaling():
    rng = random.Random(4102)
    for _ in range(60):
        f = rand_upoly(rng, max_deg=5, bound=12)
        n = count_real_roots(f)
        assert count_real_roots(squarefree_part(f)) == n
        assert count_real_roots(f * f) == n
        assert count_real_roots(-f * 3) == n
        assert 0 <= n <= f.degree(0)


def test_count_matches_independent_oracle():
    rng = random.Random(4103)
    for _ in range(80):
        f = rand_upoly(rng)
        assert count_real_roots(f) == descartes_root_count(dense_coeffs(f, 0))


def test_count_of_product_subadditive_with_sharp_equality():
    # equality holds exactly when the factors share no real root
    rng = random.Random(4104)
    seen_equal = seen_strict = False
    for _ in range(120):
        f = rand_upoly(rng, max_deg=4, bound=8)
        g = rand_upoly(rng, max_deg=4, bound=8)
        nf, ng, nfg = (count_real_roots(p) for p in (f, g, f * g))
        assert nfg <= nf + ng
        h = poly_gcd(f, g)
        shared = not h.is_const() and count_real_roots(h) > 0
        assert (nfg == nf + ng) == (not shared)
        seen_equal |= not shared
        seen_strict |= shared
    assert seen_equal and seen_strict


# ---------------------------------------------------------------- ndrr


def test_ndrr_sums_per_polynomial():
    assert ndrr([X**2 - 2, X**2 + 1]) == 2
    assert ndrr([]) == 0
    # shared root x=1 is counted once per polynomial, not once overall
    assert ndrr([X**3 - X, X - 1]) == 4


def test_ndrr_deduplicates_up_to_sign_scaling_and_powers():
    f = X**2 - 2
    assert ndrr([f, -f, f * 3, f * f]) == 2
    assert ndrr([f, X**2 + 1, upoly(5), Polynomial.zero(1)]) == 2


def test_ndrr_mixed_contexts_allowed():
    # members may live in a wider ring as long as each uses one variable
    x, y = (Polynomial.var(2, i) for i in range(2))
    assert ndrr([x**2 - 1, y**3 - y]) == 5


def test_ndrr_takes_one_squarefree_part_per_member(monkeypatch):
    calls = []

    def spy(f):
        calls.append(f)
        return squarefree_part(f)

    monkeypatch.setattr(projection, "squarefree_part", spy)
    monkeypatch.setattr(realroots, "squarefree_part", spy)
    members = [(X - 1) ** 2 * (X + 2), X**3 - X, 4 * X**2 - 8]
    assert ndrr(members) == 2 + 3 + 2
    # the root counts trust normalize_set's squarefree parts
    assert calls == members

    calls.clear()
    with projection.Workspace() as ws:
        assert ndrr(members) == 7
        assert projection._OPEN.get() is ws  # ndrr joined it and left it open
        assert ndrr(members) == 7
    assert calls == members  # once per member across both calls
    for f in members:
        assert ws.memo[spy, f] == squarefree_part(f)  # keyed by the function called
