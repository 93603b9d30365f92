"""Seeded problem generation: determinism, shape laws, golden values."""

import random
from itertools import product
from math import comb

import pytest

from cadorder import probio
from cadorder.formula import Relop
from cadorder.generator import (
    GenParams,
    _monomial_pool,
    generate_corpus,
    item_seed,
    random_polynomial,
    random_problem,
    variable_names,
)

TYPES = ("00", "10", "20", "11", "12", "22")


def test_item_seed_is_stable_across_runs_and_platforms():
    assert item_seed(0, "10", 0) == 13619021105596076878
    assert item_seed(42, "22", 5) == 6433618760018261001
    assert item_seed(0, "10", 1) != item_seed(0, "10", 0)
    assert item_seed(0, "01", 0) != item_seed(0, "10", 0)


def test_golden_first_draw():
    rng = random.Random(item_seed(42, "10", 0))
    p = random_polynomial(GenParams(seed=42), rng)
    assert p.to_str(("x", "y", "z")) == "-14*x^2*y^2-12*y^2*z^2+4*x^2*y-6*y*z^2"


def test_golden_problem_text():
    p = random_problem("10", GenParams(seed=42), 0)
    assert probio.print_problem(p) == (
        "vars: x,y,z\n"
        "qff: 14*x^2*y^2+12*y^2*z^2-4*x^2*y+6*y*z^2 = 0,"
        " 4*x*y*z^2-9*y^4+9*y*z^3+13*x*z < 0\n"
        "qff: 2*x^3*y+16*x^2*y*z-20*x^2-14 > 0,"
        " 9*y*z^3-6*x*y^2-12*y^2*z+9*z^3 < 0\n"
    )


def test_replay_is_identical():
    params = GenParams(seed=7)
    for label in TYPES:
        a = random_problem(label, params, 3)
        b = random_problem(label, params, 3)
        assert probio.print_problem(a) == probio.print_problem(b)


def test_items_are_independent_substreams():
    # drawing an item never depends on which items were drawn before it
    params = GenParams(seed=9)
    corpus = generate_corpus(list(TYPES), 2, params)
    assert [label for label, _ in corpus] == [t for t in TYPES for _ in range(2)]
    for i, (label, problem) in enumerate(corpus):
        alone = random_problem(label, params, index=i % 2)
        assert probio.print_problem(problem) == probio.print_problem(alone)


def test_different_seeds_give_different_corpora():
    a = random_problem("11", GenParams(seed=0), 0)
    b = random_problem("11", GenParams(seed=1), 0)
    assert probio.print_problem(a) != probio.print_problem(b)


def test_system_types_and_constraint_shape():
    params = GenParams(seed=5)
    for label in TYPES:
        p = random_problem(label, params, 0)
        assert p.system_type() == label
        assert len(p.qffs) == len(label)
        for digit, qff in zip(label, p.qffs):
            assert len(qff.constraints) == 2
            assert len(qff.equational_constraints()) == int(digit)
            for c in qff.constraints[int(digit):]:
                assert c.relop in (Relop.LT, Relop.GT)
            for c in qff.constraints:
                assert not c.poly.is_const()


def test_equations_come_first():
    p = random_problem("12", GenParams(seed=6), 0)
    relops = [[c.relop for c in qff.constraints] for qff in p.qffs]
    assert relops[0][0] is Relop.EQ
    assert relops[1][0] is Relop.EQ and relops[1][1] is Relop.EQ
    assert relops[0][1] is not Relop.EQ


def test_polynomials_respect_parameters():
    params = GenParams(n_vars=4, max_tdeg=3, terms=2, coeff_bound=5, seed=8)
    for i in range(20):
        p = random_problem("22", params, i)
        assert p.names == ("x", "y", "z", "v")
        for f in p.defining_polynomials():
            assert f.total_degree() <= 3
            assert len(f.terms) <= 2
            assert all(abs(c) <= 5 for c in f.terms.values())


def test_monomial_pool_is_built_once_per_parameter_pair():
    pool = _monomial_pool(2, 2)
    assert pool == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    assert _monomial_pool(2, 2) is pool and isinstance(pool, tuple)
    assert len(_monomial_pool(3, 2)) == 10


def test_monomial_pool_grows_with_its_size_not_with_the_exponent_box():
    for n_vars in range(1, 7):
        for max_tdeg in range(1, 6):
            brute = tuple(sorted(
                e for e in product(range(max_tdeg + 1), repeat=n_vars) if sum(e) <= max_tdeg
            ))
            assert _monomial_pool(n_vars, max_tdeg) == brute
    # the box holds 5^20 tuples; the pool is only the C(24, 4) of degree <= 4
    assert len(_monomial_pool(20, 4)) == comb(24, 4)


def test_single_term_draws():
    params = GenParams(terms=1, seed=4)
    rng = random.Random(123)
    for _ in range(30):
        f = random_polynomial(params, rng)
        assert len(f.terms) == 1 and not f.is_const()


def test_variable_names_scheme():
    assert variable_names(1) == ("x",)
    assert variable_names(4) == ("x", "y", "z", "v")
    assert variable_names(5) == ("x1", "x2", "x3", "x4", "x5")


def test_label_and_count_validation():
    params = GenParams(seed=0)
    for bad in ("", "3", "1x", "a"):
        with pytest.raises(ValueError):
            random_problem(bad, params)
    with pytest.raises(ValueError):
        generate_corpus(["10"], 0, params)
    with pytest.raises(ValueError, match="system type '10' is given more than once"):
        generate_corpus(["10", "21", "10"], 1, params)
    with pytest.raises(ValueError):
        GenParams(n_vars=0)
    with pytest.raises(ValueError):
        GenParams(seed=-1)
