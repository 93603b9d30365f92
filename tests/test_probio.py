"""Wire format: parsing, canonical printing, round-trips, error reporting."""

import random

import pytest

from cadorder import _kernel_py
from cadorder.formula import Relop
from cadorder.polys import Polynomial
from cadorder.probio import ProblemFormatError, parse_problem, print_problem


def errs(text):
    with pytest.raises(ProblemFormatError) as e:
        parse_problem(text)
    return e.value.errors


def test_basic_parse():
    p = parse_problem("vars: x,y\nqff: x^2+y-1 = 0, x*y < 0\n")
    assert p.names == ("x", "y")
    assert len(p.qffs) == 1
    assert p.system_type() == "1"
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    assert p.qffs[0].constraints[0].poly == x * x + y - 1
    assert p.qffs[0].constraints[0].relop is Relop.EQ


def test_two_sided_constraints_are_subtracted():
    p = parse_problem("vars: x,y\nqff: x^2 < y\n")
    c = p.qffs[0].constraints[0]
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    assert c.poly == x * x - y
    assert c.relop is Relop.LT


def test_all_relops_parse():
    p = parse_problem(
        "vars: x\n"
        "qff: x = 0, x != 1\n"
        "qff: x < 2, x <= 3\n"
        "qff: x > 4, x >= 5\n"
    )
    ops = [c.relop for q in p.qffs for c in q.constraints]
    assert ops[:2] == [Relop.EQ, Relop.NE]
    # 0 > x-4 style mirroring is exercised elsewhere; these stay as written
    assert ops[2:] == [Relop.LT, Relop.LE, Relop.GT, Relop.GE]


def test_comments_and_blank_lines():
    p = parse_problem("# header\n\nvars: x # trailing\n\nqff: x = 0 # note\n")
    assert p.names == ("x",)


def test_rationals_cleared_per_polynomial():
    p = parse_problem("vars: x\nqff: 1/2*x = 1/3\n")
    x = Polynomial.var(1, 0)
    assert p.qffs[0].constraints[0].poly == 3 * x - 2
    p = parse_problem("vars: x\nqff: x/2 + x/3 >= 0\n")
    assert p.qffs[0].constraints[0].poly == 5 * x


def test_parentheses_unary_minus_and_powers():
    p = parse_problem("vars: x,y\nqff: -(x-y)^2 + 2 > 0\n")
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    want = -((x - y) ** 2) + 2
    got = p.qffs[0].constraints[0]
    assert got.poly in (want, -want)  # sign normalization may mirror
    assert p.qffs[0].constraints[0].poly == -want  # normalized leading +


def test_powers_are_exact_and_take_logarithmically_many_products(monkeypatch):
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    p = parse_problem("vars: x,y\nqff: (x+y+1)^13 > 0\n")
    assert p.qffs[0].constraints[0].poly == (x + y + 1) ** 13
    assert parse_problem(print_problem(p)) == p
    products = []
    mul = _kernel_py.kmul

    def counting_mul(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(_kernel_py, "kmul", counting_mul)
    n = 100000
    p = parse_problem(f"vars: x\nqff: x^{n} = 0\n")
    assert p.qffs[0].constraints[0].poly == Polynomial(1, {(n,): 1})
    assert len(products) <= 2 * n.bit_length()
    products.clear()
    assert Polynomial.var(1, 0) ** n == Polynomial(1, {(n,): 1})
    assert len(products) <= 2 * n.bit_length()


def test_error_positions_and_messages():
    e = errs("vars: x\nqff: x ^^ 2 = 0\n")
    assert e == [(2, 9, "exponent must be a nonnegative integer literal")]
    e = errs("vars: x\nqff: x + y = 0\n")
    assert len(e) == 1 and e[0][0] == 2 and "undeclared" in e[0][2] and "y" in e[0][2]
    e = errs("vars: x\nqff: x = 0 = 0\n")
    assert len(e) == 1 and e[0][0] == 2
    # a repeated name is reported where it repeats, not at its first use
    assert errs("vars: x, y, x\nqff: x = 0\n") == [(1, 13, "duplicate variable 'x'")]
    assert errs("vars: x,x\nqff: x = 0\n") == [(1, 9, "duplicate variable 'x'")]
    # an empty constraint is reported at the comma that closes it; a trailing
    # comma leaves it open to the end of the line
    assert errs("vars: x\nqff: , x > 0\n") == [(2, 6, "empty constraint")]
    assert errs("vars: x\nqff: x > 0, , x < 1\n") == [(2, 13, "empty constraint")]
    assert errs("vars: x\nqff: x > 0,\n") == [(2, 12, "empty constraint")]
    # so is an unfinished one, whatever follows the comma
    assert errs("vars: x,y\nqff: x > (y,   y < 0\n") == [(2, 12, "expected ')'")]
    assert errs("vars: x,y\nqff: x > (y, , y < 0\n") == [(2, 12, "expected ')'")]
    # with no valid variable the constraint's polynomial cannot be built; that
    # ValueError is reported on its line, never raised bare
    assert errs("vars: 1x\nqff: 2 > 0\n") == [
        (1, 7, "invalid variable name '1x'"),
        (2, 6, "a polynomial context needs at least one variable"),
    ]


def test_nesting_depth_is_bounded_only_by_memory():
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    n = 3000
    c = parse_problem(f"vars: x,y\nqff: {'(' * n}x{')' * n} > 0\n").qffs[0].constraints[0]
    assert (c.poly, c.relop) == (x, Relop.GT)
    c = parse_problem(f"vars: x,y\nqff: {'-' * 5001}x - y < 0\n").qffs[0].constraints[0]
    assert (c.poly, c.relop) == (x + y, Relop.GT)
    text = f"vars: x\nqff: {'(' * n}x = 0\n"
    assert errs(text) == [(2, text.splitlines()[1].index("=") + 1, "expected ')'")]


def test_one_error_per_line_all_lines_reported():
    e = errs("vars: x\nqff: x ^^ 2 = 0\nqff: x + w = 0\n")
    assert [ln for ln, _, _ in e] == [2, 3]


def test_structural_errors():
    assert any("vars" in m for _, _, m in errs("qff: x = 0\n"))
    assert errs("vars: x\n")  # no QFFs
    assert errs("vars: x\nvars: y\nqff: x = 0\n")  # duplicate header
    assert errs("vars: x,x\nqff: x = 0\n")  # duplicate names
    assert errs("vars: x\nqff:\n")  # empty QFF
    assert errs("vars: x\nqff: 0 = 0\n")  # zero constraint polynomial
    assert errs("vars: x\nqff: x - x < 0\n")


def test_print_is_canonical_and_round_trips():
    text = "vars: x,y,z\nqff: x^2 + y^2 = 1, x*y < z\nqff: z-2 >= 0, x != y\n"
    p = parse_problem(text)
    out = print_problem(p)
    assert parse_problem(out) == p
    assert print_problem(parse_problem(out)) == out  # idempotent on canonical text
    assert "1*" not in out
    lines = out.splitlines()
    assert lines[0] == "vars: x,y,z"
    assert all(l.startswith("qff: ") for l in lines[1:])


def test_round_trip_on_generated_corpus():
    from cadorder.generator import GenParams, generate_corpus

    corpus = generate_corpus(["22", "10", "00"], 3, GenParams(seed=77))
    for _, prob in corpus:
        assert parse_problem(print_problem(prob)) == prob


def test_fuzzed_mutations_never_crash():
    base = "vars: x,y\nqff: x^2+y-1 = 0, x*y < 0\nqff: x - y >= 2\n"
    rng = random.Random(13)
    junk = "#^*+-/()<>=!,:qffvars xy01 \t"
    for _ in range(400):
        chars = list(base)
        for _ in range(rng.randrange(1, 5)):
            op = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if op == 0:
                chars[pos] = rng.choice(junk)
            elif op == 1:
                chars.insert(pos, rng.choice(junk))
            elif chars:
                del chars[pos]
        mutated = "".join(chars)
        try:
            prob = parse_problem(mutated)
        except ProblemFormatError as exc:
            assert exc.errors, "structured error must carry positions"
            for ln, col, msg in exc.errors:
                assert isinstance(ln, int) and isinstance(col, int) and msg
        else:
            # survivors must still round-trip
            assert parse_problem(print_problem(prob)) == prob
