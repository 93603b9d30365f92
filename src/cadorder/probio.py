"""Reader and writer for the line-oriented .prob problem format.

A file declares its variables once, then one ``qff:`` line per conjunction::

    # ellipse versus line
    vars: x,y
    qff: x^2+y-1 = 0, x*y < 0
    qff: y-2 >= 0

Constraints are ``<expr> <relop> <expr>`` with relops ``= != < <= > >=``;
two-sided constraints are normalized by subtraction, rational coefficients
are cleared by multiplying through with the lcm of the denominators, and
``#`` starts a comment.  Parsing collects the first error of every line and
reports them all at once; printing emits the canonical form, so
``parse(print(p)) == p`` and printing is idempotent on canonical text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from cadorder import _kernel_py as _k
from cadorder.formula import _IDENTIFIER, QFF, Constraint, Problem, Relop, Variable
from cadorder.polys import Polynomial

__all__ = ["ProblemFormatError", "parse_problem", "print_problem"]

_TOKEN_RE = re.compile(
    rf"(?P<num>\d+)|(?P<ident>{_IDENTIFIER.pattern})"
    r"|(?P<relop>!=|<=|>=|=|<|>)|(?P<op>[-+*/^(),])|(?P<bad>\S)"
)


class ProblemFormatError(ValueError):
    """Aggregated parse errors; each entry is (line, column, message)."""

    def __init__(self, errors: list[tuple[int, int, str]]):
        self.errors = list(errors)
        super().__init__(
            "; ".join(f"line {ln}, col {col}: {msg}" for ln, col, msg in self.errors)
        )


class _LineError(Exception):
    def __init__(self, col: int, msg: str):
        self.col = col
        self.msg = msg


def _tokenize(text: str, offset: int) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, column) with 1-based columns."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise _LineError(offset + m.start() + 1, f"unexpected character {m.group()!r}")
        tokens.append((m.lastgroup, m.group(), offset + m.start() + 1))
    return tokens


_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG_PREC = 3  # unary minus; '(' is 0, so applying from 1 up stops at it


def _parse_expr(tokens, names: dict[str, int], nvars: int, end_col: int) -> dict:
    """Term map (exponent tuple -> Fraction) of one side of a constraint, by
    operator precedence on explicit operand and operator lists, so nesting is
    bounded only by memory.  Pending operators are applied before any error
    after them is raised, which gives errors in left-to-right order;
    ``end_col`` is the column reported when the tokens run out."""
    one = {(0,) * nvars: Fraction(1)}
    operands: list[dict] = []
    pending: list[tuple[int, tuple]] = []  # (precedence, token)

    def apply(prec: int) -> None:
        while pending and pending[-1][0] >= prec:
            p, tok = pending.pop()
            b = operands.pop()
            if p == _NEG_PREC:
                operands.append(_k.kneg(b))
            elif tok[1] == "/":
                if any(any(e) for e in b):
                    raise _LineError(tok[2], "division is only allowed by a rational constant")
                if not b:
                    raise _LineError(tok[2], "division by zero")
                operands[-1] = _k.kscale(operands[-1], 1 / b[(0,) * nvars])
            else:
                op = {"+": _k.kadd, "-": _k.ksub, "*": _k.kmul}[tok[1]]
                operands[-1] = op(operands[-1], b)

    want_operand = True
    it = iter(tokens)
    for tok in it:
        kind, value, col = tok
        if want_operand:
            if kind == "num":
                operands.append(_k.kscale(one, int(value)))
            elif kind == "ident":
                idx = names.get(value)
                if idx is None:
                    raise _LineError(col, f"undeclared variable '{value}'")
                operands.append({tuple(int(i == idx) for i in range(nvars)): Fraction(1)})
            elif value in ("(", "-"):
                pending.append((0 if value == "(" else _NEG_PREC, tok))
                continue
            elif value == "+":
                continue
            else:
                raise _LineError(col, f"unexpected token {value!r}")
            want_operand = False
        elif value == "^":
            exp = next(it, None)
            if exp is None or exp[0] != "num":
                raise _LineError((exp or tok)[2], "exponent must be a nonnegative integer literal")
            operands[-1] = _k.kpow(operands[-1], int(exp[1]), one)
        elif value in _BINARY_PREC:
            apply(_BINARY_PREC[value])
            pending.append((_BINARY_PREC[value], tok))
            want_operand = True
        else:  # ')' closes the innermost '('; anything else ends the expression
            apply(1)
            if value == ")" and pending:
                pending.pop()
            else:
                raise _LineError(col, "expected ')'" if pending else f"unexpected token {value!r}")
    if want_operand:
        raise _LineError(end_col, "expected a number, variable or '('")
    apply(1)
    if pending:
        raise _LineError(end_col, "expected ')'")
    return operands[0]


def _clear_denominators(frac_terms: dict, nvars: int) -> Polynomial:
    scale = lcm(*(c.denominator for c in frac_terms.values()))
    return Polynomial(nvars, _k.kscale(frac_terms, scale))


def _parse_constraint(tokens, names, nvars, end_col) -> Constraint:
    split_at = [i for i, t in enumerate(tokens) if t[0] == "relop"]
    if not split_at:
        raise _LineError(tokens[0][2], "constraint needs a relational operator")
    if len(split_at) > 1:
        raise _LineError(tokens[split_at[1]][2], "more than one relational operator")
    i = split_at[0]
    relop = Relop(tokens[i][1])
    lhs_tokens, rhs_tokens = tokens[:i], tokens[i + 1:]
    if not lhs_tokens:
        raise _LineError(tokens[i][2], "missing left-hand side")
    if not rhs_tokens:
        raise _LineError(tokens[i][2], "missing right-hand side")
    lhs = _parse_expr(lhs_tokens, names, nvars, tokens[i][2])
    rhs = _parse_expr(rhs_tokens, names, nvars, end_col)
    return Constraint(_clear_denominators(_k.ksub(lhs, rhs), nvars), relop)


_HEADER_RE = re.compile(rf"^(\s*)({_IDENTIFIER.pattern})\s*:")


def parse_problem(text: str) -> Problem:
    """Parse .prob text into a Problem; raises ProblemFormatError on errors."""
    errors: list[tuple[int, int, str]] = []
    variables: list[Variable] = []
    names: dict[str, int] = {}
    qffs: list[QFF] = []
    seen_vars = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _HEADER_RE.match(line)
        if not m:
            col = len(line) - len(line.lstrip()) + 1
            errors.append((lineno, col, "expected a 'vars:' or 'qff:' line"))
            continue
        keyword = m.group(2)
        rest = line[m.end():]
        rest_offset = m.end()
        try:
            if keyword == "vars":
                if seen_vars:
                    raise _LineError(m.start(2) + 1, "duplicate vars line")
                seen_vars = True
                col = rest_offset + 1  # where the current chunk starts
                for chunk in rest.split(","):
                    name = chunk.strip()
                    at = col + len(chunk) - len(chunk.lstrip())
                    col += len(chunk) + 1
                    if not _IDENTIFIER.fullmatch(name):
                        raise _LineError(at, f"invalid variable name {name!r}")
                    if name in names:
                        raise _LineError(at, f"duplicate variable '{name}'")
                    names[name] = len(variables)
                    variables.append(Variable(name, len(variables)))
            elif keyword == "qff":
                if not seen_vars:
                    raise _LineError(m.start(2) + 1, "qff line before vars line")
                tokens = _tokenize(rest, rest_offset)
                if not tokens:
                    raise _LineError(rest_offset + 1, "empty QFF")
                # the end of the line closes the last constraint like a comma
                end = ("op", ",", rest_offset + len(rest) + 1)
                constraints: list[Constraint] = []
                group: list = []
                for tok in tokens + [end]:
                    if tok[1] != ",":
                        group.append(tok)
                        continue
                    if not group:
                        raise _LineError(tok[2], "empty constraint")
                    try:
                        constraints.append(
                            _parse_constraint(group, names, len(variables), tok[2])
                        )
                    except ValueError as exc:  # Constraint rejects a zero polynomial
                        raise _LineError(group[0][2], str(exc)) from exc
                    group = []
                qffs.append(QFF(tuple(constraints)))
            else:
                raise _LineError(m.start(2) + 1, f"unknown line keyword '{keyword}'")
        except _LineError as exc:
            errors.append((lineno, exc.col, exc.msg))

    if not errors:
        if not seen_vars:
            errors.append((0, 0, "missing vars line"))
        elif not qffs:
            errors.append((0, 0, "no qff lines"))
    if not errors:
        try:
            return Problem(tuple(variables), tuple(qffs))
        except ValueError as exc:
            errors.append((0, 0, str(exc)))
    raise ProblemFormatError(errors)


def print_problem(problem: Problem) -> str:
    """Canonical text for a problem (inverse of parse_problem)."""
    names = problem.names
    lines = ["vars: " + ",".join(names)]
    for qff in problem.qffs:
        rendered = [
            f"{c.poly.to_str(names)} {c.relop.value} 0" for c in qff.constraints
        ]
        lines.append("qff: " + ", ".join(rendered))
    return "\n".join(lines) + "\n"
