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
    rf"\s*(?:(?P<num>\d+)|(?P<ident>{_IDENTIFIER.pattern})"
    r"|(?P<relop>!=|<=|>=|=|<|>)|(?P<op>[-+*/^(),]))"
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
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = offset + pos + (len(text[pos:]) - len(stripped))
            raise _LineError(col + 1, f"unexpected character {stripped[0]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), offset + m.start(kind) + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser producing Fraction-coefficient term dicts,
    combined with the kernel's coefficient-generic ring operations."""

    def __init__(self, tokens, names: dict[str, int], nvars: int, end_col: int):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.nvars = nvars
        self.end_col = end_col

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, msg, tok=None):
        col = tok[2] if tok is not None else self.end_col
        raise _LineError(col, msg)

    # term dicts map exponent tuples to Fractions
    def _const(self, value) -> dict:
        return {(0,) * self.nvars: Fraction(value)} if value else {}

    def parse_expr(self) -> dict:
        acc = self.parse_term()
        while (tok := self.peek()) is not None and tok[1] in ("+", "-"):
            self.take()
            op = _k.ksub if tok[1] == "-" else _k.kadd
            acc = op(acc, self.parse_term())
        return acc

    def parse_term(self) -> dict:
        acc = self.parse_factor()
        while (tok := self.peek()) is not None and tok[1] in ("*", "/"):
            self.take()
            rhs = self.parse_factor()
            if tok[1] == "*":
                acc = _k.kmul(acc, rhs)
            else:
                if any(any(e) for e in rhs):
                    self.fail("division is only allowed by a rational constant", tok)
                value = rhs.get((0,) * self.nvars, Fraction(0))
                if value == 0:
                    self.fail("division by zero", tok)
                acc = _k.kscale(acc, 1 / value)
        return acc

    def parse_factor(self) -> dict:
        tok = self.peek()
        if tok is not None and tok[1] in ("+", "-"):
            self.take()
            inner = self.parse_factor()
            return _k.kneg(inner) if tok[1] == "-" else inner
        return self.parse_power()

    def parse_power(self) -> dict:
        base = self.parse_atom()
        while (tok := self.peek()) is not None and tok[1] == "^":
            self.take()
            exp = self.take()
            if exp is None or exp[0] != "num":
                self.fail("exponent must be a nonnegative integer literal",
                          exp if exp is not None else tok)
            base = _k.kpow(base, int(exp[1]), self._const(1))
        return base

    def parse_atom(self) -> dict:
        tok = self.take()
        if tok is None:
            self.fail("expected a number, variable or '('")
        kind, value, col = tok
        if kind == "num":
            return self._const(int(value))
        if kind == "ident":
            idx = self.names.get(value)
            if idx is None:
                self.fail(f"undeclared variable '{value}'", tok)
            e = [0] * self.nvars
            e[idx] = 1
            return {tuple(e): Fraction(1)}
        if value == "(":
            inner = self.parse_expr()
            closing = self.take()
            if closing is None or closing[1] != ")":
                self.fail("expected ')'", closing)
            return inner
        self.fail(f"unexpected token {value!r}", tok)


def _clear_denominators(frac_terms: dict, nvars: int) -> Polynomial:
    scale = lcm(*(c.denominator for c in frac_terms.values()))
    return Polynomial(nvars, _k.kscale(frac_terms, scale))


def _parse_constraint(tokens, names, nvars, end_col) -> Constraint:
    split_at = [i for i, t in enumerate(tokens) if t[0] == "relop"]
    if not split_at:
        col = tokens[0][2] if tokens else end_col
        raise _LineError(col, "constraint needs a relational operator")
    if len(split_at) > 1:
        raise _LineError(tokens[split_at[1]][2], "more than one relational operator")
    i = split_at[0]
    relop = Relop(tokens[i][1])
    lhs_tokens, rhs_tokens = tokens[:i], tokens[i + 1:]
    if not lhs_tokens:
        raise _LineError(tokens[i][2], "missing left-hand side")
    if not rhs_tokens:
        raise _LineError(tokens[i][2], "missing right-hand side")

    def run(toks, end):
        p = _ExprParser(toks, names, nvars, end)
        terms = p.parse_expr()
        leftover = p.peek()
        if leftover is not None:
            raise _LineError(leftover[2], f"unexpected token {leftover[1]!r}")
        return terms

    lhs = run(lhs_tokens, tokens[i][2])
    rhs = run(rhs_tokens, end_col)
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
                groups: list[list] = [[]]
                closers: list[int] = []  # column of the comma ending each group
                for tok in tokens:
                    if tok[1] == "," and tok[0] == "op":
                        closers.append(tok[2])
                        groups.append([])
                    else:
                        groups[-1].append(tok)
                end_col = rest_offset + len(rest) + 1
                closers.append(end_col)
                constraints = []
                for gi, group in enumerate(groups):
                    if not group:
                        raise _LineError(closers[gi], "empty constraint")
                    group_end = (
                        groups[gi + 1][0][2] - 1 if gi + 1 < len(groups) and groups[gi + 1]
                        else end_col
                    )
                    try:
                        constraints.append(
                            _parse_constraint(group, names, len(variables), group_end)
                        )
                    except ValueError as exc:  # Constraint rejects a zero polynomial
                        raise _LineError(group[0][2], str(exc)) from exc
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
