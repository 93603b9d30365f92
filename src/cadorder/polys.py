"""Exact sparse multivariate polynomial arithmetic over the integers.

A polynomial is a frozen value object: a dict from exponent tuples (one slot
per variable) to nonzero arbitrary-precision integer coefficients.  The
canonical term order is graded lexicographic on the exponent tuples, earlier
variable slots weighing more; "sign-normalized" means the coefficient of the
graded-lex leading monomial is positive.

Conventions used throughout the package:

* degree of the zero polynomial is -1 in every variable;
* the resultant of two polynomials that are both free of the main variable
  is the constant 1;
* discriminants of polynomials of degree < 2 in the main variable are 1;
* gcds include the shared integer content and are sign-normalized.

A single-term operand is closed-form in ``poly_gcd`` (the integer gcd of
the coefficients times X to the componentwise minimum of the exponents) and
in ``squarefree_part`` (X to the support of the exponent), so neither
reaches a derivative, a division or the general gcd.

Resultants and the gcd fallback share one subresultant loop, and with it
one pseudo-remainder, on lists of the coefficient term maps of their
operands in the eliminated variable.
"""

from __future__ import annotations

from math import gcd as _int_gcd, isqrt
from operator import itemgetter
from typing import Iterable, Iterator

from cadorder import _kernel_py as _k

__all__ = [
    "Polynomial",
    "ExactDivisionError",
    "sign_normalize",
    "content_primitive",
    "poly_gcd",
    "squarefree_part",
    "resultant",
    "discriminant",
    "exact_div",
]


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def _check_index(index: int, nvars: int) -> None:
    if not 0 <= index < nvars:  # a negative one would slice exponent tuples wrongly
        raise ValueError(f"variable index {index} out of range for {nvars} slots")


def _integer(x, what: str) -> int:
    """``x`` as an int; a value that is not an integer, like 1.5, is an error."""
    i = int(x)
    if i != x:
        raise ValueError(f"{what} {x!r} is not an integer")
    return i


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` integer-indexed variables."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: dict | None = None):
        if nvars < 1:
            raise ValueError("a polynomial context needs at least one variable")
        clean: dict = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent tuple {e} does not have {nvars} slots")
                exps = tuple(map(int, e))
                if exps != tuple(e):
                    raise ValueError(f"exponent tuple {e} holds a value that is not an integer")
                if min(exps) < 0:
                    raise ValueError(f"negative exponent in {e}")
                if c:
                    clean[exps] = _integer(c, "coefficient")
        _set_nvars(self, nvars)
        _set_terms(self, clean)
        _set_hash(self, None)

    # -- construction -----------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Polynomial":
        """Wrap an already-canonical term dict without re-validating."""
        self = object.__new__(cls)
        _set_nvars(self, nvars)
        _set_terms(self, terms)
        _set_hash(self, None)
        return self

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars: int, c: int) -> "Polynomial":
        if c == 0:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: _integer(c, "coefficient")})

    @classmethod
    def var(cls, nvars: int, index: int, power: int = 1) -> "Polynomial":
        _check_index(index, nvars)
        power = _integer(power, "exponent")
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return cls.const(nvars, 1)
        e = [0] * nvars
        e[index] = power
        return cls._raw(nvars, {tuple(e): 1})

    # -- immutability / identity ------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, int):
            return self.terms == Polynomial.const(self.nvars, other).terms
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            _set_hash(self, h)
        return h

    def __bool__(self):
        return bool(self.terms)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        # canonical terms: a nonzero constant is the one term at exponent 0
        t = self.terms
        return not t or (len(t) == 1 and not any(next(iter(t))))

    def variables(self) -> frozenset[int]:
        """Indices of variables appearing with a positive exponent."""
        vs = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    vs.add(i)
        return frozenset(vs)

    def degree(self, v: int) -> int:
        """Degree in variable v; -1 for the zero polynomial."""
        if not 0 <= v < self.nvars:  # degree is hot: check inline, raise via the helper
            _check_index(v, self.nvars)
        if not self.terms:
            return -1
        return max(map(itemgetter(v), self.terms))

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("total degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def monomials(self) -> Iterator[tuple[int, ...]]:
        return iter(self.terms)

    def lead_term(self) -> tuple[tuple[int, ...], int]:
        """Graded-lex leading (monomial, coefficient); error on zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return _k.kleading(self.terms)

    def int_content(self) -> int:
        """Positive gcd of the integer coefficients (0 for zero)."""
        return _k.kint_content(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("mixing polynomials from different variable contexts")
            return other
        if isinstance(other, int):
            return Polynomial.const(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Polynomial._raw(self.nvars, _k.kadd(self.terms, o.terms))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Polynomial._raw(self.nvars, _k.ksub(self.terms, o.terms))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Polynomial._raw(self.nvars, _k.ksub(o.terms, self.terms))

    def __neg__(self):
        return Polynomial._raw(self.nvars, _k.kneg(self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial._raw(self.nvars, _k.kscale(self.terms, other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Polynomial._raw(self.nvars, _k.kmul(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        one = {(0,) * self.nvars: 1}
        return Polynomial._raw(self.nvars, _k.kpow(self.terms, n, one))

    def derivative(self, v: int) -> "Polynomial":
        _check_index(v, self.nvars)
        return Polynomial._raw(self.nvars, _k.kderiv(self.terms, v))

    # -- structure in one variable ------------------------------------------

    def coefficient(self, v: int, power: int) -> "Polynomial":
        """Coefficient of v**power, a polynomial free of v."""
        _check_index(v, self.nvars)
        out = {}
        for e, c in self.terms.items():
            if e[v] == power:
                out[e[:v] + (0,) + e[v + 1:]] = c
        return Polynomial._raw(self.nvars, out)

    def coefficients(self, v: int) -> list["Polynomial"]:
        """Coefficients of v**d .. v**0 (length degree+1, empty for zero)."""
        _check_index(v, self.nvars)
        d = self.degree(v)
        if d < 0:
            return []
        return [Polynomial._raw(self.nvars, b) for b in reversed(self._coefficient_terms(v, d))]

    def _coefficient_terms(self, v: int, d: int) -> list[dict]:
        """Term maps of the coefficients of v**0 .. v**d, d the degree in v."""
        buckets: list[dict] = [{} for _ in range(d + 1)]
        for e, c in self.terms.items():
            buckets[e[v]][e[:v] + (0,) + e[v + 1:]] = c
        return buckets

    def lcoeff(self, v: int) -> "Polynomial":
        """Leading coefficient with respect to v (v-free polynomial)."""
        d = self.degree(v)
        if d < 0:
            return Polynomial.zero(self.nvars)
        return self.coefficient(v, d)

    # -- printing -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _k.grlex_key(t[0]), reverse=True)

    def to_str(self, names: "Iterable[str] | None" = None) -> str:
        if not self.terms:
            return "0"
        names = list(names) if names is not None else [f"x{i}" for i in range(self.nvars)]
        parts: list[str] = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = f"{mag}*" + "*".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_str()})"


# the slots' own setters, which bypass the immutable __setattr__
_set_nvars = Polynomial.nvars.__set__
_set_terms = Polynomial.terms.__set__
_set_hash = Polynomial._hash.__set__


# -- normalization helpers ----------------------------------------------------


def sign_normalize(f: Polynomial) -> Polynomial:
    """Negate f if needed so the graded-lex leading coefficient is positive."""
    if not f.terms:
        return f
    _, c = f.lead_term()
    return -f if c < 0 else f


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact polynomial division f / g; raises ExactDivisionError otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.nvars != g.nvars:
        raise ValueError("mixing polynomials from different variable contexts")
    q = _k.kexact_div(f.terms, g.terms)
    if q is None:
        raise ExactDivisionError(f"{g} does not divide {f} exactly")
    return Polynomial._raw(f.nvars, q)


def _int_content_primitive(f: Polynomial) -> tuple[int, Polynomial]:
    """Split a nonzero f = c * primitive, c its positive integer content."""
    c = f.int_content()
    if c == 1:
        return c, f
    return c, Polynomial._raw(f.nvars, {e: x // c for e, x in f.terms.items()})


def content_primitive(f: Polynomial, v: int) -> tuple[Polynomial, Polynomial]:
    """Split f = content * primitive with respect to v.

    The content is the (sign-normalized, integer content included) gcd of the
    coefficients of f in v; the primitive part carries the sign of f so the
    product round-trips exactly.  When the content is 1 the primitive part
    is f itself.
    """
    if f.is_zero():
        raise ValueError("content of the zero polynomial is undefined")
    coeffs = [c for c in f.coefficients(v) if not c.is_zero()]
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_const() and abs(next(iter(cont.terms.values()), 0)) == 1:
            break
        cont = poly_gcd(cont, c)
    cont = sign_normalize(cont)
    if cont.is_const() and cont.int_content() == 1:
        return cont, f
    return cont, exact_div(f, cont)


def _list_prem(a: list[dict], b: list[dict]) -> list[dict]:
    """Pseudo-remainder, multiplier lc(b)^(deg a - deg b + 1), of coefficient
    term maps in v (lowest power first, top entry nonzero, len(a) >= len(b));
    trailing zero entries are dropped, so the degree is the length - 1."""
    *b, lb = b
    r = a[:]
    for k in range(len(r) - len(b) - 1, -1, -1):
        top = r.pop()
        r = [_k.kmul(c, lb) for c in r]
        if top:
            for i, bi in enumerate(b, k):
                r[i] = _k.ksub(r[i], _k.kmul(top, bi))
    while r and not r[-1]:
        r.pop()
    return r


def _quotient(a: dict, b: dict) -> dict:
    """Term map of the exact quotient a / b; ExactDivisionError otherwise."""
    q = _k.kexact_div(a, b)
    if q is None:
        raise ExactDivisionError("a division in the subresultant scheme was not exact")
    return q


def _subresultants(A: list[dict], B: list[dict]) -> tuple[list[dict], list[dict], dict, int]:
    """The subresultant remainder sequence (Collins, JACM 14 (1967) 128-142;
    Brown and Traub, JACM 18 (1971) 505-514) of coefficient term maps in v
    (lowest power first, top entries nonzero, len(A) >= len(B) >= 2), run
    until its last member is zero or free of v.  Returns its last two
    members, the last h, and the sign its degree parities add to the
    resultant."""
    one = {(0,) * len(next(iter(A[-1]))): 1}
    s, gg, h = 1, one, one
    while len(B) > 1:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        d = _k.kmul(gg, _k.kpow(h, delta, one))
        A, B = B, [_quotient(c, d) for c in _list_prem(A, B)]
        gg = A[-1]
        if delta:
            h = _quotient(_k.kpow(gg, delta, one), _k.kpow(h, delta - 1, one))
    return A, B, h, s


def _evaluate(f: Polynomial, v: int, xi: int) -> Polynomial:
    """f with variable v set to the integer xi (v's slot becomes 0)."""
    out: dict = {}
    for e, c in f.terms.items():
        k = e[:v] + (0,) + e[v + 1:]
        s = out.get(k, 0) + c * xi ** e[v]
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return Polynomial._raw(f.nvars, out)


def _xi_adic(h: Polynomial, v: int, xi: int) -> Polynomial:
    """The v-free h rebuilt in v by symmetric xi-adic digits (xi >= 3) of
    its coefficients, so that evaluating the result at v = xi gives back h."""
    out: dict = {}
    half = xi // 2
    for e, c in h.terms.items():
        i = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e[:v] + (i,) + e[v + 1:]] = d
            c = (c - d) // xi
            i += 1
    return Polynomial._raw(h.nvars, out)


def _heuristic_gcd(f: Polynomial, g: Polynomial) -> "Polynomial | None":
    """GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7 (1989) 31-48)
    on nonconstant f and g of integer content 1: their primitive gcd, or
    None when six evaluation points fail.

    With xi >= 2*min(max-norms)+2, a rebuilt primitive candidate that
    divides both inputs is their gcd, so only the trial division decides.
    """
    v = max(f.variables() | g.variables())
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 2
    for _ in range(6):
        # the smaller-norm input has no root at xi, so the gcd is defined
        h = _xi_adic(poly_gcd(_evaluate(f, v, xi), _evaluate(g, v, xi)), v, xi)
        h = _int_content_primitive(h)[1]
        if _k.kexact_div(f.terms, h.terms) is not None and \
                _k.kexact_div(g.terms, h.terms) is not None:
            return h
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd over the integers (integer content included), sign-normalized.

    A single-term operand c*X^e, a constant included, is closed-form: the
    gcd is the integer gcd of c and every coefficient of the other operand
    times X to the componentwise minimum of e and the other operand's
    exponents.  Otherwise tries the heuristic GCD (GCDHEU) on the inputs
    with their integer contents stripped.  When it fails, the gcd of the
    contents in the greatest variable v times the primitive part in v of
    the last nonzero member of the primitive parts' subresultant sequence
    (1 when that member is free of v).
    """
    if f.nvars != g.nvars:
        raise ValueError("mixing polynomials from different variable contexts")
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        return sign_normalize(g)
    if g.is_zero():
        return sign_normalize(f)
    if len(g.terms) == 1:
        f, g = g, f
    if len(f.terms) == 1:  # the result is positive, so already sign-normalized
        (e, c), = f.terms.items()
        for e2, c2 in g.terms.items():
            e = tuple(map(min, e, e2))
            c = _int_gcd(c, c2)
        return Polynomial._raw(f.nvars, {e: c})
    cf, pf = _int_content_primitive(f)
    cg, pg = _int_content_primitive(g)
    h = _heuristic_gcd(pf, pg)
    if h is not None:
        return sign_normalize(h * _int_gcd(cf, cg))
    v = max(f.variables() | g.variables())
    cf, pf = content_primitive(f, v)
    cg, pg = content_primitive(g, v)
    cont = poly_gcd(cf, cg)
    m, n = pf.degree(v), pg.degree(v)
    if m < n:
        pf, pg, m, n = pg, pf, n, m
    if n:  # else pg is a unit, coprime to pf
        a, b, _, _ = _subresultants(pf._coefficient_terms(v, m), pg._coefficient_terms(v, n))
        if not b:  # else the sequence ends on a nonzero member free of v
            # a, the last nonzero member, is similar to the gcd of pf and pg
            a = Polynomial._raw(f.nvars, {e[:v] + (i,) + e[v + 1:]: x
                                          for i, c in enumerate(a) for e, x in c.items()})
            cont = cont * content_primitive(a, v)[1]
    return sign_normalize(cont)


def squarefree_part(f: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of f, sign-normalized.

    A single term c*X^e is closed-form: its squarefree part is X to the
    support of e, the product of the variables it mentions.  Otherwise it
    is f / d where d is the gcd of f with every partial derivative,
    accumulated successively over the variables present.  The quotient is
    taken once at the end, so the result is independent of the variable
    order and renaming variables renames the squarefree part.  The result
    is primitive for non-constant input; constants are returned unchanged
    apart from sign normalization.
    """
    if f.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if f.is_const():
        return sign_normalize(f)
    if len(f.terms) == 1:
        e, = f.terms
        return Polynomial._raw(f.nvars, {tuple(1 if x else 0 for x in e): 1})
    d = f
    for v in sorted(f.variables()):
        d = poly_gcd(d, f.derivative(v))
    if d.is_const() and d.int_content() == 1:
        return sign_normalize(f)
    return sign_normalize(exact_div(f, d))


def resultant(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    """Resultant of f and g with respect to v.

    An operand b1*v + b0 linear in v is closed-form: the other operand
    sum(a_k * v^k) of degree m, homogenised and evaluated at (b0 : -b1),
    gives sum(a_k * b0^k * (-b1)^(m-k)), by Horner's rule.  Every other
    pair of degrees goes through the subresultant scheme.  Either way the
    result is the determinant of the Sylvester matrix (sign included).  Both
    arguments free of v yields the constant 1; a zero argument is an error.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if f.nvars != g.nvars:
        raise ValueError("mixing polynomials from different variable contexts")
    m, n = f.degree(v), g.degree(v)
    if m == 0 and n == 0:
        return Polynomial.const(f.nvars, 1)
    s = 1
    A, B = f, g
    if m < n:
        A, B = g, f
        if (m * n) % 2:
            s = -1
        m, n = n, m
    if n == 0:
        return (B ** m) * s
    if n == 1:  # B = b1*v + b0: A homogenised at (b0 : -b1), by Horner
        b0, b1 = B._coefficient_terms(v, 1)
        a = A._coefficient_terms(v, m)
        nb1 = _k.kneg(b1)
        r, p = a[m], None  # p = (-b1)^(m-k) at a_k; None stands for 1
        for ak in reversed(a[:m]):
            r = _k.kmul(r, b0)
            p = nb1 if p is None else _k.kmul(p, nb1)
            if ak:
                r = _k.kadd(r, _k.kmul(ak, p))
        return Polynomial._raw(f.nvars, r if s > 0 else _k.kneg(r))
    a, A = _int_content_primitive(A)
    b, B = _int_content_primitive(B)
    t = a ** n * b ** m
    A, B, h, s2 = _subresultants(A._coefficient_terms(v, m), B._coefficient_terms(v, n))
    if not B:
        return Polynomial.zero(f.nvars)
    dA = len(A) - 1  # the last step, with B[0] free of v, gives the resultant
    one = {(0,) * f.nvars: 1}
    h = _quotient(_k.kpow(B[0], dA, one), _k.kpow(h, dA - 1, one))
    return Polynomial._raw(f.nvars, _k.kscale(h, s * s2 * t))


def discriminant(f: Polynomial, v: int) -> Polynomial:
    """Discriminant of f with respect to v; 1 when deg(f, v) < 2."""
    if f.is_zero():
        raise ValueError("discriminant of the zero polynomial is undefined")
    d = f.degree(v)
    if d < 2:
        return Polynomial.const(f.nvars, 1)
    r = resultant(f, f.derivative(v), v)
    if r.is_zero():
        return r
    disc = exact_div(r, f.lcoeff(v))
    if (d * (d - 1) // 2) % 2:
        disc = -disc
    return disc
