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
"""

from __future__ import annotations

import random
from math import gcd as _int_gcd
from typing import Iterable, Iterator

from cadorder._backend import kernel as _k

__all__ = [
    "Polynomial",
    "ExactDivisionError",
    "sign_normalize",
    "content_primitive",
    "poly_gcd",
    "squarefree_part",
    "prem",
    "resultant",
    "discriminant",
    "exact_div",
]


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


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
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                if c:
                    clean[tuple(e)] = int(c)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- construction -----------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Polynomial":
        """Wrap an already-canonical term dict without re-validating."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars: int, c: int) -> "Polynomial":
        if c == 0:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: int(c)})

    @classmethod
    def var(cls, nvars: int, index: int, power: int = 1) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} slots")
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
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(not any(e) for e in self.terms)

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
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

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
        result = Polynomial.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, v: int) -> "Polynomial":
        return Polynomial._raw(self.nvars, _k.kderiv(self.terms, v))

    def _shifted(self, v: int, power: int) -> "Polynomial":
        """Multiply by v**power (power >= 0)."""
        if power == 0 or not self.terms:
            return self
        mono = [0] * self.nvars
        mono[v] = power
        return Polynomial._raw(self.nvars, _k.kterm_mul(self.terms, tuple(mono), 1))

    # -- structure in one variable ------------------------------------------

    def coefficient(self, v: int, power: int) -> "Polynomial":
        """Coefficient of v**power, a polynomial free of v."""
        out = {}
        for e, c in self.terms.items():
            if e[v] == power:
                out[e[:v] + (0,) + e[v + 1:]] = c
        return Polynomial._raw(self.nvars, out)

    def coefficients(self, v: int) -> list["Polynomial"]:
        """Coefficients of v**d .. v**0 (length degree+1, empty for zero)."""
        d = self.degree(v)
        if d < 0:
            return []
        buckets: list[dict] = [{} for _ in range(d + 1)]
        for e, c in self.terms.items():
            buckets[e[v]][e[:v] + (0,) + e[v + 1:]] = c
        return [Polynomial._raw(self.nvars, b) for b in reversed(buckets)]

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


def content_primitive(f: Polynomial, v: int) -> tuple[Polynomial, Polynomial]:
    """Split f = content * primitive with respect to v.

    The content is the (sign-normalized, integer content included) gcd of the
    coefficients of f in v; the primitive part carries the sign of f so the
    product round-trips exactly.
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
    return cont, exact_div(f, cont)


def prem(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    """Pseudo-remainder of f by g in v with multiplier lc(g)^(df-dg+1)."""
    dg = g.degree(v)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    df = f.degree(v)
    if df < dg:
        raise ValueError("pseudo-division needs deg f >= deg g")
    lg = g.lcoeff(v)
    r = f
    e = 0
    while not r.is_zero():
        dr = r.degree(v)
        if dr < dg:
            break
        r = lg * r - (r.lcoeff(v) * g)._shifted(v, dr - dg)
        e += 1
    n = df - dg + 1
    if e < n:
        r = r * lg ** (n - e)
    return r


# Modulus for the coprimality certificate below; any prime beyond realistic
# degree bounds works, a Mersenne prime keeps the reductions cheap.
_CERT_PRIME = (1 << 61) - 1


def _gf_image(f: Polynomial, v: int, pts: list[int], p: int) -> list[int]:
    """f mapped to GF(p)[v] by evaluating every other variable at pts.

    Returns dense coefficients, constant term first, trailing zeros trimmed
    (so the list may be shorter than deg_v(f)+1 when the true leading
    coefficient vanishes at the chosen point).
    """
    img: dict[int, int] = {}
    for e, c in f.terms.items():
        m = c % p
        for i, k in enumerate(e):
            if k and i != v:
                m = m * pow(pts[i], k, p) % p
        d = e[v]
        img[d] = (img.get(d, 0) + m) % p
    out = [img.get(i, 0) for i in range(max(img) + 1)] if img else []
    while out and out[-1] == 0:
        out.pop()
    return out


def _gf_gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd of two univariate GF(p) polynomials (dense lists)."""
    while b:
        inv = pow(b[-1], -1, p)
        a = a[:]
        while len(a) >= len(b):
            if a[-1] == 0:
                a.pop()
                continue
            q = a[-1] * inv % p
            off = len(a) - len(b)
            for i in range(len(b) - 1):
                a[off + i] = (a[off + i] - q * b[i]) % p
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) - 1


def _certified_coprime(f: Polynomial, g: Polynomial, v: int) -> bool:
    """True only when gcd(f, g) provably has degree 0 in v.

    Evaluating all variables but v at a point where the leading coefficient
    of f (or g) in v survives cannot lower the v-degree of the gcd's image,
    so coprime images certify a v-free gcd.  False means inconclusive — the
    caller falls back to the full remainder sequence.
    """
    p = _CERT_PRIME
    rng = random.Random(0x5EED)
    df, dg = f.degree(v), g.degree(v)
    for _ in range(3):
        pts = [rng.randrange(1, p) for _ in range(f.nvars)]
        fa = _gf_image(f, v, pts, p)
        ga = _gf_image(g, v, pts, p)
        if not fa or not ga:
            continue
        if len(fa) - 1 != df and len(ga) - 1 != dg:
            continue  # both leading coefficients vanished: unlucky point
        return _gf_gcd_degree(fa, ga, p) == 0
    return False


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd over the integers (integer content included), sign-normalized."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero():
        return sign_normalize(g)
    if g.is_zero():
        return sign_normalize(f)
    if f.is_const() or g.is_const():
        c = _int_gcd(f.int_content(), g.int_content())
        return Polynomial.const(f.nvars, c)
    v = max(f.variables() | g.variables())
    cf, pf = content_primitive(f, v)
    cg, pg = content_primitive(g, v)
    cont = poly_gcd(cf, cg)
    # A v-free gcd of the primitive parts must divide their unit contents.
    if pf.degree(v) > 0 and pg.degree(v) > 0 and _certified_coprime(pf, pg, v):
        return sign_normalize(cont)
    a, b = pf, pg
    if a.degree(v) < b.degree(v):
        a, b = b, a
    while not b.is_zero():
        r = prem(a, b, v)
        if r.is_zero():
            a, b = b, r
        else:
            a, b = b, content_primitive(r, v)[1]
    if a.is_const():
        return sign_normalize(cont)
    return sign_normalize(cont * content_primitive(a, v)[1])


def squarefree_part(f: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of f, sign-normalized.

    Computed as f / d where d is the gcd of f with every partial derivative,
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
    d = f
    for v in sorted(f.variables()):
        d = poly_gcd(d, f.derivative(v))
    if d.is_const() and d.int_content() == 1:
        return sign_normalize(f)
    return sign_normalize(exact_div(f, d))


def resultant(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    """Resultant of f and g with respect to v, by the subresultant scheme.

    Matches the determinant of the Sylvester matrix exactly (sign included).
    Both arguments free of v yields the constant 1; a zero argument is an
    error.
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
    a, b = A.int_content(), B.int_content()
    if a > 1:
        A = exact_div(A, Polynomial.const(A.nvars, a))
    if b > 1:
        B = exact_div(B, Polynomial.const(B.nvars, b))
    t = a ** n * b ** m
    one = Polynomial.const(f.nvars, 1)
    gg, h = one, one
    while True:
        dA, dB = A.degree(v), B.degree(v)
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = prem(A, B, v)
        A = B
        B = exact_div(R, gg * h ** delta) if not R.is_zero() else R
        gg = A.lcoeff(v)
        if delta == 1:
            h = gg
        elif delta > 1:
            h = exact_div(gg ** delta, h ** (delta - 1))
        if B.degree(v) <= 0:
            break
    if B.is_zero():
        return Polynomial.zero(f.nvars)
    dA = A.degree(v)
    lB = B.lcoeff(v)
    if dA > 1:
        h = exact_div(lB ** dA, h ** (dA - 1))
    else:
        h = lB
    return h * (s * t)


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
