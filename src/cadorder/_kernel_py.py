"""Sparse term-map kernels in pure Python.

A polynomial with n variables is stored as a dict mapping exponent tuples of
length n to nonzero integer coefficients.  The functions below are the inner
loops of every resultant, gcd and projection computation in the package.
This is the package's only kernel; ``polys`` reaches it as
``cadorder._backend.kernel`` and calls it through module attributes.
"""

from math import gcd as _int_gcd
from operator import add as _add, sub as _sub

IMPL = "python"


def grlex_key(e):
    """Sort key putting the graded-lex largest monomial last."""
    return (sum(e), e)


def kleading(a):
    """Return (monomial, coefficient) of the graded-lex leading term of a."""
    e = max(a, key=grlex_key)
    return e, a[e]


def kadd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def ksub(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def kneg(a):
    return {e: -c for e, c in a.items()}


def kscale(a, c):
    if c == 0:
        return {}
    return {e: c * v for e, v in a.items()}


def kmul(a, b):
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for eb, cb in b.items():
        for ea, ca in a.items():
            k = tuple(map(_add, ea, eb))
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def kterm_mul(a, mono, c):
    """Multiply a by the single term c * X^mono (c may be negative, not 0)."""
    if c == 0:
        return {}
    return {tuple(map(_add, e, mono)): c * v for e, v in a.items()}


def kderiv(a, v):
    out = {}
    for e, c in a.items():
        k = e[v]
        if k:
            out[e[:v] + (k - 1,) + e[v + 1:]] = c * k
    return out


def kint_content(a):
    """Positive gcd of all integer coefficients (0 for the zero polynomial)."""
    g = 0
    for c in a.values():
        g = _int_gcd(g, c)
        if g == 1:
            return 1
    return g


def kexact_div(a, b):
    """Quotient dict of the exact division a / b, or None when b does not
    divide a over the integers."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    eb, cb = kleading(b)
    rem = dict(a)
    quot = {}
    while rem:
        ea, ca = kleading(rem)
        em = tuple(map(_sub, ea, eb))
        for x in em:
            if x < 0:
                return None
        q, r = divmod(ca, cb)
        if r:
            return None
        quot[em] = q
        for e2, c2 in b.items():
            k = tuple(map(_add, em, e2))
            s = rem.get(k, 0) - q * c2
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quot
