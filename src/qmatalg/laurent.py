"""Laurent polynomials in q with arbitrary-precision integer coefficients.

This is the ground ring for everything else in the package.  Elements are
stored sparsely as {exponent: coefficient} with no zero coefficients kept,
so equality of dicts is equality in the ring.  Coefficients are Python ints
(they must be: coefficient growth in products of six or more algebra
generators already exceeds 64 bits).  Exponents are machine integers,
validated to |e| <= 2**31 - 1 on construction; desk-scale computations in
this package stay below a few hundred.

Sparse sums go through one helper per kind.  On raw {exponent: int} dicts,
in place, `_mul_into` adds a product and `_add_into` a dict: the loops of
`LaurentInt.__mul__` and `__add__`, of `lau_div_exact`'s remainder, of the
rewriter in qalgebra and of the kernel back substitution in exactla, which
wrap each result in a LaurentInt once.  On keyed dicts of LaurentInt values
(element and matrix sums), `_add_product` adds `terms[key] += a*b` without
building the product, and `_add_scaled` a whole dict times a scalar.
`_add_term` is used only where a coefficient that may be zero enters
(building an element, parsing).

Text format: a signed sparse sum of monomials ``c*q^e``, printed with
exponents descending, e.g. ``q^2 - 2 + q^-2``.  ``parse_laurent`` and
``format_laurent`` round-trip bit-exactly.  The monomial syntax is written
once, as ``_MONOMIAL``; qalgebra's element parser builds its terms on it.
"""

from __future__ import annotations

import re

EXPONENT_BOUND = 2**31 - 1


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _check_exponent(e):
    """Raise OverflowError for an exponent past EXPONENT_BOUND."""
    if abs(e) > EXPONENT_BOUND:
        raise OverflowError(f"exponent {e} out of documented bound")


def _add_term(terms, key, coeff):
    """terms[key] += coeff in a sparse dict of int or LaurentInt
    coefficients, dropping a zero sum."""
    prev = terms.get(key)
    acc = coeff if prev is None else prev + coeff
    if acc:
        terms[key] = acc
    elif prev is not None:
        del terms[key]


def _mul_into(out, a, b):
    """out += a*b on {exponent: int} dicts with no zero coefficients,
    dropping a zero sum; returns out.  The one product loop of the ring."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _add_into(out, a):
    """out += a on {exponent: int} dicts with no zero coefficients,
    dropping a zero sum; returns out.  The one sum loop of the ring."""
    for e, c in a.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _add_product(terms, key, a, b):
    """terms[key] += a*b in a sparse dict of LaurentInt coefficients, with
    no product LaurentInt built first: the sum is one new LaurentInt (the
    previous coefficient is not written), and a zero sum is dropped."""
    prev = terms.get(key)
    out = _mul_into({} if prev is None else dict(prev.terms), a.terms, b.terms)
    if out:
        terms[key] = LaurentInt._raw(out)
    elif prev is not None:
        del terms[key]


def _add_scaled(terms, other, c):
    """terms += other * c key by key, for sparse dicts of LaurentInt
    coefficients and a LaurentInt c; returns terms."""
    for key, coeff in other.items():
        _add_product(terms, key, coeff, c)
    return terms


class LaurentInt:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        d = dict(terms)
        for e, c in list(d.items()):
            if not isinstance(e, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be ints")
            _check_exponent(e)
            if c == 0:
                del d[e]
        self.terms = d

    @staticmethod
    def _raw(d):
        obj = object.__new__(LaurentInt)
        obj.terms = d
        return obj

    @classmethod
    def from_int(cls, n):
        return cls._raw({0: n} if n else {})

    @classmethod
    def q_power(cls, e, coeff=1):
        _check_exponent(e)
        return cls._raw({e: coeff} if coeff else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if isinstance(other, LaurentInt):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        # a constant equals its int (zero equals 0), so it must hash as one
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return hash(self.terms[0])
        return hash(tuple(sorted(self.terms.items())))

    def __neg__(self):
        return LaurentInt._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, LaurentInt):
            other = other.terms
        elif isinstance(other, int):
            other = {0: other} if other else {}
        else:
            return NotImplemented
        return LaurentInt._raw(_add_into(dict(self.terms), other))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, LaurentInt)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return LaurentInt._raw({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentInt):
            return NotImplemented
        return LaurentInt._raw(_mul_into({}, self.terms, other.terms))

    __rmul__ = __mul__

    def bar(self):
        """The bar involution q -> q^-1.  It lists the exponents in reverse,
        so a dict stored in ascending (or descending) order stays so."""
        return LaurentInt._raw({-e: c for e, c in reversed(self.terms.items())})

    def eval_q1(self):
        """Evaluate at q = 1 (an exact ring homomorphism to Z)."""
        return sum(self.terms.values())

    def min_exp(self):
        return min(self.terms) if self.terms else 0

    def max_exp(self):
        return max(self.terms) if self.terms else 0

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return f"LaurentInt({format_laurent(self)!r})"


ZERO = LaurentInt._raw({})
ONE = LaurentInt._raw({0: 1})
Q = LaurentInt._raw({1: 1})
QINV = LaurentInt._raw({-1: 1})
Q_MINUS_QINV = Q - QINV


def lau_div_exact(a: LaurentInt, b: LaurentInt) -> LaurentInt:
    """Exact division in Z[q, q^-1]; raises ExactDivisionError on remainder.

    Division proceeds by leading (highest-exponent) terms.  The loop is
    bounded below by the least possible quotient exponent, so a failed
    division terminates rather than running off to -infinity.
    """
    if not b:
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if not a:
        return ZERO
    min_quot_exp = a.min_exp() - b.min_exp()
    eb, cb = b.max_exp(), b.terms[b.max_exp()]
    rem = dict(a.terms)
    quot = {}
    while rem:
        ea = max(rem)
        ca = rem[ea]
        e = ea - eb
        if e < min_quot_exp or ca % cb:
            raise ExactDivisionError("inexact Laurent division")
        c = ca // cb
        quot[e] = c
        _mul_into(rem, {e: -c}, b.terms)
    return LaurentInt._raw(quot)


def _format_monomial(coeff: int, exp: int) -> str:
    # sign handled by the caller; coeff > 0 here
    if exp == 0:
        return str(coeff)
    qpart = "q" if exp == 1 else f"q^{exp}"
    if coeff == 1:
        return qpart
    return f"{coeff}*{qpart}"


def format_laurent(a: LaurentInt) -> str:
    if not a.terms:
        return "0"
    parts = []
    for e in sorted(a.terms, reverse=True):
        c = a.terms[e]
        mono = _format_monomial(abs(c), e)
        if not parts:
            parts.append(f"-{mono}" if c < 0 else mono)
        else:
            parts.append(f"- {mono}" if c < 0 else f"+ {mono}")
    return " ".join(parts)


# One monomial ``c``, ``q^e`` or ``c*q^e``, the ``^e`` optional, with no
# space inside ``q^e``.  It can match the empty string: a scanner built on it
# rejects a term with no monomial.
_MONOMIAL = r"(?P<coeff>\d+)?(?P<q>(?(coeff)\s*\*\s*)q(?:\^(?P<exp>-?\d+))?)?"
_SIGNED_MONOMIAL = re.compile(rf"\s*(?P<sign>[+-]?)\s*{_MONOMIAL}\s*")


def parse_laurent(text: str) -> LaurentInt:
    """Parse the sum format produced by format_laurent: monomials ``c``,
    ``q^e`` or ``c*q^e`` (``^e`` optional), each after a sign ``+`` or ``-``,
    the first one's optional.  Raises ValueError naming the position of a
    bad term, and OverflowError for an exponent past EXPONENT_BOUND."""
    out = {}
    pos = 0
    while True:
        m = _SIGNED_MONOMIAL.match(text, pos)
        if not (m["coeff"] or m["q"]) or (pos and not m["sign"]):
            raise ValueError(f"bad Laurent polynomial term at position {pos}: {text[pos:]!r}")
        e = int(m["exp"] or 1) if m["q"] else 0
        _check_exponent(e)
        c = int(m["coeff"] or 1)
        _add_term(out, e, -c if m["sign"] == "-" else c)
        pos = m.end()
        if pos == len(text):
            return LaurentInt._raw(out)
