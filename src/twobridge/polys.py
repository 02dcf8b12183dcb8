"""Exact dense univariate polynomials over the integers.

A polynomial is one tuple of Python ints, index = degree of the term, with
no trailing zero.  Python ints are arbitrary precision, so coefficients of
degree-200+ polynomials never overflow.  All operations are pure; values
are immutable and hashable.

Also provides the residue ring Z[u]/(m) of a monic integer polynomial m
(ResidueRing, whose Residues are never mutated once made), the window
p_window of the Chebyshev-style recursion g_{n+1} = t*g_n - g_{n-1}, and
PolyMatrix2, the one 2x2 matrix form.

_long_divide is the one long-division loop; exact_divide and rem_monic are
read off it.  ResidueRing reduces its products in a loop of its own, which
keeps no quotient.

horner is the one Horner loop.  The exact integer values int_value and the
root finder's float and mpmath sweeps in geometry call it.
"""

from __future__ import annotations

import dataclasses
import re as _re


@dataclasses.dataclass(frozen=True)
class GaussInt:
    """A coefficient in the (re, im) form of GPoly.coeffs(); im is always 0."""

    re: int
    im: int = 0


def _conv(a: tuple, b: tuple) -> list:
    """Schoolbook convolution of int tuples."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


class GPoly:
    """Dense polynomial with int coefficients, trimmed canonical form.

    c is the coefficient tuple, index = degree, with no trailing zero (the
    zero polynomial has c == ()); coeff(k) and leading() read ints from it.
    coeffs() is the same list as GaussInts with im == 0, for readers of the
    (re, im) pair form; nothing in the package calls it.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        self.c = tuple(c[:n])

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "GPoly":
        return _ZERO

    @staticmethod
    def one() -> "GPoly":
        return _ONE

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, k: int) -> int:
        return self.c[k] if 0 <= k < len(self.c) else 0

    def coeffs(self) -> list:
        return [GaussInt(x) for x in self.c]

    def leading(self) -> int:
        return self.c[-1] if self.c else 0

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "GPoly":
        other = _as_poly(other)
        c = [0] * max(len(self.c), len(other.c))
        for i, x in enumerate(self.c):
            c[i] += x
        for i, x in enumerate(other.c):
            c[i] += x
        return GPoly(c)

    __radd__ = __add__

    def __neg__(self) -> "GPoly":
        return GPoly([-x for x in self.c])

    def __sub__(self, other) -> "GPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "GPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "GPoly":
        return GPoly(_conv(self.c, _as_poly(other).c))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return "GPoly(%s)" % format_poly(self)

    # -- structural helpers --------------------------------------------

    def shift(self, k: int) -> "GPoly":
        """Multiply by u^k (k >= 0)."""
        if self.is_zero():
            return self
        return GPoly((0,) * k + self.c)

    def strip_power(self, k: int) -> "GPoly":
        """Exact division by u^k; raises if u^k does not divide."""
        if any(self.c[:k]):
            raise ValueError("u^%d does not divide polynomial" % k)
        if self.is_zero():
            return self
        return GPoly(self.c[k:])

    def strip_zero_roots(self) -> tuple:
        """(q, m) with self = u^m q and q(0) != 0: m is the exact number of
        zero roots.  Raises on the zero polynomial, which has no such m."""
        if self.is_zero():
            raise ValueError("the zero polynomial has no finite zero-root count")
        m = 0
        while not self.c[m]:
            m += 1
        return GPoly(self.c[m:]), m

    def substitute_neg(self) -> "GPoly":
        """p(-u): negate odd-degree coefficients."""
        return GPoly([(-x if k & 1 else x) for k, x in enumerate(self.c)])


def _as_poly(x) -> GPoly:
    if isinstance(x, GPoly):
        return x
    if isinstance(x, int):
        return GPoly((x,))
    raise TypeError("cannot coerce %r to GPoly" % (x,))


_ZERO = GPoly([])
_ONE = GPoly([1])
U = GPoly([0, 1])  # the polynomial variable


# -- division ----------------------------------------------------------


def _long_divide(num: GPoly, den: GPoly):
    """(q, r) with num = den*q + r and deg r < deg den, by long division
    over Z; None as soon as a quotient coefficient is not an integer.

    Raises ZeroDivisionError for a zero divisor.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    dd = den.degree
    qn = num.degree - dd
    if qn < 0:
        return _ZERO, num
    r = list(num.c)
    d = den.c
    lead = d[-1]
    q = [0] * (qn + 1)
    for k in range(qn, -1, -1):
        top = r[k + dd]
        if top == 0:
            continue
        x, rest = divmod(top, lead)
        if rest:
            return None
        q[k] = x
        for j in range(dd + 1):
            b = d[j]
            if b:
                r[k + j] -= x * b
    return GPoly(q), GPoly(r[:dd])


def exact_divide(num: GPoly, den: GPoly):
    """Return q with num = den*q exactly, q with integer coefficients, or
    None if there is no such q.

    Raises ZeroDivisionError for a zero divisor.
    """
    qr = _long_divide(num, den)
    if qr is None or not qr[1].is_zero():
        return None
    return qr[0]


def int_value(p: GPoly, t: int) -> int:
    """p(t) at an integer t, exactly."""
    if p.is_zero():
        return 0
    return horner(p.c, t)


def rem_monic(num: GPoly, den: GPoly) -> GPoly:
    """Remainder of num modulo a monic den (leading coefficient 1)."""
    if den.leading() != 1:
        raise ValueError("modulus must be monic")
    return _long_divide(num, den)[1]


# -- residues modulo a monic integer polynomial ------------------------------


class ResidueRing:
    """Z[u]/(m) for a monic integer polynomial m of degree d.

    Its elements are Residues: int coefficient lists of length d, index =
    degree, always reduced mod m.  A product is reduced as soon as it is
    formed, so no intermediate grows past degree 2d - 2.
    """

    def __init__(self, modulus: GPoly):
        if modulus.leading() != 1:
            raise ValueError("modulus must be monic")
        self.degree = d = modulus.degree
        # u^d = -(m_0 + m_1 u + ... + m_{d-1} u^{d-1}) mod m
        self._low = [(j, c) for j, c in enumerate(modulus.c[:d]) if c]
        self.zero = self.element(_ZERO)
        self.one = self.element(_ONE)
        self.u = self.element(U)

    def _reduce(self, c: list) -> "Residue":
        """The residue of the int list c, reduced in place (len(c) >= d)."""
        d, low = self.degree, self._low
        for k in range(len(c) - 1, d - 1, -1):
            x = c[k]
            if x:
                base = k - d
                for j, mj in low:
                    c[base + j] -= x * mj
        del c[d:]
        return Residue(self, c)

    def element(self, p: GPoly) -> "Residue":
        """The residue of p."""
        return self._reduce(list(p.c) + [0] * (self.degree - len(p.c)))


class Residue:
    """An element of a ResidueRing.  Residues of one ring add, subtract and
    multiply with each other and with ints, like GPolys."""

    __slots__ = ("ring", "c")

    def __init__(self, ring: ResidueRing, c: list):
        self.ring = ring
        self.c = c

    def poly(self) -> GPoly:
        """The reduced representative, as a GPoly of degree < d."""
        return GPoly(self.c)

    def _plus_int(self, k: int) -> "Residue":
        c = list(self.c)
        if c:
            c[0] += k
        return Residue(self.ring, c)

    def __add__(self, other):
        if isinstance(other, Residue):
            return Residue(self.ring, [a + b for a, b in zip(self.c, other.c)])
        if isinstance(other, int):
            return self._plus_int(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Residue":
        return Residue(self.ring, [-a for a in self.c])

    def __sub__(self, other):
        if isinstance(other, Residue):
            return Residue(self.ring, [a - b for a, b in zip(self.c, other.c)])
        if isinstance(other, int):
            return self._plus_int(-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return (-self)._plus_int(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Residue):
            # schoolbook product of degree <= 2d - 2, then one reduction
            ring = self.ring
            out = [0] * (2 * ring.degree - 1)
            for i, x in enumerate(self.c):
                if x:
                    k = i
                    for y in other.c:
                        out[k] += x * y
                        k += 1
            return ring._reduce(out)
        if isinstance(other, int):
            return Residue(self.ring, [other * a for a in self.c])
        return NotImplemented

    __rmul__ = __mul__


# -- evaluation ----------------------------------------------------------


def horner(cs, x):
    """cs[0] + cs[1] x + ... + cs[-1] x^(len-1) for a nonempty cs, in the
    ring of cs and x: ints, floats, mpmath numbers or GPolys.  Every
    polynomial value in the package, exact or numeric, is this loop, except
    the Bernoulli tail of geometry's Li2, summed in fixed point."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * x + c
    return acc


# -- normal forms -----------------------------------------------------------


def sign_normalize(p: GPoly) -> GPoly:
    """p or -p, whichever has a positive leading coefficient: the units of
    Z are +-1, so p and -p normalize alike.  The zero polynomial is its own
    normal form."""
    return -p if p.leading() < 0 else p


def even_part_as_y(p: GPoly, strip: int) -> GPoly:
    """Given p with u^strip | p and p/u^strip even in u, return R with
    R(u^2) = p(u)/u^strip.  Raises if odd powers survive the stripping.
    """
    q = p.strip_power(strip)
    for k in range(1, len(q.c), 2):
        if q.c[k]:
            raise ValueError(
                "odd power u^%d present after stripping u^%d" % (k, strip)
            )
    return GPoly(q.c[0::2])


def expand_at_u_squared(R: GPoly) -> GPoly:
    """R(u^2) as a polynomial in u (inverse of even_part_as_y at strip=0)."""
    c = [0] * (2 * len(R.c) - 1) if R.c else []
    c[0::2] = R.c
    return GPoly(c)


# -- Chebyshev windows ----------------------------------------------------


# Beyond this |n| a Residue window is built by doubling, with about 3.5
# products per bit of |n| against one per step of the loop; timed on
# moduli of degree 2-8, the loop is the faster one up to about here.
_LINEAR_MAX = 20


def p_window(t, n: int):
    """(p_{n-1}(t), p_n(t), p_{n+1}(t)) for any integer n.  t is a GPoly, a
    Residue or a number.

    GPoly and number windows run the three-term recursion |n| times.  A
    Residue's products stay of bounded size, so for |n| > _LINEAR_MAX its
    window is built by doubling (p_k, p_{k+1}) along the bits of |n|:
        p_{2k} = p_k (p_{k+1} - p_{k-1}),   p_{2k+1} = p_{k+1}^2 - p_k^2.
    """
    m = abs(n)
    if isinstance(t, Residue):
        x0, x1 = t.ring.zero, t.ring.one   # p_0, p_1
    elif isinstance(t, GPoly):
        x0, x1 = _ZERO, _ONE
    else:
        x0, x1 = 0, 1
    if isinstance(t, Residue) and m > _LINEAR_MAX:
        for bit in bin(m)[2:]:
            # (p_k, p_{k+1}) -> (p_{2k}, p_{2k+1}), with p_{k-1} = t p_k - p_{k+1}
            x0, x1 = x0 * (x1 + x1 - t * x0), (x1 - x0) * (x1 + x0)
            if bit == "1":
                x0, x1 = x1, t * x1 - x0
    else:
        for _ in range(m):
            x0, x1 = x1, t * x1 - x0
    # x0 = p_m, x1 = p_{m+1}; p_{m-1} = t p_m - p_{m+1}
    pm_minus = t * x0 - x1
    if n >= 0:
        return pm_minus, x0, x1
    # p_{-m +/- 1} = -p_{m -/+ 1}
    return -x1, -x0, -pm_minus


# -- 2x2 polynomial matrices ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class PolyMatrix2:
    """2x2 matrix of GPoly entries, or of Residues or mpmath numbers in
    coloring's transfers and geometry's meridian matrices: products,
    traces and entry access."""

    a11: GPoly
    a12: GPoly
    a21: GPoly
    a22: GPoly

    def __mul__(self, other: "PolyMatrix2") -> "PolyMatrix2":
        return PolyMatrix2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def trace(self) -> GPoly:
        return self.a11 + self.a22


# -- text and JSON forms ----------------------------------------------------


def _coeff_text(c: int, k: int, first: bool) -> str:
    # render c * u^k
    mag = abs(c)
    if k == 0:
        term = str(mag)
    else:
        var = "u" if k == 1 else "u^%d" % k
        term = var if mag == 1 else "%d*%s" % (mag, var)
    if first:
        return ("-" if c < 0 else "") + term
    return (" - " if c < 0 else " + ") + term


def format_poly(p: GPoly, var: str = "u") -> str:
    """Sparse human text form, e.g. 'u^6 - u^4 + 2*u^2 - 1'."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        if p.c[k]:
            parts.append(_coeff_text(p.c[k], k, first=not parts))
    text = "".join(parts)
    return text.replace("u", var) if var != "u" else text


# One term: a sign (optional on the first term only), then an integer, a
# power of a letter, or an integer times a power of a letter ('2*u^3' or
# '2u^3').
_TERM_RE = _re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?=[0-9A-Za-z])"
    r"(?P<num>\d+)?"
    r"(?:(?(num)(?:\s*\*\s*)?)(?P<var>[A-Za-z])(?:\^(?P<exp>\d+))?)?\s*"
)


def parse_poly(text: str) -> GPoly:
    """Parse the sparse human form produced by format_poly.

    Terms are joined by + or -.  The variable is one letter, any but i,
    the same throughout the text ('x^3 - x' is read like 'u^3 - u').
    Anything else raises ValueError naming its position in the text.
    """
    s = text.rstrip()
    if not s:
        raise ValueError("empty polynomial text")

    def refuse(at, why):
        raise ValueError("cannot parse polynomial text %r at position %d: %s"
                         % (text, at, why))

    coeffs = {}
    var = None
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None:
            refuse(pos, "expected a term")
        if coeffs and not m.group("sign"):
            refuse(m.start("sign"), "terms are joined by + or -")
        v = m.group("var")
        if v == "i":
            refuse(m.start("var"), "'i' is not a variable: coefficients are "
                                   "integers")
        if v and var and v != var:
            refuse(m.start("var"), "a second variable %r after %r" % (v, var))
        var = var or v
        k = int(m.group("exp") or 1) if v else 0
        c = int(m.group("num") or 1)
        coeffs[k] = coeffs.get(k, 0) + (-c if m.group("sign") == "-" else c)
        pos = m.end()
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return GPoly(out)


def poly_to_json(p: GPoly) -> dict:
    """Canonical JSON form: {"coeffs": [[c, "0"], ...]}, ints as strings.
    Each coefficient is written as a (re, im) pair with im "0", the form
    census files have always held."""
    return {"coeffs": [[str(x), "0"] for x in p.c]}


def poly_from_json(obj: dict) -> GPoly:
    """The polynomial of poly_to_json's form.  Raises ValueError on a
    nonzero imaginary part: coefficients are integers."""
    coeffs = obj["coeffs"]
    if any(int(c[1]) for c in coeffs):
        raise ValueError("coefficients must be integers: nonzero imaginary "
                         "part in %r" % (coeffs,))
    return GPoly([int(c[0]) for c in coeffs])
