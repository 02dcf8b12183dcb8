"""Exact dense univariate polynomials over the Gaussian integers.

A polynomial is stored as two parallel tuples of Python ints (real and
imaginary coefficient parts), index = degree of the term.  Python ints are
arbitrary precision, so coefficients of degree-200+ polynomials never
overflow.  All operations are pure; values are immutable and hashable.

Also provides the Chebyshev-style family p_n, f_n, v_n defined by the
three-term recursion g_{n+1} = t*g_n - g_{n-1}, and SL(2) matrix powers
expressed through that family.
"""

from __future__ import annotations

import dataclasses
import re as _re

import mpmath as mp


@dataclasses.dataclass(frozen=True)
class GaussInt:
    """A Gaussian integer re + im*i with arbitrary-precision parts."""

    re: int
    im: int = 0

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%di" % self.im
        return "(%d%+di)" % (self.re, self.im)


# Units of Z[i], in the order unit_index increments: i^0, i^1, i^2, i^3.
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _trim(re: list, im: list) -> tuple:
    n = len(re)
    while n and re[n - 1] == 0 and im[n - 1] == 0:
        n -= 1
    return tuple(re[:n]), tuple(im[:n])


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
    """Dense polynomial with GaussInt coefficients, trimmed canonical form."""

    __slots__ = ("_re", "_im")

    def __init__(self, re=(), im=None):
        re = list(re)
        im = [0] * len(re) if im is None else list(im)
        if len(im) != len(re):
            raise ValueError("coefficient part lists differ in length")
        self._re, self._im = _trim(re, im)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "GPoly":
        return _ZERO

    @staticmethod
    def one() -> "GPoly":
        return _ONE

    @staticmethod
    def monomial(k: int, c=1) -> "GPoly":
        """c * u^k with c an int, (re, im) pair or GaussInt."""
        re, im = _as_pair(c)
        return GPoly([0] * k + [re], [0] * k + [im])

    @staticmethod
    def from_coeffs(coeffs) -> "GPoly":
        """coeffs: iterable of ints, (re, im) pairs or GaussInts, index = degree."""
        res, ims = [], []
        for c in coeffs:
            re, im = _as_pair(c)
            res.append(re)
            ims.append(im)
        return GPoly(res, ims)

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._re) - 1

    def is_zero(self) -> bool:
        return not self._re

    def is_real(self) -> bool:
        return all(x == 0 for x in self._im)

    def coeff(self, k: int) -> GaussInt:
        if 0 <= k < len(self._re):
            return GaussInt(self._re[k], self._im[k])
        return GaussInt(0)

    def coeffs(self) -> list:
        return [GaussInt(r, i) for r, i in zip(self._re, self._im)]

    def leading(self) -> GaussInt:
        if not self._re:
            return GaussInt(0)
        return GaussInt(self._re[-1], self._im[-1])

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "GPoly":
        other = _as_poly(other)
        n = max(len(self._re), len(other._re))
        re = [0] * n
        im = [0] * n
        for i, (r, m) in enumerate(zip(self._re, self._im)):
            re[i] += r
            im[i] += m
        for i, (r, m) in enumerate(zip(other._re, other._im)):
            re[i] += r
            im[i] += m
        return GPoly(re, im)

    __radd__ = __add__

    def __neg__(self) -> "GPoly":
        return GPoly([-x for x in self._re], [-x for x in self._im])

    def __sub__(self, other) -> "GPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "GPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "GPoly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return _ZERO
        a_real = self.is_real()
        b_real = other.is_real()
        if a_real and b_real:
            return GPoly(_conv(self._re, other._re))
        # (ar + i ai)(br + i bi)
        rr = _conv(self._re, other._re)
        ii = _conv(self._im, other._im)
        ri = _conv(self._re, other._im)
        ir = _conv(self._im, other._re)
        n = len(rr)
        re = [rr[k] - ii[k] for k in range(n)]
        im = [ri[k] + ir[k] for k in range(n)]
        return GPoly(re, im)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, GPoly):
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self):
        return hash((self._re, self._im))

    def __repr__(self):
        return "GPoly(%s)" % format_poly(self)

    # -- structural helpers --------------------------------------------

    def shift(self, k: int) -> "GPoly":
        """Multiply by u^k (k >= 0)."""
        if self.is_zero():
            return self
        pad = (0,) * k
        return GPoly(pad + self._re, pad + self._im)

    def strip_power(self, k: int) -> "GPoly":
        """Exact division by u^k; raises if u^k does not divide."""
        if any(self._re[i] or self._im[i] for i in range(min(k, len(self._re)))):
            raise ValueError("u^%d does not divide polynomial" % k)
        if self.is_zero():
            return self
        return GPoly(self._re[k:], self._im[k:])

    def strip_zero_roots(self) -> tuple:
        """(q, m) with self = u^m q and q(0) != 0: m is the exact number of
        zero roots.  Raises on the zero polynomial, which has no such m."""
        if self.is_zero():
            raise ValueError("the zero polynomial has no finite zero-root count")
        m = 0
        while not (self._re[m] or self._im[m]):
            m += 1
        return GPoly(self._re[m:], self._im[m:]), m

    def substitute_neg(self) -> "GPoly":
        """p(-u): negate odd-degree coefficients."""
        re = [(-c if k & 1 else c) for k, c in enumerate(self._re)]
        im = [(-c if k & 1 else c) for k, c in enumerate(self._im)]
        return GPoly(re, im)

    def compose(self, inner: "GPoly") -> "GPoly":
        """self(inner(u)) by Horner's scheme, exact."""
        result = _ZERO
        for k in range(self.degree, -1, -1):
            result = result * inner + GPoly.monomial(0, (self._re[k], self._im[k]))
        return result

    def scale_unit(self, unit_index: int) -> "GPoly":
        """Multiply all coefficients by i^unit_index."""
        ur, ui = _UNITS[unit_index % 4]
        if (ur, ui) == (1, 0):
            return self
        re = [r * ur - m * ui for r, m in zip(self._re, self._im)]
        im = [r * ui + m * ur for r, m in zip(self._re, self._im)]
        return GPoly(re, im)


def _as_pair(c):
    if isinstance(c, GaussInt):
        return c.re, c.im
    if isinstance(c, tuple):
        re, im = c
        return int(re), int(im)
    return int(c), 0


def _as_poly(x) -> GPoly:
    if isinstance(x, GPoly):
        return x
    if isinstance(x, (int, GaussInt, tuple)):
        re, im = _as_pair(x)
        return GPoly([re], [im])
    raise TypeError("cannot coerce %r to GPoly" % (x,))


_ZERO = GPoly([])
_ONE = GPoly([1])
U = GPoly([0, 1])  # the polynomial variable


# -- division ----------------------------------------------------------


def _gauss_exact_div(ar, ai, br, bi):
    """Exact quotient of Gaussian integers, or None."""
    n = br * br + bi * bi
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian integer")
    qr, rr = divmod(ar * br + ai * bi, n)
    qi, ri = divmod(ai * br - ar * bi, n)
    if rr or ri:
        return None
    return qr, qi


def exact_divide(num: GPoly, den: GPoly):
    """Return q with num = den*q exactly over Z[i], or None if not divisible.

    Raises ZeroDivisionError for a zero divisor.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return _ZERO
    if num.degree < den.degree:
        return None
    rr = list(num._re)
    ri = list(num._im)
    dr, di = den._re, den._im
    lr, li = dr[-1], di[-1]
    dd = den.degree
    qn = num.degree - dd
    q_re = [0] * (qn + 1)
    q_im = [0] * (qn + 1)
    for k in range(qn, -1, -1):
        top_r = rr[k + dd]
        top_i = ri[k + dd]
        if top_r == 0 and top_i == 0:
            continue
        q = _gauss_exact_div(top_r, top_i, lr, li)
        if q is None:
            return None
        cr, ci = q
        q_re[k], q_im[k] = cr, ci
        for j in range(dd + 1):
            br, bi = dr[j], di[j]
            if br or bi:
                rr[k + j] -= cr * br - ci * bi
                ri[k + j] -= cr * bi + ci * br
    if any(rr) or any(ri):
        return None
    return GPoly(q_re, q_im)


def divides(den: GPoly, num: GPoly) -> bool:
    return exact_divide(num, den) is not None


def int_value(p: GPoly, t: int) -> tuple:
    """p(t) at an integer t, exactly, as a (re, im) pair."""
    vr = vi = 0
    for k in range(p.degree, -1, -1):
        vr, vi = vr * t + p._re[k], vi * t + p._im[k]
    return vr, vi


def gauss_divides(a: tuple, b: tuple) -> bool:
    """Does the Gaussian integer a divide b?  Both are (re, im) pairs."""
    if a == (0, 0):
        return b == (0, 0)
    return _gauss_exact_div(b[0], b[1], a[0], a[1]) is not None


def rem_monic(num: GPoly, den: GPoly) -> GPoly:
    """Remainder of num modulo a monic den (leading coefficient 1)."""
    if den.leading() != GaussInt(1):
        raise ValueError("modulus must be monic")
    dd = den.degree
    if num.degree < dd:
        return num
    rr = list(num._re)
    ri = list(num._im)
    dr, di = den._re, den._im
    for k in range(num.degree - dd, -1, -1):
        cr, ci = rr[k + dd], ri[k + dd]
        if cr == 0 and ci == 0:
            continue
        for j in range(dd + 1):
            br, bi = dr[j], di[j]
            if br or bi:
                rr[k + j] -= cr * br - ci * bi
                ri[k + j] -= cr * bi + ci * br
    return GPoly(rr[:dd], ri[:dd])


# -- numeric evaluation -------------------------------------------------


def eval_poly(p: GPoly, z):
    """p(z) by Horner's scheme at the current mpmath precision."""
    acc = mp.mpc(0)
    for k in range(p.degree, -1, -1):
        acc = acc * z + mp.mpc(p._re[k], p._im[k])
    return acc


def eval_complex(p: GPoly, z, precision: int = 53):
    """Horner evaluation of p at a complex point, at `precision` working bits."""
    if precision < 53:
        raise ValueError("precision must be at least 53 bits")
    with mp.workprec(precision):
        return eval_poly(p, mp.mpc(z))


# -- substitutions and normal forms ---------------------------------------


def substitute_iu(p: GPoly) -> GPoly:
    """q(u) = p(iu), exact over Z[i].  No sign normalization is applied."""
    re, im = [], []
    for k in range(p.degree + 1):
        r, m = p._re[k], p._im[k]
        ur, ui = _UNITS[k % 4]
        re.append(r * ur - m * ui)
        im.append(r * ui + m * ur)
    return GPoly(re, im)


def unit_normalize(p: GPoly) -> tuple:
    """Scale by the unit of Z[i] that puts the leading coefficient in the
    quadrant re > 0, im >= 0; every nonzero Gaussian integer has exactly
    one unit multiple there, so p and u*p normalize alike for every unit u.
    Returns (normalized, unit_index) with normalized = p * i^unit_index.
    """
    if p.is_zero():
        return p, 0
    a, b = p._re[-1], p._im[-1]
    # lc * i^k for k = 0..3 is (a, b), (-b, a), (-a, -b), (b, -a)
    k = (0 if a > 0 and b >= 0 else 1 if a >= 0 and b < 0
         else 2 if a < 0 and b <= 0 else 3)
    return p.scale_unit(k), k


def sign_normalize(p: GPoly) -> GPoly:
    return unit_normalize(p)[0]


def even_part_as_y(p: GPoly, strip: int) -> GPoly:
    """Given p with u^strip | p and p/u^strip even in u, return R with
    R(u^2) = p(u)/u^strip.  Raises if odd powers survive the stripping.
    """
    q = p.strip_power(strip)
    re, im = [], []
    for k in range(q.degree + 1):
        r, m = q._re[k], q._im[k]
        if k & 1:
            if r or m:
                raise ValueError(
                    "odd power u^%d present after stripping u^%d" % (k, strip)
                )
        else:
            re.append(r)
            im.append(m)
    return GPoly(re, im)


def expand_at_u_squared(R: GPoly) -> GPoly:
    """R(u^2) as a polynomial in u (inverse of even_part_as_y at strip=0)."""
    re = [0] * (2 * R.degree + 1 if not R.is_zero() else 0)
    im = list(re)
    for k in range(R.degree + 1):
        re[2 * k] = R._re[k]
        im[2 * k] = R._im[k]
    return GPoly(re, im)


# -- Chebyshev family -----------------------------------------------------


def p_window(t, n: int):
    """(p_{n-1}(t), p_n(t), p_{n+1}(t)) for any integer n, iteratively.
    t is a GPoly or a number."""
    m = abs(n)
    x0, x1 = (_ZERO, _ONE) if isinstance(t, GPoly) else (0, 1)  # p_0, p_1
    for _ in range(m):
        x0, x1 = x1, t * x1 - x0
    # x0 = p_m, x1 = p_{m+1}; p_{m-1} = t p_m - p_{m+1}
    pm_minus = t * x0 - x1
    if n >= 0:
        return pm_minus, x0, x1
    # p_{-m +/- 1} = -p_{m -/+ 1}
    return -x1, -x0, -pm_minus


def cheb(kind: str, n: int) -> GPoly:
    """Chebyshev-family polynomial in the variable t.

    kind "p": p_n with p_0 = 0, p_1 = 1, p_{n+1} = t p_n - p_{n-1}
         "f": f_n = p_{n+1} - p_n
         "v": v_n = p_{n+1} - p_{n-1}
    Negative n is allowed via p_{-n} = -p_n.
    """
    if kind not in ("p", "f", "v"):
        raise ValueError("kind must be one of 'p', 'f', 'v'")
    before, p, after = p_window(U, n)
    if kind == "p":
        return p
    return after - (p if kind == "f" else before)


# -- 2x2 polynomial matrices ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class PolyMatrix2:
    """2x2 matrix of GPoly entries."""

    a11: GPoly
    a12: GPoly
    a21: GPoly
    a22: GPoly

    @staticmethod
    def identity() -> "PolyMatrix2":
        return PolyMatrix2(_ONE, _ZERO, _ZERO, _ONE)

    def __mul__(self, other: "PolyMatrix2") -> "PolyMatrix2":
        return PolyMatrix2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def det(self) -> GPoly:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> GPoly:
        return self.a11 + self.a22

    def inverse_unimodular(self) -> "PolyMatrix2":
        """Inverse assuming det = 1 (checked)."""
        if self.det() != _ONE:
            raise ValueError("matrix is not unimodular")
        return PolyMatrix2(self.a22, -self.a12, -self.a21, self.a11)

    def __pow__(self, n: int) -> "PolyMatrix2":
        base = self if n >= 0 else self.inverse_unimodular()
        n = abs(n)
        result = PolyMatrix2.identity()
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result


def sl2_power(M, n: int, numeric_tol: float = 1e-9):
    """M^n for unimodular M via the trace recursion
    M^n = p_n(t) M - p_{n-1}(t) I with t = tr M.

    Accepts a PolyMatrix2 (exact; det must equal 1) or a 2x2 numeric
    matrix given as ((a,b),(c,d)) of complex values (det within
    numeric_tol of 1).  Returns the same kind.
    """
    if isinstance(M, PolyMatrix2):
        if M.det() != _ONE:
            raise ValueError("det != 1, trace power formula does not apply")
        pn1, pn, _ = p_window(M.trace(), n)
        return PolyMatrix2(
            pn * M.a11 - pn1,
            pn * M.a12,
            pn * M.a21,
            pn * M.a22 - pn1,
        )
    (a, b), (c, d) = M
    det = a * d - b * c
    if abs(det - 1) > numeric_tol:
        raise ValueError("det != 1 within tolerance")
    pn1, pn, _ = p_window(a + d, n)
    return ((pn * a - pn1, pn * b), (pn * c, pn * d - pn1))


# -- text and JSON forms ----------------------------------------------------


def _coeff_text(c: GaussInt, k: int, first: bool) -> str:
    # render c * u^k
    if c.im == 0:
        mag, sign = abs(c.re), c.re < 0
        body = None if mag == 1 and k > 0 else str(mag)
    elif c.re == 0:
        mag, sign = abs(c.im), c.im < 0
        body = "i" if mag == 1 else "%di" % mag
    else:
        sign = False
        body = "(%d%+di)" % (c.re, c.im)
    var = "" if k == 0 else ("u" if k == 1 else "u^%d" % k)
    term = "*".join(x for x in (body, var) if x) if body else var
    if not term:
        term = "1"
    if first:
        return ("-" if sign else "") + term
    return (" - " if sign else " + ") + term


def format_poly(p: GPoly, var: str = "u") -> str:
    """Sparse human text form, e.g. 'u^6 - u^4 + 2*u^2 - 1'."""
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if not c:
            continue
        parts.append(_coeff_text(c, k, first=not parts))
    text = "".join(parts)
    return text.replace("u", var) if var != "u" else text


_TERM_RE = _re.compile(
    r"(?P<sign>[+-]?)\s*"
    r"(?:\((?P<gre>-?\d+)(?P<gim>[+-]\d+)i\)|(?P<num>\d+)?(?P<imag>i)?)"
    r"\s*\*?\s*"
    r"(?:(?P<var>[a-zA-Z])(?:\^(?P<exp>\d+))?)?"
)


def parse_poly(text: str) -> GPoly:
    """Parse the sparse human form produced by format_poly.

    Any single-letter variable name is accepted; integer and Gaussian
    '(a+bi)' coefficients are understood.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return _ZERO
    pos = 0
    coeffs = {}
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse polynomial text at %r" % s[pos:])
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("gre") is not None:
            re_c, im_c = int(m.group("gre")), int(m.group("gim"))
        elif m.group("imag"):
            re_c, im_c = 0, int(m.group("num") or 1)
        else:
            if m.group("num") is None and m.group("var") is None:
                raise ValueError("cannot parse polynomial text at %r" % s[pos:])
            re_c, im_c = int(m.group("num") or 1), 0
        k = 0
        if m.group("var"):
            k = int(m.group("exp") or 1)
        cur = coeffs.get(k, (0, 0))
        coeffs[k] = (cur[0] + sign * re_c, cur[1] + sign * im_c)
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
    n = max(coeffs) + 1
    re_l = [0] * n
    im_l = [0] * n
    for k, (r, i) in coeffs.items():
        re_l[k], im_l[k] = r, i
    return GPoly(re_l, im_l)


def poly_to_json(p: GPoly) -> dict:
    """Canonical JSON form: {"coeffs": [[re, im], ...]}, ints as strings."""
    return {"coeffs": [[str(r), str(i)] for r, i in zip(p._re, p._im)]}


def poly_from_json(obj: dict) -> GPoly:
    coeffs = obj["coeffs"]
    return GPoly([int(c[0]) for c in coeffs], [int(c[1]) for c in coeffs])
