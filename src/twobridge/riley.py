"""Riley polynomials from the two-bridge word matrix, the bridge to the
coloring polynomial, integer splittings and unit/trace-field certificates.

The word matrix of S(alpha, beta) is

    W = rho(a)^{e_1} rho(b)^{e_2} ... ,   e_i = -(-1)^floor(i*beta/alpha),

with rho(a) = [[1,1],[0,1]], rho(b) = [[1,0],[-y,1]]; beta is taken in its
odd representative (beta or beta - alpha), the range Riley's normal form
requires.  Knots use W_11 (the word has alpha-1 letters ending in b), links
use W_12 (ending in a).  Both sit in row 1 of W, so the Riley polynomial
forms only row 1.  The coloring polynomial satisfies
P(u) = +- u^eps * R(u^2) with eps = 1 for knots, 2 for links.
"""

from __future__ import annotations

import dataclasses

import mpmath as mp

from .conway import Fraction
from .polys import GPoly, even_part_as_y, expand_at_u_squared

_Y = GPoly([0, 1])
_ONE = GPoly([1])
_ZERO = GPoly([])


class RileyError(ValueError):
    pass


def _odd_beta(frac: Fraction) -> int:
    return frac.beta if frac.beta % 2 == 1 else frac.beta - frac.alpha


def epsilon_sequence(frac: Fraction) -> tuple:
    """(e_1, ..., e_{alpha-1}) with e_i = -(-1)^floor(i*beta/alpha).

    Computed at the odd representative of beta, which makes the sequence
    palindromic: e_i = e_{alpha-i}.
    """
    a, b = frac.alpha, _odd_beta(frac)
    return tuple(1 if ((i * b) // a) & 1 else -1 for i in range(1, a))


def _word_row(eps, row):
    """One row of the word matrix: `row` times the letters rho(a)^e_1,
    rho(b)^e_2, ..., by sparse column operations.

    Entries are polynomials in y; returns the row (c1, c2).
    """
    c1, c2 = row
    use_a = True
    for e in eps:
        if use_a:
            # W <- W * [[1, e], [0, 1]]: c2 += e * c1
            c2 = c2 + c1 if e > 0 else c2 - c1
        else:
            # W <- W * [[1, 0], [-e y, 1]]: c1 -= e * y * c2
            sh = _Y * c2
            c1 = c1 - sh if e > 0 else c1 + sh
        use_a = not use_a
    return c1, c2


def riley_polynomial(frac: Fraction) -> GPoly:
    """W_11 for knots (degree (alpha-1)/2), W_12 for links ((alpha-2)/2).

    Both entries sit in row 1 of W, so only row 1 is formed.
    """
    w11, w12 = _word_row(epsilon_sequence(frac), (_ONE, _ZERO))
    return w11 if frac.is_knot else w12


def verify_bridge(P: GPoly, R: GPoly, is_knot: bool) -> int:
    """Confirm P(u) = sign * u^eps R(u^2) exactly, eps = 1 for knots and 2
    for links; returns the sign, +1 or -1."""
    eps = 1 if is_knot else 2
    rhs = expand_at_u_squared(R).shift(eps)
    if P == rhs:
        return 1
    if P == -rhs:
        return -1
    raise RileyError("coloring/Riley bridge mismatch: engine bug")


# -- splitting P = u g(u) ghat(u) -------------------------------------------


@dataclasses.dataclass(frozen=True)
class Splitting:
    """P = unit * u * g * g_hat, with the nonzero roots of P the split was
    read from, in find_roots order (not part of equality)."""
    g: GPoly
    g_hat: GPoly
    roots: list = dataclasses.field(compare=False)


def hat(g: GPoly) -> GPoly:
    """ghat(u) = (-1)^deg(g) g(-u)."""
    q = g.substitute_neg()
    return q if g.degree % 2 == 0 else -q


_MAX_PAIRS = 24   # 2^k sign choices are screened for k root pairs


def split_polynomial(P: GPoly, precision: int = 256) -> Splitting:
    """Find integer g with P = unit * u * g * ghat, ghat != g.

    Roots of P/u come in +-r pairs; each choice of one root per pair gives a
    candidate monic g.  Candidates are screened numerically (the root sum
    must be close to an integer, then all coefficients), and a surviving
    candidate is accepted only on an exact-division certificate.  The
    roots of P/u are returned with the split as Splitting.roots.  Raises on
    a link's P (P/u has odd degree: the decomposition theorem is knot-only)
    or if no integral choice is found at this precision.
    """
    from .geometry import find_roots, root_pairs  # geometry pulls no riley

    Q = P.strip_power(1)
    if Q.is_zero() or Q.degree % 2 != 0:
        raise RileyError("P/u must have even degree")
    k = Q.degree // 2
    if k > _MAX_PAIRS:
        raise RileyError("too many root pairs (%d > %d)" % (k, _MAX_PAIRS))
    if k == 0:
        raise RileyError("constant P/u cannot split with ghat != g")
    roots = find_roots(Q, precision=precision)
    with mp.workprec(precision):
        reps = root_pairs(roots)
        reps_f = [complex(r) for r in reps]
        # gray-code sweep of sum(+-r): only the masks whose sum is near an
        # integer are kept, and they are tried in mask order
        hits = []
        signs = [1] * k
        cur = sum(reps_f)
        gray = 0
        for m in range(1 << k):
            if m:
                prev, gray = gray, m ^ (m >> 1)
                bit = (gray ^ prev).bit_length() - 1
                signs[bit] = -signs[bit]
                cur = cur + 2 * signs[bit] * reps_f[bit]
            if abs(cur.imag) <= 1e-6 and \
                    abs(cur.real - round(cur.real)) <= 1e-6:
                hits.append(gray)
        for mask in sorted(hits):
            chosen = [(-reps[j] if (mask >> j) & 1 else reps[j]) for j in range(k)]
            g = _integer_poly_from_roots(chosen)
            if g is None:
                continue
            gh = hat(g)
            if gh == g:
                continue
            prod = (g * gh).shift(1)
            if prod == P or prod == -P:
                # deterministic labeling: g is the lexicographically larger
                # of the pair, read from the top coefficient down
                if gh.c[::-1] > g.c[::-1]:
                    g, gh = gh, g
                return Splitting(g, gh, roots)
    raise RileyError(
        "no integral splitting found at %d bits; retry at higher precision"
        % precision
    )


def _integer_poly_from_roots(roots):
    """Monic expansion; round to Z coefficients if within 1e-15 rel, else None."""
    coeffs = [mp.mpc(1)]
    for r in roots:
        nxt = [mp.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c * r
        coeffs = nxt
    out = []
    for c in coeffs:
        n = int(mp.nint(c.real))
        scale = max(1.0, abs(n))
        if abs(c.imag) > 1e-15 * scale or abs(c.real - n) > 1e-15 * scale:
            return None
        out.append(n)
    out.reverse()  # coeffs were highest-first
    return GPoly(out)


# -- trace field and unit certificates ---------------------------------------


def trace_field_witness(g: GPoly):
    """Split g(u) = A(u^2) + u B(u^2); for any root r of g,
    r = -A(r^2)/B(r^2), so Q(r) = Q(r^2).  Returns (A, B) over Z[y]."""
    A = GPoly(g.c[0::2])
    B = GPoly(g.c[1::2])
    if B.is_zero():
        raise RileyError("odd part vanishes: contradicts ghat != g")
    return A, B


def unit_certificate(P: GPoly) -> int:
    """The unit fact of a knot polynomial, read exactly from its
    coefficients: P = u(u^{a-1} + c_{a-3} u^{a-3} + ... + c_2 u^2 + c_0),
    P/u monic and even with c_0 = +-1.  Then every nonzero root r has
    r^2 (r^{a-3} + c_{a-3} r^{a-5} + ... + c_2) = -c_0 = +-1, so r is an
    algebraic unit.  Returns -c_0; raises RileyError when P is not of
    that form."""
    try:
        R = even_part_as_y(P, 1)
    except ValueError as e:
        raise RileyError("P is not u times an even polynomial: %s"
                         % e) from None
    c0 = R.coeff(0)
    if R.leading() != 1 or c0 not in (1, -1):
        raise RileyError("P/u is not monic with constant term +-1")
    return -c0
