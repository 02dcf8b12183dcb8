"""Symplectic-quandle coloring of two-bridge plat diagrams.

The diagram model is a 4-strand plat read top to bottom.  Strand positions
are numbered 0..3 left to right; bridge caps at the top join (0,1) and
(2,3), the two initial vectors a (positions 0,1) and b (positions 2,3).
Odd-numbered blocks twist the middle pair (1,2), even-numbered blocks the
left pair (0,1); position 3 keeps the vector b throughout.  On an all-even
word this wiring reproduces the paper's even-expansion block graph:

    a_{2,0} = a_{1,0},   b_{2,0} = a_{1,f},
    a_{2k+1,0} = b_{2k,f},  b_{2k+1,0} = b_{2k-1,f},
    a_{2k+2,0} = a_{2k,f},  b_{2k+2,0} = a_{2k+1,f}.

Vectors are GPoly pairs x = (f1, g1), y = (f2, g2) in the basis {a, b},
so their symplectic determinant is det(x, y) * u = (f1 g2 - g1 f2) * u
with u = <a,b>.  With a monic modulus m they are pairs of Residues of
Z[u]/(m) instead (see polys.ResidueRing): the same code runs on both, and
every product is reduced mod m as it is formed.

At a crossing the entering pair (x, y) becomes (x, y)X(d*u_i) where
X(u) = [[0,-1],[1,-u]] and d is +1 or -1 according to the traced strand
orientations: d is the vertical direction (+1 downward) of the strand
passing under at that crossing, which is the right strand of the pair for
right-handed blocks and the left one for left-handed blocks.  A parallel
pair therefore keeps d constant over the block while an anti-parallel
pair alternates it (the strands trade places at every crossing).
Left-handed blocks apply the inverse matrices.  Over a whole block this
collapses to Chebyshev closed forms in t = -2 - u_i^2 (block_transfer).

det, x_power and apply_pair are the one statement of the form, of X(v)^k
and of the transfer of a strand pair.  They take any ring type, so the
numeric walk of geometry applies them crossing by crossing to mpmath
vectors at a root.

There is one engine: color_plan propagates the vectors over a plan of any
word, over Z[u] or in Z[u]/(m), and forms both closure determinants.  In
Z[u]/(m) the Chebyshev window of a long block is built by doubling, so a
block of n crossings costs O(log n) products of bounded size.
color_general_word colors any word; color_even_expansion is the same
engine restricted to all-even words in their fixed anti-parallel
orientation (1, -1), the paper's form, kept as an oracle.  rep_polynomial
colors a fraction on its canonical word (the shortest one) and a word on
itself.
"""

from __future__ import annotations

import dataclasses

from .conway import ConwayWord, slope, word_of
from .polys import GPoly, PolyMatrix2, ResidueRing, U, format_poly, \
    p_window, sign_normalize

_ZERO = GPoly.zero()
_ONE = GPoly.one()


class ColoringError(ValueError):
    pass


def det(x, y):
    """The symplectic form x[0] y[1] - x[1] y[0] of two coordinate pairs;
    of two vectors in the basis {a, b} it is <x, y> / u."""
    return x[0] * y[1] - x[1] * y[0]


# -- orientation tracing ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BlockPlan:
    left: int        # 0-based left position of the twisted pair (1 odd, 0 even)
    count: int       # number of crossings |n_i|
    hand: int        # +1 right-handed, -1 left-handed
    parallel: bool
    delta0: int      # first-crossing sign; alternates iff anti-parallel


@dataclasses.dataclass(frozen=True)
class PlatPlan:
    j_blocks: tuple
    orientation: tuple   # (d2, d3) directions of positions 1, 2 at the top
    blocks: tuple        # BlockPlan per word block (zero blocks included, count=0)

    @property
    def k(self) -> int:
        return len(self.j_blocks)


def _trace_directions(j_blocks, d2: int, d3: int):
    """Propagate strand directions; return final [d0,d1,d2,d3] and per-block
    (parallel, delta0) with delta0 the under-strand direction of the first
    crossing: the right strand for right-handed blocks, left otherwise."""
    d = [-d2, d2, d3, -d3]
    per_block = []
    for i, n in enumerate(j_blocks, start=1):
        left = 1 if i % 2 == 1 else 0
        if n == 0:
            per_block.append((True, d[left]))
            continue
        parallel = d[left] == d[left + 1]
        per_block.append((parallel, d[left + 1] if n > 0 else d[left]))
        if abs(n) % 2 == 1:
            d[left], d[left + 1] = d[left + 1], d[left]
    return d, per_block


def bottom_caps(k: int) -> tuple:
    """The bottom closure of a k-block plat: entry i is the position that
    the bottom caps join to position i.  The caps join (0,1) and (2,3) when
    k is odd, (1,2) and (0,3) when k is even."""
    return (1, 0, 3, 2) if k % 2 == 1 else (3, 2, 1, 0)


_CLASSES = ((1, 1), (1, -1))   # (d2, d3) with d2 fixed to +1


def _consistent_plans(j_blocks, candidates) -> dict:
    """{(d2, d3): per-block (parallel, delta0)} for the candidates whose
    traced directions close up (each bottom cap joins opposite directions),
    each traced once, in candidate order."""
    cap = bottom_caps(len(j_blocks))
    out = {}
    for o in candidates:
        d, per_block = _trace_directions(j_blocks, *o)
        if all(d[i] == -d[cap[i]] for i in range(4)):
            out[o] = per_block
    return out


def consistent_orientations(j_blocks) -> list:
    """(d2, d3) classes, with d2 fixed to +1, consistent with the closure.
    Knots admit exactly one, links both."""
    return list(_consistent_plans(j_blocks, _CLASSES))


def plan_plat(word: ConwayWord, orientation=None) -> PlatPlan:
    """Build the crossing plan for a word.  orientation is a (d2, d3) pair
    of top-strand directions, each +1 (downward) or -1, or None for the
    default: the unique consistent class for knots, both strands downward
    for links."""
    j = word.j_blocks
    plans = _consistent_plans(j, _CLASSES)
    if not plans:
        raise ColoringError("no consistent orientation: degenerate word %s" % word)
    orientation = next(iter(plans)) if orientation is None else tuple(orientation)
    if len(orientation) != 2 or any(d not in (1, -1) for d in orientation):
        raise ColoringError("orientation %r is not a pair of +1/-1 directions"
                            % (orientation,))
    if orientation not in _CLASSES:
        plans.update(_consistent_plans(j, (orientation,)))
    if orientation not in plans:
        raise ColoringError(
            "orientation %r inconsistent with closure of %s"
            % (orientation, word)
        )
    per_block = plans[orientation]
    blocks = []
    for i, n in enumerate(j, start=1):
        parallel, delta0 = per_block[i - 1]
        blocks.append(
            BlockPlan(
                left=1 if i % 2 == 1 else 0,
                count=abs(n),
                hand=1 if n > 0 else (-1 if n < 0 else 1),
                parallel=parallel,
                delta0=delta0,
            )
        )
    return PlatPlan(j_blocks=tuple(j), orientation=orientation,
                    blocks=tuple(blocks))


# -- block transfer matrices ------------------------------------------------


def x_power(v, k: int) -> PolyMatrix2:
    """X(v)^k = [[-p_{k-1}, -p_k], [p_k, p_{k+1}]] evaluated at -v, for v a
    GPoly, a Residue or a number."""
    p0, p1, p2 = p_window(-v, k)
    return PolyMatrix2(-p0, -p1, p1, p2)


def _pair_form(u_i, n: int, first_plus: bool) -> PolyMatrix2:
    """(X(u)X(-u))^n when first_plus else (X(-u)X(u))^n, u = u_i, any n.

    Entries are Chebyshev in t = -2 - u^2:
        [[-(p_{n-1}+p_n), -+u p_n], [-+u p_n, p_n+p_{n+1}]].
    """
    t = -(u_i * u_i) - 2
    p0, p1, p2 = p_window(t, n)
    off = -(u_i * p1) if first_plus else u_i * p1
    return PolyMatrix2(-(p0 + p1), off, off, p1 + p2)


def block_transfer(u_i, plan: BlockPlan) -> PolyMatrix2:
    """Exact transfer matrix of one twist block acting on its strand pair;
    its entries are of u_i's type, GPoly, Residue or a number (a block of
    count 0 gives the identity of that ring)."""
    c, e, b = plan.count, plan.hand, plan.delta0
    if plan.parallel:
        return x_power(u_i if b > 0 else -u_i, e * c)
    pairs, leftover = divmod(c, 2)
    # product of crossings s = 0..c-1 of X(b(-1)^s u)^e; consecutive pairs
    # collapse to (X(bu)X(-bu))^e-pattern powers
    T = _pair_form(u_i, e * pairs, first_plus=(b * e > 0))
    if leftover:
        # c odd: the last crossing's sign b (-1)^(c-1) is b
        T = T * x_power(u_i if b > 0 else -u_i, e)
    return T


def apply_pair(vecs, left: int, T: PolyMatrix2):
    """(x, y) <- (x, y) T on the vectors at positions left, left + 1, in
    place; entries of any ring type that multiplies the vectors'."""
    fL, gL = vecs[left]
    fR, gR = vecs[left + 1]
    vecs[left] = (fL * T.a11 + fR * T.a21, gL * T.a11 + gR * T.a21)
    vecs[left + 1] = (fL * T.a12 + fR * T.a22, gL * T.a12 + gR * T.a22)


# -- the engine --------------------------------------------------------------


def color_plan(plan: PlatPlan, modulus=None):
    """Run the propagation.  Returns (ui_list, vecs, raw_P, companion_P).

    The closure determinants are read at the bottom caps: raw_P is <x, b>
    for the vector x capped to position 3, which keeps b: <b_{k,f}, b>
    (k odd) or <a_{k,f}, b> (k even).  companion_P is <y, z> for the vectors
    y at position 1 and z capped to it: <a_{k,f}, a_{k-1,f}> resp.
    <b_{k,f}, b_{k-1,f}>.  It must agree with raw_P up to sign.

    With a monic integer modulus m the propagation runs in the residue ring
    Z[u]/(m): every product, the Chebyshev windows of the block transfers
    included, is reduced as it is formed, so sizes stay bounded and a
    window of a long block is built by doubling (p_window).  The results
    come back as GPolys of degree < deg m (used for divisibility tests at
    scale).  A modulus that is not monic raises ValueError.
    """
    if modulus is None:
        ring = None
        one, zero, u = _ONE, _ZERO, U
    else:
        ring = ResidueRing(modulus)
        one, zero, u = ring.one, ring.zero, ring.u
    vecs = [(one, zero), (one, zero), (zero, one), (zero, one)]
    ui = []
    for bp in plan.blocks:
        L = bp.left
        u_i = det(vecs[L], vecs[L + 1]) * u
        ui.append(u_i)
        if bp.count:
            apply_pair(vecs, L, block_transfer(u_i, bp))

    cap = bottom_caps(plan.k)
    y, z = vecs[1], vecs[cap[1]]
    raw = vecs[cap[3]][0] * u   # <x, b> = f * u for x = (f, g)
    companion = det(y, z) * u
    if ring is not None:
        ui = [x.poly() for x in ui]
        vecs = [(f.poly(), g.poly()) for f, g in vecs]
        raw, companion = raw.poly(), companion.poly()
    return ui, vecs, raw, companion


def _color(word: ConwayWord, plan: PlatPlan) -> GPoly:
    """Color the plan, check that both closure determinants agree and
    return the rep-polynomial: raw_P sign-normalized to a positive leading
    coefficient."""
    _, _, raw, companion = color_plan(plan)
    if companion != raw and companion != -raw:
        raise ColoringError(
            "closure determinants disagree (%s): engine convention bug" % word
        )
    return sign_normalize(raw)


def color_general_word(word: ConwayWord, orientation=None) -> GPoly:
    """The rep-polynomial of an arbitrary word (zero blocks tolerated) in
    the given orientation (plan_plat's default for None), colored crossing
    by crossing."""
    return _color(word, plan_plat(word, orientation))


def color_even_expansion(word: ConwayWord) -> GPoly:
    """The rep-polynomial of an all-even word, colored in the paper's form.

    Every block is anti-parallel, so its transfer matrix is one of
    (X(u)X(-u))^n, (X(-u)X(u))^n written directly in terms of p_n at
    t = -2 - u_i^2.  The orientation is fixed to the anti-parallel one of
    the even-expansion diagram, (d2, d3) = (1, -1): even blocks never swap
    strands, so it closes on every all-even word.
    """
    if any(n == 0 or n % 2 for n in word.j_blocks):
        raise ColoringError("even engine requires all blocks even and nonzero")
    plan = plan_plat(word, (1, -1))
    if any(bp.parallel for bp in plan.blocks):
        raise ColoringError("even-expansion orientation must alternate")
    return _color(word, plan)


# -- public polynomial queries ------------------------------------------------


def rep_polynomial(descriptor) -> GPoly:
    """The rep-polynomial of a fraction or word.

    A fraction is colored on its canonical word, a word on itself, in the
    default orientation of plan_plat.  Knots have a single polynomial
    (orientation independent); for links this is the both-components-
    downward variant.
    """
    return color_general_word(word_of(descriptor))


def rep_poly_pair(descriptor) -> tuple:
    """Both rep-polynomials of a link, each sign-normalized to a positive
    leading coefficient; the first is the both-downward variant.  Raises on
    knots."""
    word = word_of(descriptor)
    if slope(word).is_knot:
        raise ColoringError("knots have a single rep-polynomial")
    # P2 is P1(iu) up to a unit (iu_variant); each carries the canonical sign
    return (color_general_word(word, orientation=(1, 1)),
            color_general_word(word, orientation=(1, -1)))


def ui_sequence(word: ConwayWord, orientation=None) -> tuple:
    """The per-block determinants (u_1, ..., u_k) of the given diagram."""
    plan = plan_plat(word, orientation)
    ui, _, _, _ = color_plan(plan)
    return tuple(ui)


def iu_variant(p: GPoly) -> GPoly:
    """The companion polynomial P(iu), sign-normalized.

    When the nonzero terms of P all have degrees of one parity e,
    P(iu) = i^e Q(u) with Q the integer polynomial c_k -> (-1)^(k//2) c_k,
    and Q is returned with a positive leading coefficient.  A P with terms
    of both parities raises ValueError: its P(iu) is no unit times an
    integer polynomial.
    """
    if len({k & 1 for k, x in enumerate(p.c) if x}) > 1:
        raise ValueError("P(iu) is not a unit times an integer polynomial: "
                         "%s has terms of both parities" % format_poly(p))
    return sign_normalize(GPoly([(-x if k & 2 else x)
                                 for k, x in enumerate(p.c)]))
