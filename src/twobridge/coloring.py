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

Vectors are GPoly pairs (f, g) in the basis {a, b}, so the symplectic
determinant of two vectors is (f1 g2 - g1 f2) * u with u = <a,b>.

At a crossing the entering pair (x, y) becomes (x, y)X(d*u_i) where
X(u) = [[0,-1],[1,-u]] and d is +1 or -1 according to the traced strand
orientations: d is the vertical direction (+1 downward) of the strand
passing under at that crossing, which is the right strand of the pair for
right-handed blocks and the left one for left-handed blocks.  A parallel
pair therefore keeps d constant over the block while an anti-parallel
pair alternates it (the strands trade places at every crossing).
Left-handed blocks apply the inverse matrices.  Over a whole block this
collapses to Chebyshev closed forms in t = -2 - u_i^2 (block_transfer).

There is one engine: color_plan propagates the vectors over a plan of any
word, with or without a modulus, and forms both closure determinants.
color_general_word colors any word; color_even_expansion is the same
engine restricted to all-even words in their anti-parallel orientation,
the paper's form, kept as an oracle.  rep_polynomial colors a fraction on
its canonical word (the shortest one) and a word on itself.
"""

from __future__ import annotations

import dataclasses

from .conway import ConwayWord, slope, word_of
from .polys import GPoly, PolyMatrix2, U, cheb, p_window, rem_monic, \
    sign_normalize, substitute_iu

_ZERO = GPoly.zero()
_ONE = GPoly.one()


class ColoringError(ValueError):
    pass


def crossing_matrix(u_block: GPoly, sign: int) -> PolyMatrix2:
    """X(sign * u_block) = [[0, -1], [1, -sign*u_block]]; det = 1."""
    ub = u_block if sign > 0 else -u_block
    return PolyMatrix2(_ZERO, -_ONE, _ONE, -ub)


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


def _closure_consistent(j_blocks, d) -> bool:
    cap = bottom_caps(len(j_blocks))
    return all(d[i] == -d[cap[i]] for i in range(4))


def consistent_orientations(j_blocks) -> list:
    """(d2, d3) classes, with d2 fixed to +1, consistent with the closure.
    Knots admit exactly one, links both."""
    out = []
    for d3 in (1, -1):
        d, _ = _trace_directions(j_blocks, 1, d3)
        if _closure_consistent(j_blocks, d):
            out.append((1, d3))
    return out


def plan_plat(word: ConwayWord, orientation=None) -> PlatPlan:
    """Build the crossing plan for a word.  orientation is a (d2, d3) pair
    of top-strand directions (+1 downward), or None for the default: the
    unique consistent class for knots, both strands downward for links."""
    j = word.j_blocks
    classes = consistent_orientations(j)
    if not classes:
        raise ColoringError("no consistent orientation: degenerate word %s" % word)
    if orientation is None:
        orientation = (1, 1) if (1, 1) in classes else classes[0]
    else:
        orientation = tuple(orientation)
        d, _ = _trace_directions(j, *orientation)
        if not _closure_consistent(j, d):
            raise ColoringError(
                "orientation %r inconsistent with closure of %s"
                % (orientation, word)
            )
    d2, d3 = orientation
    _, per_block = _trace_directions(j, d2, d3)
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
    return PlatPlan(j_blocks=tuple(j), orientation=(d2, d3), blocks=tuple(blocks))


# -- block transfer matrices ------------------------------------------------


def _x_power(v: GPoly, k: int) -> PolyMatrix2:
    """X(v)^k = [[-p_{k-1}, -p_k], [p_k, p_{k+1}]] evaluated at -v."""
    p0, p1, p2 = p_window(-v, k)
    return PolyMatrix2(-p0, -p1, p1, p2)


def _pair_form(u_i: GPoly, n: int, first_plus: bool) -> PolyMatrix2:
    """(X(u)X(-u))^n when first_plus else (X(-u)X(u))^n, u = u_i, any n.

    Entries are Chebyshev in t = -2 - u^2:
        [[-(p_{n-1}+p_n), -+u p_n], [-+u p_n, p_n+p_{n+1}]].
    """
    t = -(u_i * u_i) - 2
    p0, p1, p2 = p_window(t, n)
    off = -(u_i * p1) if first_plus else u_i * p1
    return PolyMatrix2(-(p0 + p1), off, off, p1 + p2)


def block_transfer(u_i: GPoly, plan: BlockPlan) -> PolyMatrix2:
    """Exact transfer matrix of one twist block acting on its strand pair."""
    c, e, b = plan.count, plan.hand, plan.delta0
    if c == 0:
        return PolyMatrix2.identity()
    if plan.parallel:
        return _x_power(u_i if b > 0 else -u_i, e * c)
    pairs, leftover = divmod(c, 2)
    # product of crossings s = 0..c-1 of X(b(-1)^s u)^e; consecutive pairs
    # collapse to (X(bu)X(-bu))^e-pattern powers
    T = _pair_form(u_i, e * pairs, first_plus=(b * e > 0))
    if leftover:
        d_last = b  # c odd: (-1)^(c-1) = +1
        T = T * _x_power(d_last * u_i if d_last > 0 else -u_i, e)
    return T


def _apply_pair(vecs, left: int, T: PolyMatrix2, modulus=None):
    fL, gL = vecs[left]
    fR, gR = vecs[left + 1]
    nfL = fL * T.a11 + fR * T.a21
    ngL = gL * T.a11 + gR * T.a21
    nfR = fL * T.a12 + fR * T.a22
    ngR = gL * T.a12 + gR * T.a22
    if modulus is not None:
        nfL, ngL = rem_monic(nfL, modulus), rem_monic(ngL, modulus)
        nfR, ngR = rem_monic(nfR, modulus), rem_monic(ngR, modulus)
    vecs[left] = (nfL, ngL)
    vecs[left + 1] = (nfR, ngR)


# -- the engine --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ColoringResult:
    word: ConwayWord
    orientation: tuple
    ui_sequence: tuple       # GPoly per block, u_1 = u
    rep_poly: GPoly          # sign-normalized, positive leading coefficient
    final_vectors: tuple     # ((f,g) of a_{k,f}, (f,g) of b_{k,f})
    is_knot: bool

    @property
    def alpha(self) -> int:
        return self.rep_poly.degree


def color_plan(plan: PlatPlan, modulus=None):
    """Run the propagation.  Returns (ui_list, vecs, raw_P, companion_P).

    The closure determinants are read at the bottom caps: raw_P is <x, b>
    for the vector x capped to position 3, which keeps b: <b_{k,f}, b>
    (k odd) or <a_{k,f}, b> (k even).  companion_P is <y, z> for the vectors
    y at position 1 and z capped to it: <a_{k,f}, a_{k-1,f}> resp.
    <b_{k,f}, b_{k-1,f}>.  It must agree with raw_P up to sign.

    With a monic integer modulus, all vector components and the closure
    polynomials are reduced mod it (used for divisibility tests at scale).
    """
    vecs = [(_ONE, _ZERO), (_ONE, _ZERO), (_ZERO, _ONE), (_ZERO, _ONE)]
    ui = []
    for bp in plan.blocks:
        L = bp.left
        fL, gL = vecs[L]
        fR, gR = vecs[L + 1]
        u_i = (fL * gR - gL * fR) * U
        if modulus is not None:
            u_i = rem_monic(u_i, modulus)
        ui.append(u_i)
        if bp.count:
            T = block_transfer(u_i, bp)
            _apply_pair(vecs, L, T, modulus)

    def det_u(x, y):
        d = (x[0] * y[1] - x[1] * y[0]) * U
        return rem_monic(d, modulus) if modulus is not None else d

    cap = bottom_caps(plan.k)
    raw = vecs[cap[3]][0] * U   # <x, b> = f * u for x = (f, g)
    companion = det_u(vecs[1], vecs[cap[1]])
    if modulus is not None:
        raw = rem_monic(raw, modulus)
    return ui, vecs, raw, companion


def _color(word: ConwayWord, plan: PlatPlan) -> ColoringResult:
    """Color the plan and check that both closure determinants agree."""
    ui, vecs, raw, companion = color_plan(plan)
    if companion != raw and companion != -raw:
        raise ColoringError(
            "closure determinants disagree (%s): engine convention bug" % word
        )
    L = plan.blocks[-1].left
    return ColoringResult(
        word=word,
        orientation=plan.orientation,
        ui_sequence=tuple(ui),
        rep_poly=sign_normalize(raw),
        final_vectors=(vecs[L], vecs[L + 1]),
        is_knot=slope(word).is_knot,
    )


def color_general_word(word: ConwayWord, orientation=None) -> ColoringResult:
    """Color an arbitrary word (zero blocks tolerated) crossing by crossing."""
    return _color(word, plan_plat(word, orientation))


def color_even_expansion(word: ConwayWord, orientation=None) -> ColoringResult:
    """Color an all-even word in the paper's form.

    Every block is anti-parallel, so its transfer matrix is one of
    (X(u)X(-u))^n, (X(-u)X(u))^n written directly in terms of p_n at
    t = -2 - u_i^2.  The default orientation is the anti-parallel one of
    the even-expansion diagram, (d2, d3) = (1, -1).
    """
    j = word.j_blocks
    if any(n == 0 or n % 2 for n in j):
        raise ColoringError("even engine requires all blocks even and nonzero")
    if orientation is None:
        classes = consistent_orientations(j)
        orientation = (1, -1) if (1, -1) in classes else classes[0]
    plan = plan_plat(word, orientation)
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
    return color_general_word(word_of(descriptor)).rep_poly


def rep_poly_pair(descriptor) -> tuple:
    """Both rep-polynomials of a link, each unit-normalized to integer
    coefficients; the first is the both-downward variant.  Raises on knots."""
    word = word_of(descriptor)
    if slope(word).is_knot:
        raise ColoringError("knots have a single rep-polynomial")
    p1 = color_general_word(word, orientation=(1, 1)).rep_poly
    p2 = color_general_word(word, orientation=(1, -1)).rep_poly
    # P1(iu) and P2 agree up to a unit; normalize both to the canonical sign
    return (sign_normalize(p1), sign_normalize(p2))


def ui_sequence(word: ConwayWord, orientation=None) -> tuple:
    """The per-block determinants (u_1, ..., u_k) of the given diagram."""
    plan = plan_plat(word, orientation)
    ui, _, _, _ = color_plan(plan)
    return tuple(ui)


def torus_rep_poly(strands: int, crossings: int, variant: str) -> GPoly:
    """Closed-form torus rep-polynomials used as engine oracles.

    T(2, 2k+1) knots:            +-u p_{2k+1}(-u)
    T(2, 2k) parallel variant:   +-u p_{2k}(-u)
    T(2, 2k) anti-parallel:      +-u^2 p_k(-2-u^2)
    """
    if strands != 2:
        raise ValueError("only 2-strand torus links are two-bridge")
    if crossings < 2:
        raise ValueError("need at least 2 crossings")
    q = crossings
    if variant == "knot":
        if q % 2 == 0:
            raise ValueError("torus knot needs odd crossing count")
        p = cheb("p", q).compose(-U)
        return sign_normalize(p * U)
    if q % 2 == 1:
        raise ValueError("torus link needs even crossing count")
    if variant == "link_parallel":
        p = cheb("p", q).compose(-U)
        return sign_normalize(p * U)
    if variant == "link_antiparallel":
        t = -(U * U) - 2
        p = cheb("p", q // 2).compose(t)
        return sign_normalize(p * U * U)
    raise ValueError("variant must be knot, link_parallel or link_antiparallel")


def iu_variant(p: GPoly) -> GPoly:
    """The companion polynomial P(iu), unit-normalized to the canonical sign."""
    return sign_normalize(substitute_iu(p))
