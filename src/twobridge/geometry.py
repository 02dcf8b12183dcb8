"""Numeric layer: roots, arc coloring vectors, region variables, cusp shape
and complex volume.

Roots are found in three stages (Aberth-Ehrlich simultaneous iteration,
Bini, Numer. Algorithms 13, 1996): float Aberth sweeps from deterministic
starting points on a perturbed circle of the Fujiwara radius, each root
frozen once its residual is at float rounding; Aberth sweeps at the
working precision from the float roots, whose repulsion keeps every root
found once; and a per-root Newton polish, with guard bits for the root's
condition number, that stops once a step falls below half the working
precision.  A residual gate then checks every root.  The nonzero roots of
a knot's rep-polynomial come in pairs {r, -r}, since P = +-u R(u^2), and
both members of a pair give the same representation; root_pairs is the
one rule that keeps one root per pair.  Arc vectors evaluate the plat
propagation numerically at a root, region vectors are obtained by
propagating a generic base vector across strand pieces with the
symplectic-quandle action, and the cusp shape and complex volume are
crossing state sums in the region variables w_j.  The volume potential
of a crossing is one formula: on the minus branch with labels
(a, b, c, d) it is the negated potential of the other branch at
(d, a, b, c), gradient included.

The complex volume sums five dilogarithms per crossing; they are the
layer's main cost.  Li2 is computed by reduction and a series: |z| > 1 is
inverted, Li2(z) = -pi^2/6 - log(-z)^2/2 - Li2(1/z); Re z > 1/2 is then
reflected, Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z); the reduced z has
|z| <= 1 and Re z <= 1/2, so w = -log(1-z) has |w| <= pi/3 and the
Bernoulli series Li2 = w - w^2/4 + sum_k B_2k w^(2k+1)/(2k+1)! gains about
5 bits a term ('t Hooft-Veltman 1979; Zagier, The dilogarithm function,
2007).  It runs with 24 guard bits over the caller's precision.  Real
z >= 1, the branch cut and z = 1, is left to mp.polylog, whose cut
convention is kept.

The region-propagation side convention and the crossing-type label cycle
are exactly the two picture conventions the source material fixes only in
figures; both are kept as module constants (REGION_RULE_SIGN and the
_LABELS table) and are pinned by reproducing the published cusp-shape and
volume tables; the alternative convention remains selectable for tests.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random

import mpmath as mp

from .conway import ConwayWord
from .polys import GPoly, eval_poly
from .coloring import BlockPlan, PlatPlan, bottom_caps, plan_plat

__all__ = [
    "GeometryError",
    "find_roots",
    "root_pairs",
    "eval_poly",
    "dilog",
    "arc_vectors_at_root",
    "region_coloring",
    "cusp_shape",
    "complex_volume",
    "volume_reduce",
    "volumes_agree",
    "meridian_matrix",
    "block_holonomy_traces",
    "ParabolicRep",
    "RegionData",
]


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomial evaluation and root finding
# ---------------------------------------------------------------------------


_ABERTH_SEED = 0x2B57A9  # fixed: identical runs give identical root order
_ABERTH_MAX_SWEEPS = 400


def find_roots(p: GPoly, precision: int = 256):
    """All complex roots of p with multiplicity, Aberth-Ehrlich iteration.

    Zero roots are stripped exactly first and come first, as exact zeros.
    The rest are found by _aberth: float sweeps that freeze each root at
    float rounding, Aberth sweeps at the working precision, then a Newton
    polish.  With q the monic part left, of degree n, and bits the working
    precision, every root r must meet both
    |q(r)| <= 2^(-bits/2) * max|coeff| * max(1,|r|)^n and
    |q(r)| <= 2^(-bits/2) * sum_k |c_k| |r|^k,
    the second a backward-error bound that holds at any coefficient scale.
    On failure the precision is doubled (twice) before a GeometryError.
    Nonzero roots are sorted by (re, im), both rounded to multiples of
    2^-(precision//2), so that real parts equal up to rounding noise tie
    and the imaginary parts decide (_root_key).
    """
    if p.is_zero():
        raise GeometryError("zero polynomial has no well-defined root set")
    q, mult0 = p.strip_zero_roots()
    n = q.degree
    zeros = [mp.mpc(0)] * mult0
    if n == 0:
        return zeros
    attempt_bits = precision
    last_err = None
    for _ in range(3):
        try:
            roots = _aberth(q, attempt_bits)
            with mp.workprec(precision):
                roots = [mp.mpc(r) for r in roots]
                roots.sort(key=functools.partial(_root_key, precision // 2))
                return zeros + roots
        except GeometryError as e:
            last_err = e
            attempt_bits *= 2
    raise last_err


def _root_key(bits, z):
    """(re, im) rounded to multiples of 2^-bits: real parts equal up to
    rounding noise tie, and the imaginary parts decide."""
    return (int(mp.nint(mp.ldexp(z.real, bits))),
            int(mp.nint(mp.ldexp(z.imag, bits))))


def root_pairs(roots):
    """One root per {r, -r} pair, in list order: each root is paired with
    its nearest negation among those left and the first of the two is kept
    (on find_roots output, the one first in (re, im) order).  Raises
    GeometryError when that negation is farther than 2^(-prec/2) max(1,|r|),
    prec the working precision: the list is not +- symmetric."""
    pool = list(roots)
    reps = []
    while pool:
        r = pool.pop(0)
        gaps = [abs(x + r) for x in pool]
        best = min(range(len(gaps)), key=gaps.__getitem__, default=None)
        if best is None or \
                gaps[best] > mp.ldexp(max(1, abs(r)), -(mp.mp.prec // 2)):
            raise GeometryError("root %s has no negation partner"
                                % mp.nstr(r, 8))
        pool.pop(best)
        reps.append(r)
    return reps


def _horner(cs, x):
    """cs[0] + cs[1] x + ... + cs[-1] x^(len-1), in the number type of cs."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * x + c
    return acc


def _aberth_sweeps(coeffs, dcoeffs, z, tol, freeze=0):
    """Aberth-Ehrlich synchronous sweeps over a generic complex type, until
    no root moves by tol relative to max(1,|z|) in a sweep or the cap.

    With freeze > 0, a root whose residual |q(z)| is at most
    freeze * sum_k |c_k| |z|^k is frozen: it stays where it is (still
    repelling the others), and the sweeps also stop once every root is
    frozen."""
    n = len(z)
    frozen = [False] * n
    abs_coeffs = [abs(c) for c in coeffs]
    for _ in range(_ABERTH_MAX_SWEEPS):
        moved = 0.0
        for j in range(n):
            if frozen[j]:
                continue
            pj = _horner(coeffs, z[j])
            if freeze and abs(pj) <= freeze * _horner(abs_coeffs, abs(z[j])):
                frozen[j] = True
                continue
            dj = _horner(dcoeffs, z[j])
            if dj == 0:
                z[j] = z[j] * (1 + tol) + tol
                moved = 1.0
                continue
            newton = pj / dj
            s = sum(1 / (z[j] - z[i]) for i in range(n) if i != j)
            denom = 1 - newton * s
            step = newton if denom == 0 else newton / denom
            z[j] = z[j] - step
            moved = max(moved, float(abs(step)) / max(1.0, float(abs(z[j]))))
        if moved < tol:
            break
    return z


def _fujiwara_radius(coeffs):
    """2 max_k |c_(n-k)|^(1/k) for monic coefficients c_0..c_n: every root
    lies in this disc (Fujiwara 1916), and radius^n stays near the scale
    of the coefficients, so the float sweep does not overflow."""
    n = len(coeffs) - 1
    return 2 * max(abs(coeffs[n - k]) ** (1 / k) for k in range(1, n + 1))


def _monic_coeffs(q: GPoly):
    """(coefficients of q / lead, of its derivative) at the current
    precision, lowest degree first."""
    lead = mp.mpc(q.leading().re, q.leading().im)
    coeffs = [mp.mpc(c.re, c.im) / lead for c in q.coeffs()]
    return coeffs, [k * coeffs[k] for k in range(1, len(coeffs))]


def _guard_bits(coeffs, dcoeffs, z, cap):
    """log2 of the largest relative condition number of a root z_j of the
    monic q, sum_k |c_k| |z_j|^k / (max(1,|z_j|) |q'(z_j)|), at most cap.

    Rounding at p bits in Horner's q moves z_j by about that number times
    2^-p relative, so this many guard bits keep it within 2^-p."""
    abs_coeffs = [abs(c) for c in coeffs]
    worst = 1
    for r in z:
        m = abs(r)
        d = abs(_horner(dcoeffs, r)) * max(1, m)
        if d == 0:
            return cap
        worst = max(worst, _horner(abs_coeffs, m) / d)
    if not worst < mp.ldexp(1, cap):
        return cap
    return int(mp.ceil(mp.log(worst, 2)))


def _aberth(q: GPoly, bits: int):
    """Roots of q to about bits bits, residual-gated (see find_roots).

    Three stages, one path.
    1. Float Aberth sweeps start on a perturbed circle of the Fujiwara
       radius (_fujiwara_radius) when the monic coefficients fit in machine
       floats, and freeze each root once its residual is at float rounding,
       |q(z)| <= 2^-46 sum_k |c_k| |z|^k; they stop when every root is
       frozen.
    2. Aberth sweeps at bits + 32 bits start from the float roots (from the
       circle when the floats do not fit) and run until no step exceeds
       1e-14 relative.  Their repulsion keeps two iterates from settling on
       one root, which a per-root polish and a per-root gate cannot see.
    3. Each root is Newton-polished at bits + 32 bits plus _guard_bits
       (at most bits more, from the float roots when there are any) until
       a step is at most 2^-((bits+32)//2 + 4) max(1,|z|), after which the
       next step would only square an error already below the working
       precision; 3 + bitlength(bits - 40) steps is the cap.
    """
    n = q.degree
    rng = random.Random(_ABERTH_SEED)
    angles = [2 * (j + 0.25 + 0.5 * rng.random()) / n for j in range(n)]
    lead = q.coeff(n)

    # stage 1: machine-precision sweeps whenever the coefficients fit
    import cmath

    z0 = guard = None
    try:
        lead_c = complex(lead.re, lead.im)
        coeffs_f = [complex(c.re, c.im) / lead_c for c in q.coeffs()]
        if all(abs(c) < 1e100 for c in coeffs_f):
            radius = _fujiwara_radius(coeffs_f)
            dcoeffs_f = [k * coeffs_f[k] for k in range(1, n + 1)]
            z = [radius * cmath.exp(1j * cmath.pi * a) for a in angles]
            z = _aberth_sweeps(coeffs_f, dcoeffs_f, z, 5e-14, 2.0 ** -46)
            if all(cmath.isfinite(x) for x in z):
                z0 = z
                guard = _guard_bits(coeffs_f, dcoeffs_f, z, bits)
    except OverflowError:
        z0 = None

    with mp.workprec(bits + 32):
        coeffs, dcoeffs = _monic_coeffs(q)
        # stage 2: Aberth sweeps at the working precision
        if z0 is None:
            radius = _fujiwara_radius(coeffs)
            z = [radius * mp.expjpi(a) for a in angles]
        else:
            z = [mp.mpc(x) for x in z0]
        z = _aberth_sweeps(coeffs, dcoeffs, z, 1e-14)
        if guard is None:
            guard = _guard_bits(coeffs, dcoeffs, z, bits)

    with mp.workprec(bits + 32 + guard):
        coeffs, dcoeffs = _monic_coeffs(q)
        # stage 3: Newton refinement doubles correct digits per step; a step
        # below half the working precision leaves the root exact to it
        steps = 3 + max(0, bits - 40).bit_length()
        stop = mp.ldexp(1, -((bits + 32) // 2 + 4))
        for j in range(n):
            for _ in range(steps):
                dj = _horner(dcoeffs, z[j])
                if dj == 0:
                    break
                step = _horner(coeffs, z[j]) / dj
                z[j] = z[j] - step
                if abs(step) <= stop * max(1, abs(z[j])):
                    break
        # residual gate (see find_roots)
        eps = mp.mpf(2) ** (-bits // 2)
        bound = eps * max(abs(c) for c in coeffs)
        abs_coeffs = [abs(c) for c in coeffs]
        for r in z:
            m = abs(r)
            limit = min(bound * max(mp.mpf(1), m) ** n,
                        eps * _horner(abs_coeffs, m))
            if abs(_horner(coeffs, r)) > limit:
                raise GeometryError(
                    "root residual bound missed at %d bits" % bits
                )
        return z


def dilog(z, precision: int = 256):
    """Li2 on the principal branch at the requested working precision.

    |z| > 1 is inverted and Re z > 1/2 reflected, so that w = -log(1-z)
    has |w| <= pi/3; the Bernoulli series in w is then summed with 24 guard
    bits (_LI2_GUARD_BITS; the formulas are in the module docstring).  Real
    z >= 1, the branch cut and z = 1, is left to mp.polylog and keeps its
    convention.
    """
    with mp.workprec(precision):
        return _li2(mp.mpc(z))


_LI2_GUARD_BITS = 24


@functools.lru_cache(maxsize=8)
def _li2_coefficients(prec: int):
    """B_2k/(2k+1)! for k = 1, 2, ... at prec bits, as (mpf, -log2|c|)
    pairs, up to the first term below 2^-prec at |w| = pi/3."""
    with mp.workprec(prec):
        out = []
        w2 = math.log2((math.pi / 3) ** 2)
        k = 1
        while True:
            c = mp.bernoulli(2 * k) / mp.factorial(2 * k + 1)
            bits = -float(mp.log(abs(c), 2))
            out.append((c, bits))
            if bits - k * w2 > prec:
                return tuple(out)
            k += 1


def _li2(z):
    """Li2(z) for an mpc z at the current mpmath precision (see dilog)."""
    if z.imag == 0 and z.real >= 1:
        return mp.polylog(2, z)
    wp = mp.mp.prec + _LI2_GUARD_BITS
    with mp.workprec(wp):
        # Li2(z) = const + sign * Li2(z'), |z'| <= 1 and Re z' <= 1/2
        const, sign = mp.mpc(0), 1
        if abs(z) > 1:
            const = -mp.pi ** 2 / 6 - mp.log(-z) ** 2 / 2
            sign = -1
            z = 1 / z
        if z.real > 0.5:
            const += sign * (mp.pi ** 2 / 6 - mp.log(z) * mp.log(1 - z))
            sign = -sign
            z = 1 - z
        # 1 - z exactly: rounding it would drop the low bits of a small z
        w = -mp.log(mp.fsub(1, z, exact=True))
        w2 = w * w
        coeffs = _li2_coefficients(wp)
        # terms fall below 2^-wp relative to |w| from index n on
        aw2 = abs(complex(w2))
        lw2 = math.log2(aw2) if aw2 else -math.inf
        n = 0
        while n < len(coeffs) and coeffs[n][1] - (n + 1) * lw2 <= wp:
            n += 1
        acc = mp.mpc(0)
        for c, _ in reversed(coeffs[:n]):
            acc = (acc + c) * w2
        series = w - w2 / 4 + w * acc
        result = const + sign * series
    return +result


# ---------------------------------------------------------------------------
# numeric diagram trace: pieces, crossings, regions
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Crossing:
    labels: tuple       # region ids (a, b, c, d), post-identification
    sign: int           # writhe sign from traced orientations


@dataclasses.dataclass
class _Trace:
    crossings: list     # of _Crossing
    adjacency: list     # (west_region, east_region, piece_id)
    pieces: dict        # piece_id -> (vector, direction)
    n_regions: int
    closure_residual: float


@dataclasses.dataclass
class ParabolicRep:
    """Numeric arc coloring at a root r of the rep-polynomial."""

    word: ConwayWord
    root: object
    precision: int
    arc_vectors: dict       # piece id -> (complex, complex)
    plan: PlatPlan
    trace: _Trace

    @property
    def closure_residual(self):
        return self.trace.closure_residual


@dataclasses.dataclass
class RegionData:
    rep: ParabolicRep
    region_vectors: dict    # region id -> (complex, complex)
    w: dict                 # region id -> complex
    consistency_residual: float


def _det(x, y):
    return x[0] * y[1] - x[1] * y[0]


def _cross(vecs, bp: BlockPlan, s: int):
    """Apply crossing s of block bp to the numeric vectors in place:
    (a', b') = (a, b) X(delta*u)^hand on the block's strand pair."""
    L = bp.left
    delta = bp.delta0 if bp.parallel else bp.delta0 * (-1) ** s
    du = delta * _det(vecs[L], vecs[L + 1])
    xL, xR = vecs[L], vecs[L + 1]
    if bp.hand > 0:
        vecs[L], vecs[L + 1] = xR, (-xL[0] - du * xR[0], -xL[1] - du * xR[1])
    else:
        # X(v)^-1 = [[-v, 1], [-1, 0]]
        vecs[L], vecs[L + 1] = (-du * xL[0] - xR[0], -du * xL[1] - xR[1]), xL


# The four regions around a crossing are labelled (a, b, c, d) in the frame
# where both strands point upward: first rotate the recorded compass order
# (N, E, S, W) by the strand-direction pattern, then read the cycle fixed
# per crossing sign.  Both tables of published cusp shapes and volumes pin
# these two cycles; positive crossings take the "-1"/first branch.
_ROTATE = {
    (1, 1): (2, 3, 0, 1),     # both downward: turn the picture around
    (-1, -1): (0, 1, 2, 3),   # both upward: already canonical
    (1, -1): (1, 2, 3, 0),    # left down, right up: quarter turn
    (-1, 1): (3, 0, 1, 2),    # left up, right down: opposite quarter turn
}
_LABELS = {
    1: (1, 2, 3, 0),
    -1: (0, 1, 2, 3),
}


def _numeric_trace(plan: PlatPlan, r, closure_tol) -> _Trace:
    """Propagate numeric vectors crossing by crossing, recording pieces,
    labelled region quadruples and the plat closure residual."""
    a = (mp.mpc(1), mp.mpc(0))
    b = (mp.mpc(0), mp.mpc(r))
    vecs = [a, a, b, b]
    dirs = [-plan.orientation[0], plan.orientation[0],
            plan.orientation[1], -plan.orientation[1]]
    next_piece = 4
    pieces = {0: (a, dirs[0]), 1: (a, dirs[1]), 2: (b, dirs[2]), 3: (b, dirs[3])}
    # zones 0..4; initial regions: outer 0, below bridge caps 1 and 2
    zone = [0, 1, 0, 2, 0]
    next_region = 3
    adjacency = [(zone[pos], zone[pos + 1], pos) for pos in range(4)]
    crossings = []
    for bp in plan.blocks:
        L = bp.left
        z = L + 1  # zone between positions L and L+1
        for s in range(bp.count):
            _cross(vecs, bp, s)
            sign = bp.hand * dirs[L] * dirs[L + 1]
            north = zone[z]
            south = next_region
            next_region += 1
            compass = (north, zone[z + 1], south, zone[z - 1])
            rot = _ROTATE[(dirs[L], dirs[L + 1])]
            crossings.append(_Crossing(
                labels=tuple(compass[rot[c]] for c in _LABELS[sign]),
                sign=sign))
            zone[z] = south
            dirs[L], dirs[L + 1] = dirs[L + 1], dirs[L]
            pid_L, pid_R = next_piece, next_piece + 1
            next_piece += 2
            pieces[pid_L] = (vecs[L], dirs[L])
            pieces[pid_R] = (vecs[L + 1], dirs[L + 1])
            adjacency.append((zone[z - 1], south, pid_L))
            adjacency.append((south, zone[z + 1], pid_R))
    # bottom closure: the vectors at the two ends of each cap must agree up
    # to sign (position 3 against b, position 1 against its partner), and
    # the zones on either side of the cap through position 1 are one region,
    # which keeps the older id
    cap = bottom_caps(plan.k)
    resid = max(
        min(_vec_gap(vecs[cap[3]], b), _vec_gap(vecs[cap[3]], _neg(b))),
        min(_vec_gap(vecs[1], vecs[cap[1]]),
            _vec_gap(vecs[1], _neg(vecs[cap[1]]))),
    )
    lo, hi = sorted((1, cap[1]))
    outside = (zone[lo], zone[hi + 1])
    ident = {max(outside): min(outside)}
    if resid > closure_tol:
        raise GeometryError(
            "coloring does not close at this value (residual %.3g): "
            "not a root?" % float(resid)
        )

    def remap(reg):
        return ident.get(reg, reg)

    for cr in crossings:
        cr.labels = tuple(remap(x) for x in cr.labels)
    adjacency = [(remap(w), remap(e), pid) for (w, e, pid) in adjacency]
    used = sorted({x for cr in crossings for x in cr.labels}
                  | {w for w, _, _ in adjacency}
                  | {e for _, e, _ in adjacency})
    return _Trace(
        crossings=crossings,
        adjacency=adjacency,
        pieces=pieces,
        n_regions=len(used),
        closure_residual=float(resid),
    )


def _neg(v):
    return (-v[0], -v[1])


def _vec_gap(x, y):
    return max(abs(x[0] - y[0]), abs(x[1] - y[1]))


def arc_vectors_at_root(word: ConwayWord, r, precision: int = 256,
                        orientation=None) -> ParabolicRep:
    """Numeric coloring vectors of every strand piece at u = r (r != 0).

    The initial pair is a = (1,0), b = (0,r); the closure must hold within
    10*2^-precision plus root error, checked with a loose gate of 1e-6
    relative to the leading scale.
    """
    if r == 0:
        raise GeometryError("r = 0 is abelian: no geometric content")
    plan = plan_plat(word, orientation)
    with mp.workprec(precision):
        rr = mp.mpc(r)
        scale = max(1, abs(rr)) ** max(1, len(word.blocks))
        trace = _numeric_trace(plan, rr, closure_tol=1e-6 * scale)
        count = sum(bp.count for bp in plan.blocks)
        if trace.n_regions != count + 2:
            raise GeometryError(
                "region count %d != crossings + 2 = %d"
                % (trace.n_regions, count + 2)
            )
        return ParabolicRep(
            word=word,
            root=rr,
            precision=precision,
            arc_vectors={pid: v for pid, (v, _) in trace.pieces.items()},
            plan=plan,
            trace=trace,
        )


# ---------------------------------------------------------------------------
# region coloring and w-variables
# ---------------------------------------------------------------------------

# Crossing an arc piece from its west side to its east side applies the
# quandle action beta -> beta + <beta,x>x when REGION_RULE_SIGN * direction
# is positive, the inverse action otherwise.  Pinned by Table reproduction.
REGION_RULE_SIGN = 1

_GENERIC_SEED = 0x9D2C5
_REGION_RETRIES = 12


def _quandle_step(beta, x, power):
    t = _det(beta, x)
    if power < 0:
        t = -t
    return (beta[0] + t * x[0], beta[1] + t * x[1])


def region_coloring(rep: ParabolicRep, rule_sign: int = None,
                    seed: int = None) -> RegionData:
    """Propagate a generic base vector over the region adjacency graph.

    Global consistency (every adjacency equation satisfied within tolerance)
    is verified and is an error otherwise; w variables are the determinants
    against a second generic vector, re-sampled while any crossing quadruple
    is degenerate.  The seed selects the base/generic vectors; cusp shape
    and volume do not depend on it."""
    rule = REGION_RULE_SIGN if rule_sign is None else rule_sign
    trace = rep.trace
    rng = random.Random(_GENERIC_SEED if seed is None else seed)
    with mp.workprec(rep.precision):
        tol = mp.mpf(10) * mp.mpf(2) ** (-rep.precision // 2)
        edges = []
        graph = {}
        for west, east, pid in trace.adjacency:
            x, d = trace.pieces[pid]
            edges.append((west, east, x, d))
            graph.setdefault(west, []).append((east, x, rule * d))
            graph.setdefault(east, []).append((west, x, -rule * d))
        for _ in range(_REGION_RETRIES):
            vec = {0: _rand_vec(rng)}
            queue = [0]
            while queue:
                cur = queue.pop()
                for nxt, x, pw in graph.get(cur, ()):  # propagate across arc
                    if nxt in vec:
                        continue
                    vec[nxt] = _quandle_step(vec[cur], x, pw)
                    queue.append(nxt)
            gap = mp.mpf(0)
            for west, east, x, d in edges:
                want = _quandle_step(vec[west], x, rule * d)
                gap = max(gap, _vec_gap(vec[east], want))
            if gap > tol * _scale_of(vec):
                raise GeometryError(
                    "region propagation inconsistent (residual %.3g): "
                    "wrong side convention" % float(gap)
                )
            p = _rand_vec(rng)
            w = {reg: _det(p, v) for reg, v in vec.items()}
            if _generic_enough(trace, w):
                return RegionData(rep=rep, region_vectors=vec, w=w,
                                  consistency_residual=float(gap))
        raise GeometryError(
            "could not find a generic vector after %d retries"
            % _REGION_RETRIES
        )


def _rand_vec(rng):
    def comp():
        return mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))

    return (comp(), comp())


def _scale_of(vec):
    return max(max(abs(v[0]), abs(v[1])) for v in vec.values()) ** 2 + 1


def _generic_enough(trace, w) -> bool:
    floor = mp.mpf(10) ** (-8)
    for cr in trace.crossings:
        wa, wb, wc, wd = (w[r] for r in cr.labels)
        for val in (wa, wb, wc, wd, wa - wd, wc - wb):
            if abs(val) < floor:
                return False
    return True


# ---------------------------------------------------------------------------
# cusp shape and complex volume state sums
# ---------------------------------------------------------------------------

# crossings of this sign take the minus branch of the state sums
_MINUS_BRANCH_SIGN = 1


def cusp_shape(data: RegionData):
    """Sum over crossings of (wa wc - wb wd)/((wa - wd)(wc - wb)) -+ 1."""
    with mp.workprec(data.rep.precision):
        total = mp.mpc(0)
        for cr in data.rep.trace.crossings:
            wa, wb, wc, wd = (data.w[r] for r in cr.labels)
            term = (wa * wc - wb * wd) / ((wa - wd) * (wc - wb))
            total += term + (-1 if cr.sign == _MINUS_BRANCH_SIGN else 1)
        return total


def gluing_residual(data: RegionData):
    """max_k |exp(w_k dW/dw_k) - 1|: the w-variables must satisfy the gluing
    equations at a genuine representation."""
    with mp.workprec(data.rep.precision):
        _, grad = _potential(data)
        return max(abs(mp.exp(v) - 1) for v in grad.values())


def _potential(data: RegionData):
    """(W, {region: w dW/dw}) summed over the crossings, at the current
    mpmath precision.  A _MINUS_BRANCH_SIGN crossing labelled (a, b, c, d)
    adds minus the one crossing formula at (d, a, b, c)."""
    W = mp.mpc(0)
    grad = {reg: mp.mpc(0) for reg in data.w}
    for cr in data.rep.trace.crossings:
        regions = cr.labels
        sign = 1
        if cr.sign == _MINUS_BRANCH_SIGN:
            regions = regions[3:] + regions[:3]
            sign = -1
        term, g = _potential_terms(*(data.w[r] for r in regions))
        W += sign * term
        for reg, gval in zip(regions, g):
            grad[reg] += sign * gval
    return W, grad


def _potential_terms(wa, wb, wc, wd):
    """(W_term, (w dW/dw at a, b, c, d)) for one crossing, labels as for a
    crossing of sign -_MINUS_BRANCH_SIGN."""
    zs = (
        (+1, wa / wb, (0,), (1,)),
        (+1, wa / wd, (0,), (3,)),
        (-1, wb / wc, (1,), (2,)),
        (-1, wd / wc, (3,), (2,)),
        (-1, (wa * wc) / (wb * wd), (0, 2), (1, 3)),
    )
    log_bc = mp.log(wb / wc)
    log_dc = mp.log(wd / wc)
    W = mp.pi ** 2 / 6 - log_bc * log_dc
    grad = [0, -log_dc, log_dc + log_bc, -log_bc]
    for sgn, z, nums, dens in zs:
        W += sgn * _li2(z)
        dlog = mp.log(1 - z)
        for v in nums:
            grad[v] = grad[v] - sgn * dlog
        for v in dens:
            grad[v] = grad[v] + sgn * dlog
    return W, grad


def complex_volume(data: RegionData, reduce: bool = True):
    """-i * W0 with W0 = W - sum_k (w_k dW/dw_k) Log w_k.

    The imaginary part (the Chern-Simons part) is well defined mod pi^2 and
    is reduced into [0, pi^2) when reduce is True."""
    with mp.workprec(data.rep.precision):
        W0, grad = _potential(data)
        for reg, gval in grad.items():
            W0 -= gval * mp.log(data.w[reg])
        vol = W0 / mp.mpc(0, 1)
        return volume_reduce(vol) if reduce else vol


def volume_reduce(v):
    """Reduce the imaginary part mod pi^2 into [0, pi^2).

    A reduced value within 2^(-prec/2) pi^2 of pi^2, prec the working
    precision, is 0 up to rounding and is returned as 0."""
    pi2 = mp.pi ** 2
    im = mp.fmod(mp.im(v), pi2)
    if im < 0:
        im += pi2
    if pi2 - im < mp.ldexp(pi2, -(mp.mp.prec // 2)):
        im = mp.mpf(0)
    return mp.mpc(mp.re(v), im)


def volumes_agree(v1, v2, tol=1e-6) -> bool:
    """Equal real parts; imaginary parts equal mod pi^2 (circular distance)."""
    pi2 = float(mp.pi ** 2)
    if abs(mp.re(v1) - mp.re(v2)) > tol:
        return False
    d = (float(mp.im(v1)) - float(mp.im(v2))) % pi2
    return min(d, pi2 - d) < tol


# ---------------------------------------------------------------------------
# holonomy helpers
# ---------------------------------------------------------------------------


def meridian_matrix(v):
    """A = I + v*vhat for a coloring vector v = (v1, v2); vhat = (-v2, v1)."""
    v1, v2 = v
    return ((1 - v1 * v2, v1 * v1), (-v2 * v2, 1 + v1 * v2))


def _mat_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def block_holonomy_traces(rep: ParabolicRep):
    """tr(A_i B_i) for the pair entering each block; equals 2 - u_i(r)^2."""
    plan = rep.plan
    with mp.workprec(rep.precision):
        a = (mp.mpc(1), mp.mpc(0))
        b = (mp.mpc(0), rep.root)
        # replay vectors block by block to capture entering pairs
        vecs = [a, a, b, b]
        out = []
        for bp in plan.blocks:
            L = bp.left
            A = meridian_matrix(vecs[L])
            B = meridian_matrix(vecs[L + 1])
            M = _mat_mul(A, B)
            out.append(M[0][0] + M[1][1])
            for s in range(bp.count):
                _cross(vecs, bp, s)
        return out
