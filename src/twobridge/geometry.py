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
one rule that keeps one root per pair.  The polynomial has integer
coefficients, so its non-real roots also come in conjugate pairs, and the
representation at conj r is the complex conjugate of the one at r: its
cusp shape is the conjugate, and its complex volume is minus the
conjugate, the imaginary part taken mod pi^2.  conjugate_partners is the
one rule that matches a kept root r to the earlier kept root r0 with
r = +-conj r0, within root_pairs' tolerance, so that a caller computes
the geometry once per conjugate pair; a real or purely imaginary root is
its own partner and is always computed.  Every polynomial value, exact
or numeric, comes from polys.horner, except the Bernoulli tail of Li2
(below).  Arc vectors evaluate the plat
propagation numerically at a root: each crossing applies coloring's
x_power and apply_pair, the transfer the exact engine uses, to mpmath
vectors, with u = coloring.det of the entering pair.  Region vectors are
obtained by propagating a generic base vector across strand pieces with
the symplectic-quandle action, written with the same det, and the cusp
shape and complex volume are crossing state sums in the region variables
w_j.  The volume potential of a crossing is one formula: on the minus
branch with labels (a, b, c, d) it is the negated potential of the other
branch at (d, a, b, c), gradient included.

The complex volume sums five dilogarithms per crossing; they are the
layer's main cost.  Li2 is computed by reduction and a series: |z| > 1 is
inverted, Li2(z) = -pi^2/6 - log(-z)^2/2 - Li2(1/z); Re z > 1/2 is then
reflected, Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z); the reduced z has
|z| <= 1 and Re z <= 1/2, so w = -log(1-z) has |w| <= pi/3 and the
Bernoulli series Li2 = w - w^2/4 + sum_k B_2k w^(2k+1)/(2k+1)! gains about
5 bits a term ('t Hooft-Veltman 1979; Zagier, The dilogarithm function,
2007).  The reductions, the logs and w - w^2/4 + w * tail run in mpmath
with 24 guard bits over the caller's precision, wp.  The tail
sum_k c_k (w^2)^k is summed by Horner's rule on Python ints in fp-bit
fixed point, fp = wp + 8 + ceil(n log2((pi/3)^2)) for the n coefficients
of the table at wp: each truncating shift errs by at most 2^-fp, and each
later step multiplies that error by |w^2| <= (pi/3)^2, so the guard grows
with the number of terms.  Real z >= 1, the branch cut and z = 1, is left
to mp.polylog, whose cut convention is kept.  Each log is taken once: on
the reflected branch log z is also -w, and _li2 returns the log(1 - z) it
took (z unreduced, or reflected without inversion) to the volume
gradient, which needs the same log.

The region-propagation side convention and the crossing-type label cycle
are exactly the two picture conventions the source material fixes only in
figures; both are kept as module constants (REGION_RULE_SIGN and the
_LABELS table) and are pinned by reproducing the published cusp-shape and
volume tables.  region_coloring takes no knob: tests that try the other
side convention or other generic vectors patch REGION_RULE_SIGN and
_GENERIC_SEED.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .conway import ConwayWord
from .polys import GPoly, horner
from .coloring import PlatPlan, apply_pair, bottom_caps, det, plan_plat, \
    x_power

__all__ = [
    "GeometryError",
    "find_roots",
    "root_pairs",
    "conjugate_partners",
    "dilog",
    "arc_vectors_at_root",
    "region_coloring",
    "cusp_shape",
    "complex_volume",
    "volume_reduce",
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


def conjugate_partners(roots):
    """For each root r of a root_pairs list, the index of the earlier root
    r0 with r within root_pairs' tolerance, 2^(-prec/2) max(1,|r|), of
    conj r0 or of -conj r0, or None.  A real or purely imaginary root is
    its own partner and gets None, as does a root whose partner is not
    unique.  The representation at r is then the conjugate of the one at
    r0 (see the module docstring)."""
    partners = []
    for i, r in enumerate(roots):
        tol = mp.ldexp(max(1, abs(r)), -(mp.mp.prec // 2))

        def near(r0):
            return min(abs(r - mp.conj(r0)), abs(r + mp.conj(r0))) <= tol

        found = [] if near(r) else [j for j in range(i) if near(roots[j])]
        partners.append(found[0] if len(found) == 1 else None)
    return partners


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
            pj = horner(coeffs, z[j])
            if freeze and abs(pj) <= freeze * horner(abs_coeffs, abs(z[j])):
                frozen[j] = True
                continue
            dj = horner(dcoeffs, z[j])
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
    lead = mp.mpc(q.leading())
    coeffs = [mp.mpc(c) / lead for c in q.c]
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
        d = abs(horner(dcoeffs, r)) * max(1, m)
        if d == 0:
            return cap
        worst = max(worst, horner(abs_coeffs, m) / d)
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
        lead_c = complex(lead)
        coeffs_f = [complex(c) / lead_c for c in q.c]
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
                dj = horner(dcoeffs, z[j])
                if dj == 0:
                    break
                step = horner(coeffs, z[j]) / dj
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
                        eps * horner(abs_coeffs, m))
            if abs(horner(coeffs, r)) > limit:
                raise GeometryError(
                    "root residual bound missed at %d bits" % bits
                )
        return z


def dilog(z, precision: int = 256):
    """Li2 on the principal branch at the requested working precision.

    |z| > 1 is inverted and Re z > 1/2 reflected, so that w = -log(1-z)
    has |w| <= pi/3; the Bernoulli series in w is then summed with 24 guard
    bits (_LI2_GUARD_BITS), its tail in fixed point with guard bits derived
    from the number of terms (_li2_coefficients; the formulas are in the
    module docstring).  Real z >= 1, the branch cut and z = 1, is left to
    mp.polylog and keeps its convention.
    """
    with mp.workprec(precision):
        return _li2(mp.mpc(z))[0]


_LI2_GUARD_BITS = 24


@functools.lru_cache(maxsize=8)
def _li2_coefficients(prec: int):
    """(fp, table) for the Bernoulli tail at prec bits.  The table holds,
    for k = 1, 2, ... up to the first term below 2^-prec at |w| = pi/3,
    the pair (c_k, -log2|c_k|), c_k = B_2k/(2k+1)! as an fp-bit fixed-point
    int (floor of c_k 2^fp, from the exact Bernoulli fraction).

    fp = prec + 8 + ceil(n log2((pi/3)^2)), n = len(table): each of the n
    truncating steps of the fixed-point Horner loop errs by at most 2^-fp,
    and each later step multiplies that error by |w^2| <= (pi/3)^2."""
    lw2 = math.log2((math.pi / 3) ** 2)
    terms = []
    k = 1
    while True:
        num, den = mp.bernfrac(2 * k)
        den *= math.factorial(2 * k + 1)
        bits = math.log2(den) - math.log2(abs(num))
        terms.append((num, den, bits))
        if bits - k * lw2 > prec:
            break
        k += 1
    fp = prec + 8 + math.ceil(len(terms) * lw2)
    return fp, tuple(((num << fp) // den, bits) for num, den, bits in terms)


def _li2(z):
    """(Li2(z), log(1 - z)) for an mpc z at the current mpmath precision
    (see dilog).  The log is the one the reductions took, at the guarded
    precision, when z is not inverted (unreduced, or reflected only); it
    is None when z is inverted or on the cut."""
    if z.imag == 0 and z.real >= 1:
        return mp.polylog(2, z), None
    wp = mp.mp.prec + _LI2_GUARD_BITS
    with mp.workprec(wp):
        # Li2(z) = const + sign * Li2(z'), |z'| <= 1 and Re z' <= 1/2
        const, sign = mp.mpc(0), 1
        inverted = abs(z) > 1
        if inverted:
            const = -mp.pi ** 2 / 6 - mp.log(-z) ** 2 / 2
            sign = -1
            z = 1 / z
        if z.real > 0.5:
            log_z, log_1mz = mp.log(z), mp.log(1 - z)
            const += sign * (mp.pi ** 2 / 6 - log_z * log_1mz)
            sign = -sign
            # z' = 1 - z, so w = -log(1 - z') = -log z
            w = -log_z
        else:
            # 1 - z exactly: rounding it would drop the low bits of a small z
            log_1mz = mp.log(mp.fsub(1, z, exact=True))
            w = -log_1mz
        w2 = w * w
        fp, coeffs = _li2_coefficients(wp)
        # terms fall below 2^-wp relative to |w| from index n on
        aw2 = abs(complex(w2))
        lw2 = math.log2(aw2) if aw2 else -math.inf
        n = 0
        while n < len(coeffs) and coeffs[n][1] - (n + 1) * lw2 <= wp:
            n += 1
        # sum_k c_k w2^(k+1) over the n terms kept, by Horner's rule on
        # fp-bit fixed-point ints; the last product by w2 is exact
        tail = 0
        if n:
            ar, ai = (to_fixed(x, fp) for x in w2._mpc_)
            sr, si = coeffs[n - 1][0], 0
            for k in range(n - 2, -1, -1):
                sr, si = (((sr * ar - si * ai) >> fp) + coeffs[k][0],
                          (sr * ai + si * ar) >> fp)
            tail = mp.make_mpc((
                from_man_exp(sr * ar - si * ai, -2 * fp, wp, round_nearest),
                from_man_exp(sr * ai + si * ar, -2 * fp, wp, round_nearest)))
        series = w - w2 / 4 + w * tail
        result = const + sign * series
    return +result, None if inverted else log_1mz


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
    entering: list      # the vector pair entering each block, in plan order


@dataclasses.dataclass
class ParabolicRep:
    """Numeric arc coloring at a root r of the rep-polynomial."""

    root: object
    precision: int
    arc_vectors: dict       # piece id -> (complex, complex)
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
    labelled region quadruples, the pair entering each block and the plat
    closure residual.  Crossing s of a block applies coloring's transfer
    (x, y) <- (x, y) X(delta u)^hand, with u = det(x, y) and delta the
    block's first sign, alternating with s when the pair is anti-parallel."""
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
    entering = []
    for bp in plan.blocks:
        L = bp.left
        z = L + 1  # zone between positions L and L+1
        entering.append((vecs[L], vecs[L + 1]))
        for s in range(bp.count):
            delta = bp.delta0 if bp.parallel else bp.delta0 * (-1) ** s
            du = delta * det(vecs[L], vecs[L + 1])
            apply_pair(vecs, L, x_power(du, bp.hand))
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
        entering=entering,
    )


def _neg(v):
    return (-v[0], -v[1])


def _vec_gap(x, y):
    return max(abs(x[0] - y[0]), abs(x[1] - y[1]))


def arc_vectors_at_root(word: ConwayWord, r,
                        precision: int = 256) -> ParabolicRep:
    """Numeric coloring vectors of every strand piece at u = r (r != 0).

    The initial pair is a = (1,0), b = (0,r); the closure must hold within
    10*2^-precision plus root error, checked with a loose gate of 1e-6
    relative to the leading scale.
    """
    if r == 0:
        raise GeometryError("r = 0 is abelian: no geometric content")
    plan = plan_plat(word)
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
            root=rr,
            precision=precision,
            arc_vectors={pid: v for pid, (v, _) in trace.pieces.items()},
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
    t = det(beta, x)
    if power < 0:
        t = -t
    return (beta[0] + t * x[0], beta[1] + t * x[1])


def region_coloring(rep: ParabolicRep) -> RegionData:
    """Propagate a generic base vector over the region adjacency graph.

    Global consistency (every adjacency equation satisfied within tolerance)
    is verified and is an error otherwise; w variables are the determinants
    against a second generic vector, re-sampled while any crossing quadruple
    is degenerate.  _GENERIC_SEED selects the base/generic vectors; cusp
    shape and volume do not depend on it."""
    rule = REGION_RULE_SIGN
    trace = rep.trace
    rng = random.Random(_GENERIC_SEED)
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
            w = {reg: det(p, v) for reg, v in vec.items()}
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
        li2, dlog = _li2(z)
        W += sgn * li2
        if dlog is None:
            dlog = mp.log(1 - z)
        for v in nums:
            grad[v] = grad[v] - sgn * dlog
        for v in dens:
            grad[v] = grad[v] + sgn * dlog
    return W, grad


def complex_volume(data: RegionData):
    """-i * W0 with W0 = W - sum_k (w_k dW/dw_k) Log w_k.

    The imaginary part (the Chern-Simons part) is well defined mod pi^2 and
    is reduced into [0, pi^2)."""
    with mp.workprec(data.rep.precision):
        W0, grad = _potential(data)
        for reg, gval in grad.items():
            W0 -= gval * mp.log(data.w[reg])
        vol = W0 / mp.mpc(0, 1)
        return volume_reduce(vol)


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
