"""Numeric layer: roots, arc coloring vectors, region variables, cusp shape
and complex volume.

Roots are found by Aberth-Ehrlich simultaneous iteration at a requested
working precision, with deterministic perturbed-circle starting points and
Newton polishing.  Arc vectors evaluate the plat propagation numerically at
a root, region vectors are obtained by propagating a generic base vector
across strand pieces with the symplectic-quandle action, and the cusp shape
and complex volume are crossing state sums in the region variables w_j.

The region-propagation side convention and the crossing-type label cycle
are exactly the two picture conventions the source material fixes only in
figures; both are kept as module constants (REGION_RULE_SIGN and the
_LABELS table) and are pinned by reproducing the published cusp-shape and
volume tables; the alternative convention remains selectable for tests.
"""

from __future__ import annotations

import dataclasses
import random

import mpmath as mp

from .conway import ConwayWord
from .polys import GPoly, eval_poly
from .coloring import BlockPlan, PlatPlan, bottom_caps, plan_plat

__all__ = [
    "GeometryError",
    "find_roots",
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


def find_roots(p: GPoly, precision: int = 256, max_sweeps: int = 400):
    """All complex roots of p with multiplicity, Aberth-Ehrlich iteration.

    Zero roots are stripped exactly first.  Residuals are required to meet
    |p(r)| < 2^(-precision/2) * max|coeff| * max(1,|r|)^deg; on failure the
    precision is doubled (twice) before giving up with an error carrying
    the partial result.  Roots are sorted by (re, im).
    """
    if p.is_zero():
        raise GeometryError("zero polynomial has no well-defined root set")
    mult0 = 0
    while not p.coeff(mult0):
        mult0 += 1
    q = p.strip_power(mult0)
    n = q.degree
    zeros = [mp.mpc(0)] * mult0
    if n == 0:
        return zeros
    attempt_bits = precision
    last_err = None
    for _ in range(3):
        try:
            roots = _aberth(q, attempt_bits, max_sweeps)
            with mp.workprec(precision):
                roots = [mp.mpc(r) for r in roots]
                roots.sort(key=lambda z: (z.real, z.imag))
                return zeros + roots
        except GeometryError as e:
            last_err = e
            attempt_bits *= 2
    raise last_err


def _horner(cs, x):
    """cs[0] + cs[1] x + ... + cs[-1] x^(len-1), in the number type of cs."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * x + c
    return acc


def _aberth_sweeps(coeffs, dcoeffs, z, tol, max_sweeps, one):
    """Aberth-Ehrlich synchronous sweeps over a generic complex type."""
    n = len(z)
    for _ in range(max_sweeps):
        moved = 0.0
        for j in range(n):
            pj = _horner(coeffs, z[j])
            dj = _horner(dcoeffs, z[j])
            if dj == 0:
                z[j] = z[j] * (1 + tol) + tol
                moved = 1.0
                continue
            newton = pj / dj
            s = 0 * one
            for i in range(n):
                if i != j:
                    s += 1 / (z[j] - z[i])
            denom = 1 - newton * s
            step = newton if denom == 0 else newton / denom
            z[j] = z[j] - step
            moved = max(moved, float(abs(step)) / max(1.0, float(abs(z[j]))))
        if moved < tol:
            break
    return z


def _aberth(q: GPoly, bits: int, max_sweeps: int):
    n = q.degree
    rng = random.Random(_ABERTH_SEED)
    angles = [2 * (j + 0.25 + 0.5 * rng.random()) / n for j in range(n)]
    lead = q.coeff(n)

    # stage 1: machine-precision sweeps whenever the coefficients fit
    import cmath

    z0 = None
    try:
        lead_c = complex(lead.re, lead.im)
        coeffs_f = [complex(c.re, c.im) / lead_c for c in q.coeffs()]
        if all(abs(c) < 1e100 for c in coeffs_f):
            radius = 1 + max(abs(c) for c in coeffs_f[:-1])
            dcoeffs_f = [k * coeffs_f[k] for k in range(1, n + 1)]
            z = [radius * cmath.exp(1j * cmath.pi * a) for a in angles]
            z = _aberth_sweeps(coeffs_f, dcoeffs_f, z, 5e-14, max_sweeps, 1 + 0j)
            if all(cmath.isfinite(x) for x in z):
                z0 = z
    except OverflowError:
        z0 = None

    with mp.workprec(bits + 32):
        lead_m = mp.mpc(lead.re, lead.im)
        coeffs = [mp.mpc(c.re, c.im) / lead_m for c in q.coeffs()]
        dcoeffs = [k * coeffs[k] for k in range(1, n + 1)]
        if z0 is None:
            radius = 1 + max(abs(c) for c in coeffs[:-1])
            z = [radius * mp.expjpi(a) for a in angles]
            z = _aberth_sweeps(coeffs, dcoeffs, z, 1e-14, max_sweeps, mp.mpc(1))
        else:
            z = [mp.mpc(x) for x in z0]

        # Newton refinement doubles correct digits per step
        steps = 3 + max(0, bits - 40).bit_length()
        for j in range(n):
            for _ in range(steps):
                dj = _horner(dcoeffs, z[j])
                if dj == 0:
                    break
                z[j] = z[j] - _horner(coeffs, z[j]) / dj
        # residual gate
        norm = max(abs(c) for c in coeffs)
        bound = mp.mpf(2) ** (-bits // 2) * norm
        for j in range(n):
            scale = max(mp.mpf(1), abs(z[j])) ** n
            if abs(_horner(coeffs, z[j])) > bound * scale:
                raise GeometryError(
                    "root residual bound missed at %d bits" % bits
                )
        return z


def dilog(z, precision: int = 256):
    """Li2 on the principal branch at the requested working precision."""
    with mp.workprec(precision):
        return mp.polylog(2, mp.mpc(z))


# ---------------------------------------------------------------------------
# numeric diagram trace: pieces, crossings, regions
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Crossing:
    regions: tuple      # region ids (N, E, S, W), post-identification
    sign: int           # writhe sign from traced orientations
    dirs: tuple         # (d_left, d_right) strand directions at the crossing


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
    p: tuple                # the generic vector
    w: dict                 # region id -> complex
    rule_sign: int
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


def _numeric_trace(plan: PlatPlan, r, closure_tol) -> tuple:
    """Propagate numeric vectors crossing by crossing, recording pieces,
    region quadruples and the plat closure residual."""
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
            crossings.append(
                _Crossing(regions=(north, zone[z + 1], south, zone[z - 1]),
                          sign=sign, dirs=(dirs[L], dirs[L + 1]))
            )
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
        cr.regions = tuple(remap(x) for x in cr.regions)
    adjacency = [(remap(w), remap(e), pid) for (w, e, pid) in adjacency]
    used = sorted({x for cr in crossings for x in cr.regions}
                  | {w for w, _, _ in adjacency}
                  | {e for _, e, _ in adjacency})
    return _Trace(
        crossings=crossings,
        adjacency=adjacency,
        pieces=pieces,
        n_regions=len(used),
        closure_residual=float(resid),
    ), vecs


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
        trace, _ = _numeric_trace(plan, rr, closure_tol=1e-6 * scale)
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


def _quandle_step(beta, x, power):
    t = _det(beta, x)
    if power < 0:
        t = -t
    return (beta[0] + t * x[0], beta[1] + t * x[1])


def region_coloring(rep: ParabolicRep, rule_sign: int = None,
                    max_retries: int = 12, seed: int = None) -> RegionData:
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
        last_gap = None
        for _ in range(max_retries):
            base = _rand_vec(rng)
            vec = {0: base}
            queue = [0]
            edges = []
            for west, east, pid in trace.adjacency:
                x, d = trace.pieces[pid]
                edges.append((west, east, x, d))
            graph = {}
            for west, east, x, d in edges:
                graph.setdefault(west, []).append((east, x, rule * d))
                graph.setdefault(east, []).append((west, x, -rule * d))
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
            last_gap = gap
            if gap > tol * _scale_of(vec):
                raise GeometryError(
                    "region propagation inconsistent (residual %.3g): "
                    "wrong side convention" % float(gap)
                )
            p = _rand_vec(rng)
            w = {reg: _det(p, v) for reg, v in vec.items()}
            if _generic_enough(trace, w):
                return RegionData(
                    rep=rep,
                    region_vectors=vec,
                    p=p,
                    w=w,
                    rule_sign=rule,
                    consistency_residual=float(gap),
                )
        raise GeometryError(
            "could not find a generic vector after %d retries" % max_retries
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
        wa, wb, wc, wd = (w[r] for r in _label_regions(cr))
        for val in (wa, wb, wc, wd, wa - wd, wc - wb):
            if abs(val) < floor:
                return False
    return True


# ---------------------------------------------------------------------------
# cusp shape and complex volume state sums
# ---------------------------------------------------------------------------

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
_MINUS_BRANCH_SIGN = 1


def _label_regions(cr: _Crossing):
    rot = _ROTATE[cr.dirs]
    cyc = _LABELS[cr.sign]
    return tuple(cr.regions[rot[cyc[i]]] for i in range(4))


def _labelled(cr: _Crossing, w):
    return tuple(w[r] for r in _label_regions(cr))


def cusp_shape(data: RegionData):
    """Sum over crossings of (wa wc - wb wd)/((wa - wd)(wc - wb)) -+ 1."""
    with mp.workprec(data.rep.precision):
        total = mp.mpc(0)
        for cr in data.rep.trace.crossings:
            wa, wb, wc, wd = _labelled(cr, data.w)
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
    mpmath precision."""
    W = mp.mpc(0)
    grad = {reg: mp.mpc(0) for reg in data.w}
    for cr in data.rep.trace.crossings:
        regions = _label_regions(cr)
        wa, wb, wc, wd = (data.w[r] for r in regions)
        term, g = _potential_terms(
            wa, wb, wc, wd, cr.sign == _MINUS_BRANCH_SIGN
        )
        W += term
        for pos, name in enumerate("abcd"):
            grad[regions[pos]] += g[name]
    return W, grad


def _potential_terms(wa, wb, wc, wd, minus_branch: bool):
    """(W_term, {label: w dW/dw}) for one crossing."""
    if minus_branch:
        zs = (
            (-1, wd / wa, ("d",), ("a",)),
            (-1, wd / wc, ("d",), ("c",)),
            (+1, wa / wb, ("a",), ("b",)),
            (+1, wc / wb, ("c",), ("b",)),
            (+1, (wb * wd) / (wa * wc), ("b", "d"), ("a", "c")),
        )
        log_ab = mp.log(wa / wb)
        log_cb = mp.log(wc / wb)
        W = -mp.pi ** 2 / 6 + log_ab * log_cb
        grad = {"a": log_cb, "c": log_ab, "b": -log_ab - log_cb, "d": 0}
    else:
        zs = (
            (+1, wa / wb, ("a",), ("b",)),
            (+1, wa / wd, ("a",), ("d",)),
            (-1, wb / wc, ("b",), ("c",)),
            (-1, wd / wc, ("d",), ("c",)),
            (-1, (wa * wc) / (wb * wd), ("a", "c"), ("b", "d")),
        )
        log_bc = mp.log(wb / wc)
        log_dc = mp.log(wd / wc)
        W = mp.pi ** 2 / 6 - log_bc * log_dc
        grad = {"b": -log_dc, "d": -log_bc, "c": log_dc + log_bc, "a": 0}
    for sgn, z, nums, dens in zs:
        W += sgn * mp.polylog(2, z)
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
