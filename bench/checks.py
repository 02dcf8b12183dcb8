"""Output checks, each computed apart from the package.

A check takes the program's outputs as plain data and returns a list of
problems (empty when the outputs are right).  Exact polynomials are pairs
of coefficient lists (real parts, imaginary parts), index = degree.  The
checks rest on independent computations or on properties the method must
have, never on stored copies of earlier output.
"""

from __future__ import annotations

import math

import mpmath as mp

import plat

# Primes for the word-matrix evaluations; points are drawn from the seed.
RILEY_PRIMES = (2**61 - 1, 2**31 - 1, 1000000007)
RILEY_POINTS = 3
# Integer points for the divisibility pre-screen of census edges.
SCREEN_POINTS = (2, 3, 5, 7, 11)

PUBLISHED_VOLUMES = {(5, 2): "2.0298832128", (7, 3): "2.8281220883"}
# C[2,3] is the fraction 3/7.
PUBLISHED_CUSPS = {(7, 3): ("-9.01951066", "-2.49024466+2.97944706j",
                            "-2.49024466-2.97944706j")}


# -- exact polynomials over Z[i] -----------------------------------------


def _trim(re, im):
    n = len(re)
    while n and re[n - 1] == 0 and im[n - 1] == 0:
        n -= 1
    return list(re[:n]), list(im[:n])


def from_json(obj):
    """A polynomial from the census form {"coeffs": [[re, im], ...]}."""
    return _trim([int(c[0]) for c in obj["coeffs"]],
                 [int(c[1]) for c in obj["coeffs"]])


def from_gpoly(p):
    """A polynomial from a package GPoly, read through its public API."""
    cs = p.coeffs()
    return _trim([c.re for c in cs], [c.im for c in cs])


def real(re):
    return _trim(list(re), [0] * len(re))


def neg(p):
    return [-x for x in p[0]], [-x for x in p[1]]


def times_unit(p, k):
    """p * i^k."""
    re, im = p
    for _ in range(k % 4):
        re, im = [-x for x in im], list(re)
    return re, im


def at_iu(p):
    """p(iu)."""
    re, im = [], []
    for k, (r, m) in enumerate(zip(*p)):
        ur, ui = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]
        re.append(r * ur - m * ui)
        im.append(r * ui + m * ur)
    return _trim(re, im)


def mul_real(a, b):
    """Product of two integer polynomials given as coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def rem_monic(a, m):
    """Remainder of an integer polynomial modulo a monic one."""
    r = list(a)
    d = len(m) - 1
    for k in range(len(r) - 1 - d, -1, -1):
        q = r[k + d]
        if q:
            for j, c in enumerate(m):
                r[k + j] -= q * c
    return _trim_real(r[:d])


def _trim_real(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return list(a[:n])


class ZPoly:
    """An integer polynomial with the operators plat.propagate uses, for
    the exact plat coloring over Z[u]."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = _trim_real(coeffs)

    def __add__(self, other):
        a, b = self.c, _zp(other).c
        if len(a) < len(b):
            a, b = b, a
        return ZPoly([x + y for x, y in zip(a, b)] + a[len(b):])

    def __neg__(self):
        return ZPoly([-x for x in self.c])

    def __sub__(self, other):
        return self + -_zp(other)

    def __mul__(self, other):
        return ZPoly(mul_real(self.c, _zp(other).c))

    __rmul__ = __mul__


def _zp(x):
    return x if isinstance(x, ZPoly) else ZPoly([x])


def divide_by_monic(num, den):
    """num / den over Z[i] for a monic integer den; None if it leaves a
    remainder."""
    re, im = list(num[0]), list(num[1])
    d = len(den) - 1
    if len(re) - 1 < d:
        return None if re else ([], [])
    q_re = [0] * (len(re) - d)
    q_im = [0] * (len(re) - d)
    for k in range(len(re) - 1 - d, -1, -1):
        cr, ci = re[k + d], im[k + d]
        if cr or ci:
            q_re[k], q_im[k] = cr, ci
            for j, m in enumerate(den):
                if m:
                    re[k + j] -= cr * m
                    im[k + j] -= ci * m
    if any(re) or any(im):
        return None
    return _trim(q_re, q_im)


def _gauss_value(p, x):
    vr = vi = 0
    for r, m in zip(reversed(p[0]), reversed(p[1])):
        vr, vi = vr * x + r, vi * x + m
    return vr, vi


def _gauss_divides(a, b):
    """Does the Gaussian integer a divide b?"""
    ar, ai = a
    n = ar * ar + ai * ai
    if n == 0:
        return b == (0, 0)
    br, bi = b
    return (br * ar + bi * ai) % n == 0 and (bi * ar - br * ai) % n == 0


# -- the exact stage ------------------------------------------------------


def rep_poly_shape(P, alpha, is_knot):
    """P is monic with integer coefficients and degree alpha; for knots
    P/u has constant term +-1."""
    re, im = P
    out = []
    if any(im):
        out.append("non-integer coefficients")
    if len(re) - 1 != alpha:
        out.append("degree %d, expected %d" % (len(re) - 1, alpha))
    elif re[-1] != 1:
        out.append("not monic")
    if is_knot and (len(re) < 2 or re[0] != 0 or re[1] not in (1, -1)):
        out.append("P/u does not have constant term +-1")
    return out


def bridge(P, R, is_knot):
    """P = +-u^eps R(u^2), eps = 1 for knots and 2 for links."""
    eps = 1 if is_knot else 2
    re = [0] * eps
    im = [0] * eps
    for r, m in zip(*R):
        re += [r, 0]
        im += [m, 0]
    rhs = _trim(re, im)
    P = _trim(*P)
    if P == rhs or P == neg(rhs):
        return []
    return ["bridge identity P = +-u^eps R(u^2) fails"]


def riley_word_entry(alpha, beta, is_knot, y, p):
    """W_11 (knots) or W_12 (links) of Riley's word matrix at y mod p, with
    W = rho(a)^e_1 rho(b)^e_2 ..., e_i = -(-1)^floor(i beta / alpha),
    rho(a) = [[1, 1], [0, 1]], rho(b) = [[1, 0], [-y, 1]] and beta odd."""
    b = beta if beta % 2 else beta - alpha
    w11, w12, w21, w22 = 1, 0, 0, 1
    for i in range(1, alpha):
        e = 1 if (i * b) // alpha % 2 else -1     # -(-1)^floor(i b / alpha)
        if i % 2:   # rho(a)^e = [[1, e], [0, 1]]
            w12 = (w12 + e * w11) % p
            w22 = (w22 + e * w21) % p
        else:       # rho(b)^e = [[1, 0], [-e y, 1]]
            w11 = (w11 - e * y * w12) % p
            w21 = (w21 - e * y * w22) % p
    return w11 if is_knot else w12


def riley_matches_word(R, alpha, beta, is_knot, rng):
    """R agrees with the word-matrix entry at random points mod primes."""
    re, im = R
    if any(im):
        return ["Riley polynomial has non-integer coefficients"]
    for p in RILEY_PRIMES:
        for _ in range(RILEY_POINTS):
            y = rng.randrange(p)
            val = 0
            for c in reversed(re):
                val = (val * y + c) % p
            if val != riley_word_entry(alpha, beta, is_knot, y, p):
                return ["Riley polynomial differs from the word matrix "
                        "at y = %d mod %d" % (y, p)]
    return []


def link_pair(P1, P2):
    """P1(iu) equals P2 up to a unit of Z[i]."""
    q = at_iu(P1)
    target = _trim(*P2)
    if any(times_unit(q, k) == target for k in range(4)):
        return []
    return ["P1(iu) and P2 differ by more than a unit"]


def splitting(P, g, g_hat):
    """u g ghat = +-P with ghat(u) = (-1)^deg g g(-u) != g."""
    if any(g[1]) or any(g_hat[1]):
        return ["splitting factor has non-integer coefficients"]
    g, gh = g[0], g_hat[0]
    deg = len(g) - 1
    want_hat = [(-1) ** (deg + k) * c for k, c in enumerate(g)]
    out = []
    if gh != want_hat:
        out.append("g_hat is not (-1)^deg g(-u)")
    if gh == g:
        out.append("g_hat equals g")
    prod = real([0] + mul_real(g, gh))
    P = _trim(*P)
    if prod != P and prod != neg(P):
        out.append("u g g_hat != +-P")
    return out


def exact_item(alpha, beta, is_knot, P, R, rng, pair=None):
    """All checks of one fraction's exact outputs."""
    out = rep_poly_shape(P, alpha, is_knot)
    out += bridge(P, R, is_knot)
    out += riley_matches_word(R, alpha, beta, is_knot, rng)
    if pair is not None:
        if _trim(*pair[0]) != _trim(*P):
            out.append("rep_poly differs from the first polynomial of the pair")
        out += rep_poly_shape(pair[1], alpha, False)
        out += link_pair(*pair)
    return ["%d/%d: %s" % (beta, alpha, s) for s in out]


# -- the census -----------------------------------------------------------


def census_records(records, rng):
    """Exact checks of every record: polynomials, bridge, Riley, pair and
    splitting."""
    out = []
    for rec in records:
        a, b, knot = rec["alpha"], rec["beta"], rec["is_knot"]
        P = from_json(rec["rep_poly"])
        pair = None
        if not knot:
            pair = [from_json(x) for x in rec["rep_poly_pair"]]
        out += exact_item(a, b, knot, P, from_json(rec["riley_poly"]), rng,
                          pair)
        if knot:
            s = rec["splitting"]
            out += ["%d/%d: %s" % (b, a, x) for x in
                    splitting(P, from_json(s["g"]), from_json(s["g_hat"]))]
    return out


def upside_down(P2, alpha, beta, is_knot, rng):
    """P' of the upside-down diagram is +-u^eps R'(u^2), with R' Riley's
    word-matrix entry for the fraction beta^-1/alpha or its mirror."""
    eps = 1 if is_knot else 2
    re = P2[0]
    R = [re[k] for k in range(eps, len(re), 2)]
    if any(P2[1]) or bridge(P2, real(R), is_knot):
        return ["P' is not u^eps R(u^2) with an integer R"]
    inv = pow(beta, -1, alpha)
    for b in (inv, alpha - inv):
        for sign in (1, -1):
            if not riley_matches_word(real([sign * c for c in R]), alpha, b,
                                      is_knot, rng):
                return []
    return ["P' is not u^eps R(u^2) for Riley's word matrix of %d/%d or its "
            "mirror" % (inv, alpha)]


def census_candidates(records, candidates, rng):
    """Check, apart from the package, the candidate polynomials each class
    offers as the divisible side of an edge.

    candidates maps (alpha, beta) to the list of (name, polynomial) in the
    order the census tries them: P and P' for knots, P, P(iu), P' and
    P'(iu) for links.  P and P(iu) must be the record's polynomials (checked
    by census_records), P' the upside-down diagram's (bridge identity and
    word matrix) and P'(iu) the iu-companion of P'.  Every candidate has the
    shape of a rep-polynomial.
    """
    out = []
    for rec in records:
        a, b, knot = rec["alpha"], rec["beta"], rec["is_knot"]
        cands = candidates[(a, b)]
        names = [name for name, _ in cands]
        tag = "%d/%d" % (b, a)
        want = ["P", "P'"] if knot else ["P", "P(iu)", "P'", "P'(iu)"]
        if names != want:
            out.append("%s: candidates %s, expected %s" % (tag, names, want))
            continue
        poly = dict(cands)
        for name, p in cands:
            out += ["%s of %s: %s" % (name, tag, x)
                    for x in rep_poly_shape(p, a, False)]
        if _trim(*poly["P"]) != from_json(rec["rep_poly"]):
            out.append("%s: candidate P is not the record's rep_poly" % tag)
        if not knot and _trim(*poly["P(iu)"]) != \
                from_json(rec["rep_poly_pair"][1]):
            out.append("%s: candidate P(iu) is not the record's second "
                       "polynomial" % tag)
        out += ["%s: %s" % (tag, x)
                for x in upside_down(poly["P'"], a, b, knot, rng)]
        if not knot:
            out += ["%s: P', P'(iu): %s" % (tag, x)
                    for x in link_pair(poly["P'"], poly["P'(iu)"])]
    return out


def census_edges(records, edges, candidates):
    """Recompute the divisibility edges by exact division and compare.

    candidates maps (alpha, beta) to the list of (name, polynomial) a class
    offers as the divisible side, in the order the census tries them, each
    checked by census_candidates.
    """
    out = []
    target = {(r["alpha"], r["beta"]): _trim(*from_json(r["rep_poly"]))
              for r in records}
    values = {key: [[_gauss_value(p, x) for x in SCREEN_POINTS]
                    for _, p in cands] for key, cands in candidates.items()}
    tvals = {key: [_gauss_value(p, x) for x in SCREEN_POINTS]
             for key, p in target.items()}
    knot = {(r["alpha"], r["beta"]): r["is_knot"] for r in records}
    want = {}
    for k1, cands in candidates.items():
        for k2, p2 in target.items():
            if k1 == k2 or k2[0] > k1[0]:
                continue
            for (name, p1), vals in zip(cands, values[k1]):
                if not all(_gauss_divides(t, v)
                           for t, v in zip(tvals[k2], vals)):
                    continue
                if divide_by_monic(p1, p2[0]) is not None:
                    want[(k1, k2)] = (name, knot[k1] and knot[k2])
                    break
    got = {}
    for e in edges:
        got[(tuple(e["from"]), tuple(e["to"]))] = (
            e["witness"], e["certified_epimorphism"])
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            out.append("edge %s -> %s: census %s, recomputed %s"
                       % (key[0], key[1], got.get(key), want.get(key)))
    return out


# -- the numeric stage ----------------------------------------------------


def _mpc(obj):
    return mp.mpc(mp.mpf(obj["re"]), mp.mpf(obj["im"]))


def _close(x, y, tol):
    return abs(x - y) <= tol * max(1, abs(y))


def roots_match(records):
    """Every polynomial has as many roots as its degree, and they agree with
    mpmath.polyroots."""
    out = []
    with mp.workdps(40):
        for rec in records:
            re, _ = from_json(rec["rep_poly"])
            got = [_mpc(r) for r in rec.get("roots", ())]
            tag = "%d/%d" % (rec["beta"], rec["alpha"])
            if len(got) != len(re) - 1:
                out.append("%s: %d roots for degree %d"
                           % (tag, len(got), len(re) - 1))
                continue
            m = next(k for k, c in enumerate(re) if c)
            want = [mp.mpc(0)] * m
            if len(re) - m > 1:
                want += list(mp.polyroots(list(reversed(re[m:])),
                                          maxsteps=200, extraprec=200))
            for r in want:
                best = min(range(len(got)), key=lambda i: abs(got[i] - r))
                if not _close(got[best], r, mp.mpf("1e-12")):
                    out.append("%s: no root near %s" % (tag, mp.nstr(r, 12)))
                    break
                got.pop(best)
    return out


def _volume_im_gap(v1, v2):
    pi2 = mp.pi ** 2
    d = mp.fmod(mp.im(v1) - mp.im(v2), pi2)
    return min(abs(d), abs(pi2 - abs(d)))


def geometry(records):
    """Published volumes and cusp shapes, and the symmetry under complex
    conjugation of the root."""
    out = []
    by_key = {(r["alpha"], r["beta"]): r for r in records}
    with mp.workdps(30):
        for key, vol in PUBLISHED_VOLUMES.items():
            reps = by_key[key].get("representations", [])
            best = max((abs(mp.re(_mpc(x["complex_volume"]))) for x in reps),
                       default=mp.mpf(0))
            if abs(best - mp.mpf(vol)) > 1e-9:
                out.append("%d/%d: volume %s, published %s"
                           % (key[1], key[0], mp.nstr(best, 12), vol))
        for key, cusps in PUBLISHED_CUSPS.items():
            got = [_mpc(x["cusp_shape"])
                   for x in by_key[key].get("representations", [])]
            for c in cusps:
                z = mp.mpc(complex(c))
                if not any(abs(g - z) < 1e-7 for g in got):
                    out.append("%d/%d: no cusp shape %s" % (key[1], key[0], c))
        for rec in records:
            reps = rec.get("representations", [])
            roots = [_mpc(x["root"]) for x in reps]
            for x, r in zip(reps, roots):
                if abs(mp.im(r)) < 1e-9:
                    continue
                twin = [y for y, s in zip(reps, roots)
                        if min(abs(s - mp.conj(r)), abs(s + mp.conj(r))) < 1e-9]
                tag = "%d/%d root %s" % (rec["beta"], rec["alpha"],
                                         mp.nstr(r, 8))
                if len(twin) != 1:
                    out.append("%s: no representation at the conjugate root"
                               % tag)
                    continue
                y = twin[0]
                c1, c2 = _mpc(x["cusp_shape"]), _mpc(y["cusp_shape"])
                v1, v2 = _mpc(x["complex_volume"]), _mpc(y["complex_volume"])
                if not _close(c2, mp.conj(c1), mp.mpf("1e-9")):
                    out.append("%s: cusp shapes not conjugate" % tag)
                if abs(mp.re(v1) + mp.re(v2)) > 1e-9:
                    out.append("%s: real volumes not opposite" % tag)
                if _volume_im_gap(v1, v2) > 1e-9:
                    out.append("%s: imaginary volumes differ mod pi^2" % tag)
    return out


# -- ORS expansions -------------------------------------------------------


def ors_blocks(seed, type_n, c):
    """C[e_1 a, 2c_1, e_2 a~, 2c_2, ...] with every e_i = +1."""
    blocks = []
    for i in range(type_n):
        blocks += list(seed) if i % 2 == 0 else list(reversed(seed))
        if i < type_n - 1:
            blocks.append(2 * c[i])
    return blocks


def aberth_roots(coeffs, iters=500):
    """Roots of a monic integer polynomial (low degree first) in complex
    floats, by Aberth iteration; a start for polishing."""
    n = len(coeffs) - 1
    radius = 1 + max(abs(c) for c in coeffs[:-1]) ** (1.0 / n)
    z = [radius * complex(math.cos(2.4 * k + 0.3), math.sin(2.4 * k + 0.3))
         for k in range(n)]
    dcoeffs = [k * coeffs[k] for k in range(1, n + 1)]

    def val(cs, x):
        acc = 0j
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    for _ in range(iters):
        moved = 0.0
        for j in range(n):
            ratio = val(coeffs, z[j]) / val(dcoeffs, z[j])
            s = sum(1 / (z[j] - z[i]) for i in range(n) if i != j)
            step = ratio / (1 - ratio * s)
            z[j] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14:
            break
    return z


def polish(coeffs, z, steps=200):
    """Newton polishing of a root at the current mpmath precision; enough
    steps for the linear convergence at a repeated root."""
    poly = list(reversed(coeffs))
    dpoly = list(reversed([k * coeffs[k] for k in range(1, len(coeffs))]))
    z = mp.mpc(z)
    tiny = mp.mpf(2) ** (-mp.mp.prec)
    for _ in range(steps):
        d = mp.polyval(dpoly, z)
        if d == 0:
            break
        step = mp.polyval(poly, z) / d
        z -= step
        if abs(step) <= tiny * max(1, abs(z)):
            break
    return z


def ors_item(seed, type_n, c, word, witness, seed_poly, rng):
    """The expansion word is built right, the witness names the seed
    polynomial or its iu-companion, and at a nonzero root of the witness
    the numeric plat coloring of the expansion closes for some
    consistent orientation."""
    tag = "C%s type %d c=%s" % (list(seed), type_n, list(c))
    blocks = ors_blocks(seed, type_n, c)
    if list(word) != blocks:
        return ["%s: expansion word %s, expected %s" % (tag, list(word), blocks)]
    if witness not in ("P_A", "P_A(iu)"):
        return ["%s: unknown witness %r" % (tag, witness)]
    re, _ = seed_poly
    m = next(k for k, x in enumerate(re) if x)
    core = re[m:]
    if len(core) == 1:
        return []       # P_A is a power of u: no nonzero root to test
    z = rng.choice(aberth_roots(core))
    with mp.workprec(160):
        r = polish(core, z)
        size = sum(abs(x) * abs(r) ** k for k, x in enumerate(core))
        if abs(mp.polyval(list(reversed(core)), r)) > mp.mpf(2) ** -80 * size:
            return ["%s: root of the seed polynomial did not converge" % tag]
        if witness == "P_A(iu)":
            r = r / mp.mpc(0, 1)
        a, b = (mp.mpc(1), mp.mpc(0)), (mp.mpc(0), r)
        for o in ((1, 1), (1, -1)):
            if not plat.orientation_consistent(blocks, o):
                continue
            vecs = plat.propagate(blocks, o, a, b)
            scale = max(1, max(abs(x) for v in vecs for x in v))
            if plat.closure_gap(blocks, vecs, b) < mp.mpf(2) ** -80 * scale:
                return []
    return ["%s: the expansion does not close at a root of %s"
            % (tag, witness)]
