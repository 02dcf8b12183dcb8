"""ORS expansions, rep-polynomial divisibility and the epimorphism census.

A word C[e_1 a, 2c_1, e_2 a~, 2c_2, e_3 a, ...] built from a seed word a
(a~ is a reversed) guarantees that the seed's rep-polynomial P_A divides one
of the big word's rep-polynomials, which is the computable side of the
epimorphism partial order on 2-bridge knots.  Divisibility is always tested
by exact polynomial division; large ORS words are handled by running the
coloring engine in the residue ring Z[u]/(P_A) of the seed polynomial
(modulo its core when u^2 does not divide P_A), where every product stays
of bounded size and a 2c-block of any length costs O(log |c|) products.

P_A is the one divisor tried, in every orientation of the expansion (see
ors_factor_property for why its iu-companion is not tried).

An expansion colored mod the seed core in an orientation that does not
carry the seed's representations can have residues whose coefficients grow
doubly exponentially along the word.  So each orientation is screened first
on the seed blocks alone: the closure determinant at their bottom caps is,
up to sign, the determinant u_{m+1} entering the first connecting 2c-block,
and it is 0 mod the seed core in the orientation by which ORS extend the
seed's representations across that block (Ohtsuki-Riley-Sakuma,
Epimorphisms between 2-bridge link groups, 2008).  The screen only ever
drops an orientation; a result is accepted only by the full modular
coloring, and with certify_exact by exact division.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import mpmath as mp

from .conway import ConwayWord, Fraction, canonical_word, slope, \
    transform_word, word_of
from .coloring import (
    color_plan,
    consistent_orientations,
    plan_plat,
    rep_polynomial,
    rep_poly_pair,
)
from .geometry import arc_vectors_at_root, complex_volume, \
    conjugate_partners, cusp_shape, find_roots, region_coloring, root_pairs
from .polys import exact_divide, format_poly, int_value, poly_to_json
from . import riley as _riley


class EpiError(ValueError):
    pass


# -- ORS expansions -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class OrsSpec:
    seed: ConwayWord
    type_n: int
    c: tuple                  # length type_n - 1
    signs: tuple = None       # epsilon_i in {+1,-1}, epsilon_1 = 1

    def __post_init__(self):
        if self.type_n < 1:
            raise EpiError("type must be >= 1")
        object.__setattr__(self, "c", tuple(int(x) for x in self.c))
        if len(self.c) != self.type_n - 1:
            raise EpiError("need %d twist parameters" % (self.type_n - 1))
        signs = self.signs if self.signs is not None else (1,) * self.type_n
        signs = tuple(int(s) for s in signs)
        object.__setattr__(self, "signs", signs)
        if len(signs) != self.type_n or any(s not in (1, -1) for s in signs):
            raise EpiError("signs must be +-1 of length type")
        if signs[0] != 1:
            raise EpiError("first sign must be +1")
        for i, ci in enumerate(self.c):
            if ci == 0 and signs[i] * signs[i + 1] == -1:
                raise EpiError("c_i = 0 with opposite signs is excluded")


def ors_word(spec: OrsSpec) -> ConwayWord:
    """The Conway word of the ORS expansion; knot iff the type is odd
    (for knot seeds)."""
    a = spec.seed.blocks
    a_rev = tuple(reversed(a))
    blocks = []
    for i in range(spec.type_n):
        body = a if i % 2 == 0 else a_rev
        blocks.extend(spec.signs[i] * n for n in body)
        if i < spec.type_n - 1:
            blocks.append(2 * spec.c[i])
    return ConwayWord(tuple(blocks))


# -- divisibility -------------------------------------------------------------


def rep_poly_set(descriptor):
    """The candidate rep-polynomials of a knot or link: {P, P'} for knots,
    both orientation variants and their iu-companions for links.  Returns a
    list of (name, GPoly)."""
    word = word_of(descriptor)
    upside = transform_word(word, "upside_down")
    if slope(word).is_knot:
        return [
            ("P", rep_polynomial(word)),
            ("P'", rep_polynomial(upside)),
        ]
    p1, p2 = rep_poly_pair(word)
    q1, q2 = rep_poly_pair(upside)
    return [("P", p1), ("P(iu)", p2), ("P'", q1), ("P'(iu)", q2)]


def divisibility_check(k1, k2):
    """Does the rep-polynomial of k2 divide one of k1's rep-polynomials?
    Returns the name (in rep_poly_set) of the first one it divides, or None.

    For knots this decides the existence of an epimorphism G(K1) -> G(K2);
    when k1 is a link it is only the necessary condition."""
    p2 = rep_polynomial(slope(word_of(k2)))
    for name, p1 in rep_poly_set(k1):
        if exact_divide(p1, p2) is not None:
            return name
    return None


def ors_factor_property(spec: OrsSpec, certify_exact: bool = True):
    """Certify that the seed's rep-polynomial P_A divides one of the
    expansion's rep-polynomials.

    The expansion can be large, so the check runs the coloring engine once
    per orientation in the residue ring Z[u]/(P_A), P_A = u^e core with
    core(0) != 0 (mod core alone when e = 1), where the twist blocks'
    windows are built by doubling and the cost grows with log |c_i|.  With
    certify_exact the division by P_A is also certified exactly when the
    expansion's alpha is at most 400, on the canonical word of its slope
    (shorter than the expansion word, the same set of polynomials).

    P_A is the one candidate.  Links: the two orientation polynomials are
    iu-companions, E_o' ~ E_o(iu); u -> iu keeps divisibility and
    E(-iu) = +-E(iu) for these parity polynomials, so the iu-companion of
    P_A divides E_o exactly when P_A divides E_o', and both orientations
    are tried.  Knots: no proof, but no seed was found where P_A fails;
    one would raise EpiError, never return a wrong witness.

    Each orientation is first screened on its prefix, the m blocks of the
    seed, colored mod the core.  The prefix's closure determinant <y, z>
    (the companion of color_plan) is, by the bottom-closure rule, +- the
    determinant u_{m+1} entering the first connecting 2c-block: the seed's
    closure determinant in the orientation the expansion induces on it.
    ORS extend the seed's representations across a connecting block where
    it vanishes, so the orientation carrying the factor is never dropped;
    an orientation whose determinant is not 0 mod the core is dropped
    before its full coloring, which alone accepts a result.

    Returns (word, "P_A").  Raises EpiError if division fails, ValueError
    (from ResidueRing) if the core is not monic.
    """
    word = ors_word(spec)
    p_a = rep_polynomial(slope(spec.seed))
    frac = slope(word)
    core, e = p_a.strip_zero_roots()
    # raw is <x, b> = f*u, so u itself always divides it: with e = 1 the
    # core decides.  With e > 1 one coloring mod p_a = u^e core decides:
    # both factors are monic and core(0) != 0, so they are coprime in Q[u],
    # and raw is 0 mod p_a exactly when it is 0 mod core and mod u^e (p_a
    # divides raw in Q[u], and the quotient by a monic divisor of an
    # integer polynomial is integral).
    modulus = core if e == 1 else p_a
    k = len(spec.seed.blocks)   # the screen's prefix; type 1 has no 2c-block
    for orientation in consistent_orientations(word.j_blocks):
        plan = plan_plat(word, orientation)
        if spec.type_n > 1:
            prefix = dataclasses.replace(plan, j_blocks=plan.j_blocks[:k],
                                         blocks=plan.blocks[:k])
            _, _, _, closure = color_plan(prefix, modulus=core)
            if not closure.is_zero():
                continue
        _, _, raw, _ = color_plan(plan, modulus=modulus)
        if raw.is_zero():
            break
    else:
        raise EpiError("seed polynomial does not divide the expansion: bug")
    if certify_exact and frac.alpha <= 400 and not any(
            exact_divide(p, p_a) is not None for _, p in rep_poly_set(frac)):
        raise EpiError("exact division certificate failed for %s" % word)
    return word, "P_A"


# -- census -------------------------------------------------------------------


CENSUS_SCHEMA = 1


def class_representatives(max_alpha: int):
    """One (alpha, beta) per unoriented class {beta, beta^-1 mod alpha},
    mirror classes kept distinct, ordered by (alpha, beta)."""
    reps = []
    for alpha in range(3, max_alpha + 1):
        seen = set()
        for beta in range(1, alpha):
            if math.gcd(alpha, beta) != 1:
                continue
            key = Fraction(alpha, beta).unoriented_class()
            if key in seen:
                continue
            seen.add(key)
            reps.append(Fraction(*key))
    return reps


def build_record(frac: Fraction, polys, geometry: bool = True,
                 precision: int = 128):
    """One census record: polynomials, bridge certificate, splitting,
    roots and, for knots, one representation per {r, -r} pair of nonzero
    roots (geometry.root_pairs): both members give the same one.  P (a
    link's pair) is the first entry (two) of `polys`, the class's
    rep_poly_set; a knot's nonzero roots are those its split read.

    The geometry is computed once per conjugate pair of kept roots: a root
    r within root_pairs' tolerance of +-conj r0 for exactly one earlier
    kept root r0 (geometry.conjugate_partners; never a real or purely
    imaginary root) gets conj cusp(r0) and -conj vol(r0), the conjugate
    representation's, instead of its own arc vectors, region coloring and
    state sums.  Inside each volume the Li2 kernel hands back the
    log(1 - z) it took, so the gradient does not take it again."""
    word = canonical_word(frac)
    rec = {
        "schema": CENSUS_SCHEMA,
        "alpha": frac.alpha,
        "beta": frac.beta,
        "word": list(word.blocks),
        "is_knot": frac.is_knot,
        "mirror_of": list(frac.mirror().unoriented_class()),
        "geometry": geometry,
        "precision_bits": precision,
    }
    P = polys[0][1]
    rec["rep_poly"] = poly_to_json(P)
    rec["rep_poly_text"] = format_poly(P)
    if not frac.is_knot:
        rec["rep_poly_pair"] = [poly_to_json(p) for _, p in polys[:2]]
    R = _riley.riley_polynomial(frac)
    rec["riley_poly"] = poly_to_json(R)
    rec["bridge_sign"] = _riley.verify_bridge(P, R, frac.is_knot)
    if frac.is_knot:
        s = _riley.split_polynomial(P, precision=max(precision, 192))
        rec["splitting"] = {"g": poly_to_json(s.g), "g_hat": poly_to_json(s.g_hat)}
    if geometry:
        with mp.workprec(precision):
            roots = ([mp.mpc(0)] + s.roots if frac.is_knot
                     else find_roots(P, precision=precision))
            nstr = lambda x: mp.nstr(x, 17)
            rec["roots"] = [{"re": nstr(mp.re(r)), "im": nstr(mp.im(r))}
                            for r in roots]
            if frac.is_knot:
                reps = []
                for r, c, v in _representations(word, s.roots, precision):
                    reps.append({
                        "root": {"re": nstr(mp.re(r)), "im": nstr(mp.im(r))},
                        "cusp_shape": {"re": nstr(mp.re(c)), "im": nstr(mp.im(c))},
                        "complex_volume": {"re": nstr(mp.re(v)), "im": nstr(mp.im(v))},
                    })
                rec["representations"] = reps
    return rec


def _representations(word, roots, precision):
    """(r, cusp shape, complex volume) for each root r of root_pairs(roots),
    computed at `precision` bits unless r has a partner r0 in
    geometry.conjugate_partners; then they are conj cusp(r0) and
    -conj vol(r0), whose imaginary part im vol(r0) is already reduced
    mod pi^2.  The pairing reads the current mpmath precision."""
    kept = root_pairs(roots)
    out = []
    for r, j in zip(kept, conjugate_partners(kept)):
        if j is None:
            data = region_coloring(
                arc_vectors_at_root(word, r, precision=precision))
            c, v = cusp_shape(data), complex_volume(data)
        else:
            _, c0, v0 = out[j]
            c, v = mp.conj(c0), mp.mpc(-mp.re(v0), mp.im(v0))
        out.append((r, c, v))
    return out


def census_build(max_alpha: int, out=None, geometry: bool = True,
                 precision: int = 128):
    """Build records for every class with alpha <= max_alpha plus the
    divisibility edges (divisibility_edges: each pair is value-screened at
    t = 2, 3, 5 before exact_divide decides), both read from each class's
    rep_poly_set colored once; returns (records, edges).

    When `out` is given the run is written to it as JSONL, records then
    edges, replacing whatever the file held."""
    if max_alpha < 3:
        raise EpiError("max_alpha must be >= 3")
    if out == "":
        raise EpiError("cannot write '': empty path")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise EpiError("cannot write %s: no such directory" % out)
    if out is not None and os.path.isdir(out):
        raise EpiError("cannot write %s: it is a directory" % out)
    sets = {f: rep_poly_set(f) for f in class_representatives(max_alpha)}
    records = [build_record(f, polys, geometry=geometry, precision=precision)
               for f, polys in sets.items()]
    edges = divisibility_edges(sets)
    if out is not None:
        try:
            with open(out, "w") as fh:
                for rec in records:
                    fh.write(json.dumps(rec) + "\n")
                for e in edges:
                    fh.write(json.dumps(e) + "\n")
        except OSError as e:
            raise EpiError("cannot write %s: %s" % (out, e.strerror or e))
    return records, edges


# a divisor of P1 in Z[u] divides its value at every integer point
_SCREEN_POINTS = (2, 3, 5)


def divisibility_edges(sets):
    """The edges K1 -> K2 among the classes keying `sets` (class ->
    rep_poly_set; K1 != K2, alpha(K2) <= alpha(K1)): P of K2 divides a
    polynomial of K1's set, the first such in set order being the witness.

    Each pair is value-screened first: deg P2 <= deg P1 and P2(t) | P1(t)
    in Z at t = 2, 3, 5 (a zero value dividing only zero), which every
    exact divisor passes, with the values computed once per class.
    exact_divide alone accepts an edge."""
    sets = {f: [(name, p, [int_value(p, t) for t in _SCREEN_POINTS])
                for name, p in polys]
            for f, polys in sets.items()}
    edges = []
    for f1 in sets:
        for f2 in sets:
            if f1 == f2 or f2.alpha > f1.alpha:
                continue
            # each set's first entry is P itself
            _, p2, v2 = sets[f2][0]
            for name, p1, v1 in sets[f1]:
                if p2.degree > p1.degree or not all(
                        b % a == 0 if a else b == 0 for a, b in zip(v2, v1)):
                    continue
                if exact_divide(p1, p2) is not None:
                    edges.append({
                        "type": "edge",
                        "from": [f1.alpha, f1.beta],
                        "to": [f2.alpha, f2.beta],
                        "witness": name,
                        "certified_epimorphism": f1.is_knot and f2.is_knot,
                    })
                    break
    return edges
