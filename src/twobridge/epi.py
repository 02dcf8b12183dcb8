"""ORS expansions, rep-polynomial divisibility and the epimorphism census.

A word C[e_1 a, 2c_1, e_2 a~, 2c_2, e_3 a, ...] built from a seed word a
(a~ is a reversed) guarantees that the seed's rep-polynomial divides one of
the big word's rep-polynomials, which is the computable side of the
epimorphism partial order on 2-bridge knots.  Divisibility is always tested
by exact polynomial division; large ORS words are handled by running the
coloring engine with coefficients reduced modulo the seed polynomial.

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

from .conway import ConwayWord, Fraction, canonical_word, slope, \
    transform_word, word_of
from .coloring import (
    ColoringError,
    color_plan,
    iu_variant,
    plan_plat,
    rep_polynomial,
    rep_poly_pair,
)
from .polys import GPoly, divides, exact_divide, format_poly, \
    gauss_divides, int_value, poly_to_json
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


@dataclasses.dataclass(frozen=True)
class DivisibilityVerdict:
    divides: bool
    witness: str = None      # which polynomial of K1's set is divided
    quotient_degree: int = -1


def divisibility_check(k1, k2) -> DivisibilityVerdict:
    """Does the rep-polynomial of k2 divide one of k1's rep-polynomials?

    For knots this decides the existence of an epimorphism G(K1) -> G(K2);
    when k1 is a link it is only the necessary condition."""
    p2 = rep_polynomial(slope(word_of(k2)))
    for name, p1 in rep_poly_set(k1):
        q = exact_divide(p1, p2)
        if q is not None:
            return DivisibilityVerdict(True, name, q.degree)
    return DivisibilityVerdict(False)


def ors_factor_property(spec: OrsSpec, certify_exact: bool = True):
    """Certify that the seed's rep-polynomial divides one of the expansion's
    rep-polynomials (the iu-companion for some link cases).

    The expansion can be large, so the check runs the coloring engine with
    all coefficients reduced mod the monic part of the seed polynomial; with
    certify_exact the divisibility of the fully expanded polynomials by the
    returned witness is additionally certified by exact division when the
    expansion's alpha is at most 400.  The certificate colors the
    expansion's slope on its canonical word, which is shorter than the
    expansion word and gives the same set of polynomials.

    Each orientation is first screened on its prefix, the m blocks of the
    seed, colored mod the candidate's core.  The prefix's closure determinant
    <y, z> (the companion of color_plan) is, by the bottom-closure rule, +-
    the determinant u_{m+1} entering the first connecting 2c-block: the
    seed's closure determinant in the orientation the expansion induces on
    it.  ORS extend the seed's representations across a connecting block
    where it vanishes, so the orientation carrying the factor is never
    dropped; an orientation whose determinant is not 0 mod the core is
    dropped before its full coloring.  The screen only drops orientations:
    a result is accepted by the full check alone (the closure determinant 0
    mod the core and, when u^e divides the candidate with e > 1, mod u^e).

    Returns (word, witness_name).  Raises EpiError if division fails.
    """
    word = ors_word(spec)
    p_a = rep_polynomial(slope(spec.seed))
    candidates = [("P_A", p_a)]
    twisted = iu_variant(p_a)
    if twisted != p_a and twisted.is_real():
        candidates.append(("P_A(iu)", twisted))
    frac = slope(word)
    # each orientation's plan, and the seed blocks its screen colors (a
    # type 1 expansion is the seed, with no connecting block)
    k = len(spec.seed.blocks)
    plans = []
    for orientation in ((1, 1), (1, -1)):
        try:
            plan = plan_plat(word, orientation)
        except ColoringError:
            continue
        prefix = None
        if spec.type_n > 1:
            prefix = dataclasses.replace(plan, j_blocks=plan.j_blocks[:k],
                                         blocks=plan.blocks[:k])
        plans.append((plan, prefix))
    witness = None
    for name, pa in candidates:
        core, e = pa.strip_zero_roots()
        if not core.is_real() or core.leading().re != 1:
            continue
        for plan, prefix in plans:
            if prefix is not None:
                _, _, _, closure = color_plan(prefix, modulus=core)
                if not closure.is_zero():
                    continue
            _, _, raw, _ = color_plan(plan, modulus=core)
            if not raw.is_zero():
                continue
            # raw is <x, b> = f*u, so u itself always divides it
            if e > 1:
                _, _, low, _ = color_plan(plan, modulus=GPoly.monomial(e))
                if not low.is_zero():
                    continue
            witness = (name, pa)
            break
        if witness is not None:
            break
    if witness is None:
        raise EpiError("seed polynomial does not divide the expansion: bug")
    name, pa = witness
    if certify_exact and frac.alpha <= 400 and not any(
            divides(pa, p) for _, p in rep_poly_set(frac)):
        raise EpiError("exact division certificate failed for %s" % word)
    return word, name


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


def build_record(frac: Fraction, geometry: bool = True, precision: int = 128):
    """One census record: polynomials, bridge certificate, splitting,
    roots and, for knots, one representation per {r, -r} pair of nonzero
    roots (geometry.root_pairs): both members give the same one."""
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
    pair = () if frac.is_knot else rep_poly_pair(frac)
    P = pair[0] if pair else rep_polynomial(frac)
    rec["rep_poly"] = poly_to_json(P)
    rec["rep_poly_text"] = format_poly(P)
    if pair:
        rec["rep_poly_pair"] = [poly_to_json(p) for p in pair]
    R = _riley.riley_polynomial(frac)
    rec["riley_poly"] = poly_to_json(R)
    proof = _riley.verify_bridge(P, R, frac.is_knot, frac)
    rec["bridge_sign"] = proof.sign
    if frac.is_knot:
        s = _riley.split_polynomial(P, precision=max(precision, 192))
        rec["splitting"] = {"g": poly_to_json(s.g), "g_hat": poly_to_json(s.g_hat)}
    if geometry:
        from . import geometry as G
        import mpmath as mp

        with mp.workprec(precision):
            roots = G.find_roots(P, precision=precision)
            nstr = lambda x: mp.nstr(x, 17)
            rec["roots"] = [{"re": nstr(mp.re(r)), "im": nstr(mp.im(r))}
                            for r in roots]
            if frac.is_knot:
                reps = []
                for r in G.root_pairs(roots[P.strip_zero_roots()[1]:]):
                    rep = G.arc_vectors_at_root(word, r, precision=precision)
                    data = G.region_coloring(rep)
                    c = G.cusp_shape(data)
                    v = G.complex_volume(data)
                    reps.append({
                        "root": {"re": nstr(mp.re(r)), "im": nstr(mp.im(r))},
                        "cusp_shape": {"re": nstr(mp.re(c)), "im": nstr(mp.im(c))},
                        "complex_volume": {"re": nstr(mp.re(v)), "im": nstr(mp.im(v))},
                    })
                rec["representations"] = reps
    return rec


def census_build(max_alpha: int, out=None, geometry: bool = True,
                 precision: int = 128, jobs: int = 1):
    """Build records for every class with alpha <= max_alpha plus the
    divisibility edges (divisibility_edges: each pair is value-screened at
    t = 2, 3, 5 before exact_divide decides).  Writes JSONL to `out`
    (appending idempotently, keyed by (alpha, beta)) when given; returns
    (records, edges).

    A record already in `out` is reused when it was built with the same
    geometry flag and precision; only the other classes are built, in
    `jobs` worker processes when jobs > 1."""
    if max_alpha < 3:
        raise EpiError("max_alpha must be >= 3")
    if jobs < 1:
        raise EpiError("jobs must be >= 1")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise EpiError("cannot write %s: no such directory" % out)
    if out is not None and os.path.isdir(out):
        raise EpiError("cannot write %s: it is a directory" % out)
    reps = class_representatives(max_alpha)
    cached = {}
    if out is not None:
        try:
            with open(out) as fh:
                for line in fh:
                    obj = json.loads(line)
                    if obj.get("geometry") == geometry and \
                            obj.get("precision_bits") == precision:
                        cached[(obj["alpha"], obj["beta"])] = obj
        except FileNotFoundError:
            pass
    todo = [(f.alpha, f.beta, geometry, precision) for f in reps
            if (f.alpha, f.beta) not in cached]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            built = list(ex.map(_record_worker, todo))
    else:
        built = [_record_worker(args) for args in todo]
    for rec in built:
        cached[(rec["alpha"], rec["beta"])] = rec
    records = [cached[(f.alpha, f.beta)] for f in reps]

    edges = divisibility_edges(reps)
    if out is not None:
        with open(out, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
            for e in edges:
                fh.write(json.dumps(e) + "\n")
    return records, edges


# a divisor of P1 over Z[i] divides its value at every integer point
_SCREEN_POINTS = (2, 3, 5)


def divisibility_edges(fracs):
    """The edges K1 -> K2 among the classes fracs (K1 != K2, alpha(K2) <=
    alpha(K1)): P of K2 divides a polynomial of K1's rep_poly_set, the
    first such in set order being the witness.

    Each pair is value-screened first: deg P2 <= deg P1 and P2(t) | P1(t)
    in Z[i] at t = 2, 3, 5, which every exact divisor passes, with the
    values computed once per class.  exact_divide alone accepts an edge."""
    sets = {}
    for f in fracs:
        sets[f] = [(name, p, [int_value(p, t) for t in _SCREEN_POINTS])
                   for name, p in rep_poly_set(f)]
    edges = []
    for f1 in fracs:
        for f2 in fracs:
            if f1 == f2 or f2.alpha > f1.alpha:
                continue
            # each set's first entry is P itself
            _, p2, v2 = sets[f2][0]
            for name, p1, v1 in sets[f1]:
                if p2.degree > p1.degree or not all(
                        gauss_divides(a, b) for a, b in zip(v2, v1)):
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


def _record_worker(args):
    alpha, beta, geometry, precision = args
    return build_record(Fraction(alpha, beta), geometry=geometry,
                        precision=precision)
