"""ORS expansions, rep-polynomial divisibility and the epimorphism census.

A word C[e_1 a, 2c_1, e_2 a~, 2c_2, e_3 a, ...] built from a seed word a
(a~ is a reversed) guarantees that the seed's rep-polynomial divides one of
the big word's rep-polynomials, which is the computable side of the
epimorphism partial order on 2-bridge knots.  Divisibility is always tested
by exact polynomial division; large ORS words are handled by running the
coloring engine with coefficients reduced modulo the seed polynomial.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .conway import ConwayWord, Fraction, canonical_word, slope, \
    transform_word, word_of
from .coloring import (
    ColoringError,
    color_plan,
    plan_plat,
    rep_polynomial,
    rep_poly_pair,
)
from .polys import (
    GPoly,
    divides,
    exact_divide,
    poly_to_json,
    sign_normalize,
    substitute_iu,
    format_poly,
)
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


def _strip_u(p: GPoly):
    m = 0
    while not p.coeff(m):
        m += 1
    return p.strip_power(m), m


def ors_factor_property(spec: OrsSpec, certify_exact: bool = True):
    """Certify that the seed's rep-polynomial divides one of the expansion's
    rep-polynomials (the iu-companion for some link cases).

    The expansion can be large, so the check runs the coloring engine with
    all coefficients reduced mod the monic part of the seed polynomial; with
    certify_exact the divisibility is additionally certified by exact
    division of the fully expanded polynomial when its degree is moderate.
    Returns (word, witness_name).  Raises EpiError if division fails.
    """
    word = ors_word(spec)
    p_a = rep_polynomial(slope(spec.seed))
    candidates = [("P_A", p_a)]
    twisted = sign_normalize(substitute_iu(p_a))
    if twisted != p_a and twisted.is_real():
        candidates.append(("P_A(iu)", twisted))
    frac = slope(word)
    witness = None
    for name, pa in candidates:
        core, m = _strip_u(pa)
        if not core.is_real() or core.leading().re != 1:
            continue
        found = False
        for orientation in ((1, 1), (1, -1)):
            try:
                plan = plan_plat(word, orientation)
            except ColoringError:
                continue
            _, _, raw, _ = color_plan(plan, modulus=core)
            if not raw.is_zero():
                continue
            if m > 0:
                _, _, low, _ = color_plan(plan, modulus=GPoly.monomial(m))
                if not low.is_zero():
                    continue
            found = True
            break
        if found:
            witness = name
            break
    if witness is None:
        raise EpiError("seed polynomial does not divide the expansion: bug")
    if certify_exact and frac.alpha <= 400 and not any(
            divides(pa, p)
            for _, pa in candidates
            for _, p in rep_poly_set(word)):
        raise EpiError("exact division certificate failed for %s" % word)
    return word, witness


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
            key = min(beta, pow(beta, -1, alpha))
            if key in seen:
                continue
            seen.add(key)
            reps.append(Fraction(alpha, key))
    return reps


def _mirror_key(frac: Fraction):
    m = frac.mirror()
    return (m.alpha, min(m.beta, pow(m.beta, -1, m.alpha)))


def build_record(frac: Fraction, geometry: bool = True, precision: int = 128):
    """One census record: polynomials, bridge certificate, splitting,
    roots and per-root geometry (knots)."""
    word = canonical_word(frac)
    rec = {
        "schema": CENSUS_SCHEMA,
        "alpha": frac.alpha,
        "beta": frac.beta,
        "word": list(word.blocks),
        "is_knot": frac.is_knot,
        "mirror_of": list(_mirror_key(frac)),
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
                seen = set()
                for r in roots:
                    if abs(r) < 1e-12:
                        continue
                    key = min(nstr(r), nstr(-r))
                    if key in seen:
                        continue
                    seen.add(key)
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
    divisibility edges.  Writes JSONL to `out` (appending idempotently,
    keyed by (alpha, beta)) when given; returns (records, edges).

    A record already in `out` is reused when it was built with the same
    geometry flag and precision; only the other classes are built, in
    `jobs` worker processes when jobs > 1."""
    if max_alpha < 3:
        raise EpiError("max_alpha must be >= 3")
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

    # polynomial sets once per class; each set's first entry is P itself
    sets = {}
    for rec in records:
        f = Fraction(rec["alpha"], rec["beta"])
        sets[(f.alpha, f.beta)] = rep_poly_set(f)
    edges = []
    for rec1 in records:
        f1 = (rec1["alpha"], rec1["beta"])
        for rec2 in records:
            f2 = (rec2["alpha"], rec2["beta"])
            if f1 == f2 or rec2["alpha"] > rec1["alpha"]:
                continue
            p2 = sets[f2][0][1]
            for name, p1 in sets[f1]:
                if exact_divide(p1, p2) is not None:
                    edges.append({
                        "type": "edge",
                        "from": list(f1),
                        "to": list(f2),
                        "witness": name,
                        "certified_epimorphism":
                            rec1["is_knot"] and rec2["is_knot"],
                    })
                    break
    if out is not None:
        with open(out, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
            for e in edges:
                fh.write(json.dumps(e) + "\n")
    return records, edges


def _record_worker(args):
    alpha, beta, geometry, precision = args
    return build_record(Fraction(alpha, beta), geometry=geometry,
                        precision=precision)
