"""Self-test of the output checks: each must pass on the program's real
outputs and fail on a corrupted copy (one changed coefficient, a shifted
root, a dropped edge, a wrong word or witness).

    python3 bench/selftest.py

Runs on small inputs in about fifteen seconds; exits 1 if any corruption goes
unnoticed or any clean output is rejected.
"""

from __future__ import annotations

import copy
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from twobridge import coloring, epi, riley  # noqa: E402
from twobridge.conway import ConwayWord, Fraction, slope  # noqa: E402

failures = []


def expect(label, problems, clean):
    ok = (not problems) if clean else bool(problems)
    print("%-4s %s%s" % ("ok" if ok else "FAIL", label,
                         "" if clean or not problems else "  [%s]" % problems[0]))
    if not ok:
        failures.append(label)


def bump(poly, k=None):
    """A copy with one coefficient changed."""
    re, im = list(poly[0]), list(poly[1])
    k = len(re) // 2 if k is None else k
    re[k] += 1
    return re, im


def bump_json(obj, k=None):
    coeffs = copy.deepcopy(obj["coeffs"])
    k = len(coeffs) // 2 if k is None else k
    coeffs[k][0] = str(int(coeffs[k][0]) + 1)
    return {"coeffs": coeffs}


def exact_items():
    rng = random.Random(1)
    for a, b in ((51, 20), (53, 14)):
        f = Fraction(a, b)
        P = checks.from_gpoly(coloring.rep_polynomial(f))
        R = checks.from_gpoly(riley.riley_polynomial(f))
        expect("knot %d/%d clean" % (b, a),
               checks.exact_item(a, b, True, P, R, rng), True)
        expect("knot %d/%d, one coefficient of P changed" % (b, a),
               checks.exact_item(a, b, True, bump(P), R, rng), False)
        expect("knot %d/%d, one coefficient of R changed" % (b, a),
               checks.riley_matches_word(bump(R), a, b, True, rng), False)
        expect("knot %d/%d, R of another fraction" % (b, a),
               checks.riley_matches_word(
                   checks.from_gpoly(riley.riley_polynomial(Fraction(a, b + 2))),
                   a, b, True, rng), False)
    f = Fraction(52, 15)
    pair = [checks.from_gpoly(p) for p in coloring.rep_poly_pair(f)]
    R = checks.from_gpoly(riley.riley_polynomial(f))
    expect("link 15/52 clean",
           checks.exact_item(52, 15, False, pair[0], R, rng, pair), True)
    expect("link 15/52, one coefficient of P2 changed",
           checks.exact_item(52, 15, False, pair[0], R, rng,
                             [pair[0], bump(pair[1], 4)]), False)


def census(geometry):
    name = "census-geometry" if geometry else "census-exact"
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.Census(3, 9 if geometry else 13, geometry, tmp)
        rnd = wl.run_round()
    expect("%s clean" % name, wl.check(rnd), True)
    rc, records, edges = rnd.outputs

    def variant(label, recs=None, eds=None):
        out = (rc, recs if recs is not None else records,
               eds if eds is not None else edges)
        expect("%s, %s" % (name, label),
               wl.check(workloads.Round(rnd.wall, rnd.times, [], out)), False)

    knots = [i for i, r in enumerate(records) if r["is_knot"]]
    recs = copy.deepcopy(records)
    recs[knots[-1]]["rep_poly"] = bump_json(recs[knots[-1]]["rep_poly"])
    variant("one coefficient of a rep-polynomial changed", recs=recs)
    recs = copy.deepcopy(records)
    recs[knots[-1]]["riley_poly"] = bump_json(recs[knots[-1]]["riley_poly"], 0)
    variant("one coefficient of a Riley polynomial changed", recs=recs)
    recs = copy.deepcopy(records)
    s = recs[knots[-1]]["splitting"]
    s["g"] = bump_json(s["g"], 0)
    variant("one coefficient of a splitting factor changed", recs=recs)
    links = [i for i, r in enumerate(records) if not r["is_knot"]]
    recs = copy.deepcopy(records)
    pair = recs[links[-1]]["rep_poly_pair"]
    pair[1] = bump_json(pair[1], 2)
    variant("one coefficient of a link's second polynomial changed", recs=recs)
    variant("an edge dropped", eds=edges[:-1])
    eds = copy.deepcopy(edges)
    eds[0]["witness"] = "P'" if eds[0]["witness"] == "P" else "P"
    variant("an edge's witness changed", eds=eds)
    present = {(tuple(e["from"]), tuple(e["to"])) for e in edges}
    extra = next((r["alpha"], r["beta"]) for r in records
                  if ((records[-1]["alpha"], records[-1]["beta"]),
                      (r["alpha"], r["beta"])) not in present)
    variant("an edge added", eds=edges + [dict(edges[-1], to=list(extra))])
    cands = wl.candidates(records)
    expect("%s candidates clean" % name,
           checks.census_candidates(records, cands, random.Random(1)), True)
    for rec in (records[knots[-1]], records[links[-1]]):
        key = (rec["alpha"], rec["beta"])
        eps = 1 if rec["is_knot"] else 2
        for k, (cand, poly) in enumerate(cands[key]):
            # a middle coefficient of the bridge form u^eps R(u^2), so that
            # only the Riley word matrix or the iu-pairing can notice
            j = eps + 2 * ((len(poly[0]) - 1 - eps) // 4)
            bad = dict(cands)
            bad[key] = list(cands[key])
            bad[key][k] = (cand, bump(poly, j))
            expect("%s, one coefficient of candidate %s of %d/%d changed"
                   % (name, cand, key[1], key[0]),
                   checks.census_candidates(records, bad, random.Random(1)),
                   False)
    if not geometry:
        return
    recs = copy.deepcopy(records)
    last = recs[-1]["roots"][-1]
    last["re"] = str(float(last["re"]) + 1e-6)
    variant("a root shifted by 1e-6", recs=recs)
    recs = copy.deepcopy(records)
    recs[-1]["roots"].pop()
    variant("a root dropped", recs=recs)
    by_key = {(r["alpha"], r["beta"]): i for i, r in enumerate(records)}
    recs = copy.deepcopy(records)
    for rep in recs[by_key[(5, 2)]]["representations"]:
        v = rep["complex_volume"]
        v["re"] = str(float(v["re"]) * 1.0001)
    variant("the volumes of 5/2 scaled by 1.0001", recs=recs)
    recs = copy.deepcopy(records)
    for rep in recs[by_key[(7, 3)]]["representations"]:
        c = rep["cusp_shape"]
        c["im"] = str(float(c["im"]) + 1e-5)
    variant("the cusp shapes of 3/7 shifted", recs=recs)
    recs = copy.deepcopy(records)
    for rec in recs:
        reps = rec.get("representations", [])
        if any(abs(float(x["root"]["im"])) > 1e-3 for x in reps):
            x = next(x for x in reps if abs(float(x["root"]["im"])) > 1e-3)
            x["complex_volume"]["re"] = str(-float(x["complex_volume"]["re"]))
            break
    variant("one volume of a conjugate pair negated", recs=recs)


def ors():
    wl = workloads.Ors(5)
    wl.specs = wl.specs[:-len(workloads.ORS_FAULT_SPECS)][::12]
    wl.fault_index = set()
    rnd = wl.run_round()
    expect("ors clean", wl.check(rnd), True)
    idx = [i for i, o in enumerate(rnd.outputs)
           if o is not None and len(wl.seed_polys[wl.specs[i][0]].coeffs()) > 3]

    def variant(label, i, out):
        outs = list(rnd.outputs)
        outs[i] = out
        expect("ors, %s" % label,
               wl.check(workloads.Round(rnd.wall, rnd.times, [], outs)), False)

    i = idx[0]
    word, witness = rnd.outputs[i]
    variant("one block of the expansion word changed", i,
            (word[:-1] + (word[-1] + 2,), witness))
    variant("an unknown witness", i, (word, "P_B"))
    # On a knot expansion only one orientation closes up, and there P_A(iu)
    # does not divide when P_A does.
    j = next(j for j in idx if rnd.outputs[j][1] == "P_A"
             and slope(ConwayWord(rnd.outputs[j][0])).is_knot)
    variant("witness P_A(iu) on a knot expansion where P_A divides", j,
            (rnd.outputs[j][0], "P_A(iu)"))
    over = workloads.Round(rnd.wall, rnd.times, [i], rnd.outputs)
    expect("ors, a draw over the budget", wl.check(over), False)
    a, n, c = wl.specs[i]
    blocks = checks.ors_blocks(a, n, c)
    expect("ors, word of the package equals the benchmark's own",
           [] if list(epi.ors_word(epi.OrsSpec(ConwayWord(a), n, c)).blocks)
           == blocks else ["differ"], True)


def main():
    exact_items()
    census(False)
    census(True)
    ors()
    print("%d check(s) misjudged" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
