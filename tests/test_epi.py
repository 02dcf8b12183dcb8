import itertools
import json
import math
import os
import random
import subprocess
import sys

import mpmath as mp
import pytest

import twobridge
from twobridge import epi
from twobridge.conway import ConwayWord, Fraction, normalize_zeros, \
    parse_descriptor, slope
from twobridge.coloring import color_plan, plan_plat, rep_polynomial
from twobridge.epi import (
    EpiError,
    OrsSpec,
    build_record,
    census_build,
    class_representatives,
    divisibility_check,
    divisibility_edges,
    ors_factor_property,
    ors_word,
    rep_poly_set,
)
from twobridge.coloring import iu_variant
from twobridge.polys import GPoly, exact_divide, parse_poly, rem_monic, \
    sign_normalize

P = parse_poly


class TestOrsWord:
    def test_type3_seed3(self):
        w = ors_word(OrsSpec(ConwayWord((3,)), 3, (1, 0)))
        assert w.blocks == (3, 2, 3, 0, 3)
        assert normalize_zeros(w).blocks == (3, 2, 6)

    def test_type2_seed3(self):
        assert ors_word(OrsSpec(ConwayWord((3,)), 2, (1,))).blocks == (3, 2, 3)

    def test_paper_c225_expansion(self):
        w = ors_word(OrsSpec(ConwayWord((2, -2)), 3, (0, -1)))
        assert w.blocks == (2, -2, 0, -2, 2, -2, 2, -2)

    def test_seed_reversal(self):
        w = ors_word(OrsSpec(ConwayWord((1, 2, 3)), 2, (5,)))
        assert w.blocks == (1, 2, 3, 10, 3, 2, 1)

    def test_signs(self):
        w = ors_word(OrsSpec(ConwayWord((3,)), 3, (1, 1), signs=(1, -1, 1)))
        assert w.blocks == (3, 2, -3, 2, 3)

    def test_excluded_case(self):
        with pytest.raises(EpiError):
            OrsSpec(ConwayWord((3,)), 3, (0, 1), signs=(1, -1, 1))

    def test_knot_iff_odd_type(self):
        for n in range(1, 6):
            spec = OrsSpec(ConwayWord((3,)), n, tuple([1] * (n - 1)))
            frac = slope(ors_word(spec))
            assert frac.is_knot == (n % 2 == 1)


class TestDivisibility:
    def test_paper_edge(self):
        assert divisibility_check(parse_descriptor("C[2,3,0,3,2,-2,2,3]"),
                                  parse_descriptor("C[2,3]")) == "P"

    def test_c225_over_trefoil(self):
        assert divisibility_check(parse_descriptor("C[2,2,5]"),
                                  parse_descriptor("C[3]")) is not None

    def test_negative(self):
        assert divisibility_check(parse_descriptor("C[2,3]"),
                                  parse_descriptor("C[2,2]")) is None

    def test_beta_inverse_agreement(self):
        # verdicts agree computed via (alpha, beta) or (alpha, beta'')
        rng = random.Random(99)
        smalls = [Fraction(3, 1), Fraction(5, 2), Fraction(7, 3)]
        for _ in range(12):
            alpha = rng.choice([9, 15, 21, 25, 27, 33])
            betas = [b for b in range(1, alpha) if math.gcd(alpha, b) == 1]
            beta = rng.choice(betas)
            f = Fraction(alpha, beta)
            g = Fraction(alpha, pow(beta, -1, alpha))   # upside down
            for target in smalls:
                assert (divisibility_check(f, target) is None) == \
                    (divisibility_check(g, target) is None)

    def test_self_division(self):
        f = Fraction(7, 3)
        assert divisibility_check(f, f) is not None

    def test_screened_edges_equal_brute_force(self):
        # the value screen only drops pairs exact division would refuse
        fracs = class_representatives(21)
        sets = {f: rep_poly_set(f) for f in fracs}
        want = []
        for f1 in fracs:
            for f2 in fracs:
                if f1 == f2 or f2.alpha > f1.alpha:
                    continue
                p2 = sets[f2][0][1]
                for name, p1 in sets[f1]:
                    if exact_divide(p1, p2) is not None:
                        want.append(([f1.alpha, f1.beta], [f2.alpha, f2.beta],
                                     name, f1.is_knot and f2.is_knot))
                        break
        got = [(e["from"], e["to"], e["witness"], e["certified_epimorphism"])
               for e in divisibility_edges(sets)]
        assert got == want
        assert len(want) > 100


class TestOrsFactorProperty:
    def test_paper_examples(self):
        for spec in (OrsSpec(ConwayWord((3,)), 2, (1,)),
                     OrsSpec(ConwayWord((3,)), 3, (1, 0)),
                     OrsSpec(ConwayWord((2, -2)), 3, (0, -1))):
            word, witness = ors_factor_property(spec)
            assert witness == "P_A"

    def test_certificate_failure_raises(self, monkeypatch):
        monkeypatch.setattr(epi, "exact_divide", lambda num, den: None)
        with pytest.raises(EpiError):
            ors_factor_property(OrsSpec(ConwayWord((3,)), 3, (1, 0)))

    def test_certificate_failure_raises_under_optimize(self):
        # the certificate must not be an assert, which -O removes
        code = (
            "from twobridge import epi\n"
            "from twobridge.conway import ConwayWord\n"
            "epi.exact_divide = lambda num, den: None\n"
            "spec = epi.OrsSpec(ConwayWord((3,)), 3, (1, 0))\n"
            "try:\n"
            "    epi.ors_factor_property(spec)\n"
            "except epi.EpiError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(twobridge.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            x for x in (src, env.get("PYTHONPATH")) if x)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_plan_errors_other_than_coloring_propagate(self, monkeypatch):
        def broken(word, orientation=None):
            raise RuntimeError("not an orientation problem")

        monkeypatch.setattr(epi, "plan_plat", broken)
        with pytest.raises(RuntimeError):
            ors_factor_property(OrsSpec(ConwayWord((3,)), 2, (1,)))

    def test_randomized(self):
        rng = random.Random(4242)
        done = 0
        while done < 30:
            m = rng.randint(1, 3)
            seed = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m))
            n = rng.randint(2, 5)
            c = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(n - 1))
            try:
                seed_word = ConwayWord(seed)
                slope(seed_word)
                spec = OrsSpec(seed_word, n, c)
                word = ors_word(spec)
                slope(word)
            except Exception:
                continue
            ors_factor_property(spec, certify_exact=False)
            done += 1

    def test_ui_pattern_mod_seed(self):
        # Reduced mod P_A/u, the u_i-sequence of the expansion is the seed's
        # sequence, a zero, then +- the reversed sequence, and so on;
        # compared through squares.
        spec = OrsSpec(ConwayWord((2, 3)), 3, (1, 2))
        word = ors_word(spec)
        p_a = rep_polynomial(slope(spec.seed))
        core = p_a.strip_power(1)
        plan = plan_plat(word)
        ui, _, _, _ = color_plan(plan, modulus=core)
        seed_ui, _, _, _ = color_plan(plan_plat(spec.seed), modulus=core)
        m = len(spec.seed.blocks)
        pattern = list(seed_ui)
        expect = []
        for i in range(spec.type_n):
            block = pattern if i % 2 == 0 else list(reversed(pattern))
            expect.extend(block)
            if i < spec.type_n - 1:
                expect.append(None)  # the 2c block: zero mod the seed poly
        assert len(ui) == len(expect)
        for got, want in zip(ui, expect):
            if want is None:
                assert got.is_zero()
            else:
                assert rem_monic(got * got - want * want, core).is_zero()

    # C[-3,-3], type 5: orientation (1,1) is tried first and is the wrong
    # one; colored in full mod the seed core, its coefficients grow doubly
    # exponentially (alpha of the expansion is 10,225,150)
    FAULT_SPEC = OrsSpec(ConwayWord((-3, -3)), 5, (2, 2, 2, -1))

    def test_fault_spec(self):
        word, witness = ors_factor_property(self.FAULT_SPEC)
        assert slope(word).alpha == 10225150
        assert witness == "P_A"

    def test_screened_orientation_is_not_colored_in_full(self, monkeypatch):
        colored = []

        def recording(plan, modulus=None):
            colored.append((plan.orientation, plan.k))
            return color_plan(plan, modulus)

        monkeypatch.setattr(epi, "color_plan", recording)
        word, witness = ors_factor_property(self.FAULT_SPEC)
        prefix = len(self.FAULT_SPEC.seed.blocks)
        wrong = [k for o, k in colored if o == (1, 1)]
        assert wrong and all(k == prefix for k in wrong)
        assert ((1, -1), len(word.blocks)) in colored

    def test_one_block_seeds_certified(self):
        # seeds C[n], 2 <= |n| <= 5 (C[+-1] is the unknot); exact division
        # certifies the expansions with alpha <= 400
        certified = 0
        for n in (-5, -4, -3, -2, 2, 3, 4, 5):
            for type_n in (2, 3):
                for c in itertools.product(range(-2, 3), repeat=type_n - 1):
                    spec = OrsSpec(ConwayWord((n,)), type_n, c)
                    _, witness = ors_factor_property(spec, certify_exact=True)
                    assert witness == "P_A", spec
                    certified += slope(ors_word(spec)).alpha <= 400
        assert certified > 100

    def test_certificate_checks_the_returned_witness(self, monkeypatch):
        # a division by the trefoil seed's iu-companion, not the returned
        # witness P_A, certifies nothing
        spec = OrsSpec(ConwayWord((3,)), 3, (1, 0))
        word, witness = ors_factor_property(spec)
        assert witness == "P_A"
        other = iu_variant(rep_polynomial(slope(spec.seed)))
        assert other != rep_polynomial(slope(spec.seed))
        monkeypatch.setattr(epi, "exact_divide",
                            lambda num, den: num if den == other else None)
        with pytest.raises(EpiError):
            ors_factor_property(spec)

    @pytest.mark.parametrize("spec", [
        OrsSpec(ConwayWord((3,)), 3, (1, 0)),      # knot expansion
        OrsSpec(ConwayWord((2, 3)), 2, (1,)),      # link expansion
    ])
    def test_no_vanishing_coloring_raises(self, monkeypatch, spec):
        # if no orientation's full coloring vanishes mod P_A, the check
        # raises instead of returning a witness
        def never_zero(plan, modulus=None):
            ui, vecs, _, companion = color_plan(plan, modulus)
            return ui, vecs, GPoly.one(), companion

        monkeypatch.setattr(epi, "color_plan", never_zero)
        with pytest.raises(EpiError, match="does not divide"):
            ors_factor_property(spec, certify_exact=False)

    def test_certificate_slope_gives_the_expansion_word_set(self):
        # the certificate colors the expansion's slope on its canonical
        # word; the expansion word itself gives the same polynomials (seeds
        # of 1-2 blocks from +-1..+-3, types 2-3, c_i in {+-1, +-2})
        swept = 0
        for m in (1, 2):
            for seed in itertools.product((-3, -2, -1, 1, 2, 3), repeat=m):
                for type_n in (2, 3):
                    for c in itertools.product((-2, -1, 1, 2),
                                               repeat=type_n - 1):
                        try:
                            seed_word = ConwayWord(seed)
                            slope(seed_word)
                            spec = OrsSpec(seed_word, type_n, c)
                            word = ors_word(spec)
                            frac = slope(word)
                        except ValueError:
                            continue
                        if frac.alpha > 400:
                            continue
                        assert ({p for _, p in rep_poly_set(word)}
                                == {p for _, p in rep_poly_set(frac)}), word
                        swept += 1
        assert swept == 408


class TestCensus:
    def test_classes_alpha7(self):
        reps = class_representatives(7)
        assert Fraction(3, 1) in reps and Fraction(7, 3) in reps
        assert Fraction(5, 2) in reps
        assert Fraction(4, 1) in reps and Fraction(6, 1) in reps
        # beta and beta^-1 collapse
        assert Fraction(7, 5) not in reps

    def test_records_and_idempotence(self, tmp_path):
        out = tmp_path / "census.jsonl"
        records, edges = census_build(7, out=str(out), geometry=False)
        text1 = out.read_text()
        census_build(7, out=str(out), geometry=False)
        assert out.read_text() == text1
        lines = [json.loads(l) for l in text1.splitlines()]
        recs = [l for l in lines if l.get("type") != "edge"]
        assert all(r["schema"] == 1 for r in recs)
        bykey = {(r["alpha"], r["beta"]): r for r in recs}
        assert bykey[(3, 1)]["rep_poly_text"] == "u^3 - u"
        assert bykey[(3, 1)]["mirror_of"] == [3, 2]

    def test_geometry_run_over_exact_run_has_geometry(self, tmp_path):
        out = str(tmp_path / "census.jsonl")
        census_build(5, out=out, geometry=False)
        records, _ = census_build(5, out=out, geometry=True)
        knots = [r for r in records if r["is_knot"]]
        assert knots and all(r["representations"] for r in knots)
        assert all(r["geometry"] for r in records)

    def test_run_at_new_precision_records_it(self, tmp_path):
        out = str(tmp_path / "census.jsonl")
        census_build(5, out=out, geometry=False, precision=128)
        records, _ = census_build(5, out=out, geometry=False, precision=192)
        assert {r["precision_bits"] for r in records} == {192}
        with open(out) as fh:
            stored = [json.loads(l) for l in fh]
        assert {r["precision_bits"] for r in stored if "alpha" in r} == {192}

    def test_census_over_an_existing_file_replaces_it(self, tmp_path):
        # a non-JSON line, a stub record for a class of the run and the
        # records of a larger run are all replaced by the run
        fresh = tmp_path / "fresh.jsonl"
        expect = census_build(7, out=str(fresh), geometry=False)
        larger = tmp_path / "larger.jsonl"
        census_build(9, out=str(larger), geometry=False)
        out = tmp_path / "census.jsonl"
        stub = {"alpha": 3, "beta": 1, "geometry": False,
                "precision_bits": 128}
        out.write_text("not json\n" + json.dumps(stub) + "\n"
                       + larger.read_text())
        assert census_build(7, out=str(out), geometry=False) == expect
        assert out.read_text() == fresh.read_text()

    def test_record_geometry(self):
        rec = build_record(Fraction(5, 2), rep_poly_set(Fraction(5, 2)),
                           geometry=True, precision=128)
        assert rec["representations"]
        vol = rec["representations"][0]["complex_volume"]
        assert abs(abs(float(vol["re"])) - 2.029883212819) < 1e-6

    def test_each_class_colored_and_rooted_once(self, monkeypatch):
        # the census colors each class's rep_poly_set once, for records and
        # edges alike, a knot's representations reuse its split's roots,
        # and the geometry runs once per conjugate pair: 51 of the 66
        # representations at alpha <= 11
        from twobridge import coloring, geometry
        calls = {"color": 0, "roots": 0, "arcs": 0, "regions": 0,
                 "volume": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(coloring, "color_plan",
                            counted("color", coloring.color_plan))
        roots = counted("roots", geometry.find_roots)
        monkeypatch.setattr(geometry, "find_roots", roots)
        monkeypatch.setattr(epi, "find_roots", roots)
        for key, name in (("arcs", "arc_vectors_at_root"),
                          ("regions", "region_coloring"),
                          ("volume", "complex_volume")):
            monkeypatch.setattr(epi, name, counted(key, getattr(epi, name)))
        census_build(11, geometry=True)
        assert calls == {"color": 82, "roots": 30, "arcs": 51,
                         "regions": 51, "volume": 51}

    def test_conjugate_members_match_their_own_roots(self, monkeypatch):
        # a representation the census derives from its conjugate partner
        # equals the one computed at its own root, over every knot class
        # with alpha <= 13 at 256 bits; real and purely imaginary roots
        # are always computed
        from twobridge import geometry
        prec = 256
        runs, computed = [], []
        arcs = epi.arc_vectors_at_root
        representations = epi._representations

        def recording_arcs(word, r, precision):
            computed.append(r)
            return arcs(word, r, precision=precision)

        def recording_representations(word, roots, precision):
            computed.clear()
            out = representations(word, roots, precision)
            runs.append((word, list(computed), out))
            return out

        monkeypatch.setattr(epi, "arc_vectors_at_root", recording_arcs)
        monkeypatch.setattr(epi, "_representations",
                            recording_representations)
        census_build(13, geometry=True, precision=prec)
        tol = mp.ldexp(1, -200)
        derived = 0
        with mp.workprec(prec):
            pi2 = mp.pi ** 2
            for word, computed, out in runs:
                for r, c, v in out:
                    if r in computed:
                        continue
                    derived += 1
                    assert min(abs(r.real), abs(r.imag)) > 1e-20, (word, r)
                    data = geometry.region_coloring(
                        arcs(word, r, precision=prec))
                    c1 = geometry.cusp_shape(data)
                    v1 = geometry.complex_volume(data)
                    assert abs(c - c1) <= tol, (word, r)
                    assert abs(mp.re(v) - mp.re(v1)) <= tol, (word, r)
                    d = mp.fmod(mp.im(v) - mp.im(v1), pi2)
                    assert min(abs(d), pi2 - abs(d)) <= tol, (word, r)
        assert len(runs) == 26
        assert derived == 28

    def test_one_representation_per_root_pair(self):
        # r and -r give the same representation: a knot has one per pair
        # of its alpha - 1 nonzero roots
        records, _ = census_build(11, geometry=True)
        for rec in records:
            if not rec["is_knot"]:
                continue
            reps = rec["representations"]
            assert len(reps) == (rec["alpha"] - 1) // 2, rec["beta"]
            roots = [complex(float(x["root"]["re"]), float(x["root"]["im"]))
                     for x in reps]
            for i, r in enumerate(roots):
                for s in roots[i + 1:]:
                    assert abs(r + s) > 1e-6, (rec["beta"], rec["alpha"])

    def test_partial_order_sanity(self):
        records, edges = census_build(13, geometry=False)
        knots = {(r["alpha"], r["beta"]) for r in records if r["is_knot"]}
        adj = {}
        for e in edges:
            adj.setdefault(tuple(e["from"]), set()).add(tuple(e["to"]))
        # transitivity on knots
        for a in knots:
            for b in adj.get(a, ()):
                if b not in knots:
                    continue
                for c in adj.get(b, ()):
                    if c in knots and c != a:
                        assert c in adj.get(a, set()), (a, b, c)

    def test_j44_minimal_under_25(self):
        f = slope(parse_descriptor("J(4,4)"))
        assert (f.alpha, f.beta) == (15, 4)
        p = rep_polynomial(f)
        expect = P("u") * P("u^3+2*u+1") * P("u^3+2*u-1") * \
            P("u^4+u^3+2*u^2+2*u+1") * P("u^4-u^3+2*u^2-2*u+1")
        assert p == sign_normalize(expect)
        for target in class_representatives(24):
            if not target.is_knot:
                continue
            if target.unoriented_class() in ((15, 4), (15, 11)):
                continue
            mirror_keys = {target.unoriented_class(),
                           target.mirror().unoriented_class()}
            if (15, 4) in mirror_keys:
                continue
            assert divisibility_check(f, target) is None, target
