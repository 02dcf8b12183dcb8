import functools

import mpmath as mp
import pytest

from twobridge.conway import ConwayWord, Fraction, canonical_word, \
    parse_descriptor, transform_word
from twobridge import geometry
from twobridge.coloring import color_general_word, det, plan_plat, \
    rep_polynomial, ui_sequence
from twobridge.geometry import (
    GeometryError,
    arc_vectors_at_root,
    complex_volume,
    cusp_shape,
    dilog,
    find_roots,
    gluing_residual,
    region_coloring,
    volume_reduce,
)
from twobridge.epi import class_representatives
from twobridge.geometry import root_pairs
from twobridge.polys import GPoly, PolyMatrix2, horner, parse_poly

P = parse_poly


def eval_poly(p, z):
    """p(z) by Horner's rule at the current mpmath precision."""
    return horner([mp.mpc(c) for c in p.c], z) if p.c else mp.mpc(0)

_VOLUME_TOL = 1e-6


def volumes_agree(v1, v2) -> bool:
    """Equal real parts; imaginary parts equal mod pi^2 (circular distance),
    both within _VOLUME_TOL."""
    pi2 = float(mp.pi ** 2)
    if abs(mp.re(v1) - mp.re(v2)) > _VOLUME_TOL:
        return False
    d = (float(mp.im(v1)) - float(mp.im(v2))) % pi2
    return min(d, pi2 - d) < _VOLUME_TOL


def meridian_matrix(v) -> PolyMatrix2:
    """A = I + v*vhat for a coloring vector v = (v1, v2); vhat = (-v2, v1)."""
    v1, v2 = v
    return PolyMatrix2(1 - v1 * v2, v1 * v1, -v2 * v2, 1 + v1 * v2)


def block_holonomy_traces(rep):
    """tr(A_i B_i) for the pair entering each block; equals 2 - u_i(r)^2."""
    with mp.workprec(rep.precision):
        return [(meridian_matrix(x) * meridian_matrix(y)).trace()
                for x, y in rep.trace.entering]


def table_roots(precision=256):
    roots = find_roots(rep_polynomial(Fraction(7, 3)), precision=precision)
    real = [r for r in roots if abs(mp.im(r)) < 1e-20 and mp.re(r) > 0.5][0]
    plus = [r for r in roots if mp.im(r) > 0.1 and mp.re(r) > 0][0]
    minus = [r for r in roots if mp.im(r) < -0.1 and mp.re(r) > 0][0]
    return real, plus, minus


class TestFindRoots:
    def test_trefoil(self):
        roots = find_roots(P("u^3-u"), precision=128)
        vals = sorted(complex(r).real for r in roots)
        assert len(roots) == 3
        assert abs(vals[0] + 1) < 1e-30 or abs(vals[0] + 1) < 1e-15
        assert max(abs(eval_poly(P("u^3-u"), r)) for r in roots) < 1e-30

    def test_table_values(self):
        roots = find_roots(P("u^3+u^2-1"), precision=256)
        real = [r for r in roots if abs(mp.im(r)) < 1e-40][0]
        assert abs(real - mp.mpf("0.75487766")) < 1e-7

    def test_zero_multiplicity(self):
        roots = find_roots(P("u^4") * P("u^2-4"), precision=64)
        assert sum(1 for r in roots if r == 0) == 4

    def test_deterministic(self):
        a = find_roots(P("u^7-u^5+2*u^3-u"), precision=128)
        b = find_roots(P("u^7-u^5+2*u^3-u"), precision=128)
        assert a == b

    def test_against_mpmath_polyroots(self):
        # independent oracle: mpmath's Durand-Kerner implementation
        p = rep_polynomial(Fraction(13, 5))
        mine = find_roots(p, precision=128)
        with mp.workprec(160):
            coeffs = [mp.mpf(c) for c in reversed(p.c)]
            theirs = [mp.mpc(r) for r in
                      mp.polyroots(coeffs, maxsteps=200, extraprec=100)]
            assert len(mine) == len(theirs)
            for a in mine:
                assert min(abs(a - b) for b in theirs) < 1e-25

    def test_large_coefficients_give_true_roots_or_raise(self):
        # max|c| = 10^400 > 2^64: a gate scaled by max|c| alone passes
        # points of modulus ~1e398 that are far from every root
        p = GPoly([-10 ** 400, 0, 1]) * P("u-3")
        try:
            roots = find_roots(p, precision=128)
        except GeometryError:
            return
        with mp.workprec(128):
            want = [mp.mpf(3), mp.mpf(10) ** 200, -mp.mpf(10) ** 200]
            for w in want:
                assert min(abs(r - w) for r in roots) < 1e-20 * abs(w)

    def test_residual_bound_met_for_large_degree(self):
        p = rep_polynomial(Fraction(61, 17))
        roots = find_roots(p, precision=256)
        norm = max(abs(mp.mpf(c)) for c in p.c)
        with mp.workprec(288):
            for r in roots:
                scale = max(mp.mpf(1), abs(r)) ** p.degree
                assert abs(eval_poly(p, r)) < mp.mpf(2) ** (-128) * norm * scale


class TestDilog:
    def test_classical_values(self):
        with mp.workprec(300):
            assert abs(dilog(0)) == 0
            assert abs(dilog(1) - mp.pi ** 2 / 6) < 1e-70
            assert abs(dilog(-1) + mp.pi ** 2 / 12) < 1e-70

    def test_inversion_identity(self):
        # Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2/2 off the cut
        with mp.workprec(300):
            z = mp.mpc(-2, 1)
            lhs = dilog(z) + dilog(1 / z)
            rhs = -mp.pi ** 2 / 6 - mp.log(-z) ** 2 / 2
            assert abs(lhs - rhs) < 1e-70

    def test_precision(self):
        lo = dilog(mp.mpc(0.3, 0.4), precision=64)
        hi = dilog(mp.mpc(0.3, 0.4), precision=320)
        assert abs(lo - hi) < mp.mpf(2) ** (-58)


def _kernel_grid():
    """Points on and beside every boundary of dilog's reductions: |z| = 1,
    Re z = 1/2, the neighbourhoods of 0, +-1 and e^(+-i pi/3), both sides
    of (-inf, 0) and of the cut (1, inf), and |z| up to 10^6."""
    with mp.workprec(600):
        eps = mp.mpf(2) ** -40
        pts = []
        for k in range(12):
            u = mp.expjpi(mp.mpf(2 * k + 1) / 12)
            pts += [u, u * (1 - eps), u * (1 + eps)]
        for y in (-2, -0.9, -0.5, -1e-3, 0, 1e-3, 0.5, 0.9, 2):
            for dx in (-eps, 0, eps):
                pts.append(mp.mpc(mp.mpf(0.5) + dx, y))
        for c in (0, 1, -1, mp.expjpi(mp.mpf(1) / 3),
                  mp.expjpi(mp.mpf(-1) / 3)):
            for r in (eps, mp.mpf(1e-6)):
                for k in range(8):
                    pts.append(c + r * mp.expjpi(mp.mpf(k) / 4))
        for x in (-1e6, -1e3, -10, -2, -1, -0.5, -eps,
                  1 + eps, 1.5, 2, 10, 1e3, 1e6):
            for s in (1, -1):
                pts.append(mp.mpc(x, s * eps))
        for r in (10, 1e3, 1e6):
            for k in range(8):
                pts.append(r * mp.expjpi(mp.mpf(2 * k + 1) / 8))
    return pts


class TestDilogKernel:
    @pytest.mark.parametrize("prec", [53, 128, 256, 512])
    def test_matches_polylog_across_reductions(self, prec):
        # relative error 2^(8-prec); absolute where |Li2| < 1
        bad = []
        for z in _kernel_grid():
            with mp.workprec(prec):
                z = mp.mpc(z)
                got = dilog(z, precision=prec)
                want = mp.polylog(2, z)
                err = abs(got - want) / max(1, abs(want))
                if err > mp.ldexp(1, 8 - prec):
                    bad.append((z, float(mp.log(err, 2))))
        assert not bad

    @pytest.mark.parametrize("prec", [53, 128, 256, 512, 1024])
    def test_relative_accuracy_near_zero(self, prec):
        # Li2(z) ~ z: a small z keeps its relative precision
        for k in (12, 40, 100, 700):
            for j in range(8):
                with mp.workprec(prec):
                    z = mp.expjpi(mp.mpf(2 * j + 1) / 8) * mp.ldexp(1, -k)
                    got = dilog(z, precision=prec)
                    want = mp.polylog(2, z)
                    assert abs(got - want) <= mp.ldexp(abs(want), 8 - prec)

    @pytest.mark.parametrize("prec", [53, 128, 256, 512])
    def test_returned_log_is_log_one_minus_z(self, prec):
        # the volume gradient uses the log(1 - z) that _li2 returns in
        # place of its own; None leaves the gradient to take it
        grid = _kernel_grid()
        returned = 0
        for z in grid:
            with mp.workprec(prec):
                z = mp.mpc(z)
                _, log_1mz = geometry._li2(z)
                if log_1mz is None:
                    continue
                returned += 1
                want = mp.log(1 - z)
                assert abs(log_1mz - want) <= mp.ldexp(
                    max(1, abs(want)), 8 - prec), z
        assert returned > len(grid) // 3

    def test_longest_series_at_high_precision(self):
        # at e^(+-i pi/3), and beside it outside the unit circle, |w| =
        # pi/3: the Bernoulli tail is at its longest, and the fixed-point
        # error of each of its ~600 steps grows by |w^2| ~ 1.1 per step
        prec, ref = 3072, 3136
        with mp.workprec(prec):
            eps = mp.ldexp(1, -40)
            pts = [mp.expjpi(s * mp.mpf(1) / 3) * f
                   for s in (1, -1) for f in (1, 1 + eps)]
        for z in pts:
            got = dilog(z, precision=prec)
            want = dilog(z, precision=ref)
            with mp.workprec(ref):
                assert abs(got - want) <= mp.ldexp(max(1, abs(want)),
                                                   8 - prec)

    def test_volume_does_not_call_polylog_off_the_cut(self, monkeypatch):
        polylog = mp.polylog

        def cut_only(s, z):
            z = mp.mpc(z)
            if z.imag != 0 or z.real < 1:
                raise AssertionError("polylog called at %s" % z)
            return polylog(s, z)

        monkeypatch.setattr(mp, "polylog", cut_only)
        roots = find_roots(rep_polynomial(Fraction(5, 2)), precision=192)
        r = [z for z in roots if mp.im(z) > 0.3 and mp.re(z) > 0][0]
        rep = arc_vectors_at_root(ConwayWord((2, 2)), r, precision=192)
        v = complex_volume(region_coloring(rep))
        assert abs(abs(mp.re(v)) - mp.mpf("2.029883212819")) < 1e-9


class TestArcVectors:
    def test_trefoil_closes_at_one(self):
        rep = arc_vectors_at_root(ConwayWord((3,)), 1, precision=128)
        assert rep.closure_residual < 1e-30

    def test_c23_closure(self):
        real, _, _ = table_roots(128)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), real, precision=128)
        assert rep.closure_residual < 1e-6

    def test_zero_root_rejected(self):
        with pytest.raises(GeometryError):
            arc_vectors_at_root(ConwayWord((3,)), 0)

    def test_non_root_rejected(self):
        with pytest.raises(GeometryError):
            arc_vectors_at_root(ConwayWord((3,)), mp.mpf("1.5"))

    def test_region_count(self):
        real, _, _ = table_roots(128)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), real, precision=128)
        assert rep.trace.n_regions == 5 + 2

    def test_block_holonomy_traces(self):
        # tr(A_i B_i) = 2 - u_i(r)^2 for the pair entering each block, at
        # every nonzero root of every class with alpha <= 15 and of its
        # mirror word: the numeric walk and the exact engine share one
        # crossing transfer, on left- and right-handed blocks, parallel
        # and anti-parallel alike
        prec = 256
        kinds = set()
        for f in class_representatives(15):
            word = canonical_word(f)
            for w in (word, transform_word(word, "mirror")):
                kinds.update((bp.hand, bp.parallel)
                             for bp in plan_plat(w).blocks if bp.count)
                seq = ui_sequence(w)
                for r in find_roots(rep_polynomial(w), precision=prec):
                    if r == 0:
                        continue
                    rep = arc_vectors_at_root(w, r, precision=prec)
                    with mp.workprec(prec):
                        traces = block_holonomy_traces(rep)
                        assert len(traces) == len(seq)
                        for tr_val, u_poly in zip(traces, seq):
                            u = eval_poly(u_poly, r)
                            bound = mp.ldexp(max(1, abs(u) ** 2), -prec // 2)
                            assert abs(tr_val - (2 - u ** 2)) <= bound, (w, r)
        assert kinds == {(1, True), (1, False), (-1, True), (-1, False)}

    def test_meridian_matrix_parabolic(self):
        m = meridian_matrix((mp.mpc(2, 1), mp.mpc(0, 3)))
        d = det((m.a11, m.a12), (m.a21, m.a22))
        assert abs(m.trace() - 2) < 1e-20 and abs(d - 1) < 1e-20


class TestRegionColoring:
    def test_consistency_and_genericity(self):
        real, _, _ = table_roots(128)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), real, precision=128)
        data = region_coloring(rep)
        assert data.consistency_residual < 1e-15
        assert len(data.region_vectors) == 7
        assert all(abs(w) > 1e-9 for w in data.w.values())

    def test_wrong_rule_raises(self, monkeypatch):
        real, _, _ = table_roots(128)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), real, precision=128)
        monkeypatch.setattr(geometry, "REGION_RULE_SIGN", -1)
        with pytest.raises(GeometryError):
            region_coloring(rep)

    def test_gluing_equations(self):
        real, plus, _ = table_roots(192)
        for r in (real, plus):
            rep = arc_vectors_at_root(ConwayWord((2, 3)), r, precision=192)
            assert gluing_residual(region_coloring(rep)) < 1e-40


class TestTables:
    def test_cusp_table_c23(self):
        real, plus, minus = table_roots()
        want = {
            real: mp.mpf("-9.01951066"),
            plus: mp.mpc("-2.49024466", "2.97944706"),
            minus: mp.mpc("-2.49024466", "-2.97944706"),
        }
        for r, target in want.items():
            rep = arc_vectors_at_root(ConwayWord((2, 3)), r)
            c = cusp_shape(region_coloring(rep))
            assert abs(c - target) < 1e-6

    def test_volume_table_c23(self):
        real, plus, minus = table_roots()
        want = {
            real: mp.mpc("0", "1.11345455"),
            plus: mp.mpc("-2.82812208", "-3.02412837"),
            minus: mp.mpc("2.82812208", "-3.02412837"),
        }
        for r, target in want.items():
            rep = arc_vectors_at_root(ConwayWord((2, 3)), r)
            v = complex_volume(region_coloring(rep))
            assert volumes_agree(v, target)

    def test_fig8_geometric_volume(self):
        roots = find_roots(rep_polynomial(Fraction(5, 2)), precision=192)
        r = [z for z in roots if mp.im(z) > 0.3 and mp.re(z) > 0][0]
        rep = arc_vectors_at_root(ConwayWord((2, 2)), r, precision=192)
        v = complex_volume(region_coloring(rep))
        assert abs(abs(mp.re(v)) - mp.mpf("2.029883212819")) < 1e-9

    def test_fig8_chern_simons_is_zero(self):
        # the CS part is 0 mod pi^2: rounding below pi^2 must not wrap
        roots = find_roots(rep_polynomial(Fraction(5, 2)), precision=256)
        vols = []
        for r in roots:
            if abs(r) < 1e-12:
                continue
            rep = arc_vectors_at_root(ConwayWord((2, 2)), r, precision=256)
            vols.append(complex_volume(region_coloring(rep)))
        assert len(vols) == 4
        assert {mp.sign(mp.re(v)) for v in vols} == {-1, 1}
        for v in vols:
            assert 0 <= mp.im(v) < mp.mpf(2) ** -100


class TestInvariance:
    def test_resampling(self, monkeypatch):
        real, plus, _ = table_roots(160)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), plus, precision=160)
        monkeypatch.setattr(geometry, "_GENERIC_SEED", 1)
        base_data = region_coloring(rep)
        c0 = cusp_shape(base_data)
        v0 = complex_volume(base_data)
        for seed in range(2, 8):
            monkeypatch.setattr(geometry, "_GENERIC_SEED", seed)
            data = region_coloring(rep)
            assert abs(cusp_shape(data) - c0) < 1e-6
            assert volumes_agree(complex_volume(data), v0)

    def test_negated_root_same_outputs(self):
        real, _, _ = table_roots(160)
        with mp.workprec(160):
            pair = (real, -real)  # negate at full precision
        for r in pair:
            rep = arc_vectors_at_root(ConwayWord((2, 3)), r, precision=160)
            data = region_coloring(rep)
            assert abs(cusp_shape(data) - mp.mpf("-9.01951066")) < 1e-6

    def test_conjugate_root_conjugates_outputs(self):
        """cusp(conj r) = conj cusp(r) and vol(conj r) = -conj vol(r), the
        imaginary parts mod pi^2, wherever +-conj r is the root of another
        representation, over every knot class with alpha <= 31, both
        members computed at their own roots, at 128 bits.

        Why it holds: a knot's rep-polynomial has integer coefficients, so
        conj r is a root, and the plat propagation at conj r gives the
        conjugate arc vectors.  Region variables grown from the conjugate
        generic vector are conjugate too, so every Li2 argument w_a/w_b and
        every log conjugates: W0 becomes conj W0 and vol = -i W0 becomes
        -conj vol.  Cusp shape and volume do not depend on the generic
        vector (test_resampling), so region_coloring's own vector gives
        the same values.  The census derives the second member of each pair
        from the first (epi._representations), so this pins the identity
        over every pair it can meet up to alpha 31; real and purely
        imaginary roots are their own partners and are skipped."""
        prec = 128
        tol = mp.ldexp(1, -100)
        pairs = members = 0
        for frac in class_representatives(31):
            if not frac.is_knot:
                continue
            word = canonical_word(frac)
            roots = find_roots(rep_polynomial(frac), precision=prec)
            with mp.workprec(prec):
                near = mp.ldexp(1, -(prec // 2))
                reps = [r for r in root_pairs([r for r in roots if r != 0])
                        if min(abs(r.real), abs(r.imag)) > near]
                members += len(reps)
                out = []
                for r in reps:
                    data = region_coloring(
                        arc_vectors_at_root(word, r, precision=prec))
                    out.append((r, cusp_shape(data), complex_volume(data)))
                for i, (r, c, v) in enumerate(out):
                    gaps = [min(abs(s - mp.conj(r)), abs(s + mp.conj(r)))
                            for s, _, _ in out]
                    j = min(range(len(gaps)), key=gaps.__getitem__)
                    if j <= i or gaps[j] > near:
                        continue
                    pairs += 1
                    _, cj, vj = out[j]
                    assert abs(cj - mp.conj(c)) <= tol
                    assert abs(mp.re(vj) + mp.re(v)) <= tol
                    d = mp.fmod(mp.im(vj) - mp.im(v), mp.pi ** 2)
                    assert min(abs(d), mp.pi ** 2 - abs(d)) <= tol
        # every non-real, non-imaginary kept root is in one pair
        assert (pairs, members) == (437, 874)

    def test_mirror_volume_sign(self):
        # mirror diagram, paired root: real part of the volume flips
        _, plus, _ = table_roots(160)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), plus, precision=160)
        v = complex_volume(region_coloring(rep))
        mirror = ConwayWord((-2, -3))
        roots_m = find_roots(color_general_word(mirror), precision=160)
        best = None
        for rm in roots_m:
            if abs(rm) < 1e-10:
                continue
            repm = arc_vectors_at_root(mirror, rm, precision=160)
            vm = complex_volume(region_coloring(repm))
            if abs(mp.re(vm) + mp.re(v)) < 1e-6:
                best = vm
                break
        assert best is not None


class TestVolumeHelpers:
    def test_reduce_range(self):
        v = volume_reduce(mp.mpc(1, -5))
        assert 0 <= mp.im(v) < mp.pi ** 2
        assert mp.re(v) == 1

    def test_reduce_maps_pi2_less_rounding_to_zero(self):
        with mp.workprec(128):
            v = volume_reduce(mp.mpc(1, mp.pi ** 2 - mp.mpf(2) ** -100))
            assert mp.im(v) == 0
            v = volume_reduce(mp.mpc(1, mp.pi ** 2 - mp.mpf(2) ** -40))
            assert mp.im(v) > 9

    def test_agree_mod_pi2(self):
        a = mp.mpc(2, 1)
        b = mp.mpc(2, 1 + mp.pi ** 2)
        assert volumes_agree(a, b)
        assert not volumes_agree(a, mp.mpc(2.1, 1))


class TestRootPairs:
    def test_keeps_first_member_in_order(self):
        roots = find_roots(rep_polynomial(Fraction(7, 3)), precision=128)[1:]
        with mp.workprec(128):
            kept = root_pairs(roots)
        assert len(kept) == 3
        assert kept == [r for r in roots if r in kept]
        assert all(abs(r + s) > 1e-6 for r in kept for s in kept)

    def test_not_symmetric_raises(self):
        with mp.workprec(128):
            with pytest.raises(GeometryError):
                root_pairs([mp.mpc(1), mp.mpc(-1), mp.mpc(2), mp.mpc(-2.5)])
            with pytest.raises(GeometryError):
                root_pairs([mp.mpc(1), mp.mpc(-1), mp.mpc(3)])


class TestRootsLayer:
    def test_noise_ties_in_real_part_sort_by_imaginary_part(self):
        # the nonzero roots of 8/7 are purely imaginary; their real parts
        # are rounding noise and must not decide the order
        roots = find_roots(rep_polynomial(Fraction(8, 7)), precision=256)
        with mp.workprec(256):
            tied = [r for r in roots
                    if r != 0 and abs(r.real) < mp.ldexp(1, -128)]
            assert len(tied) == 6
            assert all(a.imag < b.imag for a, b in zip(tied, tied[1:]))

    def test_torus_knot_above_degree_42(self):
        # T(2,43): P has the nonzero roots 2 cos(j pi / 43), j = 1..42
        roots = find_roots(rep_polynomial(Fraction(43, 1)), precision=192)
        with mp.workprec(192):
            nonzero = sorted((r for r in roots if r != 0),
                             key=lambda r: r.real)
            want = sorted(2 * mp.cos(j * mp.pi / 43) for j in range(1, 43))
            assert len(nonzero) == 42
            for r, w in zip(nonzero, want):
                assert abs(r - w) < mp.ldexp(1, -176)

    def test_knots_to_alpha_15_match_polyroots(self):
        # an early Newton stop must not lose digits at 256 bits
        for f in class_representatives(15):
            if not f.is_knot:
                continue
            p = rep_polynomial(f)
            mine = [r for r in find_roots(p, precision=256) if r != 0]
            with mp.workprec(256):
                q = p.strip_zero_roots()[0]
                coeffs = [mp.mpf(c) for c in reversed(q.c)]
                theirs = mp.polyroots(coeffs, maxsteps=200, extraprec=512)
                assert len(mine) == len(theirs) == q.degree
                for b in theirs:
                    gap = min(abs(a - b) for a in mine)
                    assert gap < mp.ldexp(max(1, abs(b)), -240), (f, b)

    @pytest.mark.parametrize("beta, centre", [(7, 1), (17, 1j)])
    def test_triple_root_clusters_root_at_128_bits(self, beta, centre):
        # 7/24: R = -(y - 1)^3 (degree 8), so P has triple roots at +-1;
        # 17/24 has them at +-i
        p = rep_polynomial(Fraction(24, beta))
        roots = find_roots(p, precision=128)
        assert len(roots) == p.degree
        for s in (centre, -centre):
            assert sum(1 for r in roots if abs(r - s) < 1e-6) == 3


class TestRootsAboveDegree45:
    # from degree ~46 a float sweep alone could leave two iterates on one
    # root, and a per-root residual gate cannot see that
    CLASSES = [(2, 47), (4, 47), (6, 49), (11, 57), (1, 49), (1, 61)]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def nonzero_roots(beta, alpha):
        p = rep_polynomial(Fraction(alpha, beta))
        roots = find_roots(p, precision=256)
        nonzero = [r for r in roots if r != 0]
        assert len(roots) == p.degree
        assert len(nonzero) == p.degree - 1
        with mp.workprec(256):
            assert len(root_pairs(nonzero)) == (p.degree - 1) // 2
        return p.strip_zero_roots()[0], nonzero

    @staticmethod
    def assert_matched_one_to_one(mine, theirs):
        nearest = []
        for a in mine:
            gaps = [abs(a - b) for b in theirs]
            k = min(range(len(gaps)), key=gaps.__getitem__)
            assert gaps[k] < mp.ldexp(max(1, abs(theirs[k])), -240)
            nearest.append(k)
        assert sorted(nearest) == list(range(len(theirs)))

    @pytest.mark.parametrize("beta, alpha", CLASSES)
    def test_disjoint_inclusion_disks(self, beta, alpha):
        # the disk of radius n |q(r)/q'(r)| about any r holds a root of q;
        # n pairwise disjoint such disks hold one root each, so every root
        # is found once, to within its disk's radius
        q, mine = self.nonzero_roots(beta, alpha)
        n = q.degree
        dq = GPoly([k * c for k, c in enumerate(q.c)][1:])
        with mp.workprec(512):
            radii = [n * abs(eval_poly(q, r) / eval_poly(dq, r)) for r in mine]
            for r, rad in zip(mine, radii):
                assert rad < mp.ldexp(max(1, abs(r)), -240)
            for i in range(n):
                for j in range(i):
                    assert abs(mine[i] - mine[j]) > radii[i] + radii[j]

    @pytest.mark.parametrize("beta, alpha", CLASSES[:4])
    def test_match_polyroots(self, beta, alpha):
        q, mine = self.nonzero_roots(beta, alpha)
        with mp.workprec(256):
            coeffs = [mp.mpf(c) for c in reversed(q.c)]
            theirs = mp.polyroots(coeffs, maxsteps=200, extraprec=128)
            self.assert_matched_one_to_one(mine, theirs)

    @pytest.mark.parametrize("alpha", [49, 61])
    def test_torus_knots_match_closed_form(self, alpha):
        # T(2,alpha): the nonzero roots are 2 cos(j pi / alpha)
        _, mine = self.nonzero_roots(1, alpha)
        with mp.workprec(256):
            theirs = [2 * mp.cos(j * mp.pi / alpha) for j in range(1, alpha)]
            self.assert_matched_one_to_one(mine, theirs)

    @pytest.mark.parametrize("bits", [192, 256])
    @pytest.mark.parametrize("beta, centre", [(7, 1), (17, 1j)])
    def test_triple_root_clusters_root_at_192_and_256_bits(self, beta, centre,
                                                           bits):
        # the cluster members are backward-stable only, good to about 1e-17
        p = rep_polynomial(Fraction(24, beta))
        roots = find_roots(p, precision=bits)
        assert len(roots) == p.degree
        for s in (centre, -centre):
            assert sum(1 for r in roots if abs(r - s) < 1e-12) == 3
