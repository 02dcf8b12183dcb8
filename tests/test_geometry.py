import mpmath as mp
import pytest

from twobridge.conway import ConwayWord, Fraction, parse_descriptor
from twobridge.coloring import color_general_word, rep_polynomial, ui_sequence
from twobridge.geometry import (
    GeometryError,
    arc_vectors_at_root,
    block_holonomy_traces,
    complex_volume,
    cusp_shape,
    dilog,
    eval_poly,
    find_roots,
    gluing_residual,
    meridian_matrix,
    region_coloring,
    volume_reduce,
    volumes_agree,
)
from twobridge.polys import parse_poly

P = parse_poly


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
            coeffs = [mp.mpf(c.re) for c in reversed(p.coeffs())]
            theirs = [mp.mpc(r) for r in
                      mp.polyroots(coeffs, maxsteps=200, extraprec=100)]
            assert len(mine) == len(theirs)
            for a in mine:
                assert min(abs(a - b) for b in theirs) < 1e-25

    def test_residual_bound_met_for_large_degree(self):
        p = rep_polynomial(Fraction(61, 17))
        roots = find_roots(p, precision=256)
        norm = max(abs(mp.mpf(c.re)) for c in p.coeffs())
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
        # tr(A_i B_i) = 2 - u_i(r)^2 for the pair entering each block
        word = ConwayWord((2, 3))
        seq = ui_sequence(word)
        real, plus, _ = table_roots(128)
        for r in (real, plus):
            rep = arc_vectors_at_root(word, r, precision=128)
            with mp.workprec(128):
                for tr_val, u_poly in zip(block_holonomy_traces(rep), seq):
                    want = 2 - eval_poly(u_poly, r) ** 2
                    assert abs(tr_val - want) < 1e-25

    def test_meridian_matrix_parabolic(self):
        m = meridian_matrix((mp.mpc(2, 1), mp.mpc(0, 3)))
        tr = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert abs(tr - 2) < 1e-20 and abs(det - 1) < 1e-20


class TestRegionColoring:
    def test_consistency_and_genericity(self):
        real, _, _ = table_roots(128)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), real, precision=128)
        data = region_coloring(rep)
        assert data.consistency_residual < 1e-15
        assert len(data.region_vectors) == 7
        assert all(abs(w) > 1e-9 for w in data.w.values())

    def test_wrong_rule_raises(self):
        real, _, _ = table_roots(128)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), real, precision=128)
        with pytest.raises(GeometryError):
            region_coloring(rep, rule_sign=-1)

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
    def test_resampling(self):
        real, plus, _ = table_roots(160)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), plus, precision=160)
        base_data = region_coloring(rep, seed=1)
        c0 = cusp_shape(base_data)
        v0 = complex_volume(base_data)
        for seed in range(2, 8):
            data = region_coloring(rep, seed=seed)
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

    def test_mirror_volume_sign(self):
        # mirror diagram, paired root: real part of the volume flips
        _, plus, _ = table_roots(160)
        rep = arc_vectors_at_root(ConwayWord((2, 3)), plus, precision=160)
        v = complex_volume(region_coloring(rep))
        mirror = ConwayWord((-2, -3))
        roots_m = find_roots(color_general_word(mirror).rep_poly, precision=160)
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
