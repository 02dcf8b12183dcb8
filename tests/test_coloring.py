import math
import random

import mpmath as mp
import pytest

from twobridge.conway import ConwayWord, Fraction, canonical_word, \
    even_expansion, parse_descriptor, slope
from twobridge.coloring import (
    ColoringError,
    block_transfer,
    color_even_expansion,
    color_general_word,
    color_plan,
    consistent_orientations,
    crossing_matrix,
    iu_variant,
    plan_plat,
    rep_poly_pair,
    rep_polynomial,
    torus_rep_poly,
    ui_sequence,
)
from twobridge.polys import GPoly, U, cheb, exact_divide, parse_poly, \
    sign_normalize, substitute_iu

P = parse_poly


def coprime(max_alpha, parity=None):
    for alpha in range(3, max_alpha + 1):
        if parity == "odd" and alpha % 2 == 0:
            continue
        if parity == "even" and alpha % 2 == 1:
            continue
        for beta in range(1, alpha):
            if math.gcd(alpha, beta) == 1:
                yield Fraction(alpha, beta)


class TestCrossingMatrix:
    def test_positive(self):
        X = crossing_matrix(U, 1)
        assert X.a11.is_zero() and X.a12 == -GPoly.one()
        assert X.a21 == GPoly.one() and X.a22 == -U
        assert X.det() == GPoly.one()

    def test_negative(self):
        X = crossing_matrix(U, -1)
        assert X.a22 == U

    def test_product_trace(self):
        t = (crossing_matrix(U, 1) * crossing_matrix(U, -1)).trace()
        assert t == P("-u^2-2")


class TestKnotExamples:
    def test_trefoil_vectors(self):
        res = color_general_word(ConwayWord((3,)))
        a_kf, b_kf = res.final_vectors
        assert a_kf == (U, P("u^2-1"))
        assert b_kf == (-P("u^2-1"), -P("u^3-2*u"))
        assert res.rep_poly == P("u^3-u")

    def test_5_2(self):
        assert color_general_word(ConwayWord((2, 3))).rep_poly == \
            U * P("u^6-u^4+2*u^2-1")

    def test_upside_down_5_2(self):
        assert color_general_word(ConwayWord((1, 2, 2))).rep_poly == \
            U * P("u^6+3*u^4+2*u^2-1")

    def test_fig8(self):
        assert rep_polynomial(Fraction(5, 2)) == P("u^5+u^3+u")

    def test_c225_factorization(self):
        h = P("u^12-2*u^10+u^9+4*u^8-u^7-3*u^6+3*u^5+3*u^4-u^3-u^2+2*u+1")
        p = rep_polynomial(parse_descriptor("C[2,2,5]"))
        assert p == sign_normalize(P("u^3-u") * h * h.substitute_neg())


class TestLinkExamples:
    def test_c214_both_down(self):
        res = color_general_word(ConwayWord((2, 1, 4)), orientation=(1, 1))
        expect = P("u^2") * P("u^6-3*u^4+4*u^2-1") * P("u^6-u^4+1")
        assert res.rep_poly == sign_normalize(expect)

    def test_whitehead_pair(self):
        p1, p2 = rep_poly_pair(ConwayWord((2, 1, 2)))
        want = {sign_normalize(P("u^4") * P("u^4+2*u^2+2")),
                sign_normalize(P("u^4") * P("u^4-2*u^2+2"))}
        assert {p1, p2} == want

    def test_c323_pair_displayed(self):
        p1, p2 = rep_poly_pair(ConwayWord((3, 2, 3)))
        e1 = P("u^2") * P("u^2-1") ** 3 * P("u^2-2") * \
            P("u^6-3*u^4+2*u^2+2") * P("u^8-2*u^6+2*u^2+1")
        e2 = P("u^2") * P("u^2+1") ** 3 * P("u^2+2") * \
            P("u^6+3*u^4+2*u^2-2") * P("u^8+2*u^6-2*u^2+1")
        assert (p1, p2) == (sign_normalize(e1), sign_normalize(e2))

    def test_pair_iu_relation(self):
        for frac in (Fraction(8, 3), Fraction(12, 5), Fraction(10, 3)):
            p1, p2 = rep_poly_pair(frac)
            assert iu_variant(p1) == p2 and iu_variant(p2) == p1

    def test_knot_input_rejected(self):
        with pytest.raises(ColoringError):
            rep_poly_pair(ConwayWord((3,)))


class TestUiSequence:
    def test_c225(self):
        seq = ui_sequence(ConwayWord((2, 2, 5)))
        assert [p for p in seq] == [U, -P("u^2"), -P("u^5-u^3+u")]

    def test_single_block(self):
        assert ui_sequence(ConwayWord((7,))) == (U,)

    def test_prefix_law(self):
        # u_{j+1} is P_{beta_j/alpha_j}(u) or +-i^alpha_j P(iu)
        for word in (ConwayWord((2, 3, 2)), ConwayWord((3, -2, 4)),
                     ConwayWord((2, 2, 5)), ConwayWord((1, 2, 2))):
            seq = ui_sequence(word)
            for j in range(1, len(word.blocks)):
                prefix = ConwayWord(word.blocks[:j])
                try:
                    frac = slope(prefix)
                except Exception:
                    # unknot prefix: degree law still forces u_{j+1} = +-u
                    assert sign_normalize(seq[j]) == U
                    continue
                pw = rep_polynomial(frac)
                twisted = sign_normalize(substitute_iu(pw))
                uj = sign_normalize(seq[j])
                if frac.is_knot:
                    assert uj in (pw, twisted)
                else:
                    pair = rep_poly_pair(prefix)
                    cands = set(pair) | {sign_normalize(substitute_iu(p))
                                         for p in pair}
                    assert uj in cands

    def test_parity_law(self):
        # u_i even or odd according to the prefix being link or knot
        for word in (ConwayWord((2, 3, 2, 2)), ConwayWord((3, 1, 4)),
                     ConwayWord((2, 2, 5))):
            seq = ui_sequence(word)
            for j in range(1, len(seq)):
                prefix_frac = slope(ConwayWord(word.blocks[:j]))
                par = 1 if prefix_frac.is_knot else 0
                for k in range(seq[j].degree + 1):
                    if seq[j].coeff(k) and k % 2 != par:
                        pytest.fail("u_%d parity broken for %s" % (j + 1, word))

    def test_orientation_reversal(self):
        # reversing every strand gives u~_i(u) = -u_i(-u)
        word = ConwayWord((2, 3, 2))
        d = plan_plat(word).orientation
        seq = ui_sequence(word, d)
        rev = ui_sequence(word, (-d[0], -d[1]))
        for a, b in zip(seq, rev):
            assert b == -(a.substitute_neg())


class TestDualEngines:
    def test_even_equals_general_small(self):
        for frac in coprime(40):
            ev = even_expansion(frac)
            pe = color_even_expansion(ev).rep_poly
            if frac.is_knot:
                assert pe == color_general_word(canonical_word(frac)).rep_poly
            else:
                assert pe in rep_poly_pair(canonical_word(frac))

    def test_randomized_words(self):
        rng = random.Random(515)
        tried = 0
        while tried < 50:
            k = rng.randint(1, 5)
            blocks = tuple(rng.choice([n for n in range(-5, 6) if n])
                           for _ in range(k))
            try:
                frac = slope(ConwayWord(blocks))
            except Exception:
                continue
            tried += 1
            word = ConwayWord(blocks)
            if frac.is_knot:
                got = color_general_word(word).rep_poly
                want = color_even_expansion(even_expansion(frac)).rep_poly
                assert got == want
            else:
                pair = set(rep_poly_pair(word))
                ev = color_even_expansion(even_expansion(frac)).rep_poly
                assert ev in pair


def _per_crossing_states(word, orientation=None):
    """Symbolic per-crossing propagation, yielding the four position vectors
    after every crossing (for Key Lemma checks)."""
    plan = plan_plat(word, orientation)
    one, zero = GPoly.one(), GPoly.zero()
    vecs = [(one, zero), (one, zero), (zero, one), (zero, one)]
    yield [tuple(v) for v in vecs]
    for bp in plan.blocks:
        L = bp.left
        fL, gL = vecs[L]
        fR, gR = vecs[L + 1]
        u_i = (fL * gR - gL * fR) * U
        for s in range(bp.count):
            delta = bp.delta0 if bp.parallel else bp.delta0 * (-1) ** s
            single = type(bp)(left=bp.left, count=1, hand=bp.hand,
                              parallel=True, delta0=delta)
            T = block_transfer(u_i, single)
            xL, xR = vecs[L], vecs[L + 1]
            vecs[L] = (xL[0] * T.a11 + xR[0] * T.a21,
                       xL[1] * T.a11 + xR[1] * T.a21)
            vecs[L + 1] = (xL[0] * T.a12 + xR[0] * T.a22,
                           xL[1] * T.a12 + xR[1] * T.a22)
            yield [tuple(v) for v in vecs]


def _du(x, y):
    return (x[0] * y[1] - x[1] * y[0]) * U


class TestKeyLemma:
    def test_squared_determinant_identities(self):
        for blocks in ((3,), (2, 3), (2, 2), (2, 1, 4), (3, 2, 3), (2, 2, 5)):
            word = ConwayWord(blocks)
            for vecs in _per_crossing_states(word):
                x, y, z, w = vecs
                assert _du(x, y) ** 2 == _du(z, w) ** 2
                assert _du(x, w) ** 2 == _du(y, z) ** 2


class TestRepPolynomialLaws:
    def test_degree_and_u_divisibility(self):
        for frac in coprime(30):
            p = rep_polynomial(frac)
            assert p.degree == frac.alpha
            assert not p.coeff(0)
            if frac.is_knot:
                q = p.strip_power(1)
                assert q.coeff(0).re in (1, -1) and q.coeff(0).im == 0
            else:
                assert not p.coeff(1)

    def test_monic_canonical_sign(self):
        for frac in coprime(30):
            lc = rep_polynomial(frac).leading()
            assert (lc.re, lc.im) == (1, 0)

    def test_mirror_invariance(self):
        for frac in coprime(25, parity="odd"):
            w = canonical_word(frac)
            m = ConwayWord(tuple(-n for n in w.blocks))
            assert rep_polynomial(w) == rep_polynomial(m)

    def test_zero_block_transparent(self):
        a = rep_polynomial(parse_descriptor("C[3,2,3,0,3]"))
        b = rep_polynomial(parse_descriptor("C[3,2,6]"))
        assert a == b


class TestTorusOracles:
    def test_trefoil(self):
        assert torus_rep_poly(2, 3, "knot") == P("u^3-u")
        assert torus_rep_poly(2, 3, "knot") == \
            sign_normalize(cheb("p", 3).compose(-U) * U)

    def test_t24_roots(self):
        assert torus_rep_poly(2, 4, "link_parallel") == P("u^4-2*u^2")
        assert torus_rep_poly(2, 4, "link_antiparallel") == P("u^4+2*u^2")

    def test_t22_degenerate(self):
        assert torus_rep_poly(2, 2, "link_antiparallel") == P("u^2")

    def test_deep_torus_knot(self):
        assert torus_rep_poly(2, 601, "knot") == \
            rep_polynomial(Fraction(601, 1))

    def test_engine_agreement(self):
        for q in range(3, 14):
            word = ConwayWord((q,))
            if q % 2 == 1:
                assert color_general_word(word).rep_poly == \
                    torus_rep_poly(2, q, "knot")
            else:
                got = {color_general_word(word, orientation=(1, 1)).rep_poly,
                       color_general_word(word, orientation=(1, -1)).rep_poly}
                want = {torus_rep_poly(2, q, "link_parallel"),
                        torus_rep_poly(2, q, "link_antiparallel")}
                assert got == want


class TestUpsideDownTransport:
    def test_root_transport(self):
        # P_K(r) = 0 implies P'_K(u_k(r)) = 0 and u'_k(u_k(r))^2 = r^2
        from twobridge.geometry import find_roots, eval_poly

        word = ConwayWord((2, 3))
        ud = ConwayWord((-3, -2))
        seq = ui_sequence(word)
        seq_ud = ui_sequence(ud)
        p_ud = color_general_word(ud).rep_poly
        uk = seq[-1]
        uk_ud = seq_ud[-1]
        with mp.workprec(128):
            for r in find_roots(color_general_word(word).rep_poly, 128):
                if abs(r) < 1e-10:
                    continue
                s = eval_poly(uk, r)
                assert abs(eval_poly(p_ud, s)) < 1e-9
                back = eval_poly(uk_ud, s)
                assert abs(back ** 2 - r ** 2) < 1e-9


class TestOrientationHandling:
    def test_knots_have_one_class(self):
        for frac in coprime(25, parity="odd"):
            assert len(consistent_orientations(canonical_word(frac).j_blocks)) == 1

    def test_links_have_two(self):
        for frac in coprime(24, parity="even"):
            assert len(consistent_orientations(canonical_word(frac).j_blocks)) == 2

    def test_bad_orientation_rejected(self):
        with pytest.raises(ColoringError):
            color_general_word(ConwayWord((2, 2)), orientation=(1, 1))

    def test_global_flip_same_polynomial(self):
        word = ConwayWord((2, 3))
        d = plan_plat(word).orientation
        a = color_general_word(word, d).rep_poly
        b = color_general_word(word, (-d[0], -d[1])).rep_poly
        assert a == b
