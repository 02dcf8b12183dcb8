import itertools
import math
import random

import mpmath as mp
import pytest

from twobridge.conway import ConwayWord, Fraction, canonical_word, \
    even_expansion, parse_descriptor, slope
from twobridge.coloring import (
    BlockPlan,
    ColoringError,
    apply_pair,
    block_transfer,
    color_even_expansion,
    color_general_word,
    color_plan,
    consistent_orientations,
    det,
    iu_variant,
    plan_plat,
    rep_poly_pair,
    rep_polynomial,
    ui_sequence,
    x_power,
)
from twobridge.polys import GPoly, PolyMatrix2, ResidueRing, U, \
    exact_divide, horner, parse_poly, sign_normalize
from twobridge.polys import rem_monic
from twobridge.epi import class_representatives

P = parse_poly


def eval_poly(p, z):
    """p(z) by Horner's rule at the current mpmath precision."""
    return horner([mp.mpc(c) for c in p.c], z) if p.c else mp.mpc(0)


def cheb_p(n, t):
    """p_n(t) for n >= 0 and a GPoly t, by the recursion p_0 = 0, p_1 = 1,
    p_{k+1} = t p_k - p_{k-1}."""
    a, b = GPoly.zero(), GPoly.one()
    for _ in range(n):
        a, b = b, t * b - a
    return a


def torus_rep_poly(q, variant):
    """Closed-form rep-polynomials of the torus knots and links T(2, q), the
    engine's oracles:

    T(2, 2k+1) knots ("knot"):              +-u p_{2k+1}(-u)
    T(2, 2k), parallel ("link_parallel"):    +-u p_{2k}(-u)
    T(2, 2k), anti-parallel (otherwise):     +-u^2 p_k(-2-u^2)
    """
    if variant in ("knot", "link_parallel"):
        return sign_normalize(cheb_p(q, -U) * U)
    return sign_normalize(cheb_p(q // 2, -(U * U) - 2) * U * U)


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
        X = x_power(U, 1)
        assert X.a11.is_zero() and X.a12 == -GPoly.one()
        assert X.a21 == GPoly.one() and X.a22 == -U
        assert det((X.a11, X.a12), (X.a21, X.a22)) == GPoly.one()

    def test_negative(self):
        X = x_power(-U, 1)
        assert X.a22 == U

    def test_product_trace(self):
        t = (x_power(U, 1) * x_power(-U, 1)).trace()
        assert t == P("-u^2-2")


def _ring(kind):
    """(zero, one, sample values v, entry -> comparable form) for the three
    entry types the coloring runs X(v) over: GPolys, residues mod the core
    of 7/3's rep-polynomial, and mpmath numbers.  The mpmath samples are
    dyadic, so their products are exact at 128 bits."""
    if kind == "gpoly":
        vs = [U, -U, P("u^3 - 2*u"), P("-u^4 + 2*u^2 + 3")]
        return GPoly.zero(), GPoly.one(), vs, lambda x: x
    if kind == "residue":
        ring = ResidueRing(P("u^6 - u^4 + 2*u^2 - 1"))
        vs = [ring.u, -ring.u, ring.element(P("u^5 - 2*u + 3"))]
        return ring.zero, ring.one, vs, lambda x: x.poly()
    vs = [mp.mpc(0.75, -0.5), mp.mpc(-1.25, 2)]
    return mp.mpc(0), mp.mpc(1), vs, lambda x: x


def _crossing(v, hand, zero, one):
    """X(v) = [[0, -1], [1, -v]] for hand +1, its inverse for hand -1."""
    if hand > 0:
        return PolyMatrix2(zero, -one, one, -v)
    return PolyMatrix2(-v, one, -one, zero)


def _product(matrices, zero, one):
    T = PolyMatrix2(one, zero, zero, one)
    for M in matrices:
        T = T * M
    return T


def _entries(M, key):
    return [key(x) for x in (M.a11, M.a12, M.a21, M.a22)]


class TestXPower:
    """x_power is the one statement of X(v)^k, for every entry type."""

    def test_x_squared(self):
        m2 = x_power(U, 2)
        assert m2.a11 == P("-1") and m2.a12 == U
        assert m2.a21 == -U and m2.a22 == P("u^2-1")

    @pytest.mark.parametrize("kind", ["gpoly", "residue", "mpmath"])
    def test_identity(self, kind):
        zero, one, vs, key = _ring(kind)
        for v in vs:
            assert _entries(x_power(v, 0), key) == \
                [key(one), key(zero), key(zero), key(one)]

    def test_chebyshev_entries(self):
        for k in (3, 5):
            mk = x_power(U, k)
            pk = cheb_p(k, -U)
            pk1 = cheb_p(k + 1, -U)
            pkm = cheb_p(k - 1, -U)
            assert mk.a12 == -pk and mk.a21 == pk
            assert mk.a11 == -pkm and mk.a22 == pk1

    @pytest.mark.parametrize("kind", ["gpoly", "residue", "mpmath"])
    def test_matches_crossing_products(self, kind):
        # X(v)^k is the |k|-fold product of X(v), of X(v)^-1 for k < 0, and
        # its rows have symplectic form 1
        with mp.workprec(128):
            zero, one, vs, key = _ring(kind)
            for v in vs:
                for k in range(-12, 13):
                    M = x_power(v, k)
                    X = _crossing(v, 1 if k > 0 else -1, zero, one)
                    assert _entries(M, key) == \
                        _entries(_product([X] * abs(k), zero, one), key), k
                    assert key(det((M.a11, M.a12), (M.a21, M.a22))) == key(one)

    def test_deep_power(self):
        # X(u)^600 by repeated squaring against the Chebyshev window
        X, M, n = x_power(U, 1), x_power(U, 0), 600
        while n:
            if n & 1:
                M = M * X
            X, n = X * X, n >> 1
        assert x_power(U, 600) == M
        assert M.a21 == cheb_p(600, -U)


class TestBlockTransfer:
    @pytest.mark.parametrize("kind", ["gpoly", "residue", "mpmath"])
    def test_equals_product_of_crossings(self, kind):
        # crossing s of a block is X(delta_s u)^hand, delta_s = delta0 on a
        # parallel pair and delta0 (-1)^s on an anti-parallel one; every
        # transfer, count 0 included, acts on a strand pair of its own ring
        with mp.workprec(128):
            zero, one, vs, key = _ring(kind)
            for u, count, hand, parallel, delta0 in itertools.product(
                    vs, range(10), (1, -1), (True, False), (1, -1)):
                plan = BlockPlan(left=0, count=count, hand=hand,
                                 parallel=parallel, delta0=delta0)
                deltas = [delta0 if parallel else delta0 * (-1) ** s
                          for s in range(count)]
                want = _product([_crossing(u if d > 0 else -u, hand, zero,
                                           one) for d in deltas], zero, one)
                T = block_transfer(u, plan)
                assert _entries(T, key) == _entries(want, key), plan
                got, expect = [(u, one), (zero, u)], [(u, one), (zero, u)]
                apply_pair(got, 0, T)
                apply_pair(expect, 0, want)
                assert [key(x) for v in got for x in v] == \
                    [key(x) for v in expect for x in v], plan


class TestKnotExamples:
    def test_trefoil_vectors(self):
        word = ConwayWord((3,))
        _, vecs, _, _ = color_plan(plan_plat(word))
        a_kf, b_kf = vecs[1], vecs[2]
        assert a_kf == (U, P("u^2-1"))
        assert b_kf == (-P("u^2-1"), -P("u^3-2*u"))
        assert color_general_word(word) == P("u^3-u")

    def test_5_2(self):
        assert color_general_word(ConwayWord((2, 3))) == \
            U * P("u^6-u^4+2*u^2-1")

    def test_upside_down_5_2(self):
        assert color_general_word(ConwayWord((1, 2, 2))) == \
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
        assert res == sign_normalize(expect)

    def test_whitehead_pair(self):
        p1, p2 = rep_poly_pair(ConwayWord((2, 1, 2)))
        want = {sign_normalize(P("u^4") * P("u^4+2*u^2+2")),
                sign_normalize(P("u^4") * P("u^4-2*u^2+2"))}
        assert {p1, p2} == want

    def test_c323_pair_displayed(self):
        p1, p2 = rep_poly_pair(ConwayWord((3, 2, 3)))
        c1, c2 = P("u^2-1"), P("u^2+1")
        e1 = P("u^2") * c1 * c1 * c1 * P("u^2-2") * \
            P("u^6-3*u^4+2*u^2+2") * P("u^8-2*u^6+2*u^2+1")
        e2 = P("u^2") * c2 * c2 * c2 * P("u^2+2") * \
            P("u^6+3*u^4+2*u^2-2") * P("u^8+2*u^6-2*u^2+1")
        assert (p1, p2) == (sign_normalize(e1), sign_normalize(e2))

    def test_pair_iu_relation(self):
        # a link's two orientation polynomials are iu-companions, on every
        # link class with alpha <= 41 (ORS checks rest on it: P_A is tried
        # in both orientations instead of P_A(iu) in one)
        links = [f for f in class_representatives(41) if not f.is_knot]
        assert len(links) == 119
        for frac in links:
            p1, p2 = rep_poly_pair(frac)
            assert iu_variant(p1) == p2 and iu_variant(p2) == p1, frac

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
                twisted = iu_variant(pw)
                uj = sign_normalize(seq[j])
                if frac.is_knot:
                    assert uj in (pw, twisted)
                else:
                    pair = rep_poly_pair(prefix)
                    cands = set(pair) | {iu_variant(p) for p in pair}
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
            pe = color_even_expansion(ev)
            if frac.is_knot:
                assert pe == color_general_word(canonical_word(frac))
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
                got = color_general_word(word)
                want = color_even_expansion(even_expansion(frac))
                assert got == want
            else:
                pair = set(rep_poly_pair(word))
                ev = color_even_expansion(even_expansion(frac))
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


def _du_squared(x, y):
    d = (x[0] * y[1] - x[1] * y[0]) * U
    return d * d


class TestKeyLemma:
    def test_squared_determinant_identities(self):
        for blocks in ((3,), (2, 3), (2, 2), (2, 1, 4), (3, 2, 3), (2, 2, 5)):
            word = ConwayWord(blocks)
            for vecs in _per_crossing_states(word):
                x, y, z, w = vecs
                assert _du_squared(x, y) == _du_squared(z, w)
                assert _du_squared(x, w) == _du_squared(y, z)


class TestRepPolynomialLaws:
    def test_degree_and_u_divisibility(self):
        for frac in coprime(30):
            p = rep_polynomial(frac)
            assert p.degree == frac.alpha
            assert not p.coeff(0)
            if frac.is_knot:
                q = p.strip_power(1)
                assert q.coeff(0) in (1, -1)
            else:
                assert not p.coeff(1)

    def test_monic_canonical_sign(self):
        for frac in coprime(30):
            assert rep_polynomial(frac).leading() == 1

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
        assert torus_rep_poly(3, "knot") == P("u^3-u")
        assert torus_rep_poly(3, "knot") == \
            sign_normalize(cheb_p(3, -U) * U)

    def test_t24_roots(self):
        assert torus_rep_poly(4, "link_parallel") == P("u^4-2*u^2")
        assert torus_rep_poly(4, "link_antiparallel") == P("u^4+2*u^2")

    def test_t22_degenerate(self):
        assert torus_rep_poly(2, "link_antiparallel") == P("u^2")

    def test_deep_torus_knot(self):
        assert torus_rep_poly(601, "knot") == \
            rep_polynomial(Fraction(601, 1))

    def test_engine_agreement(self):
        for q in range(3, 14):
            word = ConwayWord((q,))
            if q % 2 == 1:
                assert color_general_word(word) == \
                    torus_rep_poly(q, "knot")
            else:
                got = {color_general_word(word, orientation=(1, 1)),
                       color_general_word(word, orientation=(1, -1))}
                want = {torus_rep_poly(q, "link_parallel"),
                        torus_rep_poly(q, "link_antiparallel")}
                assert got == want


class TestUpsideDownTransport:
    def test_root_transport(self):
        # P_K(r) = 0 implies P'_K(u_k(r)) = 0 and u'_k(u_k(r))^2 = r^2
        from twobridge.geometry import find_roots

        word = ConwayWord((2, 3))
        ud = ConwayWord((-3, -2))
        seq = ui_sequence(word)
        seq_ud = ui_sequence(ud)
        p_ud = color_general_word(ud)
        uk = seq[-1]
        uk_ud = seq_ud[-1]
        with mp.workprec(128):
            for r in find_roots(color_general_word(word), 128):
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

    @pytest.mark.parametrize("blocks, orientation", [
        ((3,), (0, 0)), ((4,), (2, 5)), ((4,), (1, 0)), ((2, 3), (0, 0)),
        ((2, 3), (1, -1, 1))])
    def test_orientation_must_be_two_signs(self, blocks, orientation):
        # a direction that is not +-1 once passed the closure trace and
        # colored (C[3] at (0, 0) gave u^3 - u)
        with pytest.raises(ColoringError, match="not a pair"):
            color_general_word(ConwayWord(blocks), orientation)

    def test_global_flip_same_polynomial(self):
        word = ConwayWord((2, 3))
        d = plan_plat(word).orientation
        a = color_general_word(word, d)
        b = color_general_word(word, (-d[0], -d[1]))
        assert a == b


class TestModularColoring:
    # a knot core (7/3), a link core (8/3, whose P is u^4 times it) and u^2
    MODULI = ["u^6 - u^4 + 2*u^2 - 1", "u^4 - 2*u^2 + 2", "u^2"]

    @staticmethod
    def words(count, seed):
        """Seeded words of 1-6 blocks of 1-3 crossings.  Every fourth word
        is cut to at most 3 blocks and one of them given 21-30 crossings,
        enough for its window to be built by doubling in the ring (a long
        block in a long word would make the unreduced coloring huge)."""
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            blocks = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
            if len(out) % 4 == 0:
                del blocks[3:]
                blocks[rng.randrange(len(blocks))] = rng.randint(21, 30)
            word = ConwayWord(tuple(rng.choice((-1, 1)) * n for n in blocks))
            if consistent_orientations(word.j_blocks):
                out.append(word)
        return out

    def test_residues_equal_reduced_coloring(self):
        moduli = [P(m) for m in self.MODULI]
        planned = 0
        for word in self.words(200, seed=31):
            for orientation in consistent_orientations(word.j_blocks):
                plan = plan_plat(word, orientation)
                ui, vecs, raw, companion = color_plan(plan)
                for m in moduli:
                    r_ui, r_vecs, r_raw, r_companion = color_plan(plan, m)
                    assert r_ui == [rem_monic(x, m) for x in ui]
                    assert r_vecs == [(rem_monic(f, m), rem_monic(g, m))
                                      for f, g in vecs]
                    assert r_raw == rem_monic(raw, m)
                    assert r_companion == rem_monic(companion, m)
                planned += 1
        assert planned > 200

    @pytest.mark.parametrize("modulus", ["2*u^2 + 1"])
    def test_bad_modulus_is_a_value_error(self, modulus):
        plan = plan_plat(ConwayWord((2, 3)))
        with pytest.raises(ValueError):
            color_plan(plan, modulus=P(modulus))
