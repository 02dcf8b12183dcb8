import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from twobridge.conway import Fraction, parse_descriptor, slope
from twobridge.coloring import color_general_word, det, rep_polynomial, \
    rep_poly_pair
from twobridge.polys import GPoly, PolyMatrix2, U, exact_divide, \
    expand_at_u_squared, horner, parse_poly, sign_normalize
from twobridge.riley import (
    RileyError,
    epsilon_sequence,
    hat,
    riley_polynomial,
    split_polynomial,
    trace_field_witness,
    unit_certificate,
    verify_bridge,
)

P = parse_poly


def eval_poly(p, z):
    """p(z) by Horner's rule at the current mpmath precision."""
    return horner([mp.mpc(c) for c in p.c], z) if p.c else mp.mpc(0)


def riley_matrix(frac):
    """The word matrix W over Z[y], the product of the letters
    rho(a)^e_1 rho(b)^e_2 ... with rho(a)^e = [[1, e], [0, 1]] and
    rho(b)^e = [[1, 0], [-e y, 1]], one 2x2 product per letter."""
    one, zero = GPoly.one(), GPoly.zero()
    W = PolyMatrix2(one, zero, zero, one)
    for i, e in enumerate(epsilon_sequence(frac)):
        if i % 2 == 0:
            W = W * PolyMatrix2(one, GPoly([e]), zero, one)
        else:
            W = W * PolyMatrix2(one, zero, GPoly([0, -e]), one)
    return W


def coprime(max_alpha, parity=None):
    for alpha in range(3, max_alpha + 1):
        if parity == "odd" and alpha % 2 == 0:
            continue
        if parity == "even" and alpha % 2 == 1:
            continue
        for beta in range(1, alpha):
            if math.gcd(alpha, beta) == 1:
                yield Fraction(alpha, beta)


class TestEpsilonSequence:
    def test_trefoil(self):
        assert epsilon_sequence(Fraction(3, 1)) == (-1, -1)

    def test_5_3(self):
        assert epsilon_sequence(Fraction(5, 3)) == (-1, 1, 1, -1)

    def test_length(self):
        for frac in coprime(40):
            assert len(epsilon_sequence(frac)) == frac.alpha - 1

    def test_palindrome(self):
        for frac in coprime(60):
            eps = epsilon_sequence(frac)
            assert eps == tuple(reversed(eps))

    def test_entries_are_ints(self):
        # beta - alpha < 0 made floor(i*beta/alpha) negative, and
        # (-1)**k a float, for even beta
        for frac in coprime(40):
            assert all(type(e) is int and e in (1, -1)
                       for e in epsilon_sequence(frac)), frac


class TestRileyPolynomial:
    def test_values(self):
        assert riley_polynomial(Fraction(7, 3)) in (P("y^3-y^2+2*y-1"),
                                                    -P("y^3-y^2+2*y-1"))
        assert riley_polynomial(Fraction(7, 5)) in (P("y^3+3*y^2+2*y-1"),
                                                    -P("y^3+3*y^2+2*y-1"))
        assert riley_polynomial(Fraction(3, 1)) in (P("y-1"), -P("y-1"))

    def test_fig8(self):
        assert sign_normalize(riley_polynomial(Fraction(5, 2))) == P("y^2+y+1")

    def test_degrees(self):
        for frac in coprime(40):
            R = riley_polynomial(frac)
            if frac.is_knot:
                assert R.degree == (frac.alpha - 1) // 2
            else:
                assert R.degree == (frac.alpha - 2) // 2

    def test_monic_constant_term_law(self):
        # (-1)^((alpha-1)/2) R is monic with constant term +-1, knots
        for frac in coprime(60, parity="odd"):
            R = riley_polynomial(frac)
            S = R if (frac.alpha - 1) // 2 % 2 == 0 else -R
            assert S.leading() == 1
            assert S.coeff(0) in (1, -1)

    def test_no_repeated_roots(self):
        from twobridge.geometry import find_roots

        for frac in coprime(33, parity="odd"):
            R = riley_polynomial(frac)
            roots = find_roots(R, precision=128)
            for i in range(len(roots)):
                for j in range(i + 1, len(roots)):
                    assert abs(roots[i] - roots[j]) > 1e-9


class TestRowOne:
    """riley_polynomial forms row 1 only; the oracle multiplies full
    matrices letter by letter."""

    def test_matches_full_matrix(self):
        large = (Fraction(1037, 726), Fraction(1144, 1035))  # knot, link
        for frac in (*coprime(60), *large):
            W = riley_matrix(frac)
            assert riley_polynomial(frac) == (W.a11 if frac.is_knot else W.a12)

    def test_unimodular(self):
        for frac in coprime(40):
            W = riley_matrix(frac)
            assert det((W.a11, W.a12), (W.a21, W.a22)) == GPoly.one()


class TestBridge:
    def test_trefoil(self):
        R = riley_polynomial(Fraction(3, 1))
        assert verify_bridge(P("u^3-u"), R, True) in (1, -1)
        with pytest.raises(RileyError):   # a link's eps = 2 does not fit
            verify_bridge(P("u^3-u"), R, False)

    def test_whitehead(self):
        frac = Fraction(8, 3)
        p1, _ = rep_poly_pair(frac)
        assert verify_bridge(p1, riley_polynomial(frac), False) in (1, -1)
        with pytest.raises(RileyError):   # a knot's eps = 1 does not fit
            verify_bridge(p1, riley_polynomial(frac), True)

    def test_fig8(self):
        frac = Fraction(5, 2)
        verify_bridge(rep_polynomial(frac), riley_polynomial(frac), True)

    def test_mismatch_raises(self):
        with pytest.raises(RileyError):
            verify_bridge(P("u^3-u"), P("y+1"), True)


class TestSplitting:
    def test_example_5_2_exact(self):
        s = split_polynomial(rep_polynomial(Fraction(7, 3)))
        assert s.g == P("u^3+u^2-1")
        assert s.g_hat == P("u^3-u^2+1")
        s = split_polynomial(rep_polynomial(Fraction(7, 5)))
        assert s.g == P("u^3+u^2+2*u+1")
        assert s.g_hat == P("u^3-u^2+2*u-1")

    def test_trefoil_pairing(self):
        s = split_polynomial(P("u^3-u"))
        assert {s.g, s.g_hat} == {P("u-1"), P("u+1")}

    def test_hat_involution(self):
        g = P("u^3+u^2-1")
        assert hat(hat(g)) == g

    def test_links_rejected(self):
        with pytest.raises(RileyError):
            split_polynomial(P("u^4-2*u^2"))

    def test_certificate_exactness(self):
        for frac in coprime(21, parity="odd"):
            p = rep_polynomial(frac)
            s = split_polynomial(p)
            prod = (s.g * s.g_hat).shift(1)
            assert prod == p or prod == -p
            assert s.g_hat == hat(s.g) and s.g_hat != s.g

    def test_deterministic(self):
        a = split_polynomial(rep_polynomial(Fraction(15, 4)))
        b = split_polynomial(rep_polynomial(Fraction(15, 4)))
        assert a == b


class TestTraceFieldWitness:
    def test_examples(self):
        A, B = trace_field_witness(P("u^3+u^2-1"))
        assert A == P("y-1") and B == P("y")
        A, B = trace_field_witness(P("u-1"))
        assert A == -GPoly.one() and B == GPoly.one()
        A, B = trace_field_witness(P("u^3+u^2+2*u+1"))
        assert A == P("y+1") and B == P("y+2")

    def test_reconstruction_identity(self):
        for frac in coprime(21, parity="odd"):
            g = split_polynomial(rep_polynomial(frac)).g
            A, B = trace_field_witness(g)
            rebuilt = expand_at_u_squared(A) + U * expand_at_u_squared(B)
            assert rebuilt == g

    def test_numeric_root_identity(self):
        from twobridge.geometry import find_roots

        with mp.workprec(192):
            for frac in (Fraction(7, 3), Fraction(9, 5), Fraction(13, 5)):
                g = split_polynomial(rep_polynomial(frac)).g
                A, B = trace_field_witness(g)
                for r in find_roots(g, precision=192):
                    lhs = r + eval_poly(A, r * r) / eval_poly(B, r * r)
                    assert abs(lhs) < 1e-9

    def test_table_root_value(self):
        A, B = trace_field_witness(P("u^3+u^2-1"))
        r = mp.mpf("0.75487766")
        val = -(r * r - 1) / (r * r)
        assert abs(val - r) < 1e-6

    def test_even_g_rejected(self):
        with pytest.raises(RileyError):
            trace_field_witness(P("u^2-3"))


class TestUnitCertificate:
    def test_trefoil_exact(self):
        assert unit_certificate(P("u^3-u")) == 1

    def test_every_knot_to_41(self):
        for frac in coprime(41, parity="odd"):
            assert unit_certificate(rep_polynomial(frac)) in (1, -1), frac

    def test_non_unit_refused(self):
        for text in ("u^3-2*u",          # c_0 = -2
                     "2*u^3-u",          # P/u not monic
                     "u^4-u^2",          # P/u odd
                     "u^2+u",            # P/u not even
                     "u^5-u^3",          # c_0 = 0
                     "u^2-1"):           # u does not divide P
            with pytest.raises(RileyError):
                unit_certificate(P(text))

    def test_table_roots(self):
        # r^2 (r^{a-3} + ... + c_2) at the published roots of 7/3 is the
        # certificate's -c_0
        p = rep_polynomial(Fraction(7, 3))
        head = GPoly(p.strip_power(1).c[2:])
        cert = unit_certificate(p)
        with mp.workprec(64):
            for root in (mp.mpf("0.75487766"),
                         mp.mpc("0.87743883", "0.74486176")):
                assert abs(eval_poly(head, root) * root ** 2 - cert) < 1e-6


class TestBridgeSweep:
    def test_alpha_40(self):
        for frac in coprime(40):
            P_col = rep_polynomial(frac)
            R = riley_polynomial(frac)
            assert verify_bridge(P_col, R, frac.is_knot) in (1, -1)
