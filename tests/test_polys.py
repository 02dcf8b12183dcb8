import os
import random
import subprocess
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import twobridge
from twobridge.coloring import iu_variant
from twobridge.polys import (
    GPoly,
    U,
    even_part_as_y,
    exact_divide,
    expand_at_u_squared,
    format_poly,
    horner,
    int_value,
    parse_poly,
    poly_from_json,
    poly_to_json,
    rem_monic,
    sign_normalize,
)
from twobridge.polys import ResidueRing, p_window


def P(text):
    return parse_poly(text)


def eval_poly(p, z):
    """p(z) by Horner's rule at the current mpmath precision."""
    return horner([mp.mpc(c) for c in p.c], z) if p.c else mp.mpc(0)


def compose(p, inner):
    """p(inner(u)), exact."""
    return horner([GPoly([c]) for c in p.c], inner) if p.c else p


def cheb(kind, n):
    """Chebyshev-family polynomial in the variable t, read off p_window:
    "p" is p_n (p_0 = 0, p_1 = 1, p_{n+1} = t p_n - p_{n-1}, p_{-n} = -p_n),
    "f" is f_n = p_{n+1} - p_n and "v" is v_n = p_{n+1} - p_{n-1}."""
    before, p, after = p_window(U, n)
    if kind == "p":
        return p
    return after - (p if kind == "f" else before)


class TestArithmetic:
    def test_distributivity_example(self):
        assert P("u^2-1") * U == P("u^3-u")

    def test_additive_inverse(self):
        p = P("3*u^4 - 2*u + 7")
        assert (p + (-p)).is_zero()

    def test_product_example_5_2(self):
        assert P("u^3+u^2-1") * P("u^3-u^2+1") == P("u^6-u^4+2*u^2-1")

    def test_degree_of_product(self):
        a, b = P("u^5 - 3"), P("2*u^7 + u")
        assert (a * b).degree == 12

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8),
           st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    def test_mul_commutes(self, xs, ys):
        a, b = GPoly(xs), GPoly(ys)
        assert a * b == b * a


class TestExactDivide:
    def test_example_5_2(self):
        q = exact_divide(P("u^6-u^4+2*u^2-1"), P("u^3+u^2-1"))
        assert q == P("u^3-u^2+1")

    def test_monomials(self):
        assert exact_divide(P("u^3"), U) == P("u^2")

    def test_non_divisible(self):
        assert exact_divide(P("u^2+1"), P("u+1")) is None

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(P("u"), GPoly.zero())

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_divide_roundtrip(self, xs, ys):
        a, b = GPoly(xs), GPoly(ys)
        if a.is_zero() or b.is_zero():
            return
        q = exact_divide(a * b, b)
        assert q == a

    def test_rem_monic(self):
        num = P("u^5 + 3*u^2 - 1")
        den = P("u^2 + 1")
        r = rem_monic(num, den)
        q = exact_divide(num - r, den)
        assert q is not None and q * den + r == num

    @given(st.lists(st.integers(-99, 99), max_size=10),
           st.lists(st.integers(-9, 9), max_size=5))
    @settings(max_examples=200)
    def test_rem_monic_is_a_remainder(self, num, low):
        # rem_monic is the reference the ResidueRing tests compare against
        num = GPoly(num)
        den = GPoly(low + [1])
        r = rem_monic(num, den)
        assert r.degree < den.degree
        assert exact_divide(num - r, den) is not None


class TestEval:
    def test_i_is_root(self):
        with mp.workprec(53):
            assert abs(eval_poly(P("u^2+1"), mp.mpc(0, 1))) == 0

    def test_trefoil_root(self):
        with mp.workprec(53):
            assert abs(eval_poly(P("u^3-u"), 1)) == 0

    def test_table_root(self):
        with mp.workprec(64):
            v = eval_poly(P("u^3+u^2-1"), mp.mpf("0.75487766"))
        assert abs(v) < 1e-6

    def test_zero_polynomial(self):
        with mp.workprec(53):
            assert eval_poly(GPoly([]), mp.mpc(2, 1)) == 0


class TestSubstitutions:
    """iu_variant is P(iu) up to a unit, sign_normalize the normal form
    under the units +-1 of Z."""

    def test_whitehead_variants(self):
        assert iu_variant(P("u^4+2*u^2+2")) == P("u^4-2*u^2+2")

    def test_variable(self):
        # iu = i * u
        assert iu_variant(U) == U

    def test_trefoil_iu(self):
        # i P(iu) = u(u^2+1) for P = u(u^2-1)
        assert iu_variant(P("u^3-u")) == P("u^3+u")

    def test_double_substitution_is_negation(self):
        # P(i(iu)) = P(-u), up to a unit, for every P of one parity
        rng = random.Random(22)
        for parity in (0, 1) * 20:
            p = GPoly([rng.randint(-9, 9) if k % 2 == parity else 0
                       for k in range(rng.randint(1, 9))])
            assert iu_variant(iu_variant(p)) == \
                sign_normalize(p.substitute_neg()), p

    def test_mixed_parity_is_refused(self):
        # P(iu) of u^2 + u is -u^2 + iu, no unit times an integer polynomial
        for text in ("u^5 - 4*u^2 + u - 9", "u^2 + u", "u + 1"):
            with pytest.raises(ValueError, match="parities"):
                iu_variant(P(text))

    def test_unit_normalize_resolves_units(self):
        p = P("u^2 - 3")
        for unit in (1, -1):
            assert sign_normalize(p * unit) == p

    def test_unit_normalize_is_a_normal_form(self):
        # p and -p normalize to one polynomial, the one with a positive
        # leading coefficient, for every leading coefficient in a box
        for a in range(-6, 7):
            if a == 0:
                continue
            p = GPoly([2, 5, a])
            assert sign_normalize(p) == sign_normalize(-p)
            assert sign_normalize(p).leading() == abs(a)
            assert sign_normalize(p) in (p, -p)
        assert sign_normalize(GPoly.zero()) == GPoly.zero()


class TestEvenPart:
    def test_remark_4_12(self):
        p = U * P("u^6-u^4+2*u^2-1")
        assert even_part_as_y(p, 1) == P("y^3-y^2+2*y-1")

    def test_trivial(self):
        assert even_part_as_y(P("u^3"), 1) == P("y")

    def test_whitehead_derived(self):
        # u^4(u^4-2u^2+2) stripped twice: y(y^2-2y+2) via expand-collect oracle
        R = P("y^3-2*y^2+2*y")
        p = expand_at_u_squared(R).shift(2)
        assert p == P("u^4") * P("u^4-2*u^2+2")
        assert even_part_as_y(p, 2) == R

    def test_odd_power_error(self):
        with pytest.raises(ValueError):
            even_part_as_y(P("u^3+u^2"), 1)


class TestChebyshev:
    def test_p3(self):
        assert cheb("p", 3) == compose(P("t^2-1"), U) == P("u^2-1")

    def test_negative_index(self):
        assert cheb("p", -2) == -cheb("p", 2) == -U

    def test_value_at_two(self):
        for n in range(51):
            with mp.workprec(53):
                assert eval_poly(cheb("p", n), 2) == n

    def test_f_v_definitions(self):
        for n in range(-5, 12):
            assert cheb("f", n) == cheb("p", n + 1) - cheb("p", n)
            assert cheb("v", n) == cheb("p", n + 1) - cheb("p", n - 1)

    def test_deep_index(self):
        # p_n is built iteratively: a recursive p_n overflowed the stack
        p600 = cheb("p", 600)
        assert p600.degree == 599
        assert compose(p600, GPoly([2])) == GPoly([600])


class TestChebyshevIdentities:
    """Exact identity suite in a small window; the acceptance suite runs
    the full range."""

    def test_identities(self):
        t = U
        p = lambda n: cheb("p", n)
        f = lambda n: cheb("f", n)
        v = lambda n: cheb("v", n)
        for n in range(1, 8):
            assert p(2 * n + 1) == p(n + 1) * p(n + 1) - p(n) * p(n)
            assert p(n) * p(n) - p(n - 1) * p(n + 1) == GPoly.one()
            assert p(n + 1) * p(n + 1) - t * p(n) * p(n + 1) + p(n) * p(n) \
                == GPoly.one()
            assert (-1) ** n * f(n).substitute_neg() == p(n) + p(n + 1)
            for m in range(1, 8):
                assert p(n * m) == compose(p(n), v(m)) * p(m)
            for k in range(1, 6):
                lhs = compose(f(n), -v(2 * k))
                rhs = compose(f(n), v(k)) * compose(f(n), -v(k))
                assert lhs == rhs


class TestTextAndJson:
    def test_format(self):
        assert format_poly(P("u^6 - u^4 + 2*u^2 - 1")) == "u^6 - u^4 + 2*u^2 - 1"
        assert format_poly(GPoly.zero()) == "0"
        assert format_poly(-U) == "-u"

    def test_parse_gaussian(self):
        # coefficients are integers: a Gaussian one is refused, not misread
        with pytest.raises(ValueError, match="position 0"):
            parse_poly("(1+2i)*u^2 - i*u + 3")

    def test_parse_refuses_second_variable(self):
        # "u^2 + y" was read as u^2 + u
        with pytest.raises(ValueError, match="position 6: a second variable"):
            parse_poly("u^2 + y")

    def test_parse_refuses_terms_not_joined_by_a_sign(self):
        # "u^2 u" was read as u^2 + u
        with pytest.raises(ValueError, match="position 4: terms are joined"):
            parse_poly("u^2 u")

    def test_parse_refuses_imaginary_unit(self):
        # without Gaussian coefficients, "u^2 + i" would be read as u^2 + u
        with pytest.raises(ValueError, match="position 6: 'i' is not a variable"):
            parse_poly("u^2 + i")

    def test_parse_forms(self):
        assert parse_poly("x^3-x") == parse_poly("u^3 - u") == P("u^3-u")
        assert parse_poly("  -u^3 + 2u - 7 ") == GPoly([-7, 2, 0, -1])
        assert parse_poly("3 * u^2 + 0") == GPoly([0, 0, 3])
        assert parse_poly("0") == GPoly.zero()
        for text in ("", "   ", "2*", "u^", "u^2 + + 1", "2 u", "u2"):
            with pytest.raises(ValueError):
                parse_poly(text)

    def test_variable_agnostic(self):
        assert parse_poly("y^2 - y + 1") == parse_poly("u^2 - u + 1")

    @given(st.lists(st.integers(-99, 99), min_size=1, max_size=9))
    def test_text_roundtrip(self, xs):
        p = GPoly(xs)
        assert parse_poly(format_poly(p)) == p

    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=6))
    def test_json_roundtrip(self, xs):
        p = GPoly(xs)
        assert poly_from_json(poly_to_json(p)) == p

    def test_json_form(self):
        # coefficients stay (re, im) pairs, im "0", as census files hold them
        assert poly_to_json(P("u^2 - 3")) == \
            {"coeffs": [["-3", "0"], ["0", "0"], ["1", "0"]]}
        with pytest.raises(ValueError, match="imaginary"):
            poly_from_json({"coeffs": [["1", "0"], ["2", "1"]]})

    def test_repr(self):
        assert repr(P("u^2 - 1")) == "GPoly(u^2 - 1)"
        assert repr(GPoly.zero()) == "GPoly(0)"

    def test_bigint_coefficients_survive(self):
        big = 10 ** 80 + 7
        p = GPoly([big, -big])
        assert poly_from_json(poly_to_json(p)).coeff(0) == big


class TestStripZeroRoots:
    def test_counts_zero_roots(self):
        assert P("u^5+2*u^3").strip_zero_roots() == (P("u^2+2"), 3)
        assert P("u+1").strip_zero_roots() == (P("u+1"), 0)

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            GPoly.zero().strip_zero_roots()


class TestIntegerValues:
    def test_value(self):
        assert int_value(GPoly([1, 2, 3]), 2) == 17
        assert int_value(GPoly([]), 5) == 0

    def test_every_divisor_passes_the_value_screen(self):
        # the edge screen of epi.divisibility_edges: a(t) | (a b)(t), and a
        # zero a(t) has a zero (a b)(t)
        rng = random.Random(5)
        def draw():
            return GPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])

        for _ in range(200):
            a, b = draw(), draw()
            for t in (2, 3, 5):
                va, vab = int_value(a, t), int_value(a * b, t)
                assert vab % va == 0 if va else vab == 0


class TestResidueRing:
    # the core of the rep-polynomial of 7/3 = C[2,3]
    SEED_CORE = "u^6 - u^4 + 2*u^2 - 1"

    def test_arithmetic_is_reduction_of_gpoly_arithmetic(self):
        m = P(self.SEED_CORE)
        ring = ResidueRing(m)
        rng = random.Random(13)
        for _ in range(100):
            a = GPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
            b = GPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
            k = rng.randint(-5, 5)
            ra, rb = ring.element(a), ring.element(b)
            assert ra.poly() == rem_monic(a, m)
            assert (ra * rb).poly() == rem_monic(a * b, m)
            assert (ra + rb).poly() == rem_monic(a + b, m)
            assert (ra - rb).poly() == rem_monic(a - b, m)
            assert (-ra).poly() == rem_monic(-a, m)
            assert (ra * k).poly() == (k * ra).poly() == rem_monic(a * k, m)
            assert (ra + k).poly() == (k + ra).poly() == rem_monic(a + k, m)
            assert (ra - k).poly() == rem_monic(a - k, m)
            assert (k - ra).poly() == rem_monic(k - a, m)

    @pytest.mark.parametrize("modulus", [SEED_CORE, "u^2"])
    def test_windows_equal_the_reduced_recurrence(self, modulus):
        # p_{k+1} = t p_k - p_{k-1} reduced by rem_monic at every step, for
        # the two window arguments of the coloring: -u and -2 - u^2
        m = P(modulus)
        ring = ResidueRing(m)
        N = 2000
        for t in (-U, -(U * U) - 2):
            seq = [GPoly.zero(), GPoly.one()]
            for _ in range(N + 1):
                seq.append(rem_monic(t * seq[-1] - seq[-2], m))

            def p(j):
                return seq[j] if j >= 0 else -seq[-j]

            rt = ring.element(t)
            for n in range(-N, N + 1):
                got = [x.poly() for x in p_window(rt, n)]
                assert got == [p(n - 1), p(n), p(n + 1)], n

    @pytest.mark.parametrize("modulus", ["2*u^2 + 1", "-u^3 + u", "0"])
    def test_non_monic_modulus_is_refused(self, modulus):
        with pytest.raises(ValueError, match="monic"):
            ResidueRing(P(modulus))

    def test_non_real_modulus_is_refused(self):
        # no GPoly holds a non-real coefficient: the text and JSON forms of
        # one are refused before a ring can be built on it
        with pytest.raises(ValueError, match="integer"):
            ResidueRing(P("u^2 + i"))
        with pytest.raises(ValueError, match="integer"):
            ResidueRing(poly_from_json({"coeffs": [["0", "1"], ["0", "0"],
                                                   ["1", "0"]]}))

    def test_refusals_hold_under_optimize(self):
        # the checks must not be asserts, which -O removes
        code = (
            "from twobridge.polys import ResidueRing, parse_poly\n"
            "for make in (lambda: ResidueRing(parse_poly('2*u^2 + 1')),\n"
            "             lambda: parse_poly('u^2 + i'),\n"
            "             lambda: parse_poly('u^2 + y')):\n"
            "    try:\n"
            "        make()\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(twobridge.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            x for x in (src, env.get("PYTHONPATH")) if x)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_degree_zero_modulus_is_the_zero_ring(self):
        ring = ResidueRing(GPoly.one())
        assert (ring.u * ring.u - 2).poly() == GPoly.zero()
