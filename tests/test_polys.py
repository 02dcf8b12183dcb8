import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from twobridge.polys import (
    GPoly,
    GaussInt,
    PolyMatrix2,
    U,
    cheb,
    eval_complex,
    even_part_as_y,
    exact_divide,
    expand_at_u_squared,
    format_poly,
    gauss_divides,
    int_value,
    parse_poly,
    poly_from_json,
    poly_to_json,
    rem_monic,
    sign_normalize,
    sl2_power,
    substitute_iu,
    unit_normalize,
)


def P(text):
    return parse_poly(text)


class TestArithmetic:
    def test_distributivity_example(self):
        assert P("u^2-1") * U == P("u^3-u")

    def test_additive_inverse(self):
        p = P("3*u^4 - 2*u + 7")
        assert (p + (-p)).is_zero()

    def test_product_example_5_2(self):
        assert P("u^3+u^2-1") * P("u^3-u^2+1") == P("u^6-u^4+2*u^2-1")

    def test_gauss_product(self):
        p = GPoly.from_coeffs([(0, 1), (1, 0)])  # u + i
        q = GPoly.from_coeffs([(0, -1), (1, 0)])  # u - i
        assert p * q == P("u^2+1")

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


class TestEval:
    def test_i_is_root(self):
        assert abs(eval_complex(P("u^2+1"), mp.mpc(0, 1))) == 0

    def test_trefoil_root(self):
        assert abs(eval_complex(P("u^3-u"), 1)) == 0

    def test_table_root(self):
        v = eval_complex(P("u^3+u^2-1"), mp.mpf("0.75487766"), precision=64)
        assert abs(v) < 1e-6

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            eval_complex(U, 1.0, precision=16)


class TestSubstitutions:
    def test_whitehead_variants(self):
        p = P("u^4+2*u^2+2")
        assert sign_normalize(substitute_iu(p)) == P("u^4-2*u^2+2")

    def test_variable(self):
        assert substitute_iu(U) == GPoly.from_coeffs([(0, 0), (0, 1)])

    def test_trefoil_iu(self):
        # i P(iu) = u(u^2+1) for P = u(u^2-1)
        q = substitute_iu(P("u^3-u"))
        assert q.scale_unit(1) == P("u^3+u")
        assert sign_normalize(q) == P("u^3+u")

    def test_double_substitution_is_negation(self):
        p = P("u^5 - 4*u^2 + u - 9")
        assert substitute_iu(substitute_iu(p)) == p.substitute_neg()

    def test_unit_normalize_resolves_units(self):
        p = P("u^2 - 3")
        for k in range(4):
            q, unit = unit_normalize(p.scale_unit(k))
            assert q == p

    def test_unit_normalize_is_a_normal_form(self):
        # every leading coefficient in a box of Z[i], times each unit,
        # normalizes to one polynomial, with leading coefficient in the
        # quadrant re > 0, im >= 0
        for a in range(-3, 4):
            for b in range(-3, 4):
                if a == b == 0:
                    continue
                p = GPoly.from_coeffs([(2, -1), (0, 5), (a, b)])
                forms = {unit_normalize(p.scale_unit(k))[0] for k in range(4)}
                assert len(forms) == 1
                q, unit = unit_normalize(p)
                assert q == p.scale_unit(unit)
                assert q.leading().re > 0 and q.leading().im >= 0


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
        assert cheb("p", 3) == P("t^2-1").compose(U) or cheb("p", 3) == P("u^2-1")

    def test_negative_index(self):
        assert cheb("p", -2) == -cheb("p", 2) == -U

    def test_value_at_two(self):
        for n in range(51):
            assert eval_complex(cheb("p", n), 2) == n

    def test_f_v_definitions(self):
        for n in range(-5, 12):
            assert cheb("f", n) == cheb("p", n + 1) - cheb("p", n)
            assert cheb("v", n) == cheb("p", n + 1) - cheb("p", n - 1)

    def test_deep_index(self):
        # p_n is built iteratively: a recursive p_n overflowed the stack
        p600 = cheb("p", 600)
        assert p600.degree == 599
        assert p600.compose(GPoly([2])) == GPoly([600])


def _random_unimodular(rng):
    # product of elementary shears has determinant one
    m = PolyMatrix2.identity()
    for _ in range(rng.randint(1, 3)):
        c = GPoly([rng.randint(-2, 2), rng.randint(-1, 1)])
        if rng.random() < 0.5:
            e = PolyMatrix2(GPoly.one(), c, GPoly.zero(), GPoly.one())
        else:
            e = PolyMatrix2(GPoly.one(), GPoly.zero(), c, GPoly.one())
        m = m * e
    return m


class TestSL2Power:
    def x_matrix(self):
        return PolyMatrix2(GPoly.zero(), -GPoly.one(), GPoly.one(), -U)

    def test_x_squared(self):
        m2 = sl2_power(self.x_matrix(), 2)
        assert m2.a11 == P("-1") and m2.a12 == U
        assert m2.a21 == -U and m2.a22 == P("u^2-1")

    def test_identity(self):
        m = _random_unimodular(random.Random(7))
        p0 = sl2_power(m, 0)
        assert p0.a11 == GPoly.one() and p0.a22 == GPoly.one()
        assert p0.a12.is_zero() and p0.a21.is_zero()

    def test_chebyshev_entries(self):
        X = self.x_matrix()
        for k in (3, 5):
            mk = sl2_power(X, k)
            pk = cheb("p", k).compose(-U)
            pk1 = cheb("p", k + 1).compose(-U)
            pkm = cheb("p", k - 1).compose(-U)
            assert mk.a12 == -pk and mk.a21 == pk
            assert mk.a11 == -pkm and mk.a22 == pk1

    def test_det_enforced(self):
        bad = PolyMatrix2(U, GPoly.zero(), GPoly.zero(), U)
        with pytest.raises(ValueError):
            sl2_power(bad, 2)

    def test_matches_naive_power(self):
        rng = random.Random(2024)
        for _ in range(10):
            m = _random_unimodular(rng)
            for n in range(-12, 13):
                assert sl2_power(m, n) == m ** n

    def test_deep_power(self):
        X = self.x_matrix()
        assert sl2_power(X, 600) == X ** 600

    def test_numeric_variant(self):
        m = ((1.0 + 0j, 1.0 + 0j), (0j, 1.0 + 0j))
        p = sl2_power(m, 5)
        assert abs(p[0][1] - 5) < 1e-12


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
                assert p(n * m) == p(n).compose(v(m)) * p(m)
            for k in range(1, 6):
                lhs = f(n).compose(-v(2 * k))
                rhs = f(n).compose(v(k)) * f(n).compose(-v(k))
                assert lhs == rhs


class TestTextAndJson:
    def test_format(self):
        assert format_poly(P("u^6 - u^4 + 2*u^2 - 1")) == "u^6 - u^4 + 2*u^2 - 1"
        assert format_poly(GPoly.zero()) == "0"
        assert format_poly(-U) == "-u"

    def test_parse_gaussian(self):
        p = parse_poly("(1+2i)*u^2 - i*u + 3")
        assert p.coeff(2) == GaussInt(1, 2)
        assert p.coeff(1) == GaussInt(0, -1)
        assert p.coeff(0) == GaussInt(3, 0)

    def test_variable_agnostic(self):
        assert parse_poly("y^2 - y + 1") == parse_poly("u^2 - u + 1")

    @given(st.lists(st.integers(-99, 99), min_size=1, max_size=9))
    def test_text_roundtrip(self, xs):
        p = GPoly(xs)
        assert parse_poly(format_poly(p)) == p

    @given(st.lists(st.tuples(st.integers(-10 ** 30, 10 ** 30),
                              st.integers(-10 ** 30, 10 ** 30)),
                    min_size=1, max_size=6))
    def test_json_roundtrip(self, pairs):
        p = GPoly.from_coeffs(pairs)
        assert poly_from_json(poly_to_json(p)) == p

    def test_repr(self):
        assert repr(P("u^2 - 1")) == "GPoly(u^2 - 1)"
        assert repr(GPoly.zero()) == "GPoly(0)"

    def test_bigint_coefficients_survive(self):
        big = 10 ** 80 + 7
        p = GPoly([big, -big])
        assert poly_from_json(poly_to_json(p)).coeff(0).re == big


class TestStripZeroRoots:
    def test_counts_zero_roots(self):
        assert P("u^5+2*u^3").strip_zero_roots() == (P("u^2+2"), 3)
        assert P("u+1").strip_zero_roots() == (P("u+1"), 0)

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            GPoly.zero().strip_zero_roots()


class TestIntegerValues:
    def test_value(self):
        assert int_value(GPoly.from_coeffs([1, (0, 2), 3]), 2) == (13, 4)
        assert int_value(GPoly([]), 5) == (0, 0)

    def test_gauss_divides(self):
        assert gauss_divides((1, 1), (2, 0))       # 2 = (1+i)(1-i)
        assert not gauss_divides((2, 0), (1, 1))
        assert gauss_divides((0, 0), (0, 0))
        assert not gauss_divides((0, 0), (1, 0))

    def test_every_divisor_passes_the_value_screen(self):
        rng = random.Random(5)
        def draw():
            n = rng.randint(1, 6)
            return GPoly([rng.randint(-9, 9) for _ in range(n)],
                         [rng.randint(-9, 9) for _ in range(n)])

        for _ in range(50):
            a, b = draw(), draw()
            for t in (2, 3, 5):
                assert gauss_divides(int_value(a, t), int_value(a * b, t))
