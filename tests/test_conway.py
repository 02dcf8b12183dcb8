import math

import pytest
from hypothesis import given, settings, strategies as st

from twobridge.conway import (
    ConwayWord,
    DescriptorError,
    Fraction,
    canonical_word,
    even_expansion,
    normalize_zeros,
    parse_descriptor,
    slope,
    slope_pair,
    transform_word,
)


def inverse_class(f):
    """The fraction of the upside-down diagram: beta' = beta^(-1) mod alpha."""
    return Fraction(f.alpha, pow(f.beta, -1, f.alpha))


def coprime_fractions(max_alpha):
    for alpha in range(2, max_alpha + 1):
        for beta in range(1, alpha):
            if math.gcd(alpha, beta) == 1:
                yield Fraction(alpha, beta)


class TestParse:
    def test_c_word(self):
        w = parse_descriptor("C[2,3]")
        assert isinstance(w, ConwayWord) and w.blocks == (2, 3)

    def test_schubert(self):
        f = parse_descriptor("S(7,3)")
        assert f == Fraction(7, 3)
        assert canonical_word(f).blocks == (2, 3)

    def test_zero_block_accepted(self):
        w = parse_descriptor("C[2,3,0,3,2,-2,2,3]")
        assert 0 in w.blocks

    def test_j_notation(self):
        w = parse_descriptor("J(2,2)")
        assert w.blocks == (2, -2)
        assert w.j_blocks == (2, 2)

    def test_j_and_c_forms_are_one_word(self):
        j, c = parse_descriptor("J(2,2)"), parse_descriptor("C[2,-2]")
        assert j == c and hash(j) == hash(c)

    def test_fraction_text(self):
        assert parse_descriptor("3/7") == Fraction(7, 3)
        assert parse_descriptor("-4/7") == Fraction(7, 3)

    def test_whitespace(self):
        assert parse_descriptor(" C[ 2, 3 ]".replace(" ", "")) == \
            parse_descriptor("C [2 , 3]")

    def test_errors(self):
        for bad in ("C[]", "S(6,3)", "S(0,1)", "0/5", "x", "C[1,]"):
            with pytest.raises(DescriptorError):
                parse_descriptor(bad)


class TestSlope:
    def test_single_block(self):
        assert slope(ConwayWord((3,))) == Fraction(3, 1)

    def test_paper_pairs(self):
        assert slope(ConwayWord((2, 3))) == Fraction(7, 3)
        assert slope(ConwayWord((1, 2, 2))) == Fraction(7, 5)

    def test_big_word(self):
        assert slope(parse_descriptor("C[2,3,0,3,2,-2,2,3]")) == Fraction(217, 101)

    def test_degenerate(self):
        with pytest.raises(DescriptorError):
            slope(ConwayWord((1, -1)))
        with pytest.raises(DescriptorError):
            slope(ConwayWord((2, 0)))

    def test_slope_pair_coprime(self):
        p, q = slope_pair(ConwayWord((2, -3, 4)))
        assert math.gcd(p, q) == 1


class TestCanonicalWord:
    def test_examples(self):
        assert canonical_word(Fraction(7, 3)).blocks == (2, 3)
        assert canonical_word(Fraction(7, 5)).blocks == (1, 2, 2)
        assert canonical_word(Fraction(3, 1)).blocks == (3,)

    def test_no_trailing_one(self):
        for f in coprime_fractions(60):
            w = canonical_word(f)
            assert all(n > 0 for n in w.blocks)
            if len(w.blocks) > 1:
                assert w.blocks[-1] != 1

    def test_roundtrip_alpha_200(self):
        for f in coprime_fractions(200):
            assert slope(canonical_word(f)) == f


class TestEvenExpansion:
    def test_trefoil(self):
        w = even_expansion(Fraction(3, 1))
        assert all(n % 2 == 0 for n in w.blocks)
        assert slope(w) == Fraction(3, 1)

    def test_fig8_already_even(self):
        assert even_expansion(Fraction(5, 2)).blocks == (2, 2)

    def test_3_7_class(self):
        w = even_expansion(Fraction(7, 3))
        f = slope(w)
        assert f.alpha == 7 and f.beta in (3, 5)

    def test_all_alpha_200(self):
        for f in coprime_fractions(200):
            w = even_expansion(f)
            assert all(n % 2 == 0 and n != 0 for n in w.blocks)
            # knot <=> even length
            assert (len(w.blocks) % 2 == 0) == f.is_knot
            got = slope(w)
            # same unoriented class, mirror excluded
            assert got.alpha == f.alpha
            assert got.beta in (f.beta, pow(f.beta, -1, f.alpha))


class TestTransforms:
    def test_mirror(self):
        assert transform_word(ConwayWord((2, 3)), "mirror").blocks == (-2, -3)

    def test_upside_down_even_length(self):
        assert transform_word(ConwayWord((2, 3)), "upside_down").blocks == (-3, -2)

    def test_upside_down_palindrome(self):
        assert transform_word(ConwayWord((3,)), "upside_down").blocks == (3,)

    def test_double_mirror_identity(self):
        w = ConwayWord((2, -3, 4))
        assert transform_word(transform_word(w, "mirror"), "mirror") == w

    def test_upside_down_inverse_class(self):
        # beta * beta' == +-1 mod alpha for the flipped diagram
        for f in coprime_fractions(80):
            w = canonical_word(f)
            ud = transform_word(w, "upside_down")
            g = slope(ud)
            assert g.alpha == f.alpha
            assert (f.beta * g.beta) % f.alpha in (1, f.alpha - 1)

    def test_double_upside_down_same_class(self):
        for f in coprime_fractions(50):
            w = canonical_word(f)
            dd = transform_word(transform_word(w, "upside_down"), "upside_down")
            g = slope(dd)
            assert g.alpha == f.alpha
            assert g.beta in (f.beta, pow(f.beta, -1, f.alpha),
                              f.alpha - f.beta,
                              f.alpha - pow(f.beta, -1, f.alpha))


class TestNormalizeZeros:
    def test_paper_example(self):
        assert normalize_zeros(ConwayWord((3, 2, 3, 0, 3))).blocks == (3, 2, 6)

    def test_simple_merge(self):
        assert normalize_zeros(ConwayWord((2, 0, 2))).blocks == (4,)

    def test_big_word_single_step(self):
        w = normalize_zeros(parse_descriptor("C[2,3,0,3,2,-2,2,3]"))
        assert w.blocks == (2, 6, 2, -2, 2, 3)
        assert slope(w) == Fraction(217, 101)

    def test_cascading(self):
        w = ConwayWord((2, 1, 0, -1, 0, 5))
        assert normalize_zeros(w).blocks == (2, 5)
        assert slope(normalize_zeros(w)) == slope(w)

    def test_slope_preserved(self):
        for blocks in ((3, 0, 4), (2, 5, 0, 1), (1, 0, 1, 0, 3)):
            w = ConwayWord(blocks)
            try:
                before = slope(w)
            except DescriptorError:
                continue
            assert slope(normalize_zeros(w)) == before

    def test_empty_error(self):
        with pytest.raises(DescriptorError):
            normalize_zeros(ConwayWord((2, 0)))


class TestFraction:
    def test_invariants(self):
        with pytest.raises(DescriptorError):
            Fraction(6, 3)
        with pytest.raises(DescriptorError):
            Fraction(5, 0)
        assert Fraction.normalized(7, -4) == Fraction(7, 3)

    def test_knot_parity(self):
        assert Fraction(7, 3).is_knot
        assert not Fraction(8, 3).is_knot

    def test_mirror_and_inverse(self):
        f = Fraction(7, 3)
        assert f.mirror() == Fraction(7, 4)
        assert inverse_class(f) == Fraction(7, 5)

    @given(st.integers(3, 400))
    @settings(max_examples=60)
    def test_class_key_symmetric(self, alpha):
        for beta in range(1, alpha):
            if math.gcd(alpha, beta) != 1:
                continue
            f = Fraction(alpha, beta)
            assert f.unoriented_class() == inverse_class(f).unoriented_class()
