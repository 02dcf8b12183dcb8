"""Parabolic SL(2,C) representation data of 2-bridge knots and links.

Exact rep-polynomials via symplectic-quandle coloring of plat diagrams,
Riley polynomials from the word matrix, integer splittings, numeric arc
colorings, complex volumes, cusp shapes, and epimorphism divisibility.
"""

from .conway import ConwayWord, Fraction, parse_descriptor, slope, \
    canonical_word, even_expansion, normalize_zeros, transform_word, word_of
from .coloring import (
    color_even_expansion,
    color_general_word,
    rep_poly_pair,
    rep_polynomial,
    ui_sequence,
)
from .polys import GPoly, PolyMatrix2, U, exact_divide, even_part_as_y, \
    format_poly, parse_poly, sign_normalize
from .riley import (
    Splitting,
    epsilon_sequence,
    riley_polynomial,
    split_polynomial,
    trace_field_witness,
    unit_certificate,
    verify_bridge,
)
from .geometry import (
    ParabolicRep,
    RegionData,
    arc_vectors_at_root,
    complex_volume,
    cusp_shape,
    dilog,
    find_roots,
    region_coloring,
)
from .epi import OrsSpec, census_build, divisibility_check, ors_factor_property, ors_word

__version__ = "0.1.0"
