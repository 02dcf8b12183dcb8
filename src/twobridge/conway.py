"""Two-bridge link descriptors: Conway words, J-notation, Schubert fractions.

Conventions used throughout:

* A Conway word C[n_1, ..., n_k] has slope given by the continued fraction
  [n_1, ..., n_k] = 1/(n_1 + 1/(n_2 + ... + 1/n_k)).
* J(n_1, ..., n_k) = C[n_1, -n_2, n_3, ..., (-1)^(k+1) n_k], so in J-notation
  a positive entry always means right-handed twists.
* A fraction beta/alpha is stored with 0 < beta < alpha, gcd = 1.  alpha odd
  means a knot, alpha even a 2-component link.  The mirror of (alpha, beta)
  is (alpha, alpha - beta); reduction of beta mod alpha keeps mirror classes
  distinct, so no separate mirror flag is carried.
"""

from __future__ import annotations

import dataclasses
import math
import re


class DescriptorError(ValueError):
    """Malformed or degenerate two-bridge descriptor."""


@dataclasses.dataclass(frozen=True)
class Fraction:
    """Schubert fraction beta/alpha of a two-bridge link."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha <= 0:
            raise DescriptorError("alpha must be positive")
        if not 0 < self.beta < self.alpha:
            raise DescriptorError("beta must satisfy 0 < beta < alpha")
        if math.gcd(self.alpha, self.beta) != 1:
            raise DescriptorError(
                "gcd(%d, %d) != 1" % (self.alpha, self.beta)
            )

    @staticmethod
    def normalized(alpha: int, beta: int) -> "Fraction":
        """Reduce beta mod alpha into (0, alpha)."""
        if alpha <= 0:
            raise DescriptorError("alpha must be positive")
        b = beta % alpha
        if b == 0:
            if alpha == 1:
                raise DescriptorError("trivial/degenerate tangle (unknot)")
            raise DescriptorError("beta divisible by alpha")
        return Fraction(alpha, b)

    @property
    def is_knot(self) -> bool:
        return self.alpha % 2 == 1

    def mirror(self) -> "Fraction":
        return Fraction(self.alpha, self.alpha - self.beta)

    def inverse_class(self) -> "Fraction":
        """The fraction of the upside-down diagram: beta' = beta^(-1) mod alpha."""
        return Fraction(self.alpha, pow(self.beta, -1, self.alpha))

    def unoriented_class(self) -> tuple:
        """Canonical key of the unoriented equivalence class {beta, beta^-1}."""
        return (self.alpha, min(self.beta, pow(self.beta, -1, self.alpha)))

    def __str__(self):
        return "%d/%d" % (self.beta, self.alpha)


@dataclasses.dataclass(frozen=True)
class ConwayWord:
    """A block sequence in C-convention.  Zero blocks are permitted on input;
    normalize_zeros removes them."""

    blocks: tuple
    notation: str = "C"  # notation the word was written in, for display only

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(int(n) for n in self.blocks))
        if self.notation not in ("C", "J"):
            raise DescriptorError("notation must be 'C' or 'J'")

    @staticmethod
    def from_j(blocks) -> "ConwayWord":
        """Interpret blocks as J-notation and store the C-form."""
        c = tuple(n if i % 2 == 0 else -n for i, n in enumerate(blocks))
        return ConwayWord(c, notation="J")

    @property
    def j_blocks(self) -> tuple:
        return tuple(n if i % 2 == 0 else -n for i, n in enumerate(self.blocks))

    def __len__(self):
        return len(self.blocks)

    def __str__(self):
        return "C[%s]" % ",".join(str(n) for n in self.blocks)


# -- parsing ------------------------------------------------------------


_DESCRIPTOR_RES = (
    ("C", re.compile(r"^C\[(-?\d+(?:,-?\d+)*)\]$")),
    ("J", re.compile(r"^J\((-?\d+(?:,-?\d+)*)\)$")),
    ("S", re.compile(r"^S\((\d+),(-?\d+)\)$")),
    ("F", re.compile(r"^(-?\d+)/(\d+)$")),
)


def parse_descriptor(text: str):
    """Parse 'C[...]', 'J(...)', 'S(alpha,beta)' or 'beta/alpha'.

    Returns a ConwayWord or a Fraction.  Whitespace is ignored.
    """
    s = re.sub(r"\s+", "", text)
    for kind, rx in _DESCRIPTOR_RES:
        m = rx.match(s)
        if not m:
            continue
        if kind == "C":
            return ConwayWord(tuple(int(x) for x in m.group(1).split(",")))
        if kind == "J":
            return ConwayWord.from_j(int(x) for x in m.group(1).split(","))
        if kind == "S":
            return Fraction.normalized(int(m.group(1)), int(m.group(2)))
        return Fraction.normalized(int(m.group(2)), int(m.group(1)))
    raise DescriptorError("unrecognized descriptor: %r" % text)


# -- slope arithmetic -----------------------------------------------------


def slope_pair(word: ConwayWord) -> tuple:
    """(beta, alpha) of the continued fraction, alpha >= 0, coprime.

    beta may be negative or exceed alpha; use slope() for the normalized
    Fraction.  Zero blocks are handled by plain rational arithmetic.
    """
    p, q = 0, 1  # value of the empty tail is 0/1
    for n in reversed(word.blocks):
        # 1/(n + p/q) = q/(n q + p)
        p, q = q, n * q + p
    if q < 0:
        p, q = -p, -q
    return p, q


def slope(word: ConwayWord) -> Fraction:
    """The Schubert fraction of the word; raises on degenerate tangles."""
    p, q = slope_pair(word)
    if q == 0 or p == 0:
        raise DescriptorError("trivial/degenerate tangle: slope %d/%d" % (p, q))
    return Fraction.normalized(q, p)


def canonical_word(frac: Fraction) -> ConwayWord:
    """The unique all-positive continued fraction word with last entry >= 2."""
    blocks = []
    num, den = frac.alpha, frac.beta
    while den:
        q, r = divmod(num, den)
        blocks.append(q)
        num, den = den, r
    # gcd = 1 guarantees the loop ends with den 0, num 1|... and q >= 1 entries
    if blocks and blocks[-1] == 1 and len(blocks) > 1:
        blocks.pop()
        blocks[-1] += 1
    return ConwayWord(tuple(blocks))


def even_expansion(frac: Fraction) -> ConwayWord:
    """An all-even Conway word for the same unoriented link, mirror excluded.

    The target slope is beta' = beta (kept when the parity already fits) or
    beta - alpha, both congruent to beta mod alpha, never to -beta.  Greedy
    even continued fraction: at each step take the even quotient minimizing
    the remainder.  Word length is even exactly for knots.
    """
    if frac.is_knot:
        target = frac.beta if frac.beta % 2 == 0 else frac.beta - frac.alpha
    else:
        target = frac.beta  # beta is odd whenever alpha is even
    num, den = target, frac.alpha
    blocks = []
    while num:
        # want 1/(q + r) = num/den with q even, |r| <= 1
        lo = (den // num) // 2 * 2
        q = min((lo, lo + 2), key=lambda c: (abs(den - c * num), abs(c)))
        blocks.append(q)
        num, den = den - q * num, num
        if den < 0:
            num, den = -num, -den
    word = ConwayWord(tuple(blocks))
    assert all(n % 2 == 0 and n != 0 for n in blocks)
    return word


def transform_word(word: ConwayWord, kind: str) -> ConwayWord:
    """mirror, upside_down, or reverse_orientation_marker.

    upside_down reverses the block order and scales by (-1)^(k+1); the
    orientation marker only changes the notation tag carried for display
    (block content is orientation-independent).
    """
    if kind == "mirror":
        return ConwayWord(tuple(-n for n in word.blocks), word.notation)
    if kind == "upside_down":
        k = len(word.blocks)
        s = 1 if k % 2 == 1 else -1
        return ConwayWord(tuple(s * n for n in reversed(word.blocks)), word.notation)
    if kind == "reverse_orientation_marker":
        return word
    raise DescriptorError("unknown transform kind %r" % kind)


def normalize_zeros(word: ConwayWord) -> ConwayWord:
    """Remove zero blocks by the tangle identity [..., a, 0, b, ...] ->
    [..., a+b, ...]; a trailing [..., a, 0] drops the final pair.  The slope
    is preserved.  Raises if the reduction empties the word."""
    blocks = list(word.blocks)
    changed = True
    while changed:
        changed = False
        for i, n in enumerate(blocks):
            if n != 0:
                continue
            if i == 0:
                raise DescriptorError("leading zero block is not reducible")
            if i == len(blocks) - 1:
                del blocks[i - 1 : i + 1]
            else:
                blocks[i - 1 : i + 2] = [blocks[i - 1] + blocks[i + 1]]
            changed = True
            break
    if not blocks:
        raise DescriptorError("unknot/degenerate word after zero reduction")
    return ConwayWord(tuple(blocks), word.notation)


def word_of(descriptor) -> ConwayWord:
    """The word a descriptor is colored on: the canonical word of a
    Fraction, or a ConwayWord with its zero blocks removed."""
    if isinstance(descriptor, Fraction):
        return canonical_word(descriptor)
    return normalize_zeros(descriptor)
