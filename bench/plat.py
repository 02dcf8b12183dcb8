"""The benchmark's own model of a two-bridge plat and its symplectic-quandle
coloring, written apart from the package so that it can confirm outputs.

A word of Conway blocks is drawn as a 4-strand plat read top to bottom.
Odd-numbered blocks twist the strands at positions 1 and 2, even-numbered
blocks those at 0 and 1; the caps at the top carry the vectors a (positions
0, 1) and b (positions 2, 3).  At a crossing the pair (x, y) becomes
(x, y) X(d <x, y>) for a right-handed block and (x, y) X(d <x, y>)^-1 for a
left-handed one, with X(v) = [[0, -1], [1, -v]] and d the vertical
direction (+1 downward) of the strand passing under.  The arithmetic is
generic: mpmath numbers give the numeric coloring at a root, checks.ZPoly
values the exact coloring over Z[u].
"""

from __future__ import annotations


def j_blocks(blocks):
    """C-convention blocks to the signed twists of the plat, block by block."""
    return [n if i % 2 == 0 else -n for i, n in enumerate(blocks)]


def _closes_directionally(j, d) -> bool:
    if len(j) % 2 == 1:
        return d[0] == -d[1] and d[2] == -d[3]
    return d[0] == -d[3] and d[1] == -d[2]


def orientation_consistent(blocks, orientation) -> bool:
    """Do the top directions (d2, d3) close up into an oriented link?"""
    j = j_blocks(blocks)
    d2, d3 = orientation
    d = [-d2, d2, d3, -d3]
    for i, n in enumerate(j, start=1):
        left = 1 if i % 2 == 1 else 0
        if abs(n) % 2 == 1:
            d[left], d[left + 1] = d[left + 1], d[left]
    return _closes_directionally(j, d)


def det(x, y):
    return x[0] * y[1] - x[1] * y[0]


def propagate(blocks, orientation, a, b, stop_before=None):
    """Color the plat crossing by crossing from the top pair (a, a, b, b).

    Returns the four vectors at the bottom, or, with stop_before = i, the
    vectors entering block i (1-based) together with the determinant of the
    pair it twists.
    """
    j = j_blocks(blocks)
    d2, d3 = orientation
    d = [-d2, d2, d3, -d3]
    vecs = [a, a, b, b]
    for i, n in enumerate(j, start=1):
        left = 1 if i % 2 == 1 else 0
        if i == stop_before:
            return vecs, det(vecs[left], vecs[left + 1])
        hand = 1 if n > 0 else -1
        for _ in range(abs(n)):
            x, y = vecs[left], vecs[left + 1]
            under = d[left + 1] if hand > 0 else d[left]
            du = under * det(x, y)
            if hand > 0:
                new = (y, (-x[0] - du * y[0], -x[1] - du * y[1]))
            else:
                new = ((-du * x[0] - y[0], -du * x[1] - y[1]), x)
            vecs[left], vecs[left + 1] = new
            d[left], d[left + 1] = d[left + 1], d[left]
    return vecs


def closure_gap(blocks, vecs, b):
    """How far the bottom vectors are from closing the plat: the last
    twisted pair must match up to sign, and the free strand must return to
    +-b.  Zero exactly at a parabolic representation."""

    def gap(x, y):
        return min(max(abs(x[0] - y[0]), abs(x[1] - y[1])),
                   max(abs(x[0] + y[0]), abs(x[1] + y[1])))

    if len(blocks) % 2 == 1:
        return max(gap(vecs[2], b), gap(vecs[1], vecs[0]))
    return max(gap(vecs[0], b), gap(vecs[1], vecs[2]))
