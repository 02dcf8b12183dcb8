"""The four workloads: inputs made from a seed, timed rounds and checks.

Importing this module imports twobridge and mpmath; constructing a
workload generates its inputs.  Both count towards setup time.  A round
runs the whole input set once; every round of a run repeats the same
operations, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import signal
import time

import mpmath  # noqa: F401  (imported here so that setup time covers it)

from twobridge import cli, coloring, epi, riley
from twobridge.conway import ConwayWord, Fraction, slope

import checks
import plat

clock = time.perf_counter


class Round:
    """One pass over the input set: its wall time, the times of the items
    the item metrics are taken over (same order every round), the number of
    operations attempted, failed item indices and the outputs to check."""

    def __init__(self, wall, times, failed, outputs, attempted=None):
        self.wall = wall
        self.times = times
        self.failed = failed
        self.outputs = outputs
        self.attempted = len(times) if attempted is None else attempted


# -- census ----------------------------------------------------------------


class Census:
    """`census --max-alpha N` through the CLI entry point, in process.

    The census is one call, so it is the round's single item; every class
    it builds counts as an operation.  Each round writes to a fresh --out
    path, because the census reuses records from an existing output file.
    The input set is fixed by N; the seed draws the points of the Riley
    word-matrix check.
    """

    def __init__(self, seed, max_alpha, geometry, out_dir):
        self.seed = seed
        self.argv = ["census", "--max-alpha", str(max_alpha)]
        if not geometry:
            self.argv.append("--no-geometry")
        self.geometry = geometry
        self.out_dir = out_dir
        self.classes = len(epi.class_representatives(max_alpha))
        self.serial = 0

    def run_round(self):
        self.serial += 1
        path = os.path.join(self.out_dir, "census-%d-%d.jsonl"
                            % (os.getpid(), self.serial))
        if os.path.exists(path):
            os.remove(path)
        t0 = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv + ["--out", path])
        wall = clock() - t0
        records, edges = [], []
        if os.path.exists(path):
            with open(path) as fh:
                for line in fh:
                    obj = json.loads(line)
                    (edges if obj.get("type") == "edge" else records).append(obj)
            os.remove(path)
        failed = [] if rc == 0 else list(range(self.classes))
        return Round(wall, [wall], failed, (rc, records, edges),
                     attempted=self.classes)

    @staticmethod
    def candidates(records):
        """The polynomials each class offers as the divisible side of an
        edge, from the package, in the order the census tries them."""
        return {(r["alpha"], r["beta"]): [
            (name, checks.from_gpoly(p)) for name, p in
            epi.rep_poly_set(Fraction(r["alpha"], r["beta"]))]
            for r in records}

    def check(self, rnd):
        rc, records, edges = rnd.outputs
        if rc != 0:
            return ["census exited with code %d" % rc]
        rng = random.Random(self.seed)
        out = checks.census_records(records, rng)
        cands = self.candidates(records)
        out += checks.census_candidates(records, cands, rng)
        out += checks.census_edges(records, edges, cands)
        if self.geometry:
            out += checks.roots_match(records)
            out += checks.geometry(records)
        return out


# -- large exact polynomials -------------------------------------------------

# Strata of fractions with alpha between 1000 and 3000; the seed picks one
# member per stratum.  At a fixed alpha the cost of the knot engine swings
# by 30x with the shape of the even expansion, so a plain random draw would
# make the round time follow the draw.  The members of a stratum are
# distinct knots, or distinct links, whose item times (rep-polynomial, or
# the pair for a link, plus Riley polynomial) were within about 15 % of each
# other on the reference machine.  A long expansion has at least 12 blocks
# and at least 2.5 times as many as the canonical word; there most of the
# item time is the even-expansion engine that rep_polynomial uses on knots
# (the canonical word colors 2 to 7 times faster), and the long strata
# take about as much of a round as the short-expansion knot strata.  The
# seconds are item times measured when the list was made; the four strata
# from 1.6 to 2.2 s sit in the middle, so the median item comes from a
# cluster rather than from one timing.
EXACT_STRATA = (
    # knot, short expansion, alpha ~1000: 0.4 s
    ((1025, 427), (1037, 726), (1035, 259), (1029, 389)),
    ((1144, 1035), (1000, 537)),                # link, alpha ~1000: 0.6 s
    # knot, short, alpha ~2000: 1.6 s
    ((1963, 1779), (2027, 608), (1953, 1027)),
    # knot, short, alpha ~2000: 1.8 s
    ((1969, 834), (2029, 637), (1985, 516)),
    ((1964, 1307), (2094, 1747)),               # link, alpha ~2000: 2.1 s
    # knot, long expansion (20-34 blocks), alpha ~1700: 2.2 s
    ((1649, 521), (1689, 1636)),
    # knot, short, alpha ~3000: 3.5 s
    ((2947, 1761), (2937, 1190), (2957, 2196)),
    # knot, long expansion (16-28 blocks), alpha 1807-2283: 4.7 s
    ((2283, 589), (1913, 183), (1807, 1722)),
    ((2980, 1379), (2958, 1759)),               # link, alpha ~3000: 6 s
)


class ExactLarge:
    """rep_polynomial (rep_poly_pair for a link) plus riley_polynomial per
    fraction: Z[i] arithmetic only."""

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        self.fracs = [Fraction(*rng.choice(members))
                      for members in EXACT_STRATA]

    def run_round(self):
        times, outs = [], []
        t0 = clock()
        for f in self.fracs:
            t = clock()
            if f.is_knot:
                pair = None
                P = coloring.rep_polynomial(f)
            else:
                pair = coloring.rep_poly_pair(f)
                P = pair[0]
            R = riley.riley_polynomial(f)
            times.append(clock() - t)
            outs.append((P, R, pair))
        return Round(clock() - t0, times, [], outs)

    def check(self, rnd):
        rng = random.Random(self.seed)
        out = []
        for f, (P, R, pair) in zip(self.fracs, rnd.outputs):
            if pair is not None:
                pair = [checks.from_gpoly(p) for p in pair]
            out += checks.exact_item(f.alpha, f.beta, f.is_knot,
                                     checks.from_gpoly(P),
                                     checks.from_gpoly(R), rng, pair)
        return out


# -- ORS expansions ------------------------------------------------------------


class OverBudget(BaseException):
    """An item ran past its time budget.  Not an Exception subclass, so that
    the `except Exception` inside ors_factor_property cannot swallow it."""


# Known fault: ors_factor_property tries orientation (1, 1) first; on this
# spec that orientation is wrong and the coefficients reduced modulo the
# seed polynomial grow doubly exponentially (minutes instead of 4 ms).  It
# is run in every round and fails on the budget every time.
ORS_FAULT_SPECS = (((-3, -3), 5, (2, 2, 2, -1)),)
ORS_BUDGET_S = 2.0
# Draws per (seed length, type) cell.  The randomized test picks both
# uniformly; drawing the same number from every cell keeps that make-up
# and removes its seed-to-seed variation from the timings.  Within a cell
# the seed words are drawn one per band of alpha for the same reason: the
# slowest items, which set item_tail_s, come from the largest seeds.
ORS_DRAWS_PER_CELL = 50
# Draws whose first orientation is wrong finish within about 20 ms while
# the expansion's alpha stays below this.  Beyond it they become the
# slowest items, and from alpha near 10^6 they run past the budget like the
# fault above, on some seeds only; so those draws are left out.
ORS_WRONG_FIRST_MAX_ALPHA = 3000


def _raise_over_budget(signum, frame):
    raise OverBudget()


def _seed_words(m):
    """Seed words of m blocks from {+-1, +-2, +-3} with a proper slope, as
    the randomized test draws them, sorted by alpha."""
    words = []
    for a in itertools.product((-3, -2, -1, 1, 2, 3), repeat=m):
        try:
            words.append((slope(ConwayWord(a)).alpha, a))
        except ValueError:
            continue
    return [a for _, a in sorted(words)]


class Ors:
    """ors_factor_property (modular coloring path) on draws from the
    distribution of the package's randomized ORS test."""

    def __init__(self, seed):
        self.seed = seed
        words_of = {m: _seed_words(m) for m in (1, 2, 3)}
        # every seed word's polynomial, so that set-up does the same work
        # whatever the seed draws
        self.seed_polys = {
            a: coloring.rep_polynomial(slope(ConwayWord(a)))
            for words in words_of.values() for a in words}
        self.prefix_right = {}
        rng = random.Random(seed)
        specs = []
        for m, words in words_of.items():
            for n in (2, 3, 4, 5):
                for k in range(ORS_DRAWS_PER_CELL):
                    # one word from the k-th of equal bands of the words
                    # sorted by alpha: uniform over words, like the test,
                    # with the same spread of seed sizes in every draw
                    i = int((k + rng.random()) * len(words) / ORS_DRAWS_PER_CELL)
                    specs.append(self._draw(words, i, n, rng))
        self.specs = specs + list(ORS_FAULT_SPECS)
        self.fault_index = set(range(len(specs), len(self.specs)))

    def _draw(self, words, i, n, rng):
        """Twists for seed word i (or, failing that, the next words) that
        give a proper expansion the fault cannot reach."""
        for j in range(len(words)):
            a = words[(i + j) % len(words)]
            for _ in range(20):
                c = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(n - 1))
                try:
                    frac = slope(epi.ors_word(epi.OrsSpec(ConwayWord(a), n, c)))
                except ValueError:
                    continue
                if frac.alpha <= ORS_WRONG_FIRST_MAX_ALPHA or \
                        self._first_orientation_right(a, n, c):
                    return a, n, c
        raise RuntimeError("no admissible ORS spec of type %d" % n)

    def _first_orientation_right(self, a, n, c):
        """Does the first orientation ors_factor_property tries make the
        connecting 2c-block's determinant vanish modulo the seed polynomial?
        Computed exactly over Z[u] on the seed prefix alone."""
        blocks = checks.ors_blocks(a, n, c)
        first = next((o for o in ((1, 1), (1, -1))
                      if plat.orientation_consistent(blocks, o)), None)
        if first is None:
            return False
        # the seed prefix depends on the seed word and the orientation only
        if (a, first) not in self.prefix_right:
            re, _ = checks.from_gpoly(self.seed_polys[a])
            core = re[next(k for k, x in enumerate(re) if x):]
            one, zero = checks.ZPoly([1]), checks.ZPoly([])
            _, u_conn = plat.propagate(blocks, first, (one, zero),
                                       (zero, checks.ZPoly([0, 1])),
                                       stop_before=len(a) + 1)
            self.prefix_right[(a, first)] = not checks.rem_monic(u_conn.c, core)
        return self.prefix_right[(a, first)]

    def run_round(self):
        times, outs, failed = [], [], []
        previous = signal.signal(signal.SIGALRM, _raise_over_budget)
        t0 = clock()
        try:
            for i, (a, n, c) in enumerate(self.specs):
                spec = epi.OrsSpec(ConwayWord(a), n, c)
                t = clock()
                try:
                    signal.setitimer(signal.ITIMER_REAL, ORS_BUDGET_S)
                    try:
                        word, witness = epi.ors_factor_property(
                            spec, certify_exact=False)
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    outs.append((word.blocks, witness))
                except OverBudget:
                    failed.append(i)
                    outs.append(None)
                times.append(clock() - t)
        finally:
            signal.signal(signal.SIGALRM, previous)
        return Round(clock() - t0, times, failed, outs)

    def check(self, rnd):
        rng = random.Random(self.seed)
        out = ["C%s type %d c=%s: over the %.1f s budget but not a known fault"
               % (list(self.specs[i][0]), self.specs[i][1],
                  list(self.specs[i][2]), ORS_BUDGET_S)
               for i in rnd.failed if i not in self.fault_index]
        for (a, n, c), got in zip(self.specs, rnd.outputs):
            if got is not None:
                out += checks.ors_item(a, n, c, got[0], got[1],
                                       checks.from_gpoly(self.seed_polys[a]),
                                       rng)
        return out


# -- registry ------------------------------------------------------------------

CENSUS_EXACT_MAX_ALPHA = 31
CENSUS_GEOMETRY_MAX_ALPHA = 11


def make(name, seed, out_dir):
    if name == "census-exact":
        return Census(seed, CENSUS_EXACT_MAX_ALPHA, False, out_dir)
    if name == "census-geometry":
        return Census(seed, CENSUS_GEOMETRY_MAX_ALPHA, True, out_dir)
    if name == "exact-large":
        return ExactLarge(seed)
    if name == "ors":
        return Ors(seed)
    raise ValueError("unknown workload %r" % name)

