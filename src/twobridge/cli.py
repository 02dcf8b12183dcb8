"""Command-line front end.

Subcommands: slope, canon, even, reppoly, uiseq, riley, split, roots, reps,
cusp, volume, epi, ors, census.  Text output is human-readable; --format
json emits a single JSON document with deterministic field order.  Exit
codes: 0 success, 2 descriptor/parse error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath as mp

from . import epi, geometry, riley
from .coloring import ColoringError, rep_polynomial, rep_poly_pair, ui_sequence
from .conway import (
    DescriptorError,
    Fraction,
    canonical_word,
    even_expansion,
    parse_descriptor,
    slope,
    word_of,
)
from .polys import format_poly, poly_to_json

DIGITS = 8


def _num(x):
    """Decimal string with DIGITS places, trailing zeros trimmed."""
    out = ("%." + str(DIGITS) + "f") % float(x)
    out = out.rstrip("0").rstrip(".")
    return out if out not in ("", "-0") else "0"


def _cnum(z):
    return {"re": _num(mp.re(z)), "im": _num(mp.im(z))}


def _ctext(z):
    """Text form of a complex number, e.g. 0.5-0.8660254i or 1+0i."""
    im = _num(mp.im(z))
    return "%s%s%si" % (_num(mp.re(z)), "-" if im[0] == "-" else "+",
                        im.lstrip("-"))


def _word(args):
    """The descriptor argument as the word it is colored on."""
    return word_of(parse_descriptor(args.descriptor))


def _emit(args, doc, text_lines):
    if args.format == "json":
        sys.stdout.write(json.dumps(doc) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _pick_root(roots, spec):
    """--root as an index into the sorted list or a complex anchor value."""
    if spec is None:
        raise DescriptorError("--root is required")
    try:
        idx = int(spec)
    except ValueError:
        pass
    else:
        if not 0 <= idx < len(roots):
            raise DescriptorError("--root index %d out of range 0..%d"
                                  % (idx, len(roots) - 1))
        return roots[idx]
    try:
        z = mp.mpc(complex(spec.replace("i", "j")))
    except ValueError:
        raise DescriptorError("cannot parse --root %r" % spec)
    return min(roots, key=lambda r: abs(r - z))


def cmd_slope(args):
    frac = slope(_word(args))
    doc = {"alpha": frac.alpha, "beta": frac.beta,
           "is_knot": frac.is_knot}
    _emit(args, doc, ["%d/%d  (%s)" % (frac.beta, frac.alpha,
                                       "knot" if frac.is_knot else "link")])


def cmd_canon(args):
    word = canonical_word(slope(_word(args)))
    _emit(args, {"word": list(word.blocks)}, [str(word)])


def cmd_even(args):
    word = even_expansion(slope(_word(args)))
    _emit(args, {"word": list(word.blocks)}, [str(word)])


def cmd_reppoly(args):
    word = _word(args)
    if slope(word).is_knot:
        p = rep_polynomial(word)
        doc = {"rep_poly": format_poly(p), "coeffs": poly_to_json(p)}
        _emit(args, doc, [format_poly(p)])
    else:
        p1, p2 = rep_poly_pair(word)
        doc = {"rep_poly": format_poly(p1), "rep_poly_iu": format_poly(p2),
               "coeffs": poly_to_json(p1)}
        _emit(args, doc, [format_poly(p1), format_poly(p2)])


def cmd_uiseq(args):
    seq = ui_sequence(_word(args))
    doc = {"ui_sequence": [format_poly(p) for p in seq]}
    _emit(args, doc, ["u_%d = %s" % (i + 1, format_poly(p))
                      for i, p in enumerate(seq)])


def cmd_riley(args):
    frac = slope(_word(args))
    R = riley.riley_polynomial(frac)
    doc = {"riley_poly": format_poly(R, "y"), "coeffs": poly_to_json(R)}
    _emit(args, doc, [format_poly(R, "y")])


def cmd_split(args):
    frac = slope(_word(args))
    if not frac.is_knot:
        raise DescriptorError("split applies to knots only")
    P = rep_polynomial(frac)
    s = riley.split_polynomial(P, frac.is_knot, precision=args.precision)
    doc = {"g": format_poly(s.g), "g_hat": format_poly(s.g_hat)}
    _emit(args, doc, ["g    = %s" % doc["g"], "ghat = %s" % doc["g_hat"]])


def cmd_roots(args):
    P = rep_polynomial(_word(args))
    roots = geometry.find_roots(P, precision=args.precision)
    doc = {"precision_bits": args.precision,
           "roots": [_cnum(r) for r in roots]}
    _emit(args, doc, [_ctext(r) for r in roots])


def _rep_at(args):
    word = _word(args)
    P = rep_polynomial(word)
    roots = [r for r in geometry.find_roots(P, precision=args.precision)
             if abs(r) > 1e-12]
    r = _pick_root(roots, args.root)
    return word, geometry.arc_vectors_at_root(word, r, precision=args.precision)


def cmd_reps(args):
    word, rep = _rep_at(args)
    doc = {
        "root": _cnum(rep.root),
        "precision_bits": rep.precision,
        "closure_residual": "%.3e" % rep.closure_residual,
        "arcs": {str(k): [_cnum(v[0]), _cnum(v[1])]
                 for k, v in sorted(rep.arc_vectors.items())},
    }
    lines = ["root %s  closure residual %s" %
             (_ctext(rep.root), doc["closure_residual"])]
    for k, v in sorted(rep.arc_vectors.items()):
        lines.append("arc %-4s (%s, %s)" % (k, _ctext(v[0]), _ctext(v[1])))
    _emit(args, doc, lines)


def cmd_cusp(args):
    word, rep = _rep_at(args)
    data = geometry.region_coloring(rep)
    c = geometry.cusp_shape(data)
    _emit(args, {"cusp_shape": _cnum(c)}, [_ctext(c)])


def cmd_volume(args):
    word, rep = _rep_at(args)
    data = geometry.region_coloring(rep)
    v = geometry.complex_volume(data)
    _emit(args, {"vol_c": _cnum(v)},
          ["%s  (imaginary part mod pi^2)" % _ctext(v)])


def cmd_epi(args):
    k1 = parse_descriptor(args.k1)
    k2 = parse_descriptor(args.k2)
    verdict = epi.divisibility_check(k1, k2)
    doc = {"divides": verdict.divides, "witness": verdict.witness}
    if verdict.divides:
        _emit(args, doc, ["yes (witness: %s)" % verdict.witness])
    else:
        _emit(args, doc, ["no"])


def cmd_ors(args):
    seed = parse_descriptor(args.seed)
    if isinstance(seed, Fraction):
        # a word is kept as written: ors_word copies its blocks verbatim
        seed = canonical_word(seed)
    c = tuple(int(x) for x in args.c.split(",")) if args.c else ()
    signs = (tuple(int(x) for x in args.signs.split(","))
             if args.signs else None)
    spec = epi.OrsSpec(seed, args.type, c, signs)
    word, witness = epi.ors_factor_property(spec, certify_exact=False)
    doc = {"word": list(word.blocks), "seed_factor_witness": witness}
    _emit(args, doc, [str(word), "seed polynomial divides: %s" % witness])


def cmd_census(args):
    records, edges = epi.census_build(
        args.max_alpha, out=args.out, geometry=not args.no_geometry,
        precision=args.precision, jobs=args.jobs)
    doc = {"records": len(records), "edges": len(edges),
           "out": args.out}
    _emit(args, doc, ["%d records, %d edges%s" %
                      (len(records), len(edges),
                       " -> %s" % args.out if args.out else "")])


def build_parser():
    ap = argparse.ArgumentParser(
        prog="twobridge",
        description="Parabolic representation data of 2-bridge knots and links",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--precision", type=int, default=256,
                    help="working precision in bits, at least 53 "
                         "(default 256)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, *flags, descriptor=True):
        p = sub.add_parser(name)
        if descriptor:
            p.add_argument("descriptor")
        for f in flags:
            if f == "root":
                p.add_argument("--root", default=None,
                               help="root index or approximate value")
        p.set_defaults(fn=fn)
        return p

    add("slope", cmd_slope)
    add("canon", cmd_canon)
    add("even", cmd_even)
    add("reppoly", cmd_reppoly)
    add("uiseq", cmd_uiseq)
    add("riley", cmd_riley)
    add("split", cmd_split)
    add("roots", cmd_roots)
    add("reps", cmd_reps, "root")
    add("cusp", cmd_cusp, "root")
    add("volume", cmd_volume, "root")

    p = sub.add_parser("epi")
    p.add_argument("k1")
    p.add_argument("k2")
    p.set_defaults(fn=cmd_epi)

    p = sub.add_parser("ors")
    p.add_argument("seed")
    p.add_argument("--type", type=int, required=True)
    p.add_argument("--c", default="")
    p.add_argument("--signs", default=None)
    p.set_defaults(fn=cmd_ors)

    p = sub.add_parser("census")
    p.add_argument("--max-alpha", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-geometry", action="store_true")
    p.set_defaults(fn=cmd_census)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.precision < 53:
        print("error: --precision must be at least 53 bits", file=sys.stderr)
        return 2
    try:
        args.fn(args)
    except (DescriptorError, ColoringError, epi.EpiError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (riley.RileyError, geometry.GeometryError, ZeroDivisionError) as e:
        print("numeric failure: %s" % e, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
