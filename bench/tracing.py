"""Per-layer spans recorded from outside the package.

The tracer rebinds, in every twobridge module, each attribute that refers
to a traced function (and the GPoly multiply and add operators on the
class), so every caller that looks the name up reaches a wrapper.  A
wrapper counts the call and measures it; a span's self time is its
duration minus the time of the traced spans it contains.  Spans are
summed in memory per function, not kept one by one: GPoly arithmetic
alone makes millions of them.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("conway", "polys", "coloring", "riley", "geometry", "epi", "cli")

# (metric name, module, attribute path)
TRACED = (
    ("conway.canonical_word", "conway", "canonical_word"),
    ("conway.even_expansion", "conway", "even_expansion"),
    ("polys.GPoly.mul", "polys", "GPoly.__mul__"),
    ("polys.GPoly.add", "polys", "GPoly.__add__"),
    ("polys.exact_divide", "polys", "exact_divide"),
    ("polys.rem_monic", "polys", "rem_monic"),
    ("coloring.color_even_expansion", "coloring", "color_even_expansion"),
    ("coloring.color_general_word", "coloring", "color_general_word"),
    ("coloring.color_plan", "coloring", "color_plan"),
    ("coloring.rep_polynomial", "coloring", "rep_polynomial"),
    ("coloring.rep_poly_pair", "coloring", "rep_poly_pair"),
    ("riley.riley_polynomial", "riley", "riley_polynomial"),
    ("riley.split_polynomial", "riley", "split_polynomial"),
    ("riley.verify_bridge", "riley", "verify_bridge"),
    ("geometry.find_roots", "geometry", "find_roots"),
    ("geometry.arc_vectors_at_root", "geometry", "arc_vectors_at_root"),
    ("geometry.region_coloring", "geometry", "region_coloring"),
    ("geometry.cusp_shape", "geometry", "cusp_shape"),
    ("geometry.complex_volume", "geometry", "complex_volume"),
    ("epi.rep_poly_set", "epi", "rep_poly_set"),
    ("epi.build_record", "epi", "build_record"),
    ("epi.census_build", "epi", "census_build"),
    ("epi.ors_factor_property", "epi", "ors_factor_property"),
    ("cli.main", "cli", "main"),
)

# Operators that are the same function under a second name.
_ALIASES = {"__mul__": "__rmul__", "__add__": "__radd__"}


class Stat:
    __slots__ = ("calls", "total", "self", "max")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.max = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name, _, _ in TRACED}
        self.volume_crossings = 0   # crossings of the complex_volume calls
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        is_volume = name == "geometry.complex_volume"
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self += dt - inner
                if dt > stat.max:
                    stat.max = dt
                if is_volume:
                    data = args[0] if args else kwargs["data"]
                    self.volume_crossings += len(data.rep.trace.crossings)
                if stack:
                    stack[-1] += dt

        span.__wrapped__ = fn
        return span

    def install(self):
        modules = [importlib.import_module("twobridge")] + [
            importlib.import_module("twobridge." + m) for m in LAYERS]
        for name, mod, path in TRACED:
            owner = importlib.import_module("twobridge." + mod)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                wrapper = self._wrap(name, fn)
                for a in (attr, _ALIASES.get(attr)):
                    if a and cls.__dict__.get(a) is fn:
                        self._undo.append((cls, a, fn))
                        setattr(cls, a, wrapper)
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def remove(self):
        while self._undo:
            obj, attr, fn = self._undo.pop()
            setattr(obj, attr, fn)

    def metrics(self):
        """Per-function calls and self time, the two derived figures, and
        self time summed per module (the layer)."""
        out = {}
        layer = {m: 0.0 for m in LAYERS}
        for name, mod, _ in TRACED:
            st = self.stats[name]
            out[name + ".calls"] = (st.calls, "count")
            out[name + ".self_s"] = (st.self, "s")
            layer[mod] += st.self
        roots = self.stats["geometry.find_roots"]
        vol = self.stats["geometry.complex_volume"]
        out["geometry.find_roots.max_s"] = (roots.max, "s")
        out["geometry.complex_volume.s_per_crossing"] = (
            vol.total / self.volume_crossings if self.volume_crossings else 0.0,
            "s")
        for m in LAYERS:
            out["layer.%s.self_s" % m] = (layer[m], "s")
        return out
