"""Per-layer counts and times for the traced run.

Two recorders, used on separate passes over the same operations, each
switched on only while set-up or an operation runs, never while an
answer is checked:

* `Recorder` replaces each layer's public functions, under every name a
  fieldsep module binds them to, with a wrapper that counts calls and
  sums inclusive wall time (outermost call only, so recursion is not
  counted twice);
* `ModuleProfile` runs cProfile and sums self time by source file,
  together with two hot-path call counts.

Every time reported here is nonzero on every workload: a layer that a
workload never reaches is reported by its call count alone.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import sys
import time
from collections import Counter

MODULES = ("basefields", "poly", "linalg", "towers", "parse", "factor",
           "embeddings", "separability", "lattice", "corpus", "cli")


def _field_kind(f, *args, **kwargs):
    """The coefficient field of factor()'s argument."""
    field = f.field
    if field.base.kind == "prime":
        return "finite"
    if field.kind == "rational_function":
        return "ratfunc"
    return "ratfunc_tower"


def _context_degree(extra, ctx):
    extra["embeddings.context_degree"] += ctx.degree


def _maps(extra, maps):
    extra["embeddings.hom_set.maps"] += len(maps)


def _nodes(extra, lattice):
    extra["lattice.nodes"] += len(lattice.nodes)


# (module, function, layer name, split of the call count, hook on the result)
FUNCTIONS = [
    ("factor", "factor", "factor.factor", _field_kind, None),
    ("factor", "roots_in", "factor.roots_in", None, None),
    ("factor", "is_irreducible", "factor.is_irreducible", None, None),
    ("parse", "parse_tower", "parse.parse_tower", None, None),
    ("embeddings", "normal_closure_context",
     "embeddings.normal_closure_context", None, _context_degree),
    ("embeddings", "hom_set", "embeddings.hom_set", None, _maps),
    ("towers", "minimal_polynomial", "towers.minimal_polynomial", None, None),
    ("linalg", "rank", "linalg", None, None),
    ("linalg", "solve_combination", "linalg", None, None),
    ("linalg", "nullspace", "linalg", None, None),
    ("linalg", "determinant", "linalg", None, None),
    ("separability", "hom_count_criterion",
     "separability.hom_count_criterion", None, None),
    ("separability", "separable_closure",
     "separability.separable_closure", None, None),
    ("separability", "primitive_element",
     "separability.primitive_element", None, None),
    ("separability", "is_separable_element_by_witness",
     "separability.witness", None, None),
    ("lattice", "subfields_finite", "lattice.subfields", None, _nodes),
    ("lattice", "subfields_separable", "lattice.subfields", None, _nodes),
    ("lattice", "canonical_chain", "lattice.subfields", None, _nodes),
]
# (module, class, methods, layer name)
METHODS = [("linalg", "SpanBuilder", ("add", "contains"), "linalg")]

# What is reported per layer: calls and inclusive seconds; seconds alone;
# or calls alone, for layers some workload never reaches (factor over a
# field of another kind; roots_in, which only `queries` calls).
CALLS_AND_SECONDS = ["factor.is_irreducible", "parse.parse_tower",
                     "embeddings.normal_closure_context",
                     "embeddings.hom_set", "towers.minimal_polynomial",
                     "linalg", "separability.witness", "lattice.subfields"]
SECONDS = ["factor.factor", "separability.hom_count_criterion",
           "separability.separable_closure", "separability.primitive_element"]
CALLS = {"factor.factor.finite": "factor.factor.calls.finite",
         "factor.factor.ratfunc": "factor.factor.calls.ratfunc",
         "factor.factor.ratfunc_tower": "factor.factor.calls.ratfunc_tower",
         "factor.roots_in": "factor.roots_in.calls"}
COUNTS = ["embeddings.context_degree", "embeddings.hom_set.maps",
          "lattice.nodes"]
PROFILE_COUNTS = {("basefields", "__mul__"): "basefields.element_mul.calls",
                  ("poly", "__init__"): "poly.init.calls"}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in CALLS_AND_SECONDS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.s", "s")]
    out += [(name, "count") for name in CALLS.values()]
    out += [(f"{layer}.s", "s") for layer in SECONDS]
    out += [(name, "count") for name in COUNTS]
    out += [(name, "count") for name in PROFILE_COUNTS.values()]
    out += [(f"{m}.self_s", "s") for m in MODULES]
    return out


class Recorder:
    """Call counts and inclusive seconds of wrapped layer functions."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.extra = Counter()
        self._depth = Counter()
        self._active = False

    @contextlib.contextmanager
    def recording(self):
        self._active = True
        try:
            yield
        finally:
            self._active = False

    def wrap(self, fn, layer, split=None, hook=None):
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            if split is not None:
                self.calls[f"{layer}.{split(*args, **kwargs)}"] += 1
            outer = self._depth[layer] == 0
            self._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth[layer] -= 1
                if outer:
                    self.seconds[layer] += time.perf_counter() - start
            if hook is not None:
                hook(self.extra, result)
            return result
        return wrapper

    def install(self, package):
        """Wrap every target under each name a fieldsep module binds it to.

        A target the package no longer has is skipped; its metrics read 0.
        """
        prefix = package.__name__
        mods = {name: m for name, m in sys.modules.items()
                if m is not None
                and (name == prefix or name.startswith(prefix + "."))}
        for mod_name, attr, layer, split, hook in FUNCTIONS:
            orig = getattr(mods[f"{prefix}.{mod_name}"], attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(orig, layer, split, hook)
            for m in mods.values():
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
        for mod_name, cls_name, methods, layer in METHODS:
            cls = getattr(mods[f"{prefix}.{mod_name}"], cls_name, None)
            for meth in methods if cls is not None else ():
                setattr(cls, meth, self.wrap(cls.__dict__[meth], layer))

    def metrics(self):
        out = {}
        for layer in CALLS_AND_SECONDS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.seconds[layer]
        for layer, name in CALLS.items():
            out[name] = self.calls[layer]
        for layer in SECONDS:
            out[f"{layer}.s"] = self.seconds[layer]
        for name in COUNTS:
            out[name] = self.extra[name]
        return out


class ModuleProfile:
    """Self seconds per fieldsep module, from cProfile, and the call counts
    of FieldElement.__mul__ and Poly.__init__, the two hottest entry
    points of the arithmetic."""

    def __init__(self, package_dir):
        self._src = os.path.abspath(package_dir)
        self._prof = cProfile.Profile()

    @contextlib.contextmanager
    def recording(self):
        self._prof.enable()
        try:
            yield
        finally:
            self._prof.disable()

    def metrics(self):
        out = dict.fromkeys((f"{m}.self_s" for m in MODULES), 0.0)
        out.update(dict.fromkeys(PROFILE_COUNTS.values(), 0))
        for (path, _line, func), (_cc, nc, tt, _ct, _callers) in \
                pstats.Stats(self._prof).stats.items():
            if os.path.dirname(os.path.abspath(path)) != self._src:
                continue
            mod = os.path.splitext(os.path.basename(path))[0]
            if f"{mod}.self_s" in out:
                out[f"{mod}.self_s"] += tt
            if (mod, func) in PROFILE_COUNTS:
                out[PROFILE_COUNTS[mod, func]] += nc
        return out
