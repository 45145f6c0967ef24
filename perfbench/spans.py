"""Spans around the public functions of algseeds, recorded from outside it.

``Tracer.install`` replaces each traced function with a wrapper in every
algseeds module that bound it (``coverage`` and ``cli`` import ``build_set``,
``express_in`` and others by name, so patching the defining module alone
would miss their calls).  Methods are patched on their class.  Each call
becomes a span: name, start, end, parent span and a label, kept in memory in
flat arrays and written out once the run is over.  A span's self time is its
duration minus the durations of its direct children.

``express_in`` spans are labelled accept or reject by the return value.  Two
events are counted rather than spanned, because they are too frequent or
have no duration: constructions of ``AlgebraicNumber`` (its
``__post_init__`` validation) and raises of ``PrecisionExhausted``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from algseeds import algebraic, fields

# (module, attribute) of each spanned function; "Class.method" patches the
# class.  The span name drops the class: algebraic.refine, polynomials.is_irreducible.
SPANNED = (
    ("fields", "express_in"),
    ("fields", "independence_report"),
    ("fields", "squarefree_kernel"),
    ("families", "build_set"),
    ("algebraic", "AlgebraicNumber.refine"),
    ("algebraic", "AlgebraicNumber.cmp_rational"),
    ("polynomials", "MonicIntPoly.is_irreducible"),
    ("uniformity", "uniformity_report"),
    ("uniformity", "half_split"),
    ("coverage", "verify_tiling"),
    ("coverage", "trace_obstruction_demo"),
    ("coverage", "quad_layer_report"),
    ("coverage", "find_generator"),
    ("bits", "binary_expansion"),
    ("tables", "render_table"),
    ("cli", "main"),
)

# The three conjugate-data caches of fields, read after the run.
ENCLOSURE_CACHES = ("_real_root_enclosures", "_complex_enclosure", "_alpha_matrix")

NO_LABEL, ACCEPT, REJECT = 0, 1, 2


def _algseeds_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "algseeds" or name.startswith("algseeds."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.label = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._express_args: list[tuple] = []   # (beta.minpoly, alpha.minpoly) per call

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(self._id(name))
        self.parent.append(stack[-1] if stack else -1)
        self.label.append(NO_LABEL)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(idx, args, result)
            return result
        return functools.update_wrapper(wrapper, fn)

    def _after_express_in(self, idx, args, cert):
        self.label[idx] = REJECT if cert is None else ACCEPT
        beta, alpha = args[0], args[1]
        self._express_args.append((beta.minpoly, alpha.minpoly))

    def _after_report(self, idx, args, rep):
        self.counts["fields.pairs_checked"] += rep.pairs_checked

    def _after_build(self, idx, args, inst):
        self.counts["families.elements"] += len(inst.elements)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def install(self) -> None:
        after = {"fields.express_in": self._after_express_in,
                 "fields.independence_report": self._after_report,
                 "families.build_set": self._after_build}
        modules = _algseeds_modules()
        for mod_name, attr in SPANNED:
            mod = sys.modules["algseeds." + mod_name]
            span = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(span, vars(cls)[meth], after.get(span)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span, original, after.get(span))
            for m in modules:   # every module that bound the function by name
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

        counts = self.counts
        post_init = algebraic.AlgebraicNumber.__post_init__

        def counted_post_init(number):
            counts["algebraic.constructions"] += 1
            post_init(number)
        self._set(algebraic.AlgebraicNumber, "__post_init__", counted_post_init)

        exc_init = algebraic.PrecisionExhausted.__init__

        def counted_exc_init(exc, *args):
            counts["algebraic.precision_exhausted"] += 1
            exc_init(exc, *args)
        self._set(algebraic.PrecisionExhausted, "__init__", counted_exc_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------

    def span_stats(self) -> dict:
        """calls, total and self seconds per span name; express_in also per
        label.  Spans of a name nested in one of the same name would count
        twice in total_s; no traced function recurses."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            keys = [name]
            if self.label[i] == ACCEPT:
                keys.append(name + ".accept")
            elif self.label[i] == REJECT:
                keys.append(name + ".reject")
            for key in keys:
                s = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                s["calls"] += 1
                s["total_s"] += dur[i]
                s["self_s"] += dur[i] - child[i]
        return out

    def equal_kernel_calls(self) -> int:
        """express_in calls whose two minimal polynomials have the same degree
        and discriminants with the same squarefree kernel: the calls that a
        discriminant-kernel filter could not have decided.  Run after
        uninstall, so the kernels computed here are not traced."""
        memo: dict[int, int] = {}

        def kernel(poly) -> int:
            d = poly.discriminant()
            if d not in memo:
                memo[d] = fields.squarefree_kernel(d)
            return memo[d]

        return sum(1 for g, f in self._express_args
                   if g.degree == f.degree and kernel(g) == kernel(f))

    def write(self, path: Path) -> None:
        """All spans as JSON: parallel arrays indexed by span, names by id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names, "labels": ["", "accept", "reject"],
               "name": self.name.tolist(), "parent": self.parent.tolist(),
               "label": self.label.tolist(), "start": self.start.tolist(),
               "end": self.end.tolist(), "counts": dict(self.counts)}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def enclosure_cache_counts() -> tuple[int, int]:
    """(hits, lookups) summed over the enclosure caches of fields."""
    hits = lookups = 0
    for name in ENCLOSURE_CACHES:
        info = getattr(fields, name).cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    return hits, lookups

