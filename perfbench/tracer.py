"""Spans and counters around skeincalc's public functions, installed from outside.

The tracer never edits the package. After ``import skeincalc`` it replaces
every binding of every public function and method with a wrapper, including
the copies that ``from ... import`` left in other modules, so a call made
through any name lands in the wrapper. Spans are aggregated in memory per
name as they close:

  calls    number of spans
  total_s  summed span durations (a recursive name counts its nesting twice)
  self_s   span duration minus the time covered by child spans

The coefficient ring is not spanned: ``LaurentPoly.__mul__`` and ``__add__``
run about ten million times on the largest grid, so they are only counted.
Their time stays in the self time of whichever layer called them.

``max_coeff_bits`` is the largest coefficient bit length of a ring element
that crosses a layer boundary, that is, one returned by a span whose parent
span belongs to another layer (or to no layer).
"""

from __future__ import annotations

import enum
import functools
import importlib
import time

LAYERS = ("coeffs", "chebyshev", "handlebody", "families", "torusknot",
          "qtorus", "cli")
SPANNED = LAYERS[1:]

# The lru_cache memos, by layer. Read with cache_info() after a run.
MEMOS = {
    "chebyshev": ("_cheb_s_nonneg", "_cheb_t_nonneg", "monomial_to_S"),
    "families": ("x1y1_recursive", "big_x"),
    "torusknot": ("_reduce_items",),
    "qtorus": ("inhomog_recurrence", "recurrence_poly"),
}

# Methods spanned on the package's classes besides their public names.
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__call__")

# Private names that still get a span: the CLI's per-check entry point.
_PRIVATE_SPANNED = {"cli": ("_run_check",)}


class Tracer:
    """Collects spans and counts for one process; install() once, then run."""

    def __init__(self):
        self.stack: list[list] = []          # [child_time, layer] per open span
        self.spans: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.check_ms: list[float] = []
        self.counts = {"mul_calls": 0, "add_calls": 0, "term_products": 0,
                       "max_coeff_bits": 0, "terms_out": 0}
        self.memos: dict[str, list] = {}     # layer -> lru_cache objects
        self._hb_type = None
        self._elements: dict = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("skeincalc")
        mods = {layer: importlib.import_module(f"skeincalc.{layer}")
                for layer in LAYERS}
        namespaces = [pkg, *mods.values()]
        coeffs = mods["coeffs"]
        self._hb_type = mods["handlebody"].HbElement
        self._elements = self._element_readers(mods)
        for layer, names in MEMOS.items():
            self.memos[layer] = [getattr(mods[layer], n) for n in names]
        self._count_laurent(coeffs.LaurentPoly)
        for layer in SPANNED:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_") and name not in _PRIVATE_SPANNED.get(layer, ()):
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, enum.Enum):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped = self._span(layer, f"{layer}.{name}", obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                setattr(ns, key, wrapped)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._span(layer, label, attr.__func__)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._span(layer, label, attr.__func__)))
            elif callable(attr) and not isinstance(attr, type):
                setattr(cls, name, self._span(layer, label, attr))

    def _count_laurent(self, cls: type) -> None:
        counts = self.counts
        mul, add = cls.__mul__, cls.__add__

        def counted_mul(a, b):
            counts["mul_calls"] += 1
            if b.__class__ is cls:
                counts["term_products"] += len(a.terms) * len(b.terms)
            else:
                counts["term_products"] += len(a.terms)
            return mul(a, b)

        def counted_add(a, b):
            counts["add_calls"] += 1
            return add(a, b)

        cls.__mul__ = cls.__rmul__ = counted_mul
        cls.__add__ = cls.__radd__ = counted_add

    def _span(self, layer: str, name: str, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        observe = self._observe
        check = self.check_ms if name == "cli._run_check" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            crossing = not stack or stack[-1][1] != layer
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if check is not None:
                    check.append(dur * 1000.0)
            observe(layer, result, crossing)
            return result

        return wrapper

    def span_check(self, fn, *args):
        """Run one benchmark-side check under a span of the pseudo-layer 'check'."""
        frame = [0.0, "check"]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.check_ms.append((time.perf_counter() - start) * 1000.0)
            self.stack.pop()

    # -- observation of values crossing boundaries -------------------------

    @staticmethod
    def _element_readers(mods) -> dict:
        """Per element type, a function yielding its LaurentPoly coefficients."""
        lp = mods["coeffs"].LaurentPoly

        def terms(e):
            return e.terms.values()

        def nested(e):
            return (c for xz in e.terms.values() for c in xz.terms.values())

        def pair(e):
            return (*e.xpart.terms.values(), *e.ypart.terms.values())

        return {
            lp: lambda e: (e,),
            mods["handlebody"].HbElement: terms,
            mods["torusknot"].TkElement: terms,
            mods["qtorus"].QtElement: nested,
            mods["families"].FamilyPair: pair,
        }

    def _observe(self, layer: str, result, crossing: bool) -> None:
        if layer == "handlebody" and result.__class__ is self._hb_type:
            self.counts["terms_out"] += len(result.terms)
        if not crossing:
            return
        reader = self._elements.get(result.__class__)
        if reader is None:
            return
        best = self.counts["max_coeff_bits"]
        for poly in reader(result):
            vals = poly.terms.values()
            if vals:
                bits = max(max(vals), -min(vals)).bit_length()
                if bits > best:
                    best = bits
        self.counts["max_coeff_bits"] = best

    # -- results ------------------------------------------------------------

    def memo_census(self) -> dict:
        """Per layer: summed hits, misses and entries of its lru_cache memos."""
        out = {}
        for layer, memos in self.memos.items():
            hits = misses = entries = 0
            for memo in memos:
                info = memo.cache_info()
                hits += info.hits
                misses += info.misses
                entries += info.currsize
            out[layer] = {"hits": hits, "misses": misses, "entries": entries}
        return out

    def summary(self) -> dict:
        layer_self = {layer: 0.0 for layer in SPANNED}
        for name, (_, _, self_s) in self.spans.items():
            layer_self[name.split(".", 1)[0]] += self_s
        return {
            "spans": {k: v for k, v in self.spans.items() if v[0]},
            "layer_self_s": layer_self,
            "counts": dict(self.counts),
            "memos": self.memo_census(),
            "check_ms": self.check_ms,
        }
