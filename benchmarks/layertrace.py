"""Per-layer counters and self times, installed from outside genseries.

Only a traced worker imports this module.  ``Tracer.install`` replaces
public functions and methods of each layer with wrappers, plus two private
hooks that are the only place candidate counts exist:
``Monoid._candidates`` (decomposition candidates before filtering) and
``finspace._mediators`` (one call per cone; one ``check`` per candidate
mediator).  Memo misses are read, not wrapped: a ``coeff`` call misses
when its element is not yet in the series' ``_memo``.  A hook that no
longer exists makes its metrics absent.

High-frequency calls (``coeff`` below the outermost call, element checks,
ring operations) are counted, not timed.  Self time is recorded at coarser
boundaries, the spans: a span's self time is its duration minus the time
of the spans nested inside it, and the untimed calls inside a span count
towards that span.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# metric -> the hooks it needs; absent hooks make these metrics absent
_NEEDS = {
    "series.memo_misses": "series._memo",
    "series.memo_hit_ratio": "series._memo",
    "monoids.candidates": "monoids._candidates",
    "monoids.pair_yield": "monoids._candidates",
    "finspace.cones": "finspace._mediators",
    "finspace.candidates": "finspace._mediators",
    "finspace.mediator_yield": "finspace._mediators",
}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.missing = []
        self._stack = []        # child-span time accumulated per open span
        self._coeff_depth = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, self_s, perf = self._stack, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _coeff(self, fn):
        tracer, counts = self, self.counts
        timed = self._span("series.coeff", fn)

        @functools.wraps(fn)
        def coeff(series, m):
            counts["series.coeff.calls"] += 1
            memo = getattr(series, "_memo", None)  # read only: the series' own memo
            if memo is not None and m not in memo:
                counts["series.memo_misses"] += 1
            outermost = tracer._coeff_depth == 0
            tracer._coeff_depth += 1
            try:
                return timed(series, m) if outermost else fn(series, m)
            finally:
                tracer._coeff_depth -= 1
        return coeff

    def _candidates(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = list(fn(*args, **kwargs))
            counts["monoids.candidates"] += len(out)
            return out
        return wrapper

    def _mediators(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(dom, cod, check, *args, **kwargs):
            def counted_check(k):
                counts["finspace.candidates"] += 1
                return check(k)
            counts["finspace.cones"] += 1
            found = fn(dom, cod, counted_check, *args, **kwargs)
            counts["finspace.found"] += len(found)
            return found
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every hook; returns the names of hooks that were not found."""
        import sys

        import genseries.cli
        from genseries import catalog, finspace, monoids, posets, rings, series

        modules = [m for name, m in sys.modules.items()
                   if name == "genseries" or name.startswith("genseries.")]

        def patch_function(module, name, make):
            orig = getattr(module, name, None)
            if orig is None:
                self.missing.append(f"{module.__name__.split('.')[-1]}.{name}")
                return
            new = make(orig)
            for mod in modules:  # also rebind names imported with from-imports
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, new)

        def patch_method(base, name, make, label):
            hit = False
            for cls in _subclasses(base):
                if name in vars(cls):
                    setattr(cls, name, make(vars(cls)[name]))
                    hit = True
            if not hit:
                self.missing.append(label)

        count = self._counted
        span = self._span
        patch_function(genseries.cli, "eval_expression",
                       lambda f: span("cli.eval_expression", count("cli.eval_expression.calls", f)))

        patch_method(series.GenSeries, "coeff", self._coeff, "series.coeff")
        if not hasattr(series.GenSeries, "_memo"):
            self.missing.append("series._memo")
        for name in ("render", "terms_on"):
            patch_method(series.GenSeries, name, lambda f: span("series.render", f),
                         f"series.{name}")

        def pairs(result):
            self.counts["monoids.pairs"] += len(result)
        patch_method(monoids.Monoid, "decompose_within",
                     lambda f: span("monoids.decompose_within",
                                    count("monoids.decompose_within.calls", f), pairs),
                     "monoids.decompose_within")
        patch_method(monoids.Monoid, "_candidates", self._candidates, "monoids._candidates")
        for name in ("check_element", "member", "mul"):
            patch_method(monoids.Monoid, name,
                         lambda f, n=name: count(f"monoids.{n}.calls", f), f"monoids.{name}")
        for name in ("mul_bound", "enumerate_desc"):
            patch_method(monoids.Monoid, name, lambda f, n=name: span(f"monoids.{n}", f),
                         f"monoids.{name}")

        for name in ("add", "mul"):
            patch_method(rings.Ring, name, lambda f, n=name: count(f"rings.{n}.calls", f),
                         f"rings.{name}")
        patch_method(catalog.Carrier, "is_element",
                     lambda f: count("catalog.is_element.calls", f), "catalog.is_element")

        for name in ("longest_chain", "largest_antichain"):
            patch_function(posets, name, lambda f, n=name: span(f"posets.{n}", f))
        for name in ("verify_equalizer", "verify_coequalizer", "verify_product",
                     "verify_coproduct", "perp"):
            patch_function(finspace, name, lambda f, n=name: span(f"finspace.{n}", f))
        patch_function(finspace, "_mediators", self._mediators)
        return self.missing

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer value, None where a hook was missing."""
        c = self.counts
        out = {}
        for name in ("cli.eval_expression.calls", "series.coeff.calls", "series.memo_misses",
                     "monoids.decompose_within.calls", "monoids.pairs", "monoids.candidates",
                     "monoids.check_element.calls", "monoids.member.calls",
                     "monoids.mul.calls", "rings.add.calls", "rings.mul.calls",
                     "catalog.is_element.calls", "finspace.cones", "finspace.candidates"):
            out[name] = c[name]
        for name in ("cli.eval_expression", "series.coeff", "series.render",
                     "monoids.decompose_within", "monoids.mul_bound", "monoids.enumerate_desc",
                     "posets.longest_chain", "posets.largest_antichain",
                     "finspace.verify_equalizer", "finspace.verify_coequalizer",
                     "finspace.verify_product", "finspace.verify_coproduct", "finspace.perp"):
            out[f"{name}.self_s"] = self.self_s[name]
        out["series.memo_hit_ratio"] = _ratio(c["series.coeff.calls"] - c["series.memo_misses"],
                                              c["series.coeff.calls"])
        out["monoids.pair_yield"] = _ratio(c["monoids.pairs"], c["monoids.candidates"])
        out["rings.ops_per_pair"] = _ratio(c["rings.add.calls"] + c["rings.mul.calls"],
                                           c["monoids.pairs"])
        out["finspace.mediator_yield"] = _ratio(c["finspace.found"], c["finspace.candidates"])
        for metric, hook in _NEEDS.items():
            if hook in self.missing:
                out[metric] = None
        for hook in self.missing:
            for metric in out:
                if metric.startswith(hook + "."):
                    out[metric] = None
        return out


def _ratio(num, den):
    """A ratio whose base is zero reads 0; the base is reported beside it."""
    return num / den if den else 0.0
