"""Span tracing of comlie's public functions, installed from outside the
library.

``traced(tracer)`` replaces every binding of each traced function -- in the
defining module, in every comlie module that imported it by name, and in
class dictionaries for the traced methods -- with a wrapper that records a
span, and restores the originals on exit.  A span is
``[id, name, start, end, busy, parent, request, yields, work]``: ``busy`` is
the time the span was running (end - start for a call; the sum of the
resumptions for a generator), ``yields`` counts generator items and
``work`` holds a computed operation count.  Self time is busy time minus the
busy time of the child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import types

LAYERS = ("cli", "poincare", "coinvariants", "qseries", "multisym", "repa",
          "toriposet", "weylcomb")

#: Methods traced besides each layer's public module-level functions.
METHODS = {
    "qseries": (("QPoly", "__mul__"), ("RationalSeries", "expand")),
    "multisym": (("MultiPoly", "__mul__"),),
}

FIELDS = ("id", "name", "start", "end", "busy", "parent", "request", "yields",
          "work")
ID, NAME, START, END, BUSY, PARENT, REQUEST, YIELDS, WORK = range(len(FIELDS))
ROOT = "request"


def _terms(x) -> int:
    terms = getattr(x, "terms", None)
    if terms is None:
        terms = getattr(x, "_coeffs", None)
    return 1 if terms is None else len(terms)


def _expand_updates(args, kwargs, result):
    series, trunc = args[0], args[1] if len(args) > 1 else kwargs["trunc"]
    return sum(m * max(0, trunc + 1 - e) for e, m in series.denominator_factors)


def _oracle_half_degree(args, kwargs, result):
    return (args[1] if len(args) > 1 else kwargs["trunc"]) // 2


def _rank_shape(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return (len(rows), len(rows[0]) if rows else 0, result)


#: Computed operation counts attached to spans, by span name.
WORK_COUNTS = {
    "qseries.QPoly.__mul__": lambda a, k, r: _terms(a[0]) * _terms(a[1]),
    "multisym.MultiPoly.__mul__": lambda a, k, r: _terms(a[0]) * _terms(a[1]),
    "qseries.RationalSeries.expand": _expand_updates,
    "coinvariants.oracle_ecom": _oracle_half_degree,
    "multisym.exact_rank": _rank_shape,
}


class Tracer:
    """In-memory span recorder.  ``spans`` grows until the owner writes it
    out; ``request`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.request = None

    def open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        span = [len(self.spans), name, 0.0, 0.0, 0.0, parent, self.request, 0,
                None]
        self.spans.append(span)
        self.stack.append(span)
        span[START] = span[END] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        now = time.perf_counter()
        self.stack.pop()
        span[BUSY] += now - span[END]
        span[END] = now

    @contextlib.contextmanager
    def root(self, request_id):
        """The span of one whole request; library spans nest under it."""
        self.request = request_id
        span = self.open(ROOT)
        try:
            yield span
        finally:
            self.close(span)
            self.request = None

    def stepped(self, span: list, gen):
        """Re-yield ``gen`` with each resumption timed into ``span``."""
        while True:
            self.stack.append(span)
            span[END] = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close(span)
            span[YIELDS] += 1
            yield item


def _wrap(tracer: Tracer, name: str, fn):
    work = WORK_COUNTS.get(name)

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if work is not None:
            span[WORK] = work(args, kwargs, result)
        if type(result) is types.GeneratorType:
            return tracer.stepped(span, result)
        return result

    return traced_call


def _is_traceable(obj, module_name: str) -> bool:
    target = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(target) and target.__module__ == module_name


def traced_functions() -> dict[int, tuple[str, object]]:
    """id -> (span name, function) for every function that is traced."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"comlie.{layer}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and _is_traceable(obj, module.__name__):
                out[id(obj)] = (f"{layer}.{attr}", obj)
        for cls_name, meth in METHODS.get(layer, ()):
            fn = vars(getattr(module, cls_name))[meth]
            out[id(fn)] = (f"{layer}.{cls_name}.{meth}", fn)
    return out


def install(tracer: Tracer) -> list[tuple]:
    """Patch every binding of every traced function; returns the undo list."""
    originals = traced_functions()
    wrappers = {key: _wrap(tracer, name, fn) for key, (name, fn) in originals.items()}
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "comlie" or name.startswith("comlie.")]
    classes = {id(c): c for m in owners for c in vars(m).values()
               if inspect.isclass(c) and c.__module__.startswith("comlie")}
    undo = []
    for owner in owners + list(classes.values()):
        for attr, obj in list(vars(owner).items()):
            key = id(obj)
            if key in wrappers and originals[key][1] is obj:
                setattr(owner, attr, wrappers[key])
                undo.append((owner, attr, obj))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, obj in reversed(undo):
        setattr(owner, attr, obj)


@contextlib.contextmanager
def traced(tracer: Tracer):
    undo = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(undo)


def self_times(spans: list[list]) -> list[float]:
    """Busy time of each span minus the busy time of its children."""
    out = [span[BUSY] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            out[span[PARENT]] -= span[BUSY]
    return out


def _outermost(spans: list[list], names: set) -> list[list]:
    """Spans with one of ``names`` that have no ancestor with one of them,
    so inclusive time is never counted twice."""
    out = []
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics that spans measure (times, calls, counts)."""

    def incl(*names: str) -> float:
        return sum(s[BUSY] for s in _outermost(spans, set(names)))

    def named(name: str) -> list[list]:
        return [s for s in spans if s[NAME] == name]

    selfs = self_times(spans)
    layer_self: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        layer = span[NAME].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    coeff_products = 0
    for span in named("coinvariants.conjugacy_classes"):
        parent = spans[span[PARENT]] if span[PARENT] is not None else None
        if parent is not None and parent[NAME] == "coinvariants.oracle_ecom":
            s = parent[WORK]
            coeff_products += span[YIELDS] * (s + 1) * (s + 2) // 2
    ranks = [s[WORK] for s in named("multisym.exact_rank")]
    rank_rows = sum(r[0] for r in ranks)
    return {
        "cli.self_s": layer_self.get("cli", 0.0),
        "poincare.ecom_numerator_s": incl("poincare.ecom_numerator"),
        "poincare.ecom_numerator_calls": len(named("poincare.ecom_numerator")),
        "poincare.stable_bcom_s": incl("poincare.stable_bcom"),
        "poincare.self_s": layer_self.get("poincare", 0.0),
        "coinvariants.oracle_s": incl("coinvariants.oracle_ecom",
                                      "coinvariants.oracle_bcom"),
        "coinvariants.classes_summed": sum(
            s[YIELDS] for s in named("coinvariants.conjugacy_classes")),
        "coinvariants.coeff_products": coeff_products,
        "qseries.expand_s": incl("qseries.RationalSeries.expand"),
        "qseries.expand_calls": len(named("qseries.RationalSeries.expand")),
        "qseries.expand_coeff_updates": sum(
            s[WORK] for s in named("qseries.RationalSeries.expand")),
        "qseries.qpoly_mul_s": incl("qseries.QPoly.__mul__"),
        "qseries.qpoly_mul_term_pairs": sum(
            s[WORK] for s in named("qseries.QPoly.__mul__")),
        "qseries.exact_div_s": incl("qseries.exact_div"),
        "qseries.exact_div_calls": len(named("qseries.exact_div")),
        "qseries.product_series_s": incl("qseries.product_series"),
        "multisym.rank_s": incl("multisym.exact_rank"),
        "multisym.rank_calls": len(ranks),
        "multisym.rank_rows": rank_rows,
        "multisym.rank_cells": sum(r[0] * r[1] for r in ranks),
        "multisym.rank_yield": (sum(r[2] for r in ranks) / rank_rows
                                if rank_rows else 0.0),
        "multisym.mul_s": incl("multisym.MultiPoly.__mul__"),
        "multisym.mul_term_pairs": sum(
            s[WORK] for s in named("multisym.MultiPoly.__mul__")),
        "multisym.average_s": incl("multisym.average"),
        "multisym.coords_s": incl("multisym.invariant_coordinates"),
        "multisym.orbit_sum_s": incl("multisym.orbit_sum"),
        "multisym.orbit_reps_s": incl("multisym.monomial_orbit_reps"),
        "multisym.self_s": layer_self.get("multisym", 0.0),
        "weylcomb.elements_s": incl("weylcomb.elements"),
        "weylcomb.elements_yielded": sum(
            s[YIELDS] for s in named("weylcomb.elements")),
        "repa.fake_degree_s": incl("repa.fake_degree"),
        "repa.fake_degree_calls": len(named("repa.fake_degree")),
        "repa.major_pair_s": incl("repa.major_index_pair_series"),
        "repa.self_s": layer_self.get("repa", 0.0),
        "toriposet.chain_classes_s": incl("toriposet.chain_classes"),
        "toriposet.chains_keyed": len(named("toriposet.chain_orbit_key")),
        "toriposet.components_s": incl("toriposet.components"),
    }
