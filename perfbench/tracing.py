"""Span recorder for the traced run, installed from outside the program.

``Tracer.install`` replaces every public function of the named fracgrow
modules with a wrapper, both where it is defined and wherever another module
bound the same function object by name (``cli.fit_order``,
``fractional.mittag_leffler2``, ``abalone.predict_table``, ...).

A wrapper always counts its call.  It records a span -- name, start, end and
parent span -- when the call crosses into another layer, or when the function
is one whose own time a per-layer metric reports (``TIMED``).  Calls inside a
layer to any other function are counted only, which keeps the span list short
even though ``term_multiply`` runs thousands of times per operation.  Spans
stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

TIMED = {
    "terms.adm_iterate", "terms.adomian_polynomials",
    "fractional.caputo_numeric", "fractional.caputo_exp_exact",
    "special.mittag_leffler", "special.mittag_leffler2",
    "growth.predict_table", "growth.fit_order", "growth.estimate_eta", "growth.series_terms",
    "abalone.deviation_report",
    "cli.main", "cli.load_observations",
}


def _ml_path(args, kwargs):
    # special._ml_series takes the exact-rational path for integer alpha and
    # integer beta >= 1; the span name records which path served the call.
    p = args[0] if args else kwargs["params"]
    exact = p.alpha == int(p.alpha) and p.beta == int(p.beta) and p.beta >= 1
    return "exact" if exact else "float"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.counters = {}
        self._layer = None
        self._open = -1

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def counted(self, name, fn):
        """``fn`` with every call counted under ``name``."""
        def wrapper(*args):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args)
        return wrapper

    def snapshot(self):
        return dict(self.counters)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)

    def _wrap(self, fn, name):
        layer = name.split(".", 1)[0]
        timed = name in TIMED
        counters = self.counters
        clock = time.perf_counter_ns
        classify = _ml_path if name.startswith("special.mittag_leffler") else None

        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            if name == "terms.term_multiply":
                counters["terms.term_pairs"] = counters.get("terms.term_pairs", 0) + len(args[0]) * len(args[1])
            if layer == self._layer and not timed:
                return fn(*args, **kwargs)
            span_name = f"{name}[{classify(args, kwargs)}]" if classify else name
            idx = len(self.spans)
            self.spans.append(None)
            parent, outer = self._open, self._layer
            self._open, self._layer = idx, layer
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open, self._layer = parent, outer
                self.spans[idx] = (self._name_id(span_name), t0, t1, parent)
            if name == "growth.predict_table":
                counters["growth.cells"] = counters.get("growth.cells", 0) + len(result.values) * len(result.orders)
            return result

        return wrapper

    def install(self, modules):
        """Wrap the public functions of ``fracgrow.<m>`` for each m in ``modules``."""
        wrapped = {}
        for short in modules:
            mod = sys.modules[f"fracgrow.{short}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fracgrow" or mod_name.startswith("fracgrow."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped and inspect.isfunction(obj):
                        setattr(mod, attr, wrapped[id(obj)])
