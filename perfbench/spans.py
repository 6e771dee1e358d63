"""Span tracer for the traced benchmark run.

Spans are recorded only from the benchmark's own code: ``Tracer.install``
replaces each public alhlab name listed in ``SPANS`` with a wrapper, at
every place the package binds it (module globals that hold the same
object, and class attributes for methods).  Nothing inside the package is
edited, and an untraced run never imports this module.

Each span records (id, name, start, end, parent id) in one flat in-memory
array and is written out once at the end.  Self time is a span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time

# span name -> where the original lives: ("module", "function") for a
# module-level function, ("module", "Class.method") for a method.  A name
# may cover several originals (RatFun + - * /, the two fits).
SPANS = {
    "ratfun.poly_gcd": [("alhlab.ratfun", "poly_gcd")],
    "ratfun.arith": [("alhlab.ratfun", f"RatFun.{op}") for op in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__")],
    "ratfun.evaluate": [("alhlab.ratfun", "RatFun.evaluate")],
    "ratfun.lambdify": [("alhlab.ratfun", "RatFun.lambdify")],
    "geometry.inverse": [("alhlab.geometry", "MetricField.inverse")],
    "geometry.christoffel": [("alhlab.geometry", "christoffel")],
    "geometry.riemann": [("alhlab.geometry", "riemann")],
    "geometry.ricci": [("alhlab.geometry", "ricci")],
    "forms.wedge": [("alhlab.forms", "wedge")],
    "forms.ext_d": [("alhlab.forms", "ext_d")],
    "forms.hodge_star": [("alhlab.forms", "hodge_star")],
    "hk.pullback_pm": [("alhlab.hk", "pullback_pm")],
    "hk.second_derivative_report": [("alhlab.hk", "second_derivative_report")],
    "operators.laplacian": [("alhlab.operators", "laplacian")],
    "operators.project_modes": [("alhlab.operators", "project_modes")],
    "operators.blowup_lift": [("alhlab.operators", "blowup_lift")],
    "indicial.indicial_roots": [("alhlab.indicial", "indicial_roots")],
    "modes.solve_bvp": [("alhlab.modes", "solve_bvp")],
    "modes.spsolve": [("alhlab.modes", "spsolve")],
    "modes.fit": [("alhlab.modes", "fit_expansion"),
                  ("alhlab.modes", "fit_decay_rate")],
    "modes.weighted_sigma_min": [("alhlab.modes", "weighted_sigma_min")],
    "modes.svdvals": [("alhlab.modes", "svdvals")],
    "cli.dispatch": [("alhlab.cli", "cli_dispatch")],
}

# Spans whose nested calls fold into the outer call: RatFun.__sub__ is
# implemented through __add__, and one user-level operation is one call.
_FOLD_NESTED = {"ratfun.arith"}

# Counts the tracer keeps beside the spans.
COUNTERS = ("ratfun.poly_gcd.general_calls",
            "ratfun.poly_gcd.nontrivial_calls", "ratfun.peak_degree",
            "modes.unknowns")


def _varying_vars(poly):
    """Variable slots whose exponent differs between terms: the variables
    left after the common monomial factor is split off."""
    terms = iter(poly.terms)
    lo = list(next(terms))
    hi = list(lo)
    for exp in terms:
        for i, e in enumerate(exp):
            if e < lo[i]:
                lo[i] = e
            elif e > hi[i]:
                hi[i] = e
    return {i for i in range(len(lo)) if hi[i] > lo[i]}


def is_general_gcd(a, b) -> bool:
    """True when poly_gcd(a, b) must leave its monomial fast path: both
    operands are still non-constant after the monomial split and they
    share a variable."""
    if len(a.terms) < 2 or len(b.terms) < 2:
        return False
    return bool(_varying_vars(a) & _varying_vars(b))


class Tracer:
    """Records spans while ``active``; calls made while it is not (the
    benchmark's own checks) pass straight through."""

    def __init__(self):
        self.names = list(SPANS)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.active = True
        # open spans: [span id, name index, start ns, child ns]
        self._stack = []
        self._undo = []
        # flat span records: id, name index, start ns, end ns, parent id
        self.spans = array.array("q")
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._next_id = 0

    # -- recording ------------------------------------------------------

    def _wrap(self, name, fn):
        idx = self._index[name]
        fold = name in _FOLD_NESTED
        stack = self._stack
        clock = time.perf_counter_ns
        post = {"ratfun.poly_gcd": self._after_gcd,
                "ratfun.arith": self._after_arith,
                "modes.solve_bvp": self._after_solve}.get(name)

        def traced(*args, **kwargs):
            if not self.active or (fold and stack and stack[-1][1] == idx):
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, idx, clock(), 0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                self.spans.extend((sid, idx, frame[2], end, parent))
                self.calls[idx] += 1
                self.self_ns[idx] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
            if post is not None:
                post(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def _after_gcd(self, args, out):
        if is_general_gcd(args[0], args[1]):
            self.counters["ratfun.poly_gcd.general_calls"] += 1
        if not out.is_constant():
            self.counters["ratfun.poly_gcd.nontrivial_calls"] += 1

    def _after_arith(self, args, out):
        deg = max(out.num.total_degree(), out.den.total_degree())
        if deg > self.counters["ratfun.peak_degree"]:
            self.counters["ratfun.peak_degree"] = deg

    def _after_solve(self, args, out):
        self.counters["modes.unknowns"] += int(out.values.size)

    # -- installing -----------------------------------------------------

    def install(self):
        """Wrap every listed name wherever alhlab binds it."""
        importlib.import_module("alhlab.cli")  # loads every module
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "alhlab" or n.startswith("alhlab.")]
        for name, sites in SPANS.items():
            for modname, attr in sites:
                module = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results --------------------------------------------------------

    def totals(self) -> dict:
        """Calls, self time in ms and the counters, summed over the run."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_ms"] = self.self_ns[i] / 1e6
        out.update(self.counters)
        return out

    def write(self, path):
        """Write the spans (binary int64 records) and a JSON header."""
        with open(path + ".spans", "wb") as handle:
            self.spans.tofile(handle)
        with open(path + ".json", "w") as handle:
            json.dump({"names": self.names,
                       "fields": ["id", "name", "start_ns", "end_ns",
                                  "parent"],
                       "dtype": "int64", "count": len(self.spans) // 5,
                       "totals": self.totals()}, handle, indent=1)


def merge_totals(parts) -> dict:
    """Sum totals from several traced processes; peak_degree is a max."""
    out = {}
    for part in parts:
        for key, value in part.items():
            if key == "ratfun.peak_degree":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
