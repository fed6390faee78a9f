"""Layer spans for rcint, recorded from outside the package.

`Tracer.install()` replaces the public functions of `rcint.jets`,
`geometry`, `invariants`, `ambient`, `integrate`, `tensor`, `reports` and
`cli` with timing wrappers at run time; `uninstall()` puts the originals
back.  Nothing under `src/` changes.  A module-level function is replaced at
every binding that holds it (for example `geometry.contract`,
`invariants.jcontract`, `ambient.jcontract` and `integrate.jcontract` for
`jets.contract`), so calls through any import name are seen.

Spans stay in memory as dicts with a name, start, end, parent and the
repetition they belong to, and are written as JSON lines by
`write_jsonl()`.
Instrumentation work done after a call returns (tracemalloc, operand scans)
is itself recorded as a `trace.bookkeeping` span, so it never inflates the
self time of a layer.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import sys
import time
import tracemalloc
from functools import cached_property, wraps

import numpy as np

BOOKKEEPING = "trace.bookkeeping"

#: (module, function, span name) for module-level functions
FUNCTIONS = [
    ("rcint.jets", "poly_matrix_inverse", "jets.poly_matrix_inverse"),
    ("rcint.invariants", "raise_last_two", "invariants.raise_last_two"),
    ("rcint.invariants", "pf_ell_poly", "invariants.pf_ell_poly"),
    ("rcint.invariants", "i_ell_operator", "invariants.i_ell_operator"),
    ("rcint.invariants", "pf_ell", "invariants.pf_ell"),
    ("rcint.invariants", "pf_ell_brute", "invariants.pf_ell_brute"),
    ("rcint.invariants", "weyl_basis", "invariants.weyl_basis"),
    ("rcint.ambient", "ambient_iterated_laplacian",
     "ambient.iterated_laplacian"),
    ("rcint.integrate", "integrate_scalar", "integrate.integrate_scalar"),
    ("rcint.tensor", "kronecker_recursion_residual", "tensor.kronecker"),
]

#: (module, class, method, span name) for methods
METHODS = [
    ("rcint.geometry", "Geometry", "__init__", "geometry.init"),
    ("rcint.geometry", "Geometry", "covariant_derivative",
     "geometry.covariant_derivative"),
    ("rcint.geometry", "Geometry", "laplacian", "geometry.laplacian"),
    ("rcint.geometry", "Geometry", "raise_all", "geometry.raise_all"),
    ("rcint.ambient", "AmbientChart", "geometry", "ambient.chart_geometry"),
]


def _rcint_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rcint" or name.startswith("rcint."))]


class Patcher:
    """Replaces attributes of rcint's modules and classes and restores
    them on `uninstall()`."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def replace_everywhere(self, orig, new):
        """Rebind every rcint module attribute that holds `orig`."""
        for mod in _rcint_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self.set(mod, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Tracer(Patcher):
    """Records spans around rcint's layers while installed."""

    def __init__(self, rep=None):
        super().__init__()
        self.spans = []
        self.rep = rep
        self._stack = []
        self._ids = itertools.count()

    def _record(self, name, start, end, parent):
        rec = {"id": next(self._ids), "name": name, "start": start,
               "end": end, "parent": parent, "rep": self.rep}
        self.spans.append(rec)
        return rec

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span; returns (result, span record)."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        rec = {"id": sid, "name": name, "start": start, "end": end,
               "parent": parent, "rep": self.rep}
        self.spans.append(rec)
        return result, rec

    def _wrap(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)[0]
        return wrapper

    def _wrap_suite(self, name, runner):
        """A suite runner is a generator: the span covers its iteration."""
        @wraps(runner)
        def wrapper(cfg):
            return self.call(name, lambda: list(runner(cfg)), (), {})[0]
        return wrapper

    def _wrap_contract(self, fn):
        jets = sys.modules["rcint.jets"]

        @wraps(fn)
        def contract(pattern, a, b, order=None):
            parent = self._stack[-1] if self._stack else None
            b0 = time.perf_counter()
            tracemalloc.start()
            b1 = time.perf_counter()
            try:
                result, rec = self.call("jets.contract", fn,
                                        (pattern, a, b, order), {})
                rec["peak_alloc"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rec.update(contract_counts(jets, pattern, a, b, order))
            self._record(BOOKKEEPING, b0, b1, parent)
            self._record(BOOKKEEPING, rec["end"], time.perf_counter(), parent)
            return result
        return contract

    def _wrap_rule_init(self, init):
        @wraps(init)
        def rule_init(rule, *args, **kwargs):
            _, rec = self.call("integrate.quadrature_rule", init,
                               (rule,) + args, kwargs)
            rec["nodes"] = len(rule.points)
        return rule_init

    def install(self):
        """Wrap every layer; rcint.cli must already be imported if its
        suites are to be traced."""
        import rcint.ambient  # noqa: F401 - load every layer module
        import rcint.integrate  # noqa: F401
        import rcint.tensor  # noqa: F401

        jets = sys.modules["rcint.jets"]
        self.replace_everywhere(jets.contract,
                                self._wrap_contract(jets.contract))
        for modname, fname, span in FUNCTIONS:
            orig = getattr(sys.modules[modname], fname)
            self.replace_everywhere(orig, self._wrap(span, orig))
        for modname, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            self.set(cls, meth, self._wrap(span, cls.__dict__[meth]))

        geometry_cls = sys.modules["rcint.geometry"].Geometry
        for attr, val in list(vars(geometry_cls).items()):
            if isinstance(val, cached_property):
                prop = cached_property(self._wrap(f"geometry.{attr}",
                                                  val.func))
                prop.__set_name__(geometry_cls, attr)
                self.set(geometry_cls, attr, prop)

        rule_cls = sys.modules["rcint.integrate"].QuadratureRule
        self.set(rule_cls, "__init__",
                 self._wrap_rule_init(rule_cls.__dict__["__init__"]))

        report_cls = sys.modules["rcint.reports"].CheckReport
        compare = report_cls.__dict__["compare"].__func__
        self.set(report_cls, "compare",
                 classmethod(self._wrap("reports.compare", compare)))

        cli = sys.modules.get("rcint.cli")
        if cli is not None:
            self.set(cli, "SUITES", {
                name: (anchor, desc,
                       self._wrap_suite(f"cli.suite.{name}", runner))
                for name, (anchor, desc, runner) in cli.SUITES.items()})
        return self


def write_jsonl(path, spans):
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def contract_counts(jets, pattern, a, b, order):
    """Kernel-independent work counts of one `jets.contract` call.

    pairs: batch x prod(index dims) x #{(alpha, beta): |alpha+beta| <= out
    order}; space: the component-pair count batch x prod(index dims);
    nonzero: component pairs where both operand jets are nonzero.
    """
    if order is None:
        order = min(a.basis.order, b.basis.order)
    order = min(order, a.basis.order + b.basis.order)
    npairs = len(jets._pair_table(a.basis.nvars, a.basis.order,
                                  b.basis.order, order)[0])
    in_a, in_b = pattern.split("->")[0].split(",")
    dims = dict(zip(in_a, a.comp_shape))
    dims.update(zip(in_b, b.comp_shape))
    batch = np.broadcast_shapes(a.coeffs.shape[:a.batch_ndim],
                                b.coeffs.shape[:b.batch_ndim])
    space = math.prod(batch) * math.prod(dims.values())
    nz_a = np.any(a.coeffs != 0, axis=-1).astype(np.float64)
    nz_b = np.any(b.coeffs != 0, axis=-1).astype(np.float64)
    nonzero = float(np.einsum(f"...{in_a},...{in_b}->...", nz_a,
                              nz_b).sum())
    return {"pairs": space * npairs, "space": space, "nonzero": nonzero}


# ---------------------------------------------------------------------------
# lazy tables


def _plain(x):
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    return int(x) if isinstance(x, np.integer) else x


def _hashable(x):
    return tuple(_hashable(v) for v in x) if isinstance(x, list) else x


class LazyTableRecorder(Patcher):
    """Records the arguments of every `functools.lru_cache` function of
    rcint (`basis`, `_pair_table`, `_diff_table`, `_pf_classes`, ...) in
    first-call order, so a fresh process can fill the same tables with
    `fill_lazy_tables` and time it as set-up."""

    def __init__(self):
        super().__init__()
        self.keys = []
        self._seen = set()

    def install(self):
        for mod in _rcint_modules():
            for attr, fn in list(vars(mod).items()):
                if (hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__")
                        and fn.__module__ == mod.__name__):
                    self.replace_everywhere(fn, self._wrap(mod.__name__,
                                                           attr, fn))
        return self

    def _wrap(self, modname, attr, fn):
        @wraps(fn)
        def recorder(*args):
            key = [modname, attr, _plain(list(args))]
            if _hashable(key) not in self._seen:
                self._seen.add(_hashable(key))
                self.keys.append(key)
            return fn(*args)
        return recorder


def fill_lazy_tables(keys):
    for modname, attr, args in keys:
        getattr(sys.modules[modname], attr)(*_hashable(args))


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Span id -> duration minus the time of its direct children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = (child.get(s["parent"], 0.0)
                                  + s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0)
            for s in spans}


def rep_layers(spans):
    """Per-layer figures of one repetition's spans."""
    selfs = self_times(spans)
    out = {}

    def add(key, val):
        out[key] = out.get(key, 0) + val

    nodes_under = {}
    for s in spans:
        if s["name"] == "integrate.quadrature_rule":
            nodes_under[s["parent"]] = (nodes_under.get(s["parent"], 0)
                                        + s["nodes"])
    quad_time = layer_self = space = nonzero = 0.0
    for s in spans:
        name = s["name"]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", selfs[s["id"]])
        add(f"{name}.s", s["end"] - s["start"])
        if name != BOOKKEEPING:
            layer_self += selfs[s["id"]]
        if name == "jets.contract":
            add("jets.contract.pair_products", s["pairs"])
            space += s["space"]
            nonzero += s["nonzero"]
            out["jets.contract.peak_alloc_mb"] = max(
                out.get("jets.contract.peak_alloc_mb", 0.0),
                s["peak_alloc"] / 2 ** 20)
        if name == "integrate.quadrature_rule":
            add("integrate.nodes", s["nodes"])
        if name == "integrate.integrate_scalar" and nodes_under.get(s["id"]):
            quad_time += s["end"] - s["start"]
    if space:
        out["jets.contract.nonzero_share"] = nonzero / space
    if quad_time > 0:
        out["integrate.nodes_per_s"] = out["integrate.nodes"] / quad_time
    out["layers.self_sum_s"] = layer_self
    return out


def is_count(key):
    return (key.endswith(".calls") or key.endswith(".pair_products")
            or key == "integrate.nodes")


def summarize(per_rep):
    """Median over repetitions of each layer figure.

    Returns (medians, mismatched count keys).  Counts must repeat exactly
    between repetitions; a key whose count differs is reported back.
    """
    keys = sorted({k for rep in per_rep for k in rep})
    medians, mismatched = {}, []
    for key in keys:
        vals = [rep.get(key, 0) for rep in per_rep]
        if is_count(key) and len(set(vals)) > 1:
            mismatched.append(key)
        medians[key] = statistics.median(vals)
    return medians, mismatched
