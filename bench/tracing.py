"""Per-layer spans recorded by wrappers around valext's public functions.

``install`` replaces each listed function by a wrapper that records a span
(function, start, end, parent span, operation) while recording is switched
on, and only counts calls for ``value_groups``.  valext modules import many
names from each other (``cli`` and ``builder`` import ``tensor_decompose``,
``verify_weakly_unramified`` and others by name), so a wrapper is bound in
every valext module that holds the function, not only where it is defined.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# metric name -> (module, class or None, attributes that hold the function)
WRAPPED = {
    "cli.parse_scenario": ("cli", None, ("parse_scenario",)),
    "builder.build_strictly_maximal": ("builder", None, ("build_strictly_maximal",)),
    "builder.build_general": ("builder", None, ("build_general",)),
    "builder.verify_weakly_unramified": ("builder", None, ("verify_weakly_unramified",)),
    "builder.spectrum_correspondence": ("builder", None, ("spectrum_correspondence",)),
    "builder.render_report": ("builder", None, ("render_report",)),
    "compositum.tensor_decompose": ("compositum", None, ("tensor_decompose",)),
    "norms.random_fraction_element": ("norms", None, ("random_fraction_element",)),
    "norms.gauss_extend": ("norms", None, ("gauss_extend",)),
    "valuations.value": ("valuations", "MonomialValuation", ("value",)),
    "valuations.residue": ("valuations", "MonomialValuation", ("residue",)),
    "valuations.series": ("valuations", "MonomialValuation", ("series",)),
    "valuations.from_terms": ("valuations", "MonomialValuation", ("from_terms",)),
    "valuations.monomial": ("valuations", "MonomialValuation", ("monomial",)),
    "valuations.hensel_factor_lift": ("valuations", None, ("hensel_factor_lift",)),
    "poly.factor": ("poly", None, ("factor",)),
    "poly.gcd": ("poly", None, ("gcd",)),
    "poly.squarefree_part": ("poly", None, ("squarefree_part",)),
    "poly.resultant": ("poly", None, ("resultant",)),
    "poly.parse": ("poly", "Polynomial", ("parse",)),
    "fields.mul": ("fields", "FieldElement", ("__mul__", "__rmul__")),
    "fields.add": ("fields", "FieldElement", ("__add__", "__radd__")),
    "fields.inv": ("fields", "FieldElement", ("inv",)),
    "fields.div": ("fields", "FieldElement", ("__truediv__", "__rtruediv__")),
    "fields.TowerHom.apply": ("fields", "TowerHom", ("apply",)),
    "fields.TowerHom.verify": ("fields", "TowerHom", ("verify",)),
    "fields.pth_root": ("fields", None, ("pth_root",)),
    "fields.perfect_closure_truncated": ("fields", None, ("perfect_closure_truncated",)),
}

LAYERS = ("cli", "builder", "compositum", "norms", "valuations", "poly", "fields")

# Functions each workload must reach at least once in a traced run.
REQUIRED = {
    "extend_verify": (
        "cli.parse_scenario",
        "builder.build_strictly_maximal",
        "builder.build_general",
        "builder.verify_weakly_unramified",
        "builder.spectrum_correspondence",
        "builder.render_report",
        "compositum.tensor_decompose",
        "norms.random_fraction_element",
        "norms.gauss_extend",
        "valuations.value",
        "valuations.from_terms",
        "valuations.monomial",
        "valuations.hensel_factor_lift",
        "poly.parse",
        "poly.factor",
        "fields.mul",
        "fields.add",
        "fields.inv",
        "fields.div",
        "fields.TowerHom.apply",
        "fields.TowerHom.verify",
        "fields.pth_root",
        "fields.perfect_closure_truncated",
    ),
    "extend_build": (
        "cli.parse_scenario",
        "builder.build_strictly_maximal",
        "builder.build_general",
        "builder.render_report",
        "compositum.tensor_decompose",
        "norms.gauss_extend",
        "valuations.hensel_factor_lift",
        "poly.parse",
        "poly.factor",
        "poly.gcd",
        "fields.mul",
        "fields.add",
        "fields.inv",
        "fields.TowerHom.apply",
        "fields.TowerHom.verify",
        "fields.pth_root",
        "fields.perfect_closure_truncated",
    ),
    "factor_mix": (
        "poly.factor",
        "poly.gcd",
        "fields.mul",
        "fields.add",
        "fields.inv",
    ),
}


def metric_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    names = []
    for layer in LAYERS:
        fns = [n for n in WRAPPED if n.split(".", 1)[0] == layer]
        names += [f"{layer}.calls", f"{layer}.self_ms"]
        for fn in fns:
            names += [f"{fn}.calls", f"{fn}.self_ms"]
    names.append("value_groups.calls")
    return names


class Recorder:
    """Spans of one traced run, column by column; recording is on only
    inside operations."""

    def __init__(self):
        self.names: list[str] = list(WRAPPED)
        self.fid = array("i")  # index into names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # index of the enclosing span, -1 at the top
        self.op = array("i")  # index of the operation
        self.stack: list[int] = []
        self.active = False
        self.current_op = -1
        self.value_group_calls = 0

    def span_wrapper(self, fid: int, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.fid)
            rec.fid.append(fid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.op.append(rec.current_op)
            rec.end.append(0.0)
            rec.stack.append(idx)
            rec.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter()
                rec.stack.pop()

        return wrapper

    def count_wrapper(self, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.active:
                rec.value_group_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self, op_scales: list[float]) -> dict[str, float]:
        """calls and scaled self time (ms) per function and per layer."""
        n = len(self.fid)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            fid = self.fid[i]
            calls[fid] += 1
            self_s[fid] += (self.end[i] - self.start[i] - child[i]) * op_scales[self.op[i]]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_ms"] = 0.0
        for fid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.self_ms"] = self_s[fid] * 1000
            out[f"{layer}.calls"] += calls[fid]
            out[f"{layer}.self_ms"] += self_s[fid] * 1000
        out["value_groups.calls"] = self.value_group_calls
        return out

    def write(self, path: str) -> None:
        """The spans as columns; times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.fid.tolist(),
                    "start_s": [round(t - t0, 7) for t in self.start],
                    "end_s": [round(t - t0, 7) for t in self.end],
                    "parent": self.parent.tolist(),
                    "op": self.op.tolist(),
                },
                fh,
            )


def _rebind(orig, replacement) -> int:
    """Bind replacement wherever a valext module holds orig; returns how many
    bindings changed."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "valext" or mod_name.startswith("valext.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, replacement)
                n += 1
    return n


def install(rec: Recorder) -> None:
    """Wrap every function of WRAPPED and count value_groups calls."""
    for fid, (metric, (mod_name, cls_name, attrs)) in enumerate(WRAPPED.items()):
        mod = sys.modules[f"valext.{mod_name}"]
        if cls_name is None:
            orig = getattr(mod, attrs[0])
            if _rebind(orig, rec.span_wrapper(fid, orig)) == 0:
                raise RuntimeError(f"{metric}: no module binds the function")
            continue
        cls = getattr(mod, cls_name)
        for attr in attrs:
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(rec.span_wrapper(fid, raw.__func__)))
            else:
                setattr(cls, attr, rec.span_wrapper(fid, raw))
    vg = sys.modules["valext.value_groups"]
    for name, value in list(vars(vg).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == vg.__name__:
            _rebind(value, rec.count_wrapper(value))
        elif inspect.isclass(value) and value.__module__ == vg.__name__:
            for attr, raw in list(vars(value).items()):
                if not attr.startswith("_") and inspect.isfunction(raw):
                    setattr(value, attr, rec.count_wrapper(raw))
