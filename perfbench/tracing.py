"""Spans and counters around the package's public calls, installed from outside.

The install methods replace each traced function wherever a knormal
module holds it, and each traced method on its class; uninstall() puts
the originals back.  Spans (name, parent, start, end) stay in memory in
flat arrays and are written once, by write().  FqField arithmetic,
FFElement products and powmod are only counted: they are leaves called so
often that timing them would swamp what they measure.  Even counting them
costs more than the spans do, so a traced run installs spans and counters
in two separate passes over the same operations, and the span times come
from a pass without counters.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

from knormal import cyclotomic, ff, intfactor, normality, polyring, sieve
from knormal.basefield import FqField
from knormal.ff import FFElement
from knormal.fieldscan import FieldScan
from knormal.polyring import FqPoly

# span name -> (module whose function it is, or class whose method it is, attribute)
SPANS = {
    "polyring.least_irreducible": (polyring, "least_irreducible"),
    "polyring.is_irreducible": (polyring, "is_irreducible"),
    "polyring.mul": (FqPoly, "__mul__"),
    "polyring.divmod": (FqPoly, "__divmod__"),
    "intfactor.factor_integer": (intfactor, "factor_integer"),
    "cyclotomic.factor_xm_minus_1": (cyclotomic, "factor_xm_minus_1"),
    "ff.build_field": (ff, "build_field"),
    "ff.is_primitive": (ff, "is_primitive"),
    "normality.is_normal": (normality, "is_normal"),
    "normality.construct_k_normal": (normality, "construct_k_normal"),
    "normality.lambda_poly": (normality, "lambda_poly"),
    "normality.psi_poly": (normality, "psi_poly"),
    "normality.brute_census": (normality, "brute_census"),
    "fieldscan.scan": (FieldScan, "__init__"),
    "sieve.sieve_verdict": (sieve, "sieve_verdict"),
}

# counter name -> [(owner, attribute)], each call adding one
COUNTS = {
    "polyring.powmod": [(polyring, "powmod")],
    "ff.element_mul": [(FFElement, "__mul__")],
    "basefield.ops": [(FqField, m) for m in ("add", "sub", "neg", "mul", "inv", "pow")],
}

# per-layer metric -> unit; "<span>.s" is inclusive time unless the span is
# in SELF_TIME, "<name>.calls" counts spans or counted calls
METRICS = {
    "polyring.least_irreducible.s": "s",
    "polyring.is_irreducible.calls": "count",
    "polyring.is_irreducible.s": "s",
    "polyring.powmod.calls": "count",
    "polyring.mul.calls": "count",
    "polyring.mul.s": "s",
    "polyring.divmod.calls": "count",
    "polyring.divmod.s": "s",
    "basefield.ops.calls": "count",
    "intfactor.factor_integer.calls": "count",
    "intfactor.factor_integer.s": "s",
    "cyclotomic.factor_xm_minus_1.calls": "count",
    "cyclotomic.factor_xm_minus_1.s": "s",
    "ff.build_field.s": "s",
    "ff.is_primitive.calls": "count",
    "ff.is_primitive.s": "s",
    "ff.element_mul.calls": "count",
    "normality.is_normal.s": "s",
    "normality.construct_k_normal.s": "s",
    "normality.lambda_poly.s": "s",
    "normality.psi_poly.calls": "count",
    "normality.psi_poly.s": "s",
    "normality.brute_census.s": "s",
    "fieldscan.scan.s": "s",
    "fieldscan.elements": "count",
    "sieve.sieve_verdict.calls": "count",
    "sieve.sieve_verdict.s": "s",
}
SELF_TIME = {"ff.build_field"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return spanned

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _scan_elements(self, fn):
        counts = self.counts

        def init(scan, ctx, *args, **kwargs):
            counts["fieldscan.elements"] += ctx.order
            return fn(scan, ctx, *args, **kwargs)

        return init

    # -- installation ---------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a function: replace every reference a knormal module holds
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "knormal" or mod_name.startswith("knormal."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def install_spans(self) -> None:
        for name, (owner, attr) in SPANS.items():
            self._replace(owner, attr, lambda fn, name=name: self._span(name, fn))

    def install_counters(self) -> None:
        self._replace(FieldScan, "__init__", self._scan_elements)
        for name, targets in COUNTS.items():
            for owner, attr in targets:
                self._replace(owner, attr, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def _arrays(self):
        name_of = np.frombuffer(self.name_of, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return name_of, dur, dur - children

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, inclusive seconds, self seconds)."""
        name_of, dur, self_time = self._arrays()
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        total = np.bincount(name_of, weights=dur, minlength=k)
        own = np.bincount(name_of, weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}

    def metrics(self) -> dict[str, tuple[float, str]]:
        spans = self.summary()
        out = {}
        for metric, unit in METRICS.items():
            name, _, what = metric.rpartition(".")
            if name in spans:
                calls, total, own = spans[name]
                value = {"calls": calls, "s": own if name in SELF_TIME else total}[what]
            else:
                value = self.counts[name if what == "calls" else metric]
            out[metric] = (value, unit)
        return out

    def table(self) -> str:
        lines = [f"{'span':32} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
        for name, (calls, total, own) in self.summary().items():
            lines.append(f"{name:32} {calls:10d} {total:10.4f} {own:10.4f}")
        for name, count in sorted(self.counts.items()):
            lines.append(f"{name:32} {count:10d}")
        return "\n".join(lines)

    def write(self, path) -> None:
        """All spans (name index, parent index or -1, start, end) and the counters."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counts=np.array(json.dumps(self.counts)),
        )
