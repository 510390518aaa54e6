"""Span tracing of charcalc's layers, installed from outside the package.

:class:`Tracer` replaces chosen functions and methods of the ``charcalc``
modules with wrappers that record one span per call (name, start, end,
parent span and the benchmark operation that caused it) and a few counters
at the same boundary.  Nothing in the package changes on disk; the patches
live only in the traced process and are undone by :meth:`Tracer.uninstall`.
Spans stay in memory until :meth:`Tracer.write` saves them.

A name that a future version of the package no longer has is skipped, and
its metrics read 0.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute) for module-level functions, which are
# patched in every charcalc module that imported them by name.
FUNCTIONS = [
    ("lambda_ring.lambda_t", "charcalc.lambda_ring", "lambda_t"),
    ("lambda_ring.gamma_t", "charcalc.lambda_ring", "gamma_t"),
    ("lambda_ring.ch", "charcalc.lambda_ring", "ch"),
    ("lambda_ring.todd", "charcalc.lambda_ring", "todd"),
    ("lambda_ring.total_chern", "charcalc.lambda_ring", "total_chern"),
    ("verify.gala", "charcalc.verify", "verify_gala"),
    ("verify.borel_serre", "charcalc.verify", "verify_borel_serre"),
    ("verify.ch_gamma", "charcalc.verify", "verify_ch_gamma"),
    ("verify.prop_chtd", "charcalc.verify", "verify_prop_chtd"),
    ("verify.homomorphism", "charcalc.verify", "verify_hom_laws"),
    ("conductor.validate_fiber", "charcalc.conductor", "validate_fiber"),
    ("conductor.is_prime", "charcalc.conductor", "_is_prime"),
    ("conductor.normalize_fiber", "charcalc.conductor", "normalize_fiber"),
    ("conductor.generic_euler_check", "charcalc.conductor", "generic_euler_check"),
    ("conductor.bloch_degree", "charcalc.conductor", "bloch_degree"),
    ("conductor.conductor", "charcalc.conductor", "conductor"),
    ("modelfile.load_model", "charcalc.modelfile", "load_model"),
    ("modelfile.parse_model", "charcalc.modelfile", "parse_model"),
    ("cli.cmd_verify", "charcalc.cli", "cmd_verify"),
    ("cli.cmd_conductor", "charcalc.cli", "cmd_conductor"),
    ("cli.cmd_explain", "charcalc.cli", "cmd_explain"),
]

# (span name, module, class, attribute) for methods, patched on the class.
METHODS = [
    ("series.init", "charcalc.series", "GradedSeries", "__init__"),
    ("series.mul", "charcalc.series", "GradedSeries", "__mul__"),
    ("series.add", "charcalc.series", "GradedSeries", "__add__"),
    ("series.exp", "charcalc.series", "GradedSeries", "exp"),
    ("series.invert", "charcalc.series", "GradedSeries", "invert"),
    ("series.pow", "charcalc.series", "GradedSeries", "__pow__"),
    ("series.component", "charcalc.series", "GradedSeries", "component"),
    ("lambda_ring.kelement_mul", "charcalc.lambda_ring", "KElement", "__mul__"),
    ("lambda_ring.tseries_mul", "charcalc.lambda_ring", "TSeries", "__mul__"),
    ("lambda_ring.tseries_invert", "charcalc.lambda_ring", "TSeries", "invert"),
]


def _monomials(series):
    terms = getattr(series, "_terms", None)
    if isinstance(terms, dict):
        return terms.keys()
    return [mono for mono, _ in series.terms()]


def _degree_histogram(series) -> dict[int, int]:
    histogram: dict[int, int] = defaultdict(int)
    for mono in _monomials(series):
        histogram[sum(mono)] += 1
    return histogram


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.op_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.ops: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin_op(self, label: str) -> None:
        """Tag the spans that follow with one benchmark operation."""
        self.ops.append(label)

    def _span(self, name: str, fn, count=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(len(self.ops) - 1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            finally:
                self.end[index] = perf_counter()
                stack.pop()

        return wrapper

    # -- counters, taken inside the span they count ---------------------------

    def _count_init(self, args, result):
        size = len(_monomials(args[0]))
        if size > self.counts["series.peak_terms"]:
            self.counts["series.peak_terms"] = size

    def _count_mul(self, args, result):
        x, y = args
        if hasattr(y, "truncation_degree"):
            bound = x.truncation_degree
            hx, hy = _degree_histogram(x), _degree_histogram(y)
            self.counts["series.mul.term_pairs"] += sum(
                cx * cy for dx, cx in hx.items() for dy, cy in hy.items() if dx + dy <= bound
            )
        else:
            self.counts["series.mul.term_pairs"] += len(_monomials(x))
        if hasattr(result, "truncation_degree"):
            self.counts["series.mul.terms_out"] += len(_monomials(result))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        counters = {"series.init": self._count_init, "series.mul": self._count_mul}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "charcalc" or n.startswith("charcalc.")]
        for span, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._span(span, original, counters.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)
        for span, module_name, class_name, attr in METHODS:
            cls = getattr(sys.modules.get(module_name), class_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._span(span, original, counters.get(span)))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    # -- analysis -------------------------------------------------------------

    def summarize(self):
        """Per span name: calls, total and self seconds; and the same totals
        split by operation label.

        A span's self time is its duration minus the durations of its child
        spans; calls nest strictly in one thread, so children never overlap.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        by_op = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            total = self.end[i] - self.start[i]
            name = self.names[self.name_of[i]]
            op = self.ops[self.op_of[i]] if self.op_of[i] >= 0 else ""
            for row in (by_name[name], by_op[(name, op)]):
                row[0] += 1
                row[1] += total
                row[2] += total - child[i]
        return by_name, by_op

    def write(self, path) -> None:
        """Save every span as gzip-compressed JSON:
        [name, start, end, parent index, operation label]."""
        rows = [
            [
                self.names[self.name_of[i]],
                round(self.start[i], 7),
                round(self.end[i], 7),
                self.parent[i],
                self.ops[self.op_of[i]] if self.op_of[i] >= 0 else "",
            ]
            for i in range(len(self.start))
        ]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}, handle)
