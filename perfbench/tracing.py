"""In-memory tracing of logriesz from outside the package.

Spans wrap the calls that structure a workload (verify_supersolution,
PotentialTable, convolve_radial, newtonian_potential_radial, lambda_star,
classify, emit_regime_table): name, start, end and the span that caused
them.  The hot leaves, angular_factor and scipy's quad as called by
logriesz.convolution, run ~10^5 times per certificate, so they are kept as a
count plus a total time, and each open span accumulates the leaf time spent
inside it so that self times can be taken.

Wrapping replaces module attributes; `Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

from logriesz import ansatz, classifier, convolution


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "leaf_s", "tag")

    def __init__(self, name, parent, tag):
        self.name = name
        self.parent = parent
        self.tag = tag
        self.child_s = 0.0
        self.leaf_s = None
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start

    def self_s(self, leaf: str | None = None):
        """Duration minus child spans, or minus the named leaf's time."""
        if leaf is None:
            return self.duration - self.child_s
        return self.duration - (self.leaf_s or {}).get(leaf, 0.0)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.counters = defaultdict(int)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span(self, fn, name, tag=None, on_result=None):
        stack, spans = self._stack, self.spans

        def wrapped(*args, **kwargs):
            sp = Span(name, stack[-1] if stack else None, tag(*args) if tag else None)
            stack.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                stack.pop()
                if sp.parent is not None:
                    sp.parent.child_s += sp.duration
                spans.append(sp)
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def leaf(self, fn, name):
        stack, agg = self._stack, self.leaves[name]

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                for sp in stack:
                    if sp.leaf_s is None:
                        sp.leaf_s = {}
                    sp.leaf_s[name] = sp.leaf_s.get(name, 0.0) + dt

        return wrapped

    def install(self):
        """Wrap every traced boundary of the package; call restore() to undo."""
        def add_evaluations(res):
            self.counters["evaluations"] += res.evaluations

        convolve = self.span(convolution.convolve_radial, "convolve_radial", on_result=add_evaluations)
        self.patch(convolution, "convolve_radial", convolve)
        self.patch(ansatz, "convolve_radial", convolve)
        self.patch(convolution, "angular_factor", self.leaf(convolution.angular_factor, "angular_factor"))
        # logriesz.convolution reaches quad as `integrate.quad`; the stand-in
        # counts those calls without touching scipy for anyone else
        self.patch(convolution, "integrate",
                    types.SimpleNamespace(quad=self.leaf(convolution.integrate.quad, "quad")))

        self.patch(ansatz, "newtonian_potential_radial",
                    self.span(ansatz.newtonian_potential_radial, "newtonian_potential_radial"))
        table = ansatz.PotentialTable
        self.patch(table, "__call__", self.leaf(table.__call__, "table_eval"))
        self.patch(ansatz, "PotentialTable", self.span(table, "PotentialTable"))
        self.patch(ansatz, "lambda_star", self.span(ansatz.lambda_star, "lambda_star"))
        self.patch(ansatz, "verify_supersolution",
                    self.span(ansatz.verify_supersolution, "verify_supersolution"))

        self.patch(classifier, "classify",
                    self.span(classifier.classify, "classify", tag=lambda params: params.side.value))
        self.patch(classifier, "emit_regime_table",
                    self.span(classifier.emit_regime_table, "emit_regime_table"))
