"""Spans around the public callables of parkcrit, for the traced run only.

A span wraps one callable.  Each call adds its duration to the span's
parent (the span that was open when it started, on the same thread) and
its self time, the duration minus the time covered by child spans, to
the span's name.  Only per-name totals are kept: a full span log of the
analytic workload would hold hundreds of thousands of G evaluations.
"""
from __future__ import annotations

import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """fn wrapped in a span called name."""
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack_of = self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)

        def spanned(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                if stack:
                    stack[-1][0] += dur

        spanned.__wrapped__ = fn
        return spanned

    def patch(self, owner, attr, name):
        """Replace owner.attr by a spanned version until unpatch_all."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def unpatch_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total_self_s(self):
        return sum(self.self_s.values())


def patch_parkcrit(tracer, pk):
    """Wrap the layer boundaries of the parkcrit package pk.

    Names a module imported from another (analytic's sqrt_series,
    enumeration's classify, cli's handlers' imports) are patched where
    they are looked up, under one span name per callable.
    """
    laws, analytic, series = pk.laws, pk.analytic, pk.series
    enumeration, simulate, cli = pk.enumeration, pk.simulate, pk.cli
    for cls in vars(laws).values():
        if isinstance(cls, type) and issubclass(cls, laws.ArrivalLaw):
            for method in ("derivatives", "exact_coefficients"):
                if method in cls.__dict__:
                    tracer.patch(cls, method, f"laws.{method}")
    spans = {
        "analytic.classify": [analytic, enumeration, cli],
        "analytic.find_critical_time": [analytic],
        "analytic.solve_empty_prob": [analytic],
        "analytic.find_alpha_c": [analytic, cli],
        "analytic.flux_distribution": [analytic, enumeration, cli],
        "analytic.mean_identities": [analytic, cli],
        "analytic.critical_quantities": [analytic, cli],
        "series.sqrt_series": [series, analytic],
        "series.reciprocal": [series],
        "enumeration.tutte_series": [enumeration, cli],
        "enumeration.brute_force_table": [enumeration, cli],
        "enumeration.check_against_oracle": [enumeration, cli],
        "enumeration.flux_via_table": [enumeration, cli],
        "simulate.make_sampler": [simulate],
        "simulate.sample_root_load": [simulate],
        "simulate.estimate_root_law": [simulate, cli],
        "simulate.root_cluster_stats": [simulate, cli],
    }
    for name, owners in spans.items():
        attr = name.split(".", 1)[1]
        for owner in owners:
            tracer.patch(owner, attr, name)
    tracer.patch(analytic, "series_reciprocal", "series.reciprocal")
