"""Span tracer for the benchmark's traced run.

Every span is recorded from wrappers that live in this file: nothing under
``src/`` is changed.  A span records its name, start, end and parent; the
records stay in memory and are written out once the run ends.  A layer's
self time is its span's duration minus the durations of its direct
children (calls are single-threaded and strictly nested, so children never
overlap).

The package modules import quadrature names directly (``from .quadrature
import adaptive_panel_integral``), so each wrapper is installed in every
namespace that holds the name, and :meth:`Tracer.restore` puts the
originals back.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

_clock = time.perf_counter


class Tracer:
    """Collects spans and counters; installs and removes the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []          # open span indices
        self._child_time: list[float] = []   # per open span, summed child durations
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._pending_nodes = 0
        self._engine_tails = 0

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self._child_time.append(0.0)
        start = _clock()
        self.span_start.append(start)
        self.span_end.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self.span_end[idx] = end
            self._stack.pop()
            children = self._child_time.pop()
            dur = end - start
            if self._child_time:
                self._child_time[-1] += dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - children
            self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, key: str, amount: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def write(self, path):
        """Write the span records as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    # -- wrappers ----------------------------------------------------------

    def wrap_charfn(self, phi):
        """A copy of ``phi`` whose top-level evaluators run inside spans."""
        changes = {"minus_one": self._charfn_eval(phi.minus_one)}
        if phi.radial_minus_one is not None:
            changes["radial_minus_one"] = self._charfn_eval(phi.radial_minus_one)
        return dataclasses.replace(phi, **changes)

    def _charfn_eval(self, fn):
        def traced(pts):
            self.count("charfn.eval_points", getattr(pts, "shape", (1,))[0])
            return self.span("charfn.eval", fn, pts)
        return traced

    def _integrand(self, f, name):
        def traced(x):
            self.count("quadrature.points", getattr(x, "size", 1))
            return self.span(name, f, x)
        return traced

    def _assembly(self, D):
        def traced(r):
            return self.span("moment_engine.assembly", D, r)
        return traced

    def _patch(self, namespace, attr, wrapper):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def _patch_all(self, modules, attr, make):
        """Wrap ``attr`` once and install the wrapper in every namespace."""
        original = getattr(modules[0], attr)
        wrapper = functools.wraps(original)(make(original))
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def _simple(self, name):
        def make(original):
            def traced(*args, **kwargs):
                return self.span(name, original, *args, **kwargs)
            return traced
        return make

    def install(self):
        """Patch the layer boundaries of the cfmoments package."""
        import cfmoments
        from cfmoments import cli, convolution, heat, metrics, moment_engine, quadrature

        def panels(original):
            label = {
                moment_engine.__name__: "moment_engine.assembly",
                metrics.__name__: "moment_engine.assembly",
            }

            def traced(f, breakpoints, rel_tol, abs_tol, max_panels):
                caller = sys._getframe(1)
                name = label.get(caller.f_globals.get("__name__"), "quadrature.inner_integrand")
                if caller.f_code.co_name == "_kernel_tail":
                    name = "quadrature.inner_integrand"  # atomic-tail Bessel head
                out = self.span(
                    "quadrature.panels", original,
                    self._integrand(f, name), breakpoints, rel_tol, abs_tol, max_panels,
                )
                self.count("quadrature.panel_calls")
                self.count("quadrature.final_panels", out[2])
                if not out[3]:
                    self.count("quadrature.unconverged")
                return out
            return traced

        def origin(original):
            def traced(D, *args, **kwargs):
                self.count("quadrature.origin_fits")
                return self.span(
                    "quadrature.origin", original,
                    self._assembly(D), *args, **kwargs,
                )
            return traced

        def nodes(original):
            def traced(breakpoints):
                out = self.span("quadrature.fixed_nodes", original, breakpoints)
                self._pending_nodes += out[0].size
                return out
            return traced

        def inversion(original):
            def traced(phi_a, phi_b, p, t, sigma=0, x_grid=None, spec=None):
                before = self._pending_nodes
                out = self.span("heat.public", original, phi_a, phi_b, p, t, sigma, x_grid, spec)
                # one batch of Kronrod nodes is inverted against every x;
                # the default grid has 513 points
                n_x = 513 if x_grid is None else len(x_grid)
                self.count("heat.inversion_points", (self._pending_nodes - before) * n_x)
                return out
            return traced

        def engine_tail(original):
            def traced(*args, **kwargs):
                self._engine_tails += 1
                try:
                    return self.span("quadrature.trig_tail", original, *args, **kwargs)
                finally:
                    self._engine_tails -= 1
            return traced

        def power_tail(original):
            def traced(*args, **kwargs):
                if not self._engine_tails:
                    return original(*args, **kwargs)
                return self.span("specfun.trig_power_tail", original, *args, **kwargs)
            return traced

        engine_ns = [moment_engine, cfmoments, metrics, heat, convolution, cli]
        for attr in ("absolute_moment", "even_order_moment",
                     "fulldim_difference_integral", "radial_difference_integral"):
            self._patch_all(engine_ns, attr, self._simple("moment_engine.public"))
        for attr in ("sup_distance", "holder_distance", "holder_seminorm",
                     "difference_holder_sup", "difference_seminorm",
                     "integral_distance", "composite_metric", "membership",
                     "derivative_seminorm"):
            self._patch_all([metrics, cfmoments, heat], attr, self._simple("metrics.public"))
        self._patch_all([heat, cfmoments], "derivative_sup_distance", inversion)
        for attr in ("evolve", "moment_propagation_check", "decay_rate_check",
                     "small_time_check"):
            self._patch_all([heat, cfmoments], attr, self._simple("heat.public"))
        self._patch_all([cli], "main", self._simple("cli.main"))
        self._patch_all([quadrature, moment_engine, metrics, cli],
                        "adaptive_panel_integral", panels)
        self._patch_all([quadrature, moment_engine], "origin_power_model", origin)
        # tails of the engine only: the CLI verify table calls
        # trig_tail_integral for its own kernel-integral reference values
        self._patch_all([moment_engine, metrics], "trig_tail_integral", engine_tail)
        self._patch_all([quadrature], "trig_power_tail", power_tail)
        self._patch_all([quadrature, heat], "fixed_panel_nodes", nodes)

    def restore(self):
        """Put every original name back, last patch first."""
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)
