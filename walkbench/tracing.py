"""Span tracing of lltwalk's layers from outside the program.

Each public function is wrapped at the name its caller looks up (for
example ``exact_engine.dp_step``, which exact_engine binds at import, or
the route table ``exact_engine._ROUTE_FNS``). A wrapper records a span
(name, start, end, parent) and the layer's counts in memory; ``round_summary``
turns one round's spans into per-layer times, self times and counts. A name
that no longer exists is reported as absent instead of failing the run.
Counting work that costs time is recorded as ``trace.bookkeeping`` spans so
that it is not charged to the layer that called the wrapped function.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MIB = float(1 << 20)
NEEDED_POWER = 1e-18  # a k-term counts as needed while |z|^k >= this
ROUTES = {"dp": "exact_engine.dp", "repr": "exact_engine.repr",
          "fourier": "exact_engine.fourier"}
PEAK_LAYERS = (*ROUTES.values(), "exact_engine.first_return")


def _box_widths(spec, n):
    """Per-axis hull width of p and q, and the route's box width for n steps."""
    steps = []
    for ax in range(spec.nu):
        lo = min(spec.p.box[ax][0], spec.q.box[ax][0])
        hi = max(spec.p.box[ax][1], spec.q.box[ax][1])
        steps.append(hi - lo)
    return steps, [max(n, 1) * s + 1 for s in steps]


def _reach_cells(steps, widths, ks):
    """Cells within reach after k steps, summed over ks, clipped to the box."""
    return sum(math.prod(min(k * s + 1, w) for s, w in zip(steps, widths)) for k in ks)


def _reachable(layer, spec, n, a_nonzero):
    """Cells a reachable-support stepper would visit, computed from n, r and nu."""
    steps, widths = _box_widths(spec, n)
    if layer == "exact_engine.dp":
        return _reach_cells(steps, widths, range(1, n + 1))
    if layer == "exact_engine.repr":
        full = math.prod(widths) if a_nonzero else 0
        return (_reach_cells(steps, widths, range(1, n + 1))
                + _reach_cells(steps, widths, range(1, n)) + full)
    if layer == "exact_engine.first_return":
        return 2 * _reach_cells(steps, widths, range(2, n + 1))
    return 0


def _guard_bytes(layer, spec, n, grid_m):
    """The memory the route's own guard budgets for (exact_engine._guard_cells)."""
    _, widths = _box_widths(spec, n)
    cells = math.prod(widths)
    if layer == "exact_engine.dp":
        return cells * 8
    if layer == "exact_engine.repr":
        return cells * 8 * 4
    if layer == "exact_engine.first_return":
        return cells * 8 * 2
    return (grid_m ** spec.nu) * 16 * 5 if grid_m else 0


class Tracer:
    """Installs and removes the wrappers; keeps one round's spans and counts."""

    def __init__(self):
        from lltwalk import cli, exact_engine, harness, io_text

        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)
        self.peaks: dict = {}
        self.absent: list[str] = []
        self._patches = []
        self._grid_m = 0
        self.memory = False

        def add(owner, attr, layer, count=None, span=True):
            getter = owner.get if isinstance(owner, dict) else functools.partial(getattr, owner)
            fn = getter(attr, None)
            if fn is None:
                self.absent.append(f"{layer} ({attr})")
                return
            self._patches.append((owner, attr, fn, self._wrap(fn, layer if span else None, count)))

        ee = exact_engine
        add(ee, "dp_step", "kernels.dp_step", self._count_dp_step)
        add(ee, "origin_returns", "kernels.origin_returns", self._count_origin_returns)
        add(ee, "weighted_power_sum", "kernels.weighted_power_sum", self._count_wps)
        add(ee, "pow_binary", "kernels.pow_binary")
        add(ee, "charfn_grid", "spectral.charfn_grid", self._count_grid)
        add(ee, "invert_charfn", "spectral.invert_charfn")
        route_table = getattr(ee, "_ROUTE_FNS", {})
        for route, layer in ROUTES.items():
            add(route_table, route, layer, self._count_route)
        add(ee, "first_return_probs", "exact_engine.first_return", self._count_route)
        add(ee, "convolve_power", "exact_engine.convolve_power")
        add(harness, "compare", "harness.compare")
        add(harness, "_window_points", "harness.window_points", self._count_window, span=False)
        for name in ("gaussian_leading_many", "perturbation_correction_many",
                     "edgeworth_factor_many"):
            add(harness, name, "asymptotics", self._count_asymptotics)
        add(harness, "simulate", "harness.simulate", self._count_simulate)
        add(harness, "chi_squared_check", "harness.chi_squared_check")
        for name in ("distribution_text", "empirical_text", "returns_text"):
            add(io_text, name, "io_text")
        report = getattr(harness, "ConvergenceReport", None)
        if report is not None:
            add(report, "to_json", "io_text")
            add(report, "to_csv", "io_text")
        add(cli, "_emit", "io_text", self._count_emit)
        add(cli, "load_walk_spec", "specfile.load_walk_spec")

    # -- installation -------------------------------------------------------

    def enable(self, memory: bool):
        """Start a traced round; with ``memory`` the routes also run under tracemalloc."""
        self.spans, self.stack, self.peaks = [], [], {}
        self.counts = defaultdict(float)
        self.memory = memory
        for owner, attr, _, wrapper in self._patches:
            self._set(owner, attr, wrapper)

    def disable(self):
        for owner, attr, fn, _ in self._patches:
            self._set(owner, attr, fn)

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, layer, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            measure = tracer.memory and layer in PEAK_LAYERS
            if measure:  # tracemalloc only around the routes: it slows every allocation
                tracer._grid_m = 0
                tracemalloc.start()
            idx = tracer.open(layer) if layer else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.close(idx)
                peak = tracemalloc.get_traced_memory()[1] if measure else None
                if measure:
                    tracemalloc.stop()
            if count is not None:
                bk = tracer.open("trace.bookkeeping")
                try:
                    count(layer, args, kwargs, result, peak)
                finally:
                    tracer.close(bk)
            return result

        return wrapper

    # -- counts -----------------------------------------------------------------

    def _count_dp_step(self, layer, args, kwargs, out, peak):
        self.counts["kernels.dp_step.calls"] += 1
        self.counts["kernels.dp_step.cells"] += args[0].size
        if not any(self.spans[i][0] in PEAK_LAYERS for i in self.stack):
            self.counts["kernels.dp_step.reachable_cells"] += args[0].size

    def _count_origin_returns(self, layer, args, kwargs, out, peak):
        self.counts["kernels.origin_returns.terms"] += args[0].size * args[1]

    def _count_wps(self, layer, args, kwargs, out, peak):
        z, r = args[0], args[1]
        n = len(r)
        mod = np.abs(z).ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            kmax = np.floor(math.log(NEEDED_POWER) / np.log(mod))
        needed = np.where(mod >= 1.0, n, np.clip(np.nan_to_num(kmax, nan=0.0) + 1, 1, n))
        self.counts["kernels.weighted_power_sum.terms"] += mod.size * n
        self.counts["kernels.weighted_power_sum.needed"] += float(needed.sum())

    def _count_grid(self, layer, args, kwargs, grid, peak):
        self.counts["spectral.grid_cells"] += grid.values.size
        self._grid_m = self._grid_m or grid.m

    def _count_route(self, layer, args, kwargs, out, peak):
        spec, n = args[0], int(args[1])
        if peak is not None and peak > self.peaks.get(layer, (0, 0))[0]:
            self.peaks[layer] = (peak, _guard_bytes(layer, spec, n, self._grid_m))
        self.counts["kernels.dp_step.reachable_cells"] += _reachable(
            layer, spec, n, bool(spec.a.as_dict()))

    def _count_window(self, layer, args, kwargs, pts, peak):
        self.counts["harness.window_points"] += len(pts)

    def _count_asymptotics(self, layer, args, kwargs, out, peak):
        self.counts["asymptotics.points"] += len(out)

    def _count_simulate(self, layer, args, kwargs, emp, peak):
        spec, n, trials = args[0], int(args[1]), int(args[2])
        self.counts["harness.simulate.steps"] += trials * n
        side = 2 * max(n, 1) * spec.radius + 1
        self.counts["harness.simulate.count_mib"] += side ** spec.nu * 8 / MIB

    def _count_emit(self, layer, args, kwargs, out, peak):
        self.counts["io_text.bytes"] += len(args[0].encode())

    # -- summary ------------------------------------------------------------------

    def round_summary(self) -> dict:
        """Per-layer totals and self times of the spans recorded this round.

        Spans named ``op`` are the CLI calls. Time inside an op but in no
        layer span is the op's own self time, reported as unattributed.
        """
        child = defaultdict(float)
        in_op = []
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            in_op.append(name == "op" or (parent >= 0 and in_op[parent]))
        total, self_s, op_self = defaultdict(float), defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            total[name] += t1 - t0
            self_s[name] += own
            if in_op[i]:
                op_self[name] += own
        return {"total": dict(total), "self": dict(self_s), "op_self": dict(op_self),
                "solve_s": total.get("op", 0.0), "counts": dict(self.counts),
                "peaks": {k: list(v) for k, v in self.peaks.items()}}
