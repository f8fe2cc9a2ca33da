"""Outside-in tracer for itsbeam: wraps the functions each caller looks up at call time.

Every module of the package calls its collaborators through its own globals
(``itsbeam.harness`` calls ``bcd_solve``, ``itsbeam.wmmse`` calls ``_pga``,
``dual_search`` and so on), so replacing those module attributes intercepts
each call without touching the package source.  A span layer records one span
per call; a count layer only counts calls, because it runs hundreds of
thousands of times per sweep and a span each would dominate memory.

A name in the plan that the package no longer has is skipped and reported as
absent; its time then stays in the self time of the span that called it.
Wrappers are installed on ``__enter__`` and the original attributes restored on
``__exit__``, so code run outside the ``with`` block is the unmodified package.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module, attribute, layer, kind)
PLAN = (
    ("itsbeam.harness", "build_layout", "geometry", "span"),
    ("itsbeam.harness", "build_transfer_matrix", "geometry", "span"),
    ("itsbeam.harness", "sample_user_drop", "channel", "span"),
    ("itsbeam.harness", "sample_channel", "channel", "span"),
    ("itsbeam.harness", "sample_direct_channel", "channel", "span"),
    ("itsbeam.harness", "zfwf_solve", "zfwf", "span"),
    ("itsbeam.harness", "_bcd_init", "harness.bcd_init", "span"),
    ("itsbeam.harness", "bcd_solve", "wmmse", "span"),
    ("itsbeam.wmmse", "update_gamma", "wmmse.aux", "span"),
    ("itsbeam.wmmse", "update_y", "wmmse.aux", "span"),
    ("itsbeam.wmmse", "build_analog_subproblem", "wmmse.subproblem", "span"),
    ("itsbeam.wmmse", "_pga", "wmmse.phase", "span"),
    ("itsbeam.wmmse", "dual_search", "wmmse.dual", "span"),
    ("itsbeam.wmmse", "surrogate_objective", "wmmse.bookkeeping", "span"),
    ("itsbeam.wmmse", "wsr", "wmmse.bookkeeping", "span"),
    ("itsbeam.wmmse", "analog_objective", "objective", "count"),
    ("itsbeam.wmmse", "analog_objective_and_gradient", "objective", "count"),
) + tuple(
    (module, name, name, "count")
    for module in ("itsbeam.harness", "itsbeam.wmmse", "itsbeam.zfwf", "itsbeam.model")
    for name in ("effective_channel", "sinr", "constraint_value")
)

CELL = "harness.cell"
_MISSING = object()


class Tracer:
    """Collects spans ``[layer, start, end, parent, cell]`` and call counts in memory."""

    def __init__(self, plan=PLAN):
        self.plan = plan
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self.cell = None
        self.solves = []  # (outer iterations, hit the iteration cap)
        self.phase_steps = 0
        self.mu_values = []
        self._stack = []
        self._open = Counter()
        self._patches = []

    def __enter__(self):
        for module_name, attr, layer, kind in self.plan:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, _MISSING)
            if original is _MISSING:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrap = self._span if kind == "span" else self._count
            setattr(module, attr, wrap(layer, original))
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    def call(self, layer, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``; the benchmark's own boundary spans."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, time.perf_counter(), None, parent, self.cell])
        self._stack.append(index)
        self._open[layer] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._open[layer] -= 1
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _span(self, layer, fn):
        def wrapper(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if layer == "wmmse":
                settings = kwargs.get("settings", args[1] if len(args) > 1 else None)
                self._record_solve(result, getattr(settings, "bcd_max_iters", None))
            return result

        return wrapper

    def _count(self, layer, fn):
        def wrapper(*args, **kwargs):
            self.counts[layer] += 1
            if layer == "constraint_value" and self._open["wmmse.dual"]:
                self.counts["dual_evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_solve(self, solution, cap):
        trace = getattr(solution, "trace", ()) or ()
        iterations = int(trace[-1][0]) if trace else 0
        self.solves.append((iterations, cap is not None and iterations >= cap))
        detail = getattr(solution, "detail", None)
        for row in detail if isinstance(detail, list) else ():
            if isinstance(row, dict):
                self.phase_steps += int(row.get("pga_steps", 0))
                if "mu" in row:
                    self.mu_values.append(float(row["mu"]))

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, cell."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cell in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "cell": cell}
                fh.write(json.dumps(record) + "\n")


def layer_times(spans):
    """Return ({layer: total seconds}, {layer: self seconds}, {layer: span count}).

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    total, self_time, calls = Counter(), Counter(), Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[index]
        calls[name] += 1
    return total, self_time, calls


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass: {name: (value, unit)}; times are pass totals."""
    total, self_time, calls = layer_times(tracer.spans)
    ms = lambda seconds: 1000.0 * seconds  # noqa: E731
    solves = len(tracer.solves)
    evals = tracer.counts["objective"]
    searches = calls["wmmse.dual"]
    return {
        "wmmse.phase_ms": (ms(total["wmmse.phase"]), "ms"),
        "wmmse.phase_steps": (tracer.phase_steps, "count"),
        "wmmse.objective_evals": (evals, "count"),
        "wmmse.evals_per_phase_step": (_ratio(evals, tracer.phase_steps), "evals/step"),
        "wmmse.subproblem_ms": (ms(total["wmmse.subproblem"]), "ms"),
        "wmmse.dual_ms": (ms(total["wmmse.dual"]), "ms"),
        "wmmse.dual_searches": (searches, "count"),
        "wmmse.dual_evals_per_search": (_ratio(tracer.counts["dual_evals"], searches), "evals/search"),
        "wmmse.dual_zero_mu_frac": (
            _ratio(sum(mu == 0.0 for mu in tracer.mu_values), len(tracer.mu_values)),
            "frac",
        ),
        "wmmse.solves": (solves, "count"),
        "wmmse.ms": (ms(total["wmmse"]), "ms"),
        "wmmse.self_ms": (ms(self_time["wmmse"]), "ms"),
        "wmmse.outer_iters_per_solve": (_ratio(sum(i for i, _ in tracer.solves), solves), "iters"),
        "wmmse.cap_hit_frac": (_ratio(sum(hit for _, hit in tracer.solves), solves), "frac"),
        "wmmse.aux_ms": (ms(total["wmmse.aux"]), "ms"),
        "wmmse.bookkeeping_ms": (ms(total["wmmse.bookkeeping"]), "ms"),
        "model.effective_channel_calls": (tracer.counts["effective_channel"], "count"),
        "model.sinr_calls": (tracer.counts["sinr"], "count"),
        "geometry.calls": (calls["geometry"], "count"),
        "geometry.ms": (ms(total["geometry"]), "ms"),
        "channel.calls": (calls["channel"], "count"),
        "channel.ms": (ms(total["channel"]), "ms"),
        "zfwf.calls": (calls["zfwf"], "count"),
        "zfwf.ms": (ms(total["zfwf"]), "ms"),
        "harness.bcd_init_ms": (ms(total["harness.bcd_init"]), "ms"),
        "harness.self_ms": (ms(self_time[CELL]), "ms"),
    }
