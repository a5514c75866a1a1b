"""In-memory span tracer for womlab's layer boundaries.

Wrappers are installed by rebinding the module attributes that callers
look up at call time (``womlab.sweep.run``, ``womlab.generators.generate``
and so on), so the program itself carries no tracing code.  Forked pool
workers inherit the wrappers; the spans of a worker's run travel back to
the parent on the returned record and are detached there before the
records are written.

A span is ``(span_id, parent_id, name, start, end, call, run, value)``:
``call`` numbers the ``womlab.cli.main`` invocation, ``run`` is the
sweep run index (-1 outside a run) and ``value`` is the count the layer
reports at that boundary (connectivity attempts, rounds and the
``hit_max_rounds`` flag, bytes written), or ``None``.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
import time
from collections import defaultdict
from typing import NamedTuple

# Attribute on a returned RunRecord that carries a worker's spans home.
_CARRIER = "_perfbench_spans"

# womlab's modules, named by the first part of every span name.
LAYERS = ("cli", "sweep", "generators", "graph", "model", "reporting")


class Span(NamedTuple):
    span_id: int
    parent_id: int
    name: str
    start: float
    end: float
    call: int
    run: int
    value: object


def _attempts(result):
    return result[2]


def _rounds(result):
    return [result.rounds_to_quiescence, result.hit_max_rounds]


def _same(result):
    return result


# (module, attribute the caller looks up, span name, count taken from the result)
TARGETS = (
    ("womlab.cli", "run_sweep", "sweep.run_sweep", None),
    ("womlab.cli", "write_records_csv", "reporting.write_records_csv", _same),
    ("womlab.cli", "read_records_csv", "reporting.read_records_csv", None),
    ("womlab.cli", "aggregate", "sweep.aggregate", None),
    ("womlab.cli", "render_heatmap", "reporting.render_heatmap", None),
    ("womlab.sweep", "execute_run", "sweep.execute_run", None),
    ("womlab.sweep", "generate_validated", "generators.generate_validated", _attempts),
    ("womlab.sweep", "run", "model.run", _rounds),
    ("womlab.generators", "generate", "generators.generate", None),
    ("womlab.generators", "build_graph", "graph.build_graph", None),
    ("womlab.generators", "is_connected", "graph.is_connected", None),
    ("womlab.generators", "compute_metrics", "graph.compute_metrics", None),
)


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.owner_pid = os.getpid()
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack = [0]
        self._next = 0
        self._call = -1
        self._run = -1
        self._saved: list[tuple[object, str, object]] = []

    def _new_id(self) -> int:
        # Forked workers continue the parent's counter; the pid keeps ids unique.
        self._next += 1
        return (os.getpid() << 32) | self._next

    def _open(self):
        span_id = self._new_id()
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, span_id, parent, name, start, value):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(span_id, parent, name, start, end, self._call, self._run, value))

    def call_main(self, main, argv, call: int):
        """Run ``main(argv)`` as the root span of call number ``call``."""
        self._call = call
        span_id, parent, start = self._open()
        try:
            return main(argv)
        finally:
            self._close(span_id, parent, "cli.main", start, None)

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            span_id, parent, start = tracer._open()
            value = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    value = count(result)
                return result
            finally:
                tracer._close(span_id, parent, name, start, value)

        return traced

    def _wrap_execute_run(self, fn):
        tracer = self

        def traced(grid, spec):
            tracer._run = spec.index
            mark = len(tracer.spans)
            try:
                record = fn(grid, spec)
            finally:
                tracer._run = -1
            if os.getpid() != tracer.owner_pid:
                setattr(record, _CARRIER, tracer.spans[mark:])
                del tracer.spans[mark:]
            return record

        return traced

    def _wrap_run_sweep(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            records = fn(*args, **kwargs)
            for record in records:
                tracer.spans.extend(record.__dict__.pop(_CARRIER, ()))
            return records

        return traced

    def install(self) -> None:
        """Rebind every target attribute to its traced wrapper."""
        self.missing = []
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, name, count)
            if name == "sweep.execute_run":
                wrapped = self._wrap_execute_run(wrapped)
            elif name == "sweep.run_sweep":
                wrapped = self._wrap_run_sweep(wrapped)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# -- analysis ------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent_id].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children[s.span_id], s.start, s.end) for s in spans]


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest of TAIL_PERCENTILES with at least
    ten samples above it (nearest rank), else the maximum as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct * n / 100))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], calls: list[int], jobs: int) -> dict[str, float]:
    """Per-layer metrics over the spans of the traced ``calls``."""
    wanted = set(calls)
    spans = [s for s in spans if s.call in wanted]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    self_by_name = defaultdict(list)
    for s, own in zip(spans, selfs):
        by_name[s.name].append(s)
        self_by_name[s.name].append(own)

    def durations_ms(name):
        return [(s.end - s.start) * 1e3 for s in by_name[name]]

    m: dict[str, float] = {}

    def timing(prefix, values_ms):
        m[f"{prefix}.ms_p50"] = _median(values_ms)
        m[f"{prefix}.tail_pct"], m[f"{prefix}.ms_tail"] = tail(values_ms)
        m[f"{prefix}.n"] = len(values_ms)

    timing("generators.generate", [t * 1e3 for t in self_by_name["generators.generate"]])
    attempts = [s.value for s in by_name["generators.generate_validated"] if s.value is not None]
    m["generators.attempts_mean"] = statistics.fmean(attempts) if attempts else 0.0
    m["generators.connected_share"] = len(attempts) / sum(attempts) if attempts else 0.0
    m["graph.build_graph.ms_p50"] = _median(durations_ms("graph.build_graph"))
    timing("graph.is_connected", durations_ms("graph.is_connected"))
    m["graph.compute_metrics.ms_p50"] = _median(durations_ms("graph.compute_metrics"))

    runs = [s for s in by_name["model.run"] if s.value is not None]
    timing("model.run", durations_ms("model.run"))
    rounds = [s.value[0] for s in runs]
    m["model.rounds_mean"] = statistics.fmean(rounds) if runs else 0.0
    m["model.run.us_per_round"] = (sum(s.end - s.start for s in runs) * 1e6 / sum(rounds)
                                   if sum(rounds) else 0.0)
    m["model.hit_max_rounds_share"] = (sum(1 for s in runs if s.value[1]) / len(runs)
                                       if runs else 0.0)

    timing("sweep.execute_run", durations_ms("sweep.execute_run"))
    walls, overheads, efficiencies = [], [], []
    for sweep in by_name["sweep.run_sweep"]:
        wall = sweep.end - sweep.start
        busy = sum(s.end - s.start for s in by_name["sweep.execute_run"] if s.call == sweep.call)
        walls.append(wall)
        overheads.append(wall - busy / jobs)
        efficiencies.append(busy / (jobs * wall))
    m["sweep.run_sweep.s"] = _median(walls)
    m["sweep.overhead_s"] = _median(overheads)
    m["sweep.parallel_efficiency"] = _median(efficiencies)

    m["reporting.write_records_csv.ms"] = _median(durations_ms("reporting.write_records_csv"))
    written = [s.value for s in by_name["reporting.write_records_csv"] if s.value is not None]
    m["reporting.records_bytes"] = _median(written)
    m["reporting.read_records_csv.ms"] = _median(durations_ms("reporting.read_records_csv"))
    m["sweep.aggregate.ms"] = _median(durations_ms("sweep.aggregate"))
    m["reporting.render_heatmap.ms_p50"] = _median(durations_ms("reporting.render_heatmap"))

    # Self time per layer and womlab.cli.main call, median over the calls.
    per_call = defaultdict(float)
    for s, own in zip(spans, selfs):
        per_call[(s.name.split(".")[0], s.call)] += own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _median([per_call[(layer, c)] for c in calls])
    return m
