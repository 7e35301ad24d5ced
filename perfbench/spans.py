"""Span tracing for the benchmark's traced run, kept outside the package.

`installed(tracer)` rebinds selected singlet_lhv functions, in every package
module that holds them, to wrappers that record one Span per call, and puts
the originals back on exit.  Nothing in the package changes while no tracer
is installed, so untraced runs time the program exactly as users call it.

`layer_metrics` turns a list of spans into the per-layer numbers listed in
LAYER_METRICS.  A span's self time is its duration minus the part of its
interval that its child spans cover; children that overlap, such as chunks
on two worker threads, count once.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

#: measure_many calls at or above this many elements count as "bulk" calls
#: of the quadrature oracle (its dense grid); smaller ones are bisection steps.
BULK_ELEMS = 1 << 16

KINDS = ("sin", "line", "unsym")
SIDES = {1: "one", 2: "two"}

#: Every per-layer metric the traced run reports: (name, unit, better).
LAYER_METRICS = (
    *(
        (f"model.measure_many.ns_per_pair.{kind}.{side}", "ns", "lower")
        for kind in KINDS for side in SIDES.values()
    ),
    ("montecarlo.draw_ns_per_pair", "ns", "lower"),
    ("montecarlo.tally_ns_per_pair", "ns", "lower"),
    ("montecarlo.run.self_ms_per_call", "ms", "lower"),
    ("montecarlo.run.worker_busy_frac", "ratio", "higher"),
    ("montecarlo.run.ms_per_call", "ms", "lower"),
    ("experiments.theta_sweep.self_ms_per_row", "ms", "lower"),
    ("analytic.nonideal_probs.us_per_call", "us", "lower"),
    ("montecarlo.estimate.us_per_call", "us", "lower"),
    ("quadrature.outcome_probabilities.self_ms", "ms", "lower"),
    ("model.measure_many.bulk_ns_per_elem", "ns", "lower"),
    ("model.measure_many.small_us_per_call", "us", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("experiments.verify_suite.self_ms", "ms", "lower"),
    ("analytic.classify_region.us_per_call", "us", "lower"),
    ("model.solve_params.us_per_call", "us", "lower"),
    ("montecarlo.chunks_per_run", "count", "lower"),
    ("montecarlo.pairs_per_chunk", "count", "higher"),
    ("model.measure_many.calls_per_op", "count", "lower"),
    ("model.measure_many.elems_per_op", "count", "lower"),
    ("quadrature.gap_elems_per_op", "count", "lower"),
    ("experiments.verify_suite.checks", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Metrics that are exact counts: identical on every traced run of one seed.
COUNT_METRICS = (
    "montecarlo.chunks_per_run",
    "montecarlo.pairs_per_chunk",
    "model.measure_many.calls_per_op",
    "model.measure_many.elems_per_op",
    "quadrature.gap_elems_per_op",
    "experiments.verify_suite.checks",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of `span` minus the union of its children's intervals."""
    covered = 0.0
    reach = span.start
    for lo, hi in sorted((c.start, c.end) for c in children):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def _measure_many_attrs(args, kwargs, result):
    phi, _r, _angle, side, params = args
    return {"kind": params.kind.value, "side": side.value, "n": int(phi.size)}


def _chunk_attrs(args, kwargs, result):
    config, k = args
    return {"n": min(config.chunk_size, config.n_pairs - k * config.chunk_size)}


def _run_attrs(args, kwargs, result):
    workers = kwargs.get("workers", args[1] if len(args) > 1 else None)
    return {"n": args[0].n_pairs, "workers": max(1, workers or 1)}


#: (module, attribute, span name, attrs(args, kwargs, result) or None).
TARGETS = (
    ("singlet_lhv.model", "measure_many", "model.measure_many", _measure_many_attrs),
    ("singlet_lhv.model", "solve_params", "model.solve_params", None),
    ("singlet_lhv.montecarlo", "run", "montecarlo.run", _run_attrs),
    ("singlet_lhv.montecarlo", "_chunk_tally", "montecarlo.chunk", _chunk_attrs),
    ("singlet_lhv.montecarlo", "tally_outcomes", "montecarlo.tally_outcomes",
     lambda args, kwargs, result: {"n": int(args[0].size)}),
    ("singlet_lhv.montecarlo", "estimate", "montecarlo.estimate", None),
    ("singlet_lhv.analytic", "nonideal_probs", "analytic.nonideal_probs", None),
    ("singlet_lhv.analytic", "classify_region", "analytic.classify_region", None),
    ("singlet_lhv.quadrature", "outcome_probabilities",
     "quadrature.outcome_probabilities", None),
    ("singlet_lhv.experiments", "theta_sweep", "experiments.theta_sweep",
     lambda args, kwargs, result: {"rows": len(result)}),
    ("singlet_lhv.experiments", "sweep_gate", "experiments.sweep_gate", None),
    ("singlet_lhv.experiments", "verify_suite", "experiments.verify_suite",
     lambda args, kwargs, result: {"checks": len(result.checks)}),
    ("singlet_lhv.cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans in memory.  `op` tags every span with the current op.

    Parents come from a per-thread stack.  A span opened on a thread with an
    empty stack (a pool worker running a chunk) takes the innermost open
    `montecarlo.run` span as parent; the benchmark has one caller thread, so
    at most one run is open at a time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._active_run: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        is_run = name == "montecarlo.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._active_run
            sid = next(self._ids)
            stack.append(sid)
            if is_run:
                outer_run, self._active_run = self._active_run, sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_run:
                    self._active_run = outer_run
            # Only calls that return leave a span; a raising op is counted
            # as failed by the benchmark loop instead.
            info = attrs(args, kwargs, result) if attrs else None
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), self.op, info)
            )
            return result

        return traced

    def wrap_substream(self, fn):
        """substream returns a generator whose `.random` call is the draw."""
        draw = self.wrap(
            "montecarlo.draw",
            lambda gen, size: gen.random(size),
            lambda args, kwargs, result: {"n": int(result.shape[0])},
        )

        class TimedStream:
            def __init__(self, gen):
                self._gen = gen

            def random(self, size=None):
                return draw(self._gen, size)

            def __getattr__(self, attr):
                return getattr(self._gen, attr)

        @functools.wraps(fn)
        def substream(seed, index):
            return TimedStream(fn(seed, index))

        return substream


def _package_modules():
    return [
        m for name, m in sys.modules.items()
        if name == "singlet_lhv" or name.startswith("singlet_lhv.")
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind the TARGETS (and substream) to tracing wrappers, then restore."""
    modules = _package_modules()
    swaps = []

    def rebind(original, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    swaps.append((module, key, original))

    try:
        for modname, attr, span_name, attrs in TARGETS:
            original = getattr(sys.modules[modname], attr)
            rebind(original, tracer.wrap(span_name, original, attrs))
        substream = sys.modules["singlet_lhv.montecarlo"].substream
        rebind(substream, tracer.wrap_substream(substream))
        yield tracer
    finally:
        for module, key, original in reversed(swaps):
            setattr(module, key, original)


def _mean(values):
    return statistics.fmean(values)


def layer_metrics(spans: list[Span], counted_ops: set[int]) -> dict[str, float]:
    """Per-layer metrics computable from `spans`; absent layers are omitted.

    Timings use every span.  Exact counts use only spans of `counted_ops`,
    a fixed set of ops, so they do not depend on how many ops a run fitted.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p else None

    def self_s(s):
        return self_time(s, children[s.id])

    out = {}
    mm = named["model.measure_many"]
    mm_chunk = [s for s in mm if parent_name(s) == "montecarlo.chunk"]
    for kind in KINDS:
        for side, side_name in SIDES.items():
            sel = [s for s in mm_chunk if s.attrs["kind"] == kind and s.attrs["side"] == side]
            if sel:
                out[f"model.measure_many.ns_per_pair.{kind}.{side_name}"] = (
                    1e9 * sum(s.duration for s in sel) / sum(s.attrs["n"] for s in sel)
                )
    for span_name, metric in (
        ("montecarlo.draw", "montecarlo.draw_ns_per_pair"),
        ("montecarlo.tally_outcomes", "montecarlo.tally_ns_per_pair"),
    ):
        sel = named[span_name]
        if sel:
            out[metric] = 1e9 * sum(s.duration for s in sel) / sum(s.attrs["n"] for s in sel)

    runs = named["montecarlo.run"]
    if runs:
        out["montecarlo.run.self_ms_per_call"] = 1e3 * _mean(self_s(r) for r in runs)
        out["montecarlo.run.ms_per_call"] = 1e3 * _mean(r.duration for r in runs)
    # Pool utilisation: only runs given more than one worker use a pool.
    pooled = [r for r in runs if r.attrs["workers"] > 1]
    if pooled:
        busy = sum(
            c.duration for r in pooled for c in children[r.id] if c.name == "montecarlo.chunk"
        )
        out["montecarlo.run.worker_busy_frac"] = busy / sum(
            r.duration * r.attrs["workers"] for r in pooled
        )
    sweeps = named["experiments.theta_sweep"]
    if sweeps:
        out["experiments.theta_sweep.self_ms_per_row"] = (
            1e3 * sum(self_s(s) for s in sweeps) / sum(s.attrs["rows"] for s in sweeps)
        )
    for span_name, metric in (
        ("analytic.nonideal_probs", "analytic.nonideal_probs.us_per_call"),
        ("montecarlo.estimate", "montecarlo.estimate.us_per_call"),
        ("analytic.classify_region", "analytic.classify_region.us_per_call"),
        ("model.solve_params", "model.solve_params.us_per_call"),
    ):
        if named[span_name]:
            out[metric] = 1e6 * _mean(s.duration for s in named[span_name])
    for span_name, metric in (
        ("quadrature.outcome_probabilities", "quadrature.outcome_probabilities.self_ms"),
        ("cli.main", "cli.main.self_ms"),
        ("experiments.verify_suite", "experiments.verify_suite.self_ms"),
    ):
        if named[span_name]:
            out[metric] = 1e3 * _mean(self_s(s) for s in named[span_name])
    mm_quad = [s for s in mm if parent_name(s) == "quadrature.outcome_probabilities"]
    bulk = [s for s in mm_quad if s.attrs["n"] >= BULK_ELEMS]
    small = [s for s in mm_quad if s.attrs["n"] < BULK_ELEMS]
    if bulk:
        out["model.measure_many.bulk_ns_per_elem"] = (
            1e9 * sum(s.duration for s in bulk) / sum(s.attrs["n"] for s in bulk)
        )
    if small:
        out["model.measure_many.small_us_per_call"] = 1e6 * _mean(s.duration for s in small)

    n_ops = len(counted_ops)
    if not n_ops:
        return out
    runs_c = [r for r in runs if r.op in counted_ops]
    chunks_c = [c for r in runs_c for c in children[r.id] if c.name == "montecarlo.chunk"]
    if runs_c:
        out["montecarlo.chunks_per_run"] = len(chunks_c) / len(runs_c)
        out["montecarlo.pairs_per_chunk"] = sum(c.attrs["n"] for c in chunks_c) / len(chunks_c)
    mm_c = [s for s in mm if s.op in counted_ops]
    if mm_c:
        out["model.measure_many.calls_per_op"] = len(mm_c) / n_ops
        out["model.measure_many.elems_per_op"] = sum(s.attrs["n"] for s in mm_c) / n_ops
    if any(s.op in counted_ops for s in named["quadrature.outcome_probabilities"]):
        out["quadrature.gap_elems_per_op"] = sum(
            s.attrs["n"] for s in small if s.op in counted_ops
        ) / n_ops
    verifies = [s for s in named["experiments.verify_suite"] if s.op in counted_ops]
    if verifies:
        out["experiments.verify_suite.checks"] = _mean(s.attrs["checks"] for s in verifies)
    return out
