"""Span recorder for the traced run, and the patches that feed it.

:class:`Recorder` keeps every span as ``(name, start, end, parent)`` in
memory and writes them once, at the end, as a Chrome trace.
:func:`install` wraps each layer's public functions where they are
called: modules import their collaborators by name, so the binding to
replace is the caller's (``repro.serve.placement.simulate_serving``,
not ``repro.serve.batcher.simulate_serving``).

Every ``*_s`` layer metric is *self time*: the span's duration minus
the part its child spans cover, so the layer times add up instead of
counting nested work twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.values = {}
        self._stack = []

    def wrap(self, fn, name, after=None):
        """``fn`` timed as span ``name`` (``None``: not timed).

        ``after(recorder, result, args, kwargs)`` updates the counters.
        """
        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(self, result, args, kwargs)
                return result

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def inside(self, name):
        """Whether a span called ``name`` is open."""
        return any(self.spans[i][0] == name for i in self._stack)

    def self_times(self):
        """Span name -> summed self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def names_between(self, start, end):
        """Span names that began inside ``[start, end]``."""
        return Counter(s[0] for s in self.spans if start <= s[1] <= end)

    def write_chrome(self, path, origin):
        """Write the spans as Chrome trace events (µs since ``origin``)."""
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": self.spans[parent][0]}
                if parent >= 0 else {},
            }
            for name, start, end, parent in self.spans
        ]
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)


def _counter(name, measure=lambda result, args, kwargs: 1):
    def after(rec, result, args, kwargs):
        rec.counts[name] += measure(result, args, kwargs)

    return after


def _priced(rec, result, args, kwargs):
    rec.counts["sim.batches"] += 1
    rec.counts["sim.batch_rows"] += len(args[0].m)


def _rejected(rec, result, args, kwargs):
    rec.counts["analysis.tiles"] += 1
    rec.counts["analysis.rejected"] += 0 if result.ok else 1


def _cache_get(rec, result, args, kwargs):
    rec.counts["tune.cache_gets"] += 1
    rec.counts["tune.jobs_cached"] += result is not None


def _simulated(rec, result, args, kwargs):
    trace = args[0] if args else kwargs["trace"]
    rec.counts["serve.batcher.requests"] += len(trace)
    rec.counts["serve.batcher.batches"] += len(result.batches)


def _replayed(rec, result, args, kwargs):
    from repro.serve.report import percentile

    waits = [s.dispatch_ms - s.arrival_ms for s in result.served]
    rec.counts["serve.plane.shed"] += len(result.shed)
    rec.counts["serve.plane.served"] += len(result.served)
    if waits:
        rec.values["serve.plane.queue_wait_ms_p50"] = percentile(waits, 50)
        rec.values["serve.plane.queue_wait_ms_p99"] = percentile(waits, 99)


def _breakdown(rec, result, args, kwargs):
    if rec.inside("eval.figure"):
        rec.counts["eval.breakdowns"] += 1


#: (module, attribute, span name or None to count only, counting hook);
#: an attribute ``Class.method`` patches the method on the class
PATCHES = (
    ("repro.ukernel.registry", "generate_microkernel", "ukernel.generate",
     _counter("ukernel.kernels")),
    ("repro.ukernel.generator", "generate_microkernel", "ukernel.generate",
     _counter("ukernel.kernels")),
    ("repro.ukernel.generator", "generate_vla_microkernel",
     "ukernel.generate", None),
    ("repro.analysis", "verify_tile", "analysis.verify", _rejected),
    ("repro.sim.vectorized", "batch_gemm_cycles", "sim.price", _priced),
    ("repro.eval.harness", "parallel_gemm_breakdown", "sim.partition",
     _counter("sim.partition_calls")),
    ("repro.eval.harness", "gemm_time_model", "sim.serial_model",
     _counter("sim.serial_model_calls")),
    ("repro.tune", "sweep", "tune.sweep", None),
    ("repro.tune", "run_jobs", "tune.sweep",
     _counter("tune.jobs", lambda r, a, k: len(a[0]))),
    ("repro.tune.executor", "evaluate_candidates", "tune.evaluate", None),
    ("repro.tune.cache", "TuneCache.get", "tune.cache_get", _cache_get),
    ("repro.tune.cache", "TuneCache.put", "tune.cache_put",
     _counter("tune.cache_puts")),
    ("repro.eval.harness", "exo_gemm_breakdown", None, _breakdown),
    ("repro.eval.harness", "exo_parallel_breakdown", None, _breakdown),
    ("repro.eval.harness", "baseline_gemm_breakdown", None, _breakdown),
    *(
        ("repro.eval.__main__", fig, "eval.figure",
         _counter("eval.figures"))
        for fig in (
            "fig13_solo_data", "fig14_square_data",
            "fig15_resnet_layer_data", "fig16_resnet_time_data",
            "fig17_vgg_layer_data", "fig18_vgg_time_data",
            "solo_sweep_data", "thread_scaling_data",
            "threaded_instance_time_data", "portability_solo_data",
        )
    ),
    ("repro.eval.__main__", "main", "eval.cli", None),
    ("repro.serve.traffic", "synthetic_trace", "serve.traffic.gen",
     _counter("serve.traffic.requests", lambda r, a, k: len(r))),
    ("repro.serve.traffic", "mmpp_trace", "serve.traffic.gen",
     _counter("serve.traffic.requests", lambda r, a, k: len(r))),
    ("repro.serve.placement", "prewarm_executors",
     "serve.executor.prewarm", None),
    ("repro.serve.plane", "prewarm_executors", "serve.executor.prewarm",
     None),
    ("repro.serve.executor", "ModelExecutor.batch_time_ms", None,
     _counter("serve.executor.batch_time_calls")),
    ("repro.serve.placement", "simulate_serving", "serve.batcher.simulate",
     _simulated),
    ("repro.serve.placement", "search_configurations",
     "serve.placement.evaluate", None),
    ("repro.serve.placement", "evaluate_configuration",
     "serve.placement.evaluate", _counter("serve.placement.configs")),
    ("repro.serve.plane", "run_trace", "serve.plane.loop", _replayed),
    ("repro.serve.plane", "ServePlane.submit", "serve.plane.submit",
     _counter("serve.plane.submits")),
)


def _count_async(rec, fn, name):
    """Count calls of a coroutine function without timing it.

    Its wall span would include the time other tasks ran while it was
    suspended, so only the call count is meaningful.
    """

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return await fn(*args, **kwargs)

    return wrapper


def install(rec):
    """Patch every layer binding to report to ``rec``; returns an undo."""
    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for module_name, attr, span, after in PATCHES:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        patch(owner, attr, rec.wrap(getattr(owner, attr), span, after))
    controllers = importlib.import_module("repro.serve.controllers")
    patch(
        controllers.Controller,
        "execute",
        _count_async(
            rec, controllers.Controller.execute, "serve.plane.batches"
        ),
    )

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


#: per-layer metric -> (unit, better); the order of the report
LAYER_METRICS = {
    "ukernel.kernels": ("count", "lower"),
    "ukernel.generate_s": ("s", "lower"),
    "analysis.tiles": ("count", "lower"),
    "analysis.verify_s": ("s", "lower"),
    "analysis.rejected": ("count", "lower"),
    "sim.batches": ("count", "lower"),
    "sim.batch_rows": ("count", "lower"),
    "sim.rows_per_batch": ("count", "higher"),
    "sim.price_s": ("s", "lower"),
    "sim.partition_calls": ("count", "lower"),
    "sim.partition_s": ("s", "lower"),
    "sim.serial_model_calls": ("count", "lower"),
    "sim.serial_model_s": ("s", "lower"),
    "tune.jobs": ("count", "lower"),
    "tune.jobs_cached": ("count", "higher"),
    "tune.cache_hit_ratio": ("ratio", "higher"),
    "tune.cache_puts": ("count", "lower"),
    "tune.cache_put_s": ("s", "lower"),
    "tune.cache_get_s": ("s", "lower"),
    "tune.evaluate_s": ("s", "lower"),
    "tune.sweep_s": ("s", "lower"),
    "eval.figures": ("count", "lower"),
    "eval.figure_s": ("s", "lower"),
    "eval.breakdowns": ("count", "lower"),
    "serve.traffic.requests": ("count", "higher"),
    "serve.traffic.gen_s": ("s", "lower"),
    "serve.executor.prewarm_s": ("s", "lower"),
    "serve.executor.batch_time_calls": ("count", "lower"),
    "serve.batcher.simulate_s": ("s", "lower"),
    "serve.batcher.requests": ("count", "higher"),
    "serve.batcher.batches": ("count", "lower"),
    "serve.placement.configs": ("count", "lower"),
    "serve.placement.evaluate_s": ("s", "lower"),
    "serve.plane.submits": ("count", "higher"),
    "serve.plane.submit_s": ("s", "lower"),
    "serve.plane.loop_s": ("s", "lower"),
    "serve.plane.batches": ("count", "lower"),
    "serve.plane.mean_batch": ("count", "higher"),
    "serve.plane.queue_wait_ms_p50": ("ms", "lower"),
    "serve.plane.queue_wait_ms_p99": ("ms", "lower"),
    "serve.plane.shed": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.bypass_calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: ``*_s`` metric -> the span names whose self time it sums
SELF_TIME = {
    "ukernel.generate_s": ("ukernel.generate",),
    "analysis.verify_s": ("analysis.verify",),
    "sim.price_s": ("sim.price",),
    "sim.partition_s": ("sim.partition",),
    "sim.serial_model_s": ("sim.serial_model",),
    "tune.cache_put_s": ("tune.cache_put",),
    "tune.cache_get_s": ("tune.cache_get",),
    "tune.evaluate_s": ("tune.evaluate",),
    "tune.sweep_s": ("tune.sweep",),
    "eval.figure_s": ("eval.figure", "eval.cli"),
    "serve.traffic.gen_s": ("serve.traffic.gen",),
    "serve.executor.prewarm_s": ("serve.executor.prewarm",),
    "serve.batcher.simulate_s": ("serve.batcher.simulate",),
    "serve.placement.evaluate_s": ("serve.placement.evaluate",),
    "serve.plane.submit_s": ("serve.plane.submit",),
    "serve.plane.loop_s": ("serve.plane.loop",),
}

#: workload -> span-name prefixes its timed section must never enter
BYPASS = {
    "serve-live": ("ukernel.", "analysis.", "tune.cache_", "serve.batcher."),
    "serve-plan": ("serve.plane.",),
}


def layer_metrics(rec, workload, window):
    """Every per-layer metric of one traced process.

    Values cover the whole process — set-up and timed section — so a
    layer that works during plane construction explains ``setup_s``.
    ``trace.bypass_calls`` counts only spans that began inside the
    timed ``window`` and belong to a layer the workload bypasses.
    """
    selfs = rec.self_times()
    out = {name: float(rec.counts.get(name, 0)) for name in LAYER_METRICS}
    for metric, spans in SELF_TIME.items():
        out[metric] = sum(selfs.get(span, 0.0) for span in spans)
    out["sim.rows_per_batch"] = (
        out["sim.batch_rows"] / out["sim.batches"] if out["sim.batches"]
        else 0.0
    )
    gets = rec.counts.get("tune.cache_gets", 0)
    out["tune.cache_hit_ratio"] = (
        out["tune.jobs_cached"] / gets if gets else 0.0
    )
    served = rec.counts.get("serve.plane.served", 0)
    out["serve.plane.mean_batch"] = (
        served / out["serve.plane.batches"] if out["serve.plane.batches"]
        else 0.0
    )
    out.update(rec.values)
    out["trace.spans"] = float(len(rec.spans))
    timed = rec.names_between(*window)
    out["trace.bypass_calls"] = float(sum(
        n for name, n in timed.items()
        if name.startswith(BYPASS.get(workload, ()))
    ))
    return out
