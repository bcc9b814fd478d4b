"""Per-GEMM profile hooks for the timing model.

The eval/tune hot path reports into the process-wide active
:class:`GemmProfiler` when one is installed: one ``serial`` record per
GEMM priced through :func:`repro.sim.timing.gemm_time_model` or
:func:`repro.sim.timing.gemm_time_models`, one ``parallel`` record per
:func:`repro.sim.parallel.parallel_gemm_breakdown` or eval threaded
cell, and one ``batch.grid`` record per engine batch
(:meth:`GemmProfiler.record_batch`).  The disabled path costs a single
module-global ``is None`` check, so profiling is free when off (the
no-op default).

Each record captures the problem (m, n, k, threads), the partition the
threaded model chose (label and pc_ways), and the cycle components; the
profiler mirrors every record into its tracer (one complete span per
evaluation, wall-clock duration of the model evaluation itself) and
its metrics registry (evaluation counters plus an evaluation-latency
histogram), when either is attached.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List, Optional

#: the process-wide profiler consulted by the timing model; ``None``
#: means profiling is off and instrumented sites fall through instantly
ACTIVE: Optional["GemmProfiler"] = None


def active() -> Optional["GemmProfiler"]:
    """The installed profiler, or ``None`` when profiling is off."""
    return ACTIVE


def activate(profiler: "GemmProfiler") -> "GemmProfiler":
    """Install ``profiler`` process-wide; returns it for chaining."""
    global ACTIVE
    ACTIVE = profiler
    return profiler


def deactivate() -> None:
    """Uninstall the process-wide profiler."""
    global ACTIVE
    ACTIVE = None


@contextmanager
def using(profiler: "GemmProfiler"):
    """Install a profiler for the duration of a ``with`` block."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = profiler
    try:
        yield profiler
    finally:
        ACTIVE = previous


#: histogram buckets for model-evaluation wall time (microseconds)
EVAL_US_BUCKETS = (
    10.0,
    50.0,
    100.0,
    500.0,
    1000.0,
    5000.0,
    10000.0,
    50000.0,
    100000.0,
    500000.0,
)


class GemmProfiler:
    """Collects one record per modelled GEMM evaluation."""

    def __init__(self, tracer=None, metrics=None):
        self.tracer = tracer
        self.metrics = metrics
        self.records: List[dict] = []

    def start(self) -> float:
        """Wall-clock anchor taken before the evaluation runs."""
        return time.perf_counter()  # det: ok DET101 (wall profiling span)

    def record(
        self,
        kind: str,
        m: int,
        n: int,
        k: int,
        threads: int,
        partition: str,
        pc_ways: int,
        breakdown,
        started: Optional[float] = None,
    ) -> dict:
        """Log one evaluation; ``breakdown`` supplies cycle components."""
        elapsed_us = (
            (time.perf_counter() - started) * 1e6  # det: ok DET101 (wall profiling span)
            if started is not None
            else 0.0
        )
        entry = {
            "kind": kind,
            "m": m,
            "n": n,
            "k": k,
            "threads": threads,
            "partition": partition,
            "pc_ways": pc_ways,
            "compute_cycles": breakdown.compute_cycles,
            "pack_cycles": breakdown.pack_cycles,
            "c_stall_cycles": breakdown.c_stall_cycles,
            "dram_limit_cycles": breakdown.dram_limit_cycles,
            "reduction_cycles": getattr(breakdown, "reduction_cycles", 0.0),
            "total_cycles": breakdown.total_cycles,
            "gflops": breakdown.gflops,
            "eval_us": elapsed_us,
        }
        self.records.append(entry)
        if self.tracer is not None and self.tracer.enabled:
            now = self.tracer.clock.now_us()
            self.tracer.complete(
                f"gemm {m}x{n}x{k}",
                ts_us=max(0.0, now - elapsed_us),
                dur_us=elapsed_us,
                cat="gemm",
                args={
                    key: entry[key]
                    for key in (
                        "kind",
                        "threads",
                        "partition",
                        "pc_ways",
                        "compute_cycles",
                        "pack_cycles",
                        "c_stall_cycles",
                        "dram_limit_cycles",
                        "reduction_cycles",
                        "total_cycles",
                        "gflops",
                    )
                },
            )
        if self.metrics is not None:
            self.metrics.counter(
                f"gemm.evaluations.{kind}",
                help="modelled GEMM evaluations by model kind",
            ).inc()
            self.metrics.histogram(
                "gemm.eval_us",
                buckets=EVAL_US_BUCKETS,
                help="wall microseconds per model evaluation",
            ).observe(elapsed_us)
        return entry

    def record_batch(
        self,
        kind: str,
        candidates: int,
        started: Optional[float] = None,
    ) -> dict:
        """Log one *batched* evaluation as a single event.

        The vectorized engine (:mod:`repro.sim.vectorized`) evaluates
        whole candidate tensors per call; tracing such a sweep must not
        emit one event per candidate, so the whole batch gets one
        record, one complete span carrying a ``candidates`` count, one
        increment of ``gemm.evaluations.batch``, and ``candidates``
        added to the ``model.candidates_evaluated`` counter.
        """
        elapsed_us = (
            (time.perf_counter() - started) * 1e6  # det: ok DET101 (wall profiling span)
            if started is not None
            else 0.0
        )
        entry = {
            "kind": f"batch.{kind}",
            "candidates": candidates,
            "eval_us": elapsed_us,
        }
        self.records.append(entry)
        if self.tracer is not None and self.tracer.enabled:
            now = self.tracer.clock.now_us()
            self.tracer.complete(
                f"model batch [{kind}]",
                ts_us=max(0.0, now - elapsed_us),
                dur_us=elapsed_us,
                cat="gemm",
                args={"kind": entry["kind"], "candidates": candidates},
            )
        if self.metrics is not None:
            self.metrics.counter(
                "gemm.evaluations.batch",
                help="batched model evaluations (one per engine call)",
            ).inc()
            self.metrics.counter(
                "model.candidates_evaluated",
                help="candidates scored by the vectorized engine",
            ).inc(candidates)
            self.metrics.histogram(
                "gemm.eval_us",
                buckets=EVAL_US_BUCKETS,
                help="wall microseconds per model evaluation",
            ).observe(elapsed_us)
        return entry
