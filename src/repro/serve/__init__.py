"""Inference serving on the threaded GEMM model: ``python -m repro.serve``.

The request-level layer above the per-layer sweeps: a seeded arrival
trace (:mod:`repro.serve.traffic`) flows through a dynamic
max-batch/max-wait batcher (:mod:`repro.serve.batcher`); every batched
im2row GEMM is priced by the exact threaded time model with tuned
per-layer kernel dispatch (:mod:`repro.serve.executor`); and the
placement planner (:mod:`repro.serve.placement`) splits the socket into
replica x thread configurations, searching for the best throughput
under a p99-latency SLO.  :mod:`repro.serve.report` holds the
percentile math and the JSON/figure report schema (docs/serving.md).

The **live plane** (``python -m repro.serve live``) runs the same
serving policies as an asyncio service: per-model replica pools
(:mod:`repro.serve.plane`) behind admission control
(:mod:`repro.serve.admission`), over pluggable sim/real/mock
controllers (:mod:`repro.serve.controllers`) on virtual or wall
timelines (:mod:`repro.serve.timeline`).
"""

from .admission import (
    AdmissionPolicy,
    estimated_latency_ms,
    parse_admission_spec,
)
from .batcher import (
    BatchPolicy,
    ExecutedBatch,
    ServedRequest,
    ServingResult,
    simulate_serving,
)
from .controllers import (
    CONTROLLER_KINDS,
    Controller,
    MockController,
    RealController,
    SimController,
    controller_for,
)
from .executor import ModelExecutor, prewarm_executors
from .placement import (
    ConfigOutcome,
    Placement,
    enumerate_placements,
    evaluate_configuration,
    search_configurations,
)
from .plane import (
    LiveBatch,
    LiveResult,
    LiveServed,
    PoolSpec,
    ReplicaPool,
    ServePlane,
    SheddedRequest,
    assign_models,
    live_report,
    run_http,
    run_trace,
)
from .report import (
    build_report,
    latency_throughput_figure,
    percentile,
    save_report,
    serving_metrics,
)
from .timeline import (
    VirtualTimeline,
    WallTimeline,
    timeline_for,
)
from .traffic import (
    Request,
    diurnal_trace,
    load_trace,
    mmpp_trace,
    save_trace,
    synthetic_trace,
    trace_from_spec,
)

__all__ = [
    "AdmissionPolicy",
    "BatchPolicy",
    "CONTROLLER_KINDS",
    "ConfigOutcome",
    "Controller",
    "ExecutedBatch",
    "LiveBatch",
    "LiveResult",
    "LiveServed",
    "MockController",
    "ModelExecutor",
    "Placement",
    "PoolSpec",
    "RealController",
    "ReplicaPool",
    "Request",
    "ServePlane",
    "ServedRequest",
    "ServingResult",
    "SheddedRequest",
    "SimController",
    "VirtualTimeline",
    "WallTimeline",
    "assign_models",
    "build_report",
    "controller_for",
    "diurnal_trace",
    "enumerate_placements",
    "estimated_latency_ms",
    "evaluate_configuration",
    "latency_throughput_figure",
    "live_report",
    "load_trace",
    "mmpp_trace",
    "parse_admission_spec",
    "percentile",
    "prewarm_executors",
    "run_http",
    "run_trace",
    "save_report",
    "save_trace",
    "search_configurations",
    "serving_metrics",
    "simulate_serving",
    "synthetic_trace",
    "timeline_for",
    "trace_from_spec",
]
