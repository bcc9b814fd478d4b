"""Serving metrics and the JSON/figure report.

Percentiles use the nearest-rank definition — ``p(q)`` is the smallest
observed value with at least ``q`` percent of the sample at or below it
— so every reported number is an actual simulated latency (no
interpolation) and the math is exact on tiny samples, which the tests
pin down (single element, p0/p100, even-count medians).  ``percentile``
is :func:`repro.obs.metrics.nearest_rank_percentile`, the one
definition the metrics histograms use too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence, Union

from repro.eval.figures import bar_chart
from repro.eval.report import render_table
from repro.obs.metrics import nearest_rank_percentile as percentile

from .batcher import ServingResult


def latency_summary(latencies: Sequence[float]) -> dict:
    """Mean, p50/p95/p99 and max of a latency sample (``None`` if empty)."""
    if not latencies:
        return dict.fromkeys(
            ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")
        )
    return {
        "mean_ms": sum(latencies) / len(latencies),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "p99_ms": percentile(latencies, 99),
        "max_ms": max(latencies),
    }


def serving_metrics(result: ServingResult) -> dict:
    """Aggregate one simulation into the report's metric block."""
    latencies = result.latencies_ms
    if not latencies:
        raise ValueError(
            "serving result has no served requests — the trace was "
            "empty; raise the arrival rate or duration (or check the "
            "replayed CSV)"
        )
    sizes: dict = {}
    for batch in result.batches:
        sizes[batch.size] = sizes.get(batch.size, 0) + 1
    return {
        "requests": len(latencies),
        "batches": len(result.batches),
        "mean_batch": result.mean_batch,
        "batch_sizes": {str(k): v for k, v in sorted(sizes.items())},
        "throughput_rps": result.throughput_rps,
        "makespan_ms": result.makespan_ms,
        **latency_summary(latencies),
    }


def build_report(
    best,
    outcomes,
    machine_name: str,
    isa: str,
    model: str,
    trace_info: dict,
    slo_p99_ms: float,
    use_tuned: bool,
    machine=None,
) -> dict:
    """The full JSON report: chosen config, metrics, candidates, layers.

    Passing the ``machine`` model adds the NUMA pinning of the chosen
    placement (which node(s) each replica's core block occupies).
    """
    config = {
        "replicas": best.placement.replicas,
        "threads_per_replica": best.placement.threads_per_replica,
        "cores_used": best.placement.cores_used,
        "core_assignment": [
            list(block) for block in best.placement.core_assignment()
        ],
        "max_batch": best.policy.max_batch,
        "max_wait_ms": best.policy.max_wait_ms,
        "slo_met": best.meets_slo(slo_p99_ms),
    }
    if machine is not None:
        config["numa_assignment"] = [
            list(nodes) for nodes in best.placement.numa_assignment(machine)
        ]
        config["sockets"] = machine.sockets
        config["numa_nodes"] = machine.numa_nodes
    return {
        "machine": machine_name,
        "isa": isa,
        "model": model,
        "trace": trace_info,
        "slo_p99_ms": slo_p99_ms,
        "use_tuned": use_tuned,
        "config": config,
        "metrics": best.metrics,
        "per_layer": best.executor.layer_records(),
        "candidates": [candidate_row(o) for o in outcomes],
    }


def candidate_row(outcome) -> dict:
    """One configuration's row in the report's candidates table."""
    return {
        "config": outcome.label,
        "replicas": outcome.placement.replicas,
        "threads": outcome.placement.threads_per_replica,
        "max_batch": outcome.policy.max_batch,
        "throughput_rps": outcome.metrics["throughput_rps"],
        "p50_ms": outcome.metrics["p50_ms"],
        "p99_ms": outcome.metrics["p99_ms"],
        "mean_batch": outcome.metrics["mean_batch"],
    }


def latency_throughput_figure(report: dict, title: str = "") -> str:
    """The latency-throughput frontier as text charts.

    One bar group per candidate configuration: achieved throughput next
    to its p99 latency, plus the candidate table — the serving analogue
    of the eval figures, rendered through the same
    :mod:`repro.eval.figures` machinery.
    """
    rows: List[dict] = report["candidates"]
    title = title or (
        f"Latency-throughput frontier — {report['machine']} "
        f"serving {report['model']} "
        f"(SLO p99 <= {report['slo_p99_ms']:g} ms)"
    )
    text = render_table(
        rows,
        columns=[
            "config",
            "replicas",
            "threads",
            "max_batch",
            "throughput_rps",
            "p50_ms",
            "p99_ms",
            "mean_batch",
        ],
        title=title,
    )
    text += "\n\n" + bar_chart(
        rows, x="config", series=["throughput_rps"], unit=" rps"
    )
    text += "\n" + bar_chart(rows, x="config", series=["p99_ms"], unit=" ms")
    return text


def save_report(report: dict, path: Union[str, Path]) -> Path:
    """Write the report as deterministic (sorted-key) JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path
