"""Per-layer pricing of batched inference on one replica.

A :class:`ModelExecutor` owns one replica-scoped view of the machine
(:func:`repro.sim.parallel.replica_topology`) and prices a batched
forward pass by summing the exact threaded GEMM model
(:func:`repro.eval.harness.exo_parallel_breakdown`) over every layer
instance of the workload, with the batch folded into the im2row m
dimension (:meth:`repro.workloads.LayerGemm.batched_dims`).

Kernel dispatch per layer is the path shared with ``eval --use-tuned``:
by default every layer runs the ISA's main tile; with ``use_tuned`` the
winner comes from :func:`repro.eval.harness.tuned_layer_breakdown`,
which reads the active tune cache — closing the ROADMAP loop from tune
winners back into per-layer kernel choice.  Selection always keys on
the *base* machine, so cached winners match what ``repro.tune`` wrote;
only the timing runs on the replica view.

With one replica and batch 1, the summed model time equals the existing
threaded ResNet/VGG sweep (`threaded_instance_time_data`) bit-for-bit —
same breakdowns, same accumulation order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.eval.harness import (
    EvalContext,
    exo_parallel_breakdown,
    exo_parallel_breakdowns,
    machine_context,
    tuned_layer_breakdown,
)
from repro.isa.machine import MachineModel
from repro.obs import Obs
from repro.sim.parallel import replica_topology
from repro.workloads import LayerGemm, model_instances

Instance = Tuple[int, LayerGemm]

#: histogram buckets for modelled per-layer batch GEMM time (ms)
LAYER_MS_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)


class ModelExecutor:
    """Prices batched forward passes of one model on one replica."""

    def __init__(
        self,
        machine: MachineModel,
        model: Union[str, Sequence[Instance]] = "resnet50",
        threads: int = 1,
        replicas: int = 1,
        use_tuned: bool = False,
        obs: Optional[Obs] = None,
    ):
        self.machine = machine
        self.threads = threads
        self.replicas = replicas
        self.use_tuned = use_tuned
        self.obs = obs
        if isinstance(model, str):
            self.model_name = model.lower()
            self.instances: List[Instance] = model_instances(model)
        else:
            self.model_name = "custom"
            self.instances = list(model)
        self.base_ctx = machine_context(machine)
        replica_machine = replica_topology(machine, replicas, threads)
        # the shared registry's kernels carry their traces, and a
        # replica view schedules them like its base machine, so the
        # replica context re-traces and re-schedules nothing
        self.ctx = EvalContext(
            machine=replica_machine, registry=self.base_ctx.registry
        )
        #: (layer_id, batch) -> (seconds, main tile)
        self._layer_memo: Dict[Tuple[int, int], tuple] = {}
        #: batch -> modelled milliseconds of one forward pass
        self._batch_memo: Dict[int, float] = {}

    def layer_time(
        self, layer: LayerGemm, batch: int
    ) -> Tuple[float, Tuple[int, int]]:
        """(seconds, main tile) of one batched layer GEMM."""
        key = (layer.layer_id, batch)
        if key not in self._layer_memo:
            m, n, k = layer.batched_dims(batch)
            main = self._main_tile_for(m, n, k)
            b = exo_parallel_breakdown(
                m, n, k, self.threads, ctx=self.ctx, main=main
            )
            self._layer_memo[key] = (
                b.seconds,
                main if main is not None else self.ctx.main_tile,
            )
            self._record_pricing(b.seconds)
        else:
            self._count_memo_hits(1)
        return self._layer_memo[key]

    def batch_time_ms(self, batch: int) -> float:
        """Modelled milliseconds of one batched forward pass.

        Sums per-instance layer times in instance order — the exact
        accumulation of the threaded eval sweep, so batch=1 on one
        replica reproduces its totals to the last bit.  Memoized per
        batch size: a repeat counts one memo hit per instance.
        """
        if batch in self._batch_memo:
            self._count_memo_hits(len(self.instances))
        else:
            total_seconds = 0.0
            for _, layer in self.instances:
                seconds, _ = self.layer_time(layer, batch)
                total_seconds += seconds
            self._batch_memo[batch] = total_seconds * 1e3
        return self._batch_memo[batch]

    def layer_breakdown_ms(self, batch: int) -> Dict[str, float]:
        """Per-layer milliseconds of one batched forward pass.

        Keys are layer ids (as strings, JSON-stable), values the
        instance-weighted modelled milliseconds — the attribution the
        batch trace span carries, summing exactly to
        :meth:`batch_time_ms`.
        """
        layers: Dict[str, float] = {}
        for _, layer in self.instances:
            seconds, _ = self.layer_time(layer, batch)
            key = str(layer.layer_id)
            layers[key] = layers.get(key, 0.0) + seconds * 1e3
        return layers

    def _main_tile_for(
        self, m: int, n: int, k: int
    ) -> Optional[Tuple[int, int]]:
        """Kernel dispatch for one layer GEMM (``None`` = ISA main tile).

        Tuned dispatch keys on the *base* machine: its fingerprint is
        what the tune cache stored the winners under.
        """
        if not self.use_tuned:
            return None
        main, _ = tuned_layer_breakdown(self.base_ctx, m, n, k)
        return main

    def _count_memo_hits(self, hits: int) -> None:
        if self.obs is not None and hits:
            self.obs.metrics.counter(
                "serve.layer_memo_hits",
                help="(layer, batch) pricings answered by the memo",
            ).inc(hits)

    def _record_pricing(self, seconds: float) -> None:
        """The metric side effects of one memo-miss layer pricing."""
        if self.obs is not None:
            self.obs.metrics.counter(
                "serve.layer_pricings",
                help="modelled (layer, batch) GEMM evaluations",
            ).inc()
            self.obs.metrics.histogram(
                "serve.layer_time_ms",
                buckets=LAYER_MS_BUCKETS,
                help="modelled batched layer GEMM milliseconds",
            ).observe(seconds * 1e3)

    def layer_records(self) -> List[dict]:
        """Per-layer report rows for every (layer, batch) priced so far."""
        by_id = {layer.layer_id: layer for _, layer in self.instances}
        rows = []
        for (layer_id, batch), (seconds, tile) in sorted(
            self._layer_memo.items()
        ):
            layer = by_id[layer_id]
            m, n, k = layer.batched_dims(batch)
            rows.append(
                {
                    "layer": layer_id,
                    "batch": batch,
                    "m": m,
                    "n": n,
                    "k": k,
                    "kernel": f"{tile[0]}x{tile[1]}",
                    "instances": layer.instances,
                    "time_ms": seconds * 1e3 * layer.instances,
                }
            )
        return rows


def prewarm_executors(
    executors: Sequence[ModelExecutor], batches: Sequence[int]
) -> int:
    """Price every executor's (layer, batch) grid in one batched sweep.

    The placement search prices the same layer shapes once per
    (placement, batch-cap) candidate; doing it lazily costs one
    grid-search batch per (layer, batch) memo miss.  This collects every
    miss across ``executors`` x ``batches`` and prices them all through
    one :func:`repro.eval.harness.exo_parallel_breakdowns` call — a few
    multi-machine grid batches (one obs span each, ``candidates`` = its
    rows) with the candidate set and tie-break of
    :func:`repro.sim.parallel.parallel_gemm_breakdown`, so the memo
    entries are bit-identical to lazy pricing.  Returns the number of
    memo entries filled.
    """
    owners = []  # (executor, memo key, main tile) per cell
    cells = []
    queued = set()
    for ex_idx, ex in enumerate(executors):
        layers = {layer.layer_id: layer for _, layer in ex.instances}
        for batch in batches:
            for layer_id, layer in layers.items():
                key = (layer_id, int(batch))
                if key in ex._layer_memo or (ex_idx, key) in queued:
                    continue
                queued.add((ex_idx, key))
                m, n, k = layer.batched_dims(int(batch))
                main = ex._main_tile_for(m, n, k) or ex.ctx.main_tile
                owners.append((ex, key, main))
                cells.append((ex.ctx, m, n, k, ex.threads, main))

    breakdowns = exo_parallel_breakdowns(cells)
    for (ex, key, main), breakdown in zip(owners, breakdowns):
        ex._layer_memo[key] = (breakdown.seconds, main)
        ex._record_pricing(breakdown.seconds)
    return len(cells)
