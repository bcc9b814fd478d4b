"""End-to-end modelled timing: solo kernels and full five-loop GEMM.

This module composes the pipeline model (compute cycles of micro-kernel
invocations) with the analytical memory model (packing, C streaming, C-tile
stalls) into the numbers the paper's evaluation plots:

* :func:`solo_kernel_gflops` — Figure 13: a micro-kernel invoked back to
  back on resident operands.
* :func:`gemm_time_model` — Figures 14-18: a full GEMM with packing, with
  or without in-kernel C prefetch, for any kernel plan (one monolithic
  kernel, or a family with per-chunk selection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.machine import CARMEL, MachineModel
from repro.obs import profile as obs_profile

from .memory import GemmShape, TileParams, memory_cost
from .pipeline import KernelTrace, PipelineModel


@dataclass(frozen=True)
class KernelTiming:
    """Cached steady-state numbers for one kernel trace."""

    trace: KernelTrace
    cycles_per_iter: float
    mr: int
    nr: int


@dataclass
class TimingModel:
    """A pipeline model plus a memoized kernel-timing table."""

    machine: MachineModel = CARMEL
    pipeline: Optional[PipelineModel] = None
    _cache: Dict[int, KernelTiming] = field(default_factory=dict)

    def __post_init__(self):
        if self.pipeline is None:
            self.pipeline = PipelineModel(machine=self.machine)

    def timing_for(self, trace: KernelTrace, mr: int, nr: int) -> KernelTiming:
        key = id(trace)
        if key not in self._cache:
            self._cache[key] = KernelTiming(
                trace=trace,
                cycles_per_iter=self.pipeline.steady_cycles_per_iter(trace),
                mr=mr,
                nr=nr,
            )
        return self._cache[key]

    def invocation_cycles(
        self, timing: KernelTiming, kc: int, call_overhead: float
    ) -> float:
        vec = self.pipeline._dispatch_width()
        edge = (
            timing.trace.prologue_vector_ops + timing.trace.epilogue_vector_ops
        ) * self.machine.vector_chime / vec
        return (
            kc * timing.cycles_per_iter
            + edge
            + call_overhead
            + timing.trace.extra_call_cycles
        )


def solo_kernel_gflops(
    trace: KernelTrace,
    mr: int,
    nr: int,
    kc: int = 512,
    useful_mr: Optional[int] = None,
    useful_nr: Optional[int] = None,
    call_overhead: float = 15.0,
    machine: MachineModel = CARMEL,
    model: Optional[TimingModel] = None,
) -> float:
    """Figure 13: GFLOPS of a kernel invoked repeatedly on hot operands.

    ``useful_mr``/``useful_nr`` model a monolithic kernel running an edge
    case: the kernel computes the full ``mr x nr`` tile but only the useful
    sub-tile counts as work.
    """
    model = model or TimingModel(machine=machine)
    timing = model.timing_for(trace, mr, nr)
    cycles = model.invocation_cycles(timing, kc, call_overhead)
    flops = 2 * (useful_mr or mr) * (useful_nr or nr) * kc
    return flops / cycles * machine.freq_ghz


# ---------------------------------------------------------------------------
# Full-GEMM model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkPlan:
    """One class of micro-kernel invocation in a GEMM: a kernel trace, the
    tile it computes, and how many such tiles the problem contains."""

    trace: KernelTrace
    mr: int
    nr: int
    count: int  # tiles of this class per full (m, n) traversal
    call_overhead: float = 15.0


@dataclass
class GemmTimeBreakdown:
    """Modelled cycles of one GEMM, by component."""

    compute_cycles: float
    pack_cycles: float
    c_stall_cycles: float
    dram_limit_cycles: float
    flops: int
    machine: MachineModel

    @property
    def total_cycles(self) -> float:
        busy = self.compute_cycles + self.pack_cycles + self.c_stall_cycles
        return max(busy, self.dram_limit_cycles)

    @property
    def seconds(self) -> float:
        return self.total_cycles / (self.machine.freq_ghz * 1e9)

    @property
    def gflops(self) -> float:
        return self.flops / self.total_cycles * self.machine.freq_ghz


def plans_compute_cycles(
    chunk_plans: List[ChunkPlan],
    k: int,
    kc: int,
    model: TimingModel,
) -> float:
    """Compute cycles of a chunk-plan list over the k extent.

    The k extent splits into full ``kc`` chunks plus one ragged
    remainder; every plan runs once per pc iteration.  This is the
    single compute formula of the timing model: the serial
    :func:`gemm_time_model` calls it, and the vectorized engine behind
    :func:`repro.sim.parallel.parallel_gemm_breakdown` mirrors it
    operand for operand
    (:func:`repro.sim.vectorized._compute_cycles`), so a one-thread
    partition reproduces the serial compute exactly.
    """
    kc_full, kc_rem = divmod(k, kc)
    compute = 0.0
    for plan in chunk_plans:
        timing = model.timing_for(plan.trace, plan.mr, plan.nr)
        cycles = kc_full * model.invocation_cycles(
            timing, kc, plan.call_overhead
        )
        if kc_rem:
            cycles += model.invocation_cycles(
                timing, kc_rem, plan.call_overhead
            )
        compute += plan.count * cycles
    return compute


def gemm_time_model(
    shape: GemmShape,
    chunk_plans: List[ChunkPlan],
    tiles: TileParams,
    prefetch_c: bool = False,
    machine: MachineModel = CARMEL,
    model: Optional[TimingModel] = None,
) -> GemmTimeBreakdown:
    """Model one C += A*B through the five-loop algorithm.

    ``chunk_plans`` enumerates the micro-tile classes covering the (m, n)
    plane; each runs once per pc iteration.  The k extent is split into
    full ``kc`` chunks plus one ragged remainder; packing and C-streaming
    costs come from the analytical memory model.
    """
    # the profile hook is a single global check when observability is
    # off — this is the hot path of every tune sweep
    prof = obs_profile.ACTIVE
    started = prof.start() if prof is not None else None
    model = model or TimingModel(machine=machine)
    compute = plans_compute_cycles(chunk_plans, shape.k, tiles.kc, model)

    mem = memory_cost(shape, tiles, machine=machine, prefetch_c=prefetch_c)
    pack = mem.pack_a_cycles + mem.pack_b_cycles
    dram_limit = mem.dram_bytes / machine.dram_bandwidth_bytes_per_cycle
    breakdown = GemmTimeBreakdown(
        compute_cycles=compute,
        pack_cycles=pack,
        c_stall_cycles=mem.c_stall_cycles,
        dram_limit_cycles=dram_limit,
        flops=shape.flops,
        machine=machine,
    )
    if prof is not None:
        prof.record(
            "serial",
            shape.m,
            shape.n,
            shape.k,
            threads=1,
            partition="serial",
            pc_ways=1,
            breakdown=breakdown,
            started=started,
        )
    return breakdown
