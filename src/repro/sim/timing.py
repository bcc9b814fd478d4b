"""End-to-end modelled timing: solo kernels and full five-loop GEMM.

This module composes the pipeline model (compute cycles of micro-kernel
invocations) with the analytical memory model (packing, C streaming, C-tile
stalls) into the numbers the paper's evaluation plots:

* :func:`solo_kernel_gflops` — Figure 13: a micro-kernel invoked back to
  back on resident operands.
* :func:`gemm_time_model` — Figures 14-18: a full GEMM with packing, with
  or without in-kernel C prefetch, for any kernel plan (one monolithic
  kernel, or a family with per-chunk selection);
  :func:`gemm_time_models` prices many at once.

Both are the one-slice case of the threaded model: a serial GEMM is
the ``(1, 1, 1)`` grid request of
:func:`repro.sim.parallel.price_grid_requests`, priced by the batch
engine of :mod:`repro.sim.vectorized` and returned as a
:class:`repro.sim.parallel.ParallelBreakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.isa.machine import CARMEL, MachineModel
from repro.obs import profile as obs_profile

from .memory import GemmShape, TileParams
from .pipeline import KernelTrace, PipelineModel

if TYPE_CHECKING:
    from .parallel import ParallelBreakdown


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


def gemm_time_models(
    gemms: Sequence[Tuple[GemmShape, Sequence[ChunkPlan], TileParams]],
    prefetch_c: bool = False,
    machine: MachineModel = CARMEL,
    model: Optional[TimingModel] = None,
) -> List["ParallelBreakdown"]:
    """Model many ``(shape, chunk_plans, tiles)`` GEMMs on one machine.

    Each is the one-slice ``(1, 1, 1)`` request of
    :func:`repro.sim.parallel.price_grid_requests`, so the list prices
    in a few grid batches of the one engine.  The engine asks for plans
    once per distinct (mr, nr, m, n) of a sub-batch, so GEMMs sharing
    those must share their plans.  Under a profiler each GEMM records
    one ``serial`` entry with ``eval_us`` 0: the wall time sits on the
    sub-batch's ``batch.grid`` record.
    """
    return _price_serial(gemms, prefetch_c, machine, model, started=None)


def gemm_time_model(
    shape: GemmShape,
    chunk_plans: List[ChunkPlan],
    tiles: TileParams,
    prefetch_c: bool = False,
    machine: MachineModel = CARMEL,
    model: Optional[TimingModel] = None,
) -> "ParallelBreakdown":
    """Model one C += A*B through the five-loop algorithm.

    ``chunk_plans`` enumerates the micro-tile classes covering the (m, n)
    plane; each runs once per pc iteration.  The k extent is split into
    full ``kc`` chunks plus one ragged remainder; packing and C-streaming
    costs come from the analytical memory model.  This is the one-GEMM
    case of :func:`gemm_time_models`, whose one ``serial`` profile
    record times the call; the scalar model it must match bit for bit
    lives in ``tests/parallel_oracle.py``.
    """
    # the profile hook is a single global check when observability is off
    prof = obs_profile.ACTIVE
    started = prof.start() if prof is not None else None
    (breakdown,) = _price_serial(
        [(shape, chunk_plans, tiles)], prefetch_c, machine, model, started
    )
    return breakdown


def _price_serial(gemms, prefetch_c, machine, model, started):
    """:func:`gemm_time_models`; a ``started`` time (one timed GEMM)
    puts the wall time on its ``serial`` record, not a batch record."""
    # imported here: repro.sim.parallel and repro.sim.vectorized import
    # this module
    from .parallel import GridRequest, price_grid_requests
    from .vectorized import plan_costs

    model = model or TimingModel(machine=machine)
    breakdowns = price_grid_requests(
        [
            GridRequest(machine, shape, tiles, 1, ((1, 1, 1),))
            for shape, _, tiles in gemms
        ],
        lambda i, _m, _n: plan_costs(gemms[i][1], model),
        prefetch_c=prefetch_c,
        profile=started is None,
    )
    prof = obs_profile.ACTIVE
    if prof is not None:
        for (shape, _, _), breakdown in zip(gemms, breakdowns):
            prof.record(
                "serial", shape.m, shape.n, shape.k, threads=1,
                partition="serial", pc_ways=1, breakdown=breakdown,
                started=started,
            )
    return breakdowns
