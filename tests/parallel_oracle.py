"""Scalar oracles for the GEMM model, serial and threaded.

Production prices every GEMM through the vectorized engine
(:func:`repro.sim.parallel.price_grid_requests` ->
:func:`repro.sim.vectorized.batch_gemm_cycles`): a threaded GEMM over
its candidate grids, a serial one
(:func:`repro.sim.timing.gemm_time_model`) as the one-slice
``(1, 1, 1)`` grid.  This module keeps the original pure-Python models
as the golden oracles the engine must match bit for bit
(``tests/test_parallel.py``, ``tests/test_vectorized.py``):

* the analytical memory model — :func:`memory_cost`;
* the serial model — :func:`gemm_time_model` over
  :func:`plans_compute_cycles` and :func:`memory_cost`, with
  :class:`GemmTimeBreakdown` and the harness-shaped
  :func:`baseline_gemm_breakdown` and :func:`exo_gemm_breakdown`;
* the threaded model — the thread partitioner (:func:`partition_extent`,
  ``partition_plane``, ``split_ways``, ``ThreadPartition``,
  ``ThreadSlice``), ``slice_parts``, ``reduction_for``,
  ``dram_limit_for`` and the ``min`` over every candidate partition.

The engine enumerates the same slices in the same jc-outer / ic /
pc-inner order with array index arithmetic, and splits each dimension
as :func:`partition_extent` does, in closed form; :func:`expand_slices`
keeps the per-slice loop it must equal.

Any cost-term change lands in ``sim/vectorized.py`` *and* here
(docs/model.md, "Adding a cost term").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blis.params import analytical_tile_params, clamp_tiles
from repro.isa.machine import CARMEL, MachineModel
from repro.sim.memory import GemmShape, TileParams
from repro.sim.parallel import (
    ParallelBreakdown,
    PlanBuilder,
    candidate_grids,
)
from repro.sim.timing import ChunkPlan, TimingModel
from repro.sim.vectorized import CandidateBatch, _SliceRows


# ---------------------------------------------------------------------------
# The scalar memory model
# ---------------------------------------------------------------------------


@dataclass
class MemoryCost:
    """Cycle costs of the memory-system work of one GEMM invocation."""

    pack_a_cycles: float
    pack_b_cycles: float
    c_stream_cycles: float
    c_stall_cycles: float  # exposed only without prefetch
    dram_bytes: float

    @property
    def total_overlappable(self) -> float:
        return self.pack_a_cycles + self.pack_b_cycles + self.c_stream_cycles


def memory_cost(
    shape: GemmShape,
    tiles: TileParams,
    machine: MachineModel = CARMEL,
    dtype_bytes: int = 4,
    prefetch_c: bool = False,
) -> MemoryCost:
    """Analytical memory cycles for one C = C + A*B.

    Components:

    * **A packing** — every Ac block (mc x kc) is repacked once per jc
      iteration: ``ceil(n/nc) * m * k`` elements read + written.
    * **B packing** — Bc blocks are packed once: ``k * n`` elements.
      Packing bandwidth is store-limited at the L2/L3 write rate.
    * **C streaming** — the C tile is read and written once per pc
      iteration: ``2 * m * n * ceil(k/kc)`` elements moving at DRAM
      bandwidth.
    * **C stall** — without the in-kernel prefetch of the BLIS library,
      each micro-kernel invocation eats the latency of its C-tile line
      misses before the accumulation loop saturates; prefetching overlaps
      this entirely.  Misses are served with a modest memory-level
      parallelism (6 outstanding), matching an OoO core's load queue.
    """
    m, n, k = shape.m, shape.n, shape.k
    jc_iters = max(1, math.ceil(n / tiles.nc))
    pc_iters = max(1, math.ceil(k / tiles.kc))

    # packing: read + write each element; throughput limited by the copy
    # engine (two elements per cycle through the vector pipes)
    copy_rate = 2.0 * machine.pipe_count("load") * dtype_bytes  # bytes/cycle
    pack_a_bytes = 2.0 * m * k * dtype_bytes * jc_iters
    pack_b_bytes = 2.0 * k * n * dtype_bytes
    pack_a_cycles = pack_a_bytes / copy_rate
    pack_b_cycles = pack_b_bytes / copy_rate

    # C streaming traffic
    c_bytes = 2.0 * m * n * dtype_bytes * pc_iters
    c_stream_cycles = c_bytes / machine.dram_bandwidth_bytes_per_cycle

    # exposed C-tile miss latency per micro-kernel call (no prefetch)
    line = machine.caches[0].line_bytes
    tiles_per_pass = max(1, math.ceil(m / tiles.mr)) * max(
        1, math.ceil(n / tiles.nr)
    )
    lines_per_tile = max(
        1, math.ceil(tiles.mr * tiles.nr * dtype_bytes / line)
    )
    mlp = 6.0
    stall_per_tile = lines_per_tile / mlp * machine.dram_latency_cycles
    c_stall_cycles = 0.0 if prefetch_c else (
        stall_per_tile * tiles_per_pass * pc_iters
    )

    dram_bytes = (
        m * k * dtype_bytes * jc_iters  # A read per repack
        + k * n * dtype_bytes  # B read once
        + c_bytes
    )
    return MemoryCost(
        pack_a_cycles=pack_a_cycles,
        pack_b_cycles=pack_b_cycles,
        c_stream_cycles=c_stream_cycles,
        c_stall_cycles=c_stall_cycles,
        dram_bytes=dram_bytes,
    )


# ---------------------------------------------------------------------------
# The scalar serial model
# ---------------------------------------------------------------------------


@dataclass
class GemmTimeBreakdown:
    """Modelled cycles of one serial GEMM, by component."""

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
    chunk_plans: Sequence[ChunkPlan],
    k: int,
    kc: int,
    model: TimingModel,
) -> float:
    """Compute cycles of a chunk-plan list over the k extent.

    The k extent splits into full ``kc`` chunks plus one ragged
    remainder; every plan runs once per pc iteration.  Both scalar
    models use this one compute formula, and the engine mirrors it
    operand for operand (``repro.sim.vectorized._compute_cycles``).
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
    chunk_plans: Sequence[ChunkPlan],
    tiles: TileParams,
    prefetch_c: bool = False,
    machine: MachineModel = CARMEL,
    model: Optional[TimingModel] = None,
) -> GemmTimeBreakdown:
    """The scalar serial model: same result as
    :func:`repro.sim.timing.gemm_time_model`."""
    model = model or TimingModel(machine=machine)
    compute = plans_compute_cycles(chunk_plans, shape.k, tiles.kc, model)
    mem = memory_cost(shape, tiles, machine=machine, prefetch_c=prefetch_c)
    return GemmTimeBreakdown(
        compute_cycles=compute,
        pack_cycles=mem.pack_a_cycles + mem.pack_b_cycles,
        c_stall_cycles=mem.c_stall_cycles,
        dram_limit_cycles=(
            mem.dram_bytes / machine.dram_bandwidth_bytes_per_cycle
        ),
        flops=shape.flops,
        machine=machine,
    )


def baseline_gemm_breakdown(
    m: int,
    n: int,
    k: int,
    trace,
    prefetch_c: bool = False,
    ctx=None,
) -> GemmTimeBreakdown:
    """The oracle behind
    :func:`repro.eval.harness.baseline_gemm_breakdown`: one monolithic
    8x12 kernel, priced by the scalar serial model."""
    from repro.eval.harness import default_context
    from repro.ukernel.edge import monolithic_cover

    ctx = ctx or default_context()
    tiles = clamp_tiles(analytical_tile_params(8, 12, ctx.machine), m, n, k)
    plan = ChunkPlan(
        trace=trace, mr=8, nr=12, count=monolithic_cover(m, n, 8, 12)
    )
    return gemm_time_model(
        GemmShape(m, n, k), [plan], tiles, prefetch_c=prefetch_c,
        machine=ctx.machine, model=ctx.model,
    )


def exo_gemm_breakdown(
    m: int,
    n: int,
    k: int,
    main: Optional[Tuple[int, int]] = None,
    ctx=None,
) -> GemmTimeBreakdown:
    """The oracle behind :func:`repro.eval.harness.exo_gemm_breakdown`:
    the same tiles and plane plans, priced by the scalar serial
    model."""
    from repro.eval.harness import default_context, plane_chunk_plans

    ctx = ctx or default_context()
    mr, nr = main if main is not None else ctx.main_tile
    tiles = clamp_tiles(analytical_tile_params(mr, nr, ctx.machine), m, n, k)
    return gemm_time_model(
        GemmShape(m, n, k), plane_chunk_plans(ctx, m, n, mr, nr), tiles,
        machine=ctx.machine, model=ctx.model,
    )


# ---------------------------------------------------------------------------
# Thread partitions: the per-slice geometry the oracle prices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """A contiguous range of one GEMM dimension owned by one way."""

    start: int
    extent: int

    @property
    def stop(self) -> int:
        return self.start + self.extent


def partition_extent(
    extent: int, ways: int, granule: int
) -> Tuple[Span, ...]:
    """Residue-aware split of ``extent`` into at most ``ways`` spans.

    The extent is measured in ``granule``-sized tiles (the register-tile
    height or width); tiles distribute as evenly as possible (spans
    differ by at most one tile) and the ragged sub-``granule`` remainder
    rides in the final span, where the per-slice plan builder selects an
    edge/tail kernel for it.  When there are fewer tiles than ways the
    surplus ways receive no span — they would have no tile to run.
    """
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    if ways < 1:
        raise ValueError(f"ways must be >= 1, got {ways}")
    if granule < 1:
        raise ValueError(f"granule must be >= 1, got {granule}")
    tiles = math.ceil(extent / granule)
    ways = min(ways, tiles)
    base, rem = divmod(tiles, ways)
    spans: List[Span] = []
    start = 0
    for w in range(ways):
        count = base + (1 if w < rem else 0)
        stop = min(start + count * granule, extent)
        spans.append(Span(start=start, extent=stop - start))
        start = stop
    return tuple(spans)


@dataclass(frozen=True)
class ThreadSlice:
    """One thread's sub-volume of the (m, n, k) traversal."""

    thread: int
    jc: int  #: column-group index (which B-panel slice it works on)
    ic: int  #: row-group index within the column group
    rows: Span
    cols: Span
    #: reduction-group index along k (0 when the k loop is not split)
    pc: int = 0
    #: this way's k range; ``None`` means the full k extent (the
    #: pc_ways=1 case, which keeps the slice bit-identical to the
    #: pre-reduction-partition model)
    ks: Optional[Span] = None

    @property
    def m(self) -> int:
        return self.rows.extent

    @property
    def n(self) -> int:
        return self.cols.extent

    def k_extent(self, k: int) -> int:
        return self.ks.extent if self.ks is not None else k


@dataclass(frozen=True)
class ThreadPartition:
    """A jc x ic x pc decomposition of the GEMM into thread slices."""

    threads: int  #: requested thread count (slices may be fewer)
    jc_ways: int
    ic_ways: int
    slices: Tuple[ThreadSlice, ...]
    pc_ways: int = 1

    @property
    def active_threads(self) -> int:
        return len(self.slices)




def split_ways(
    threads: int,
    m: int,
    n: int,
    machine: MachineModel,
    mr: int,
    nr: int,
) -> Tuple[int, int]:
    """Choose the ``jc_ways x ic_ways`` factorization of ``threads``.

    This is the cheap standalone heuristic (used by
    :func:`partition_plane` when no ways are pinned): every plane-only
    candidate grid (:func:`candidate_grids` without a k axis) is scored
    by the largest slice it produces in register tiles, residue-aware,
    and the smallest wins; ties prefer more jc ways, whose smaller
    B-panel slices ease LLC pressure.  :func:`parallel_gemm_breakdown`
    refines this by ranking the full jc x ic x pc candidate set on its
    exact modelled wall clock.
    """
    row_tiles = math.ceil(m / mr)
    col_tiles = math.ceil(n / nr)
    best: Optional[Tuple[int, int, int]] = None
    for jc, ic, _ in candidate_grids(threads, m, n, machine, mr, nr):
        score = math.ceil(col_tiles / min(jc, col_tiles)) * math.ceil(
            row_tiles / min(ic, row_tiles)
        )
        if best is None or (score, -jc) < (best[0], -best[1]):
            best = (score, jc, ic)
    return (best[1], best[2])


def partition_plane(
    m: int,
    n: int,
    threads: int,
    machine: MachineModel,
    mr: int,
    nr: int,
    jc_ways: Optional[int] = None,
    ic_ways: Optional[int] = None,
    pc_ways: int = 1,
    k: Optional[int] = None,
    kc: Optional[int] = None,
) -> ThreadPartition:
    """Split an (m, n[, k]) traversal into per-thread slices.

    The plane factorization defaults to :func:`split_ways`; passing
    ``jc_ways``/``ic_ways`` pins it (both must be given together).
    Slices tile the volume exactly — no overlap, no gap — with column
    spans aligned to ``nr``, row spans to ``mr``, and (when
    ``pc_ways > 1``) k spans to ``kc``, except for the ragged
    remainders, which stay in the trailing slices.  ``pc_ways > 1``
    requires ``k`` and ``kc``; with the default ``pc_ways=1`` the
    slices carry no k span and the partition is identical to the
    plane-only decomposition.
    """
    if (jc_ways is None) != (ic_ways is None):
        raise ValueError("pass both jc_ways and ic_ways, or neither")
    if pc_ways < 1:
        raise ValueError(f"pc_ways must be >= 1, got {pc_ways}")
    if pc_ways > 1 and (k is None or kc is None):
        raise ValueError("a pc (k-dimension) split needs k and kc")
    if jc_ways is None:
        # the pc ways multiply the plane grid, so the plane only gets
        # the threads left after the k split — never over-subscribing
        # the requested count
        jc_ways, ic_ways = split_ways(
            max(1, threads // pc_ways), m, n, machine, mr, nr
        )
    col_spans = partition_extent(n, jc_ways, nr)
    row_spans = partition_extent(m, ic_ways, mr)
    k_spans: Tuple[Optional[Span], ...] = (None,)
    if pc_ways > 1:
        k_spans = partition_extent(k, pc_ways, kc)
    slices = tuple(
        ThreadSlice(
            thread=(jc * len(row_spans) + ic) * len(k_spans) + pc,
            jc=jc,
            ic=ic,
            rows=rows,
            cols=cols,
            pc=pc,
            ks=ks,
        )
        for jc, cols in enumerate(col_spans)
        for ic, rows in enumerate(row_spans)
        for pc, ks in enumerate(k_spans)
    )
    return ThreadPartition(
        threads=threads,
        jc_ways=len(col_spans),
        ic_ways=len(row_spans),
        pc_ways=len(k_spans),
        slices=slices,
    )


# ---------------------------------------------------------------------------
# The scalar threaded model
# ---------------------------------------------------------------------------



def candidate_partitions(
    m: int,
    n: int,
    k: int,
    threads: int,
    machine: MachineModel,
    mr: int,
    nr: int,
    kc: int,
    grids: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> List[ThreadPartition]:
    """Partitions of every candidate grid, for exact wall-clock ranking.

    ``grids`` replaces the :func:`candidate_grids` enumeration with
    chosen ``(jc, ic, pc)`` grids, as a
    :class:`repro.sim.parallel.GridRequest` listing them does.
    """
    if grids is None:
        grids = candidate_grids(threads, m, n, machine, mr, nr, k=k, kc=kc)
    return [
        partition_plane(
            m, n, threads, machine, mr, nr,
            jc_ways=jc, ic_ways=ic, pc_ways=pc, k=k, kc=kc,
        )
        for jc, ic, pc in grids
    ]


def parallel_gemm_breakdown(
    shape: GemmShape,
    tiles: TileParams,
    threads: int,
    *,
    machine: MachineModel,
    plan_builder: PlanBuilder,
    prefetch_c: bool = False,
    model: Optional[TimingModel] = None,
    dtype_bytes: int = 4,
    grids: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> ParallelBreakdown:
    """The scalar threaded model: same result as
    :func:`repro.sim.parallel.parallel_gemm_breakdown`, or, given
    ``grids``, as :func:`repro.sim.parallel.price_grid_requests` on a
    request that lists them."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    model = model or TimingModel(machine=machine)
    mem = memory_cost(
        shape, tiles, machine=machine,
        dtype_bytes=dtype_bytes, prefetch_c=prefetch_c,
    )
    m, n, k = shape.m, shape.n, shape.k
    jc_iters_total = max(1, math.ceil(n / tiles.nc))
    pc_iters_total = max(1, math.ceil(k / tiles.kc))
    total_tiles = max(1, math.ceil(m / tiles.mr)) * max(
        1, math.ceil(n / tiles.nr)
    )

    # distinct slice shapes per partition are few (base/base+1 tile
    # spans plus the ragged tail), so memoize the per-shape work; the
    # plans themselves depend only on the (m, n) sub-plane, so the pc
    # axis never re-runs edge/tail kernel selection per k slice
    plans_by_plane: dict = {}
    plan_cache: dict = {}

    def plans_for(m_t: int, n_t: int):
        key = (m_t, n_t)
        if key not in plans_by_plane:
            plans_by_plane[key] = plan_builder(m_t, n_t)
        return plans_by_plane[key]

    def slice_parts(sl: ThreadSlice) -> Tuple[float, float, float]:
        k_t = sl.k_extent(k)
        key = (sl.m, sl.n, k_t)
        if key not in plan_cache:
            compute_t = plans_compute_cycles(
                plans_for(sl.m, sl.n), k_t, tiles.kc, model
            )
            jc_iters_t = max(1, math.ceil(sl.n / tiles.nc))
            pack_a_t = mem.pack_a_cycles * (sl.m * jc_iters_t) / (
                m * jc_iters_total
            )
            # the group's B slice is packed once and shared by its ic
            # threads: every one is charged the full slice pack — never
            # divided by ic_ways
            pack_b_t = mem.pack_b_cycles * sl.n / n
            tiles_t = max(1, math.ceil(sl.m / tiles.mr)) * max(
                1, math.ceil(sl.n / tiles.nr)
            )
            c_stall_t = mem.c_stall_cycles * tiles_t / total_tiles
            if sl.m == m and sl.n == n and sl.ks is None:
                # the whole GEMM keeps its unscaled terms: the part /
                # whole rescale above can round them off by an ulp
                pack_a_t = mem.pack_a_cycles
                pack_b_t = mem.pack_b_cycles
                c_stall_t = mem.c_stall_cycles
            if sl.ks is not None:
                # a pc way touches only its k slice: packing scales
                # with the slice's share of k, the C-stall with its
                # share of kc chunks (each chunk streams C once)
                k_frac = k_t / k
                pack_a_t *= k_frac
                pack_b_t *= k_frac
                c_stall_t *= (
                    max(1, math.ceil(k_t / tiles.kc)) / pc_iters_total
                )
            plan_cache[key] = (compute_t, pack_a_t + pack_b_t, c_stall_t)
        return plan_cache[key]

    # partial-C reduction: each element of a cell's C tile is read,
    # added, and written back once per extra pc way; the combine is a
    # barrier, so every thread of the cell carries the full cell cost
    def reduction_for(part: ThreadPartition, sl: ThreadSlice) -> float:
        if part.pc_ways <= 1:
            return 0.0
        extra = part.pc_ways - 1
        move = (2.0 * sl.m * sl.n * dtype_bytes * extra) / (
            machine.dram_bandwidth_bytes_per_cycle
        )
        adds = (sl.m * sl.n * extra) / (
            machine.pipe_count("fma") * machine.vector_lanes()
        )
        return move + adds

    def dram_limit_for(part: ThreadPartition) -> float:
        dram_bytes = mem.dram_bytes
        if part.ic_ways > 1 and not machine.has_shared_l3:
            # no shared LLC: each row-parallel thread streams its own
            # copy of the group's B panel from memory
            dram_bytes += (part.ic_ways - 1) * k * n * dtype_bytes
        if part.pc_ways > 1:
            # partial C copies written once and read back for the
            # combine, per extra pc way
            dram_bytes += (part.pc_ways - 1) * 2.0 * m * n * dtype_bytes
        spanned = machine.sockets_spanned(part.active_threads)
        if spanned > 1:
            # each extra socket's L3 streams its own copy of the B
            # panel, over the inter-socket link
            dram_bytes += (
                (spanned - 1) * k * n * dtype_bytes
                * machine.inter_socket_penalty
            )
        return dram_bytes / machine.stream_bandwidth(part.active_threads)

    def wall_clock(part: ThreadPartition) -> float:
        busy = max(
            sum(slice_parts(sl)) + reduction_for(part, sl)
            for sl in part.slices
        )
        return max(busy, dram_limit_for(part))

    partition = min(
        candidate_partitions(
            m, n, k, threads, machine, tiles.mr, tiles.nr, tiles.kc,
            grids=grids,
        ),
        key=lambda p: (wall_clock(p), p.pc_ways, -p.jc_ways, p.ic_ways),
    )

    busy: List[float] = []
    components: List[Tuple[float, float, float, float]] = []
    for sl in partition.slices:
        compute_t, pack_t, stall_t = slice_parts(sl)
        red_t = reduction_for(partition, sl)
        busy.append(compute_t + pack_t + stall_t + red_t)
        components.append((compute_t, pack_t, stall_t, red_t))
    dram_limit = dram_limit_for(partition)

    critical = max(range(len(busy)), key=busy.__getitem__)
    compute_c, pack_c, stall_c, red_c = components[critical]
    return ParallelBreakdown(
        threads=threads,
        jc_ways=partition.jc_ways,
        ic_ways=partition.ic_ways,
        pc_ways=partition.pc_ways,
        compute_cycles=compute_c,
        pack_cycles=pack_c,
        c_stall_cycles=stall_c,
        reduction_cycles=red_c,
        dram_limit_cycles=dram_limit,
        flops=shape.flops,
        machine=machine,
        thread_busy_cycles=tuple(busy),
    )


def exo_parallel_breakdown(
    m: int,
    n: int,
    k: int,
    threads: int,
    ctx,
    main: Optional[Tuple[int, int]] = None,
    grids: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> ParallelBreakdown:
    """The oracle behind :func:`repro.eval.harness.exo_parallel_breakdown`:
    the same tiles and per-slice plan builder, priced by the scalar
    model above."""
    from repro.eval.harness import plane_chunk_plans

    mr_main, nr_main = main if main is not None else ctx.main_tile
    tiles = clamp_tiles(
        analytical_tile_params(mr_main, nr_main, ctx.machine), m, n, k
    )
    return parallel_gemm_breakdown(
        GemmShape(m, n, k), tiles, threads,
        machine=ctx.machine,
        plan_builder=lambda mt, nt: plane_chunk_plans(
            ctx, mt, nt, mr_main, nr_main
        ),
        model=ctx.model,
        grids=grids,
    )


# ---------------------------------------------------------------------------
# The grid engine's slice expansion, one slice per loop step
# ---------------------------------------------------------------------------


def expand_slices(batch: CandidateBatch) -> _SliceRows:
    """The per-slice loop behind :func:`repro.sim.vectorized._expand_slices`.

    Every candidate's slices via the same ``partition_extent`` calls,
    appended in the jc-outer / ic / pc-inner order of
    :func:`partition_plane`; a ``pc = 1`` candidate keeps the full k.
    """
    cand: List[int] = []
    m_t: List[int] = []
    n_t: List[int] = []
    k_t: List[int] = []
    has_ks: List[bool] = []
    offsets = [0]
    eff = np.empty((len(batch), 3), dtype=np.int64)
    stream_bw = np.empty(len(batch))
    spanned = np.empty(len(batch), dtype=np.int64)
    bw_memo: Dict[Tuple[int, int], Tuple[float, int]] = {}
    for i in range(len(batch)):
        m, n, k = int(batch.m[i]), int(batch.n[i]), int(batch.k[i])
        col_spans = partition_extent(n, int(batch.jc[i]), int(batch.nr[i]))
        row_spans = partition_extent(m, int(batch.ic[i]), int(batch.mr[i]))
        pc_req = int(batch.pc[i])
        if pc_req > 1:
            k_spans = partition_extent(k, pc_req, int(batch.kc[i]))
            with_ks = True
        else:
            k_spans = (None,)
            with_ks = False
        eff[i] = (len(col_spans), len(row_spans), len(k_spans))
        for cols in col_spans:
            for rows in row_spans:
                for ks in k_spans:
                    cand.append(i)
                    m_t.append(rows.extent)
                    n_t.append(cols.extent)
                    k_t.append(ks.extent if ks is not None else k)
                    has_ks.append(with_ks)
        offsets.append(len(cand))
        active = len(col_spans) * len(row_spans) * len(k_spans)
        mi = int(batch.machine_idx[i])
        bw_key = (mi, active)
        if bw_key not in bw_memo:
            machine = batch.machines[mi]
            bw_memo[bw_key] = (
                machine.stream_bandwidth(active),
                machine.sockets_spanned(active),
            )
        stream_bw[i], spanned[i] = bw_memo[bw_key]
    return _SliceRows(
        cand=np.asarray(cand, dtype=np.int64),
        m_t=np.asarray(m_t, dtype=np.int64),
        n_t=np.asarray(n_t, dtype=np.int64),
        k_t=np.asarray(k_t, dtype=np.int64),
        has_ks=np.asarray(has_ks, dtype=bool),
        offsets=np.asarray(offsets, dtype=np.int64),
        eff_jc=eff[:, 0],
        eff_ic=eff[:, 1],
        eff_pc=eff[:, 2],
        stream_bw=stream_bw,
        spanned=spanned,
    )
