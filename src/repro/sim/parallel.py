"""Multi-threaded GEMM execution model (the paper's future-work direction).

The paper evaluates a single Carmel core; the Jetson AGX Xavier has
eight.  BLIS parallelizes the jc loop (columns of B/C) and the ic loop
(rows of A/C) across cores.  This module makes that a first-class model:

* :func:`partition_plane` splits the (m, n, k) traversal into a
  ``jc_ways x ic_ways x pc_ways`` grid of contiguous, tile-aligned
  thread slices — residue-aware, so uneven extents spread by at most
  one tile column/row (or one ``kc`` chunk along k) and the ragged
  remainder rides in the last slice;
* :func:`parallel_gemm_breakdown` charges each thread its own chunk
  plans (built per slice, so edge/tail kernels — including reduced-
  ``vsetvl`` VLA tails — compose with uneven partitions), divides the
  private A-block packing, charges the *shared* B panel once per column
  group (not divided by the row-parallel thread count), prices the
  partial-C reduction a pc (k-dimension) split requires — one extra C
  read + write + add per extra pc way — and bounds the whole ensemble
  by the achievable DRAM stream bandwidth of the socket(s).

The machine's topology (``cores``, ``shared_l3``, ``sockets``,
``numa_nodes``, ``socket_dram_bandwidth_bytes_per_cycle``,
``inter_socket_penalty`` on :class:`repro.isa.machine.MachineModel`)
drives the partition choice: a core without a shared last-level cache
cannot share packed B panels between row-parallel threads, so the
partitioner parallelizes the jc and pc loops only and any forced ic
split replicates the panel's DRAM traffic; an ensemble spilling onto a
second socket gains that socket's memory controllers but replicates the
B panel per socket L3 and pays the inter-socket link penalty on the
replicated stream.

A one-thread partition reproduces :func:`repro.sim.timing.gemm_time_model`
exactly — both paths run the same compute formula
(:func:`repro.sim.timing.plans_compute_cycles`) and the same analytical
memory model — and a ``pc_ways=1`` partition on a 1-socket machine
reproduces the pre-NUMA threaded model cycle-for-cycle (pinned by
``tests/test_parallel.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.isa.machine import MachineModel
from repro.obs import profile as obs_profile

from .memory import GemmShape, TileParams, memory_cost
from .timing import ChunkPlan, TimingModel, plans_compute_cycles

#: builds the chunk plans covering one (m, n) sub-plane — the hook
#: through which per-thread edge/tail kernel selection happens
PlanBuilder = Callable[[int, int], List[ChunkPlan]]

#: default grid-search engine: the vectorized batch evaluator
#: (:mod:`repro.sim.vectorized`).  It ranks identically to the scalar
#: loop (``search="scalar"``) — the vectorized engine is bit-exact
#: against that oracle (tests/test_vectorized.py) — so the choice only
#: changes evaluation throughput, never the winner.
DEFAULT_SEARCH = "vectorized"


# ---------------------------------------------------------------------------
# Thread partitioner
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


def candidate_grids(
    threads: int,
    m: int,
    n: int,
    machine: MachineModel,
    mr: int,
    nr: int,
    k: Optional[int] = None,
    kc: Optional[int] = None,
) -> List[Tuple[int, int, int]]:
    """Distinct ``(jc, ic, pc)`` grids with ``jc * ic * pc <= threads``.

    The single enumeration behind both :func:`split_ways` and
    :func:`parallel_gemm_breakdown`'s partition search.  A prime thread
    count may leave a core idle rather than accept a pathological 1-D
    split, which also keeps the modelled time monotone in the thread
    count (the candidate set only grows with it).  Each (jc, pc) takes
    the largest row split it affords — a deeper ic split never hurts
    the critical path, so intermediates are skipped.  A machine without
    a shared LLC cannot share packed B panels between row-parallel
    threads, so its grids split jc and pc only (each pc way owns a
    private k-slice of B, so the k split needs no panel sharing).

    pc ways are enumerated only when ``k``/``kc`` are given, bounded by
    the number of ``kc`` chunks; callers that never split the reduction
    (``split_ways``) simply omit them and get pc=1 grids.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [(1, 1, 1)]
    pc_limit = 1
    if k is not None and kc is not None:
        pc_limit = min(threads, math.ceil(k / kc))
    row_tiles = math.ceil(m / mr)
    col_tiles = math.ceil(n / nr)
    seen = set()
    grids: List[Tuple[int, int, int]] = []
    for pc in range(1, pc_limit + 1):
        plane_threads = threads // pc
        if plane_threads < 1:
            break
        if not machine.has_shared_l3:
            jc_ic = [(plane_threads, 1)]
        else:
            jc_ic = [
                (jc, plane_threads // jc)
                for jc in range(1, plane_threads + 1)
            ]
        for jc, ic in jc_ic:
            effective = (min(jc, col_tiles), min(ic, row_tiles), pc)
            if effective in seen:
                continue
            seen.add(effective)
            grids.append((jc, ic, pc))
    return grids


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


def _candidate_partitions(
    m: int,
    n: int,
    k: int,
    threads: int,
    machine: MachineModel,
    mr: int,
    nr: int,
    kc: int,
    pin_pc: Optional[int] = None,
) -> List[ThreadPartition]:
    """Partitions of every candidate grid, for exact wall-clock ranking.

    ``pin_pc`` restricts the reduction axis (``pin_pc=1`` recovers the
    plane-only search of the pre-NUMA model exactly).
    """
    grids = candidate_grids(threads, m, n, machine, mr, nr, k=k, kc=kc)
    if pin_pc is not None:
        grids = [g for g in grids if g[2] == pin_pc]
        if not grids:
            raise ValueError(
                f"no candidate grid has pc_ways={pin_pc} for "
                f"{threads} threads on k={k} (kc={kc})"
            )
    return [
        partition_plane(
            m, n, threads, machine, mr, nr,
            jc_ways=jc, ic_ways=ic, pc_ways=pc, k=k, kc=kc,
        )
        for jc, ic, pc in grids
    ]


def _best_partition_vectorized(
    m: int,
    n: int,
    k: int,
    threads: int,
    machine: MachineModel,
    tiles: TileParams,
    *,
    plans_for: Callable[[int, int], List[ChunkPlan]],
    model: TimingModel,
    dtype_bytes: int,
    prefetch_c: bool,
    pin_pc: Optional[int],
) -> ThreadPartition:
    """Rank every candidate grid in one batched model evaluation.

    Bit-exact against the scalar ``min`` over
    :func:`_candidate_partitions`: same candidate order, same wall
    clocks, same tie-break — so the same grid always wins
    (cross-checked by ``tests/test_parallel.py``).  Only the winning
    grid's :class:`ThreadPartition` is materialized.
    """
    import numpy as np

    from . import vectorized as _vec

    grids = candidate_grids(
        threads, m, n, machine, tiles.mr, tiles.nr, k=k, kc=tiles.kc
    )
    if pin_pc is not None:
        grids = [g for g in grids if g[2] == pin_pc]
        if not grids:
            raise ValueError(
                f"no candidate grid has pc_ways={pin_pc} for "
                f"{threads} threads on k={k} (kc={tiles.kc})"
            )
    costs_memo: dict = {}

    def source(_row: int, m_t: int, n_t: int):
        key = (m_t, n_t)
        if key not in costs_memo:
            costs_memo[key] = _vec.plan_costs(plans_for(m_t, n_t), model)
        return costs_memo[key]

    batch = _vec.CandidateBatch(
        machines=(machine,),
        m=m, n=n, k=k,
        mr=tiles.mr, nr=tiles.nr, kc=tiles.kc, nc=tiles.nc,
        jc=np.asarray([g[0] for g in grids]),
        ic=np.asarray([g[1] for g in grids]),
        pc=np.asarray([g[2] for g in grids]),
        dtype_bytes=dtype_bytes,
        plan_source=source,
        kind="grid",
        prefetch_c=prefetch_c,
    )
    scored = _vec.batch_gemm_cycles(batch, profile=False)
    winner = _vec.best_grid_indices(scored, (0, len(grids)))[0]
    jc, ic, pc = grids[winner]
    return partition_plane(
        m, n, threads, machine, tiles.mr, tiles.nr,
        jc_ways=jc, ic_ways=ic, pc_ways=pc, k=k, kc=tiles.kc,
    )


# ---------------------------------------------------------------------------
# Replica-scoped topology views
# ---------------------------------------------------------------------------


def replica_numa_nodes(
    machine: MachineModel, replicas: int, threads_per_replica: int
) -> Tuple[Tuple[int, ...], ...]:
    """NUMA nodes each replica's contiguous core block touches.

    Replica ``r`` owns cores ``[r*T, (r+1)*T)`` — the same contiguous
    blocks as ``Placement.core_assignment`` — and nodes own contiguous
    core blocks, so the pinning is a pure function of (machine, R, T).
    """
    t = threads_per_replica
    return tuple(
        tuple(
            sorted({machine.node_of_core(c) for c in range(r * t, (r + 1) * t)})
        )
        for r in range(replicas)
    )


def replica_topology(
    machine: MachineModel, replicas: int, threads_per_replica: int
) -> MachineModel:
    """One replica's view of the machine: its cores, its bandwidth share.

    The serving layer splits the machine into ``replicas`` independent
    model instances of ``threads_per_replica`` cores each.  A replica's
    GEMMs run the ordinary threaded model, but on a scoped machine view:
    ``cores`` shrinks to the replica's own cores and the DRAM bandwidth
    is divided across the replicas streaming concurrently.

    On a 1-node machine the share is simply ``socket / replicas``
    (bit-for-bit the pre-NUMA behaviour).  On a NUMA machine each
    replica is *pinned* to the node(s) its contiguous core block
    occupies: its share is the local node bandwidth divided by the
    replicas resident on that node — so splitting a 2-socket part into
    per-node replicas keeps every stream local, while a replica whose
    block straddles the socket boundary pays ``inter_socket_penalty``
    on its share.  The executor prices every replica with one view, so
    the *most contended* replica (smallest share) is the view — the
    conservative bound on the ensemble.

    Once the share drops below the per-core stream bound — many narrow
    replicas — the per-core figure clamps down to the share too, so the
    ensemble never models more aggregate bandwidth than the physical
    machine has.  The view is flattened to a 1-socket, 1-node topology:
    a replica never spans the link unknowingly (the penalty is already
    folded into its share) — except the whole-machine replica
    (``replicas=1``, all cores), which keeps the full topology so its
    internal thread partition still models the socket spill exactly
    like ``eval --threads``.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if threads_per_replica < 1:
        raise ValueError(
            f"threads_per_replica must be >= 1, got {threads_per_replica}"
        )
    if replicas * threads_per_replica > machine.cores:
        raise ValueError(
            f"{replicas} replicas x {threads_per_replica} threads "
            f"over-subscribes the {machine.cores}-core machine "
            f"{machine.name}"
        )
    per_core = machine.dram_bandwidth_bytes_per_cycle
    if replicas == 1 and (
        machine.numa_nodes <= 1
        or threads_per_replica == machine.cores
    ):
        # a lone replica on a flat machine, or the consolidation
        # placement owning every core: the replica is the machine
        return replace(
            machine,
            name=f"{machine.name} [{threads_per_replica}c replica, 1 of 1]",
            cores=threads_per_replica,
        )
    socket = machine.socket_dram_bandwidth_bytes_per_cycle or per_core
    if machine.numa_nodes <= 1:
        share = socket / replicas
    else:
        node_sets = replica_numa_nodes(
            machine, replicas, threads_per_replica
        )
        residents: dict = {}
        for nodes in node_sets:
            for node in nodes:
                residents[node] = residents.get(node, 0) + 1
        node_bw = machine.numa_node_bandwidth_bytes_per_cycle
        share = None
        for nodes in node_sets:
            local = sum(node_bw / residents[node] for node in nodes)
            spans_link = (
                len({n // machine.nodes_per_socket for n in nodes}) > 1
            )
            if spans_link:
                local /= machine.inter_socket_penalty
            if share is None or local < share:
                share = local
    return replace(
        machine,
        name=(
            f"{machine.name} [{threads_per_replica}c replica, "
            f"1 of {replicas}]"
        ),
        cores=threads_per_replica,
        dram_bandwidth_bytes_per_cycle=min(per_core, share),
        socket_dram_bandwidth_bytes_per_cycle=share,
        sockets=1,
        numa_nodes=1,
        inter_socket_penalty=1.0,
    )


# ---------------------------------------------------------------------------
# Threaded GEMM breakdown
# ---------------------------------------------------------------------------


@dataclass
class ParallelBreakdown:
    """Modelled multi-threaded GEMM time.

    The cycle components are those of the *critical* thread (the one
    whose busy time sets the wall clock); ``thread_busy_cycles`` keeps
    the full per-thread distribution for imbalance analysis.
    ``reduction_cycles`` is the partial-C combine a pc split pays — 0.0
    whenever ``pc_ways == 1``, keeping the plane-only totals identical
    to the pre-reduction-partition model.
    """

    threads: int
    jc_ways: int
    ic_ways: int
    compute_cycles: float
    pack_cycles: float
    c_stall_cycles: float
    dram_limit_cycles: float
    flops: int
    machine: MachineModel
    thread_busy_cycles: Tuple[float, ...] = ()
    pc_ways: int = 1
    reduction_cycles: float = 0.0

    @property
    def partition_label(self) -> str:
        label = f"{self.jc_ways}x{self.ic_ways}"
        if self.pc_ways > 1:
            label += f"x{self.pc_ways}pc"
        return label

    @property
    def total_cycles(self) -> float:
        busy = (
            self.compute_cycles
            + self.pack_cycles
            + self.c_stall_cycles
            + self.reduction_cycles
        )
        return max(busy, self.dram_limit_cycles)

    @property
    def gflops(self) -> float:
        return self.flops / self.total_cycles * self.machine.freq_ghz

    @property
    def seconds(self) -> float:
        return self.total_cycles / (self.machine.freq_ghz * 1e9)


def parallel_gemm_breakdown(
    shape: GemmShape,
    tiles: TileParams,
    threads: int,
    *,
    machine: MachineModel,
    plan_builder: PlanBuilder,
    prefetch_c: bool = False,
    model: Optional[TimingModel] = None,
    partition: Optional[ThreadPartition] = None,
    dtype_bytes: int = 4,
    pc_ways: Optional[int] = None,
    search: Optional[str] = None,
) -> ParallelBreakdown:
    """Model a GEMM across ``threads`` cores.

    ``plan_builder(m_t, n_t)`` supplies the chunk plans covering one
    thread's sub-plane, so each slice gets its own edge/tail kernel
    selection (a VLA tail re-selects against the slice's ragged extents,
    not the global ones).  Cost attribution:

    * **compute** — each thread runs its own plans over its own k
      range; the wall clock is the busiest thread.
    * **A packing** — private per thread: its row block over its k
      slice, repacked once per jc iteration of its own column group.
    * **B packing** — the panel is *shared* within a column group:
      charged once per group (every row-parallel thread waits on the
      full slice pack), never divided by ``ic_ways``.  Without a shared
      L3 the panel cannot be shared at all, so a forced ic split
      replicates its DRAM read per row-parallel thread.  A pc way packs
      only its own k slice of the panel.
    * **partial-C reduction** — a ``pc_ways > 1`` split makes each way
      accumulate into a private C copy; combining costs one extra C
      read + write + add per element per *extra* way, charged to every
      thread of the cell (the combine is a barrier) and added to the
      DRAM traffic.
    * **DRAM ceiling** — total traffic over the achievable stream
      bandwidth, which grows with active threads up to the socket
      limit — and past it onto the second socket's controllers on a
      multi-socket machine
      (:meth:`repro.isa.machine.MachineModel.stream_bandwidth`).  An
      ensemble spanning S sockets replicates the B panel per socket L3
      and pays ``inter_socket_penalty`` on the replicated stream.

    When no ``partition`` is pinned, every candidate jc x ic x pc grid
    (:func:`_candidate_partitions`) is ranked by its exact modelled
    wall clock and the best one executes — the partition choice sees
    packing replication, reduction, and edge-kernel costs, not just
    tile counts.  Ties prefer fewer pc ways, so a reduction split is
    chosen only when it strictly beats every plane-only grid;
    ``pc_ways=1`` pins the plane-only search (the pre-NUMA model,
    cycle-for-cycle).

    ``search`` selects the grid-search engine: ``"vectorized"`` scores
    every candidate grid in one :func:`repro.sim.vectorized.batch_gemm_cycles`
    call, ``"scalar"`` runs the original per-partition Python loop (the
    golden oracle), ``None`` takes :data:`DEFAULT_SEARCH`.  The two are
    bit-exact — same totals, same tie-breaks, same winner — so the
    returned breakdown is identical either way.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # profile hook: one global check when observability is off
    prof = obs_profile.ACTIVE
    started = prof.start() if prof is not None else None
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

    if search not in (None, "scalar", "vectorized"):
        raise ValueError(
            f"search must be 'scalar', 'vectorized', or None, got {search!r}"
        )
    engine = search or DEFAULT_SEARCH
    if partition is None:
        if engine == "vectorized" and threads > 1:
            partition = _best_partition_vectorized(
                m, n, k, threads, machine, tiles,
                plans_for=plans_for, model=model,
                dtype_bytes=dtype_bytes, prefetch_c=prefetch_c,
                pin_pc=pc_ways,
            )
        else:
            partition = min(
                _candidate_partitions(
                    m, n, k, threads, machine,
                    tiles.mr, tiles.nr, tiles.kc,
                    pin_pc=pc_ways,
                ),
                key=lambda p: (
                    wall_clock(p), p.pc_ways, -p.jc_ways, p.ic_ways
                ),
            )
    elif pc_ways is not None and partition.pc_ways != pc_ways:
        raise ValueError(
            f"pinned partition has pc_ways={partition.pc_ways}, "
            f"but pc_ways={pc_ways} was requested"
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
    breakdown = ParallelBreakdown(
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
    if prof is not None:
        prof.record(
            "parallel",
            shape.m,
            shape.n,
            shape.k,
            threads=threads,
            partition=breakdown.partition_label,
            pc_ways=breakdown.pc_ways,
            breakdown=breakdown,
            started=started,
        )
    return breakdown


def scaling_curve(
    shape: GemmShape,
    tiles: TileParams,
    *,
    machine: MachineModel,
    plan_builder: PlanBuilder,
    max_threads: Optional[int] = None,
    prefetch_c: bool = False,
    model: Optional[TimingModel] = None,
    dtype_bytes: int = 4,
) -> List[ParallelBreakdown]:
    """Breakdowns for 1..max_threads cores (default: the machine's).

    ``dtype_bytes`` is forwarded to every breakdown, so fp16/int8
    curves price their own DRAM traffic rather than fp32's.
    """
    limit = max_threads if max_threads is not None else machine.cores
    model = model or TimingModel(machine=machine)
    return [
        parallel_gemm_breakdown(
            shape, tiles, t,
            machine=machine, plan_builder=plan_builder,
            prefetch_c=prefetch_c, model=model,
            dtype_bytes=dtype_bytes,
        )
        for t in range(1, limit + 1)
    ]
