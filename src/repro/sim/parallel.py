"""Multi-threaded GEMM execution model (the paper's future-work direction).

The paper evaluates a single Carmel core; the Jetson AGX Xavier has
eight.  BLIS parallelizes the jc loop (columns of B/C) and the ic loop
(rows of A/C) across cores.  This module makes that a first-class model:

* :func:`candidate_grids` enumerates the ``jc_ways x ic_ways x
  pc_ways`` grids a GEMM may split into, and :func:`partition_extent`
  cuts one dimension into contiguous, tile-aligned spans —
  residue-aware, so uneven extents spread by at most one tile
  column/row (or one ``kc`` chunk along k) and the ragged remainder
  rides in the last span;
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

This module owns the partition geometry; the threaded cost terms
themselves live in one place, the batch engine of
:mod:`repro.sim.vectorized`.  :func:`price_grid_requests` ranks many
GEMMs' candidate grids in batches of at most
:data:`GRID_BATCH_SLICES` thread slices (the tuner, for every
candidate one-thread ones included, the serving prewarm and the
threaded eval sweeps price through it), and
:func:`parallel_gemm_breakdown` is its one-request case.  The scalar
implementation of the same terms is the test oracle
(``tests/parallel_oracle.py``).  A one-thread GEMM reproduces
:func:`repro.sim.timing.gemm_time_model` exactly on every shape — the
engine mirrors its compute formula
(:func:`repro.sim.timing.plans_compute_cycles`) and analytical memory
model operand for operand, and a slice that is the whole GEMM keeps the
unscaled whole-GEMM terms — and the plane-only (``pc = 1``) grids on a
1-socket machine reproduce the pre-NUMA threaded model cycle-for-cycle
(pinned by ``tests/test_parallel.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.isa.machine import MachineModel
from repro.obs import profile as obs_profile

from .memory import GemmShape, TileParams
from .timing import ChunkPlan, TimingModel

#: builds the chunk plans covering one (m, n) sub-plane — the hook
#: through which per-thread edge/tail kernel selection happens
PlanBuilder = Callable[[int, int], List[ChunkPlan]]


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

    The single enumeration behind :func:`parallel_gemm_breakdown`'s
    partition search.  A prime thread
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
    simply omit them and get pc=1 grids.
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


class GridRequest(NamedTuple):
    """One threaded GEMM for :func:`price_grid_requests` to rank.

    Its machine, shape and (clamped) tiles, the requested thread count,
    and the candidate ``(jc, ic, pc)`` grids its winner is chosen from.
    """

    machine: MachineModel
    shape: GemmShape
    tiles: TileParams
    threads: int
    grids: Sequence[Tuple[int, int, int]]


#: (request index, plane m, plane n) -> the plan costs covering that
#: plane — a :class:`repro.sim.vectorized.PlanCost` tuple
RequestPlanSource = Callable[[int, int, int], tuple]


#: nominal thread slices (jc x ic x pc summed over a request's candidate
#: grids) per grid batch: :func:`price_grid_requests` splits larger
#: request lists into consecutive sub-batches of at most this many, which
#: bounds the engine's transient per-slice arrays however many GEMMs a
#: caller prices at once
GRID_BATCH_SLICES = 2048


def grid_sub_batches(requests: Sequence[GridRequest]) -> List[range]:
    """Consecutive request ranges of at most :data:`GRID_BATCH_SLICES`.

    A request's weight is its nominal slice count, ``jc * ic * pc``
    summed over its grids.  A request heavier than the budget forms its
    own sub-batch.
    """
    budget = GRID_BATCH_SLICES
    batches: List[range] = []
    start, load = 0, 0
    for i, req in enumerate(requests):
        weight = sum(jc * ic * pc for jc, ic, pc in req.grids)
        if i > start and load + weight > budget:
            batches.append(range(start, i))
            start, load = i, 0
        load += weight
    if start < len(requests):
        batches.append(range(start, len(requests)))
    return batches


def price_grid_requests(
    requests: Sequence[GridRequest],
    plan_source: RequestPlanSource,
    *,
    prefetch_c: bool = False,
    dtype_bytes: int = 4,
    profile: bool = True,
) -> List[ParallelBreakdown]:
    """Price many threaded GEMMs in a few engine batches.

    The requests split into consecutive sub-batches of at most
    :data:`GRID_BATCH_SLICES` nominal thread slices
    (:func:`grid_sub_batches`).  Within one, every request's candidate
    grids become consecutive rows of a single
    :func:`repro.sim.vectorized.batch_gemm_cycles` call, and each
    request's winner is chosen over its own row segment by
    :func:`repro.sim.vectorized.best_grid_indices`.  The engine prices
    rows independently, so every breakdown is bit-identical to pricing
    its request alone.  ``plan_source(r, m_t, n_t)`` supplies the plan
    costs of one thread-slice plane of request ``r`` (an index into
    ``requests``).  The engine calls it once per distinct (machine, mr,
    nr, m_t, n_t) of a sub-batch, so on one machine object the costs
    must depend on (mr, nr, m_t, n_t) alone.  ``profile`` lets each
    sub-batch emit its one obs record: ``batch.serial`` when every grid
    of the sub-batch is ``(1, 1, 1)``, ``batch.grid`` otherwise.
    Returns one breakdown per request, in request order.
    """
    breakdowns: List[ParallelBreakdown] = []
    for part in grid_sub_batches(requests):
        breakdowns += _price_grid_batch(
            requests[part.start : part.stop],
            lambda r, m_t, n_t: plan_source(part.start + r, m_t, n_t),
            prefetch_c=prefetch_c,
            dtype_bytes=dtype_bytes,
            profile=profile,
        )
    return breakdowns


def _price_grid_batch(
    requests: Sequence[GridRequest],
    plan_source: RequestPlanSource,
    *,
    prefetch_c: bool,
    dtype_bytes: int,
    profile: bool,
) -> List[ParallelBreakdown]:
    """One engine batch over every request's grids."""
    # imported here: repro.sim.vectorized imports this module
    from . import vectorized as _vec

    machines: Dict[int, MachineModel] = {}
    for req in requests:
        machines.setdefault(id(req.machine), req.machine)
    machine_idx = {key: i for i, key in enumerate(machines)}
    counts = [len(req.grids) for req in requests]

    def per_request(field: Callable[[GridRequest], int]) -> np.ndarray:
        return np.repeat(
            np.asarray([field(req) for req in requests], dtype=np.int64),
            counts,
        )

    grids = np.asarray(
        [grid for req in requests for grid in req.grids], dtype=np.int64
    ).reshape(-1, 3)
    row_request = np.repeat(np.arange(len(requests)), counts)
    scored = _vec.batch_gemm_cycles(
        _vec.CandidateBatch(
            machines=tuple(machines.values()),
            m=per_request(lambda req: req.shape.m),
            n=per_request(lambda req: req.shape.n),
            k=per_request(lambda req: req.shape.k),
            mr=per_request(lambda req: req.tiles.mr),
            nr=per_request(lambda req: req.tiles.nr),
            kc=per_request(lambda req: req.tiles.kc),
            nc=per_request(lambda req: req.tiles.nc),
            jc=grids[:, 0],
            ic=grids[:, 1],
            pc=grids[:, 2],
            machine_idx=per_request(lambda req: machine_idx[id(req.machine)]),
            dtype_bytes=dtype_bytes,
            plan_source=lambda row, m_t, n_t: plan_source(
                int(row_request[row]), m_t, n_t
            ),
            prefetch_c=prefetch_c,
        ),
        profile=profile,
    )
    offsets = np.concatenate(([0], np.cumsum(counts)))
    breakdowns = []
    for req, row in zip(requests, _vec.best_grid_indices(scored, offsets)):
        first, stop = scored.slice_offsets[row], scored.slice_offsets[row + 1]
        breakdowns.append(
            ParallelBreakdown(
                threads=req.threads,
                jc_ways=int(scored.eff_jc[row]),
                ic_ways=int(scored.eff_ic[row]),
                pc_ways=int(scored.eff_pc[row]),
                compute_cycles=float(scored.compute_cycles[row]),
                pack_cycles=float(scored.pack_cycles[row]),
                c_stall_cycles=float(scored.c_stall_cycles[row]),
                reduction_cycles=float(scored.reduction_cycles[row]),
                dram_limit_cycles=float(scored.dram_limit_cycles[row]),
                flops=req.shape.flops,
                machine=req.machine,
                thread_busy_cycles=tuple(
                    scored.slice_busy_cycles[first:stop].tolist()
                ),
            )
        )
    return breakdowns


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

    Every call is the one-request case of :func:`price_grid_requests`:
    one :func:`repro.sim.vectorized.batch_gemm_cycles` batch, which
    holds the cost terms above, over every candidate jc x ic x pc grid
    (:func:`candidate_grids`), ranked by its exact modelled wall clock;
    the best one executes — the partition choice sees packing
    replication, reduction, and edge-kernel costs, not just tile
    counts.  Ties prefer fewer pc ways, so a reduction split is chosen
    only when it strictly beats every plane-only grid.  To price chosen
    grids instead, pass :func:`price_grid_requests` a
    :class:`GridRequest` that lists them.  The scalar model these
    prices must match bit for bit lives in ``tests/parallel_oracle.py``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # profile hook: one global check when observability is off
    prof = obs_profile.ACTIVE
    started = prof.start() if prof is not None else None
    # imported here: repro.sim.vectorized imports this module
    from . import vectorized as _vec

    model = model or TimingModel(machine=machine)
    grids = candidate_grids(
        threads, shape.m, shape.n, machine, tiles.mr, tiles.nr,
        k=shape.k, kc=tiles.kc,
    )

    # the plans depend only on the (m, n) sub-plane, so the pc axis and
    # repeated slice shapes never re-run edge/tail kernel selection
    costs_by_plane: dict = {}

    def source(_request: int, m_t: int, n_t: int):
        key = (m_t, n_t)
        if key not in costs_by_plane:
            costs_by_plane[key] = _vec.plan_costs(
                plan_builder(m_t, n_t), model
            )
        return costs_by_plane[key]

    (breakdown,) = price_grid_requests(
        [GridRequest(machine, shape, tiles, threads, grids)],
        source,
        prefetch_c=prefetch_c,
        dtype_bytes=dtype_bytes,
        profile=False,
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
