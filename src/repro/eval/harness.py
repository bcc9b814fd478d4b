"""Experiment harness: regenerate every evaluation figure of the paper.

Four GEMM configurations are compared throughout Section IV:

* ``ALG+NEON``  — our five-loop algorithm + the hand-written intrinsics
  8x12 kernel (no prefetch, edge cases masked);
* ``ALG+BLIS``  — same algorithm + the BLIS assembly 8x12 kernel;
* ``BLIS``      — the BLIS library: assembly kernel *with* in-kernel C
  prefetch;
* ``ALG+EXO``   — same algorithm + the generated kernel family, with
  per-chunk kernel selection for edges and model-driven choice of the main
  tile.

Each ``fig*_data`` function returns plain dict/str/float rows so benchmarks
and reports can render them without touching simulator internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.blis_asm import blis_kernel_model
from repro.baselines.neon_handwritten import neon_kernel_model
from repro.blis.params import analytical_tile_params, clamp_tiles
from repro.isa.machine import CARMEL, MachineModel
from repro.isa.targets import IsaTarget, target_for_machine
from repro.obs import profile as obs_profile
from repro.sim.memory import GemmShape, TileParams
from repro.sim.parallel import (
    GridRequest,
    ParallelBreakdown,
    candidate_grids,
    parallel_gemm_breakdown,
    price_grid_requests,
)
from repro.sim.pipeline import KernelTrace, trace_from_kernel
from repro.sim.timing import (
    ChunkPlan,
    TimingModel,
    gemm_time_model,
    gemm_time_models,
    solo_kernel_gflops,
)
from repro.ukernel.edge import monolithic_cover, tile_cover
from repro.workloads.resnet50 import RESNET50_LAYERS, resnet50_instances
from repro.workloads.square import SQUARE_SIZES
from repro.workloads.vgg16 import VGG16_LAYERS, vgg16_instances

#: solo-mode shapes of Figure 13, in the paper's plotting order
FIG13_SHAPES: Tuple[Tuple[int, int], ...] = (
    (8, 12),
    (4, 4),
    (4, 8),
    (4, 12),
    (8, 4),
    (8, 8),
)

#: per-invocation call overhead of a specialized (single-case) kernel
EXO_CALL_OVERHEAD = 10.0


@dataclass
class EvalContext:
    """Shared state: machine, its ISA target, memoized timing model.

    The kernels come from the machine's ISA target (Neon on Carmel, the
    RVV library on an RVV core, ...), so a context is fully retargeted
    by naming a machine.
    """

    machine: MachineModel = CARMEL
    model: TimingModel = None

    def __post_init__(self):
        self.target: IsaTarget = target_for_machine(self.machine)
        if self.model is None:
            self.model = TimingModel(machine=self.machine)
        self._neon_trace: Optional[KernelTrace] = None
        self._blis_trace: Optional[KernelTrace] = None

    @property
    def main_tile(self) -> Tuple[int, int]:
        return self.target.main_tile

    # -- kernel traces -----------------------------------------------------

    def _require_neon(self, what: str) -> None:
        if self.machine.isa != "neon":
            raise ValueError(
                f"{what} is a hand-written ARM baseline; machine "
                f"{self.machine.name!r} runs ISA {self.machine.isa!r}"
            )

    def neon_trace(self) -> KernelTrace:
        self._require_neon("the NEON intrinsics kernel")
        if self._neon_trace is None:
            self._neon_trace = neon_kernel_model(
                8, 12, kernel=self.target.get(8, 12)
            )
        return self._neon_trace

    def blis_trace(self) -> KernelTrace:
        self._require_neon("the BLIS assembly kernel")
        if self._blis_trace is None:
            self._blis_trace = blis_kernel_model(
                8, 12, kernel=self.target.get(8, 12)
            )
        return self._blis_trace

    def exo_trace(self, mr: int, nr: int) -> KernelTrace:
        return trace_from_kernel(self.target.get(mr, nr))


_default_context: Optional[EvalContext] = None
_machine_contexts: Dict[str, EvalContext] = {}


def default_context() -> EvalContext:
    global _default_context
    if _default_context is None:
        _default_context = EvalContext()
    return _default_context


def machine_context(machine: MachineModel) -> EvalContext:
    """Memoized per-machine context (kernels and timings are shared)."""
    if machine is CARMEL:
        return default_context()
    key = machine.name
    if key not in _machine_contexts:
        _machine_contexts[key] = EvalContext(machine=machine)
    return _machine_contexts[key]


# ---------------------------------------------------------------------------
# Figure 13 — solo mode
# ---------------------------------------------------------------------------


def fig13_solo_data(
    kc: int = 512, ctx: Optional[EvalContext] = None
) -> List[dict]:
    """GFLOPS of NEON / BLIS / EXO per micro-kernel shape (Figure 13).

    NEON and BLIS always run their monolithic 8x12 kernel; on edge shapes
    only the (mr x nr) sub-tile counts as useful work.  EXO runs the exact
    generated kernel for each shape.
    """
    ctx = ctx or default_context()
    rows = []
    for mr, nr in FIG13_SHAPES:
        neon = solo_kernel_gflops(
            ctx.neon_trace(), 8, 12, kc=kc, useful_mr=mr, useful_nr=nr,
            machine=ctx.machine, model=ctx.model,
        )
        blis = solo_kernel_gflops(
            ctx.blis_trace(), 8, 12, kc=kc, useful_mr=mr, useful_nr=nr,
            machine=ctx.machine, model=ctx.model,
        )
        exo = solo_kernel_gflops(
            ctx.exo_trace(mr, nr), mr, nr, kc=kc,
            call_overhead=EXO_CALL_OVERHEAD,
            machine=ctx.machine, model=ctx.model,
        )
        rows.append(
            {"shape": f"{mr}x{nr}", "NEON": neon, "BLIS": blis, "EXO": exo}
        )
    return rows


# ---------------------------------------------------------------------------
# GEMM breakdowns per configuration
# ---------------------------------------------------------------------------


def _baseline_gemm(ctx: EvalContext, m: int, n: int, k: int, trace):
    tiles = clamp_tiles(analytical_tile_params(8, 12, ctx.machine), m, n, k)
    plan = ChunkPlan(
        trace=trace, mr=8, nr=12, count=monolithic_cover(m, n, 8, 12)
    )
    return GemmShape(m, n, k), [plan], tiles


def baseline_gemm_breakdown(
    m: int,
    n: int,
    k: int,
    trace: KernelTrace,
    prefetch_c: bool = False,
    ctx: Optional[EvalContext] = None,
) -> ParallelBreakdown:
    """Five-loop GEMM with one monolithic 8x12 kernel (NEON/BLIS models)."""
    ctx = ctx or default_context()
    return gemm_time_model(
        *_baseline_gemm(ctx, m, n, k, trace), prefetch_c=prefetch_c,
        machine=ctx.machine, model=ctx.model,
    )


def baseline_gemm_breakdowns(
    shapes: Sequence[Tuple[int, int, int]],
    trace: KernelTrace,
    prefetch_c: bool = False,
    ctx: Optional[EvalContext] = None,
) -> List[ParallelBreakdown]:
    """:func:`baseline_gemm_breakdown` of many ``(m, n, k)`` shapes, in
    one :func:`repro.sim.timing.gemm_time_models` call."""
    ctx = ctx or default_context()
    return gemm_time_models(
        [_baseline_gemm(ctx, m, n, k, trace) for m, n, k in shapes],
        prefetch_c=prefetch_c, machine=ctx.machine, model=ctx.model,
    )


def plane_chunk_plans(
    ctx: EvalContext, m: int, n: int, mr_main: int, nr_main: int
) -> List[ChunkPlan]:
    """Chunk plans covering an (m, n) plane with the family at ``main``.

    The machine's target picks the shapes that cover the plane
    (:meth:`repro.isa.targets.IsaTarget.cover_family`) and runs each
    tile as its parts (:meth:`~repro.isa.targets.IsaTarget.tile_parts`):
    packed SIMD takes the main tile plus smaller family members over
    the ragged edges, a VLA target (RVV) the main tile plus exact
    remainders whose ragged heights run as a full-width part and a
    reduced-``vsetvl`` tail.  No masked work.

    This is the edge/tail selection for one plane — the serial model
    runs it once on the whole (m, n), the threaded model once per thread
    slice, so tails re-select against each slice's ragged extents.
    """
    t = ctx.target
    cover = tile_cover(m, n, t.cover_family(m, n, mr_main, nr_main))
    return [
        ChunkPlan(
            trace=trace_from_kernel(kernel),
            mr=kernel.mr,
            nr=w,
            count=count,
            call_overhead=EXO_CALL_OVERHEAD,
        )
        for (h, w), count in sorted(cover.items())
        for _, kernel in t.tile_parts(h, w)
    ]


def exo_tiles(
    ctx: EvalContext, m: int, n: int, k: int, main: Optional[Tuple[int, int]]
) -> TileParams:
    """The analytical tiles of the family anchored at ``main`` (the
    context's ISA main tile when ``None``), clamped to the GEMM."""
    mr, nr = main if main is not None else ctx.main_tile
    return clamp_tiles(analytical_tile_params(mr, nr, ctx.machine), m, n, k)


def _exo_gemm(ctx: EvalContext, m: int, n: int, k: int, main):
    tiles = exo_tiles(ctx, m, n, k, main)
    plans = plane_chunk_plans(ctx, m, n, tiles.mr, tiles.nr)
    return GemmShape(m, n, k), plans, tiles


def exo_gemm_breakdown(
    m: int,
    n: int,
    k: int,
    main: Optional[Tuple[int, int]] = None,
    ctx: Optional[EvalContext] = None,
) -> ParallelBreakdown:
    """Five-loop GEMM with the generated family anchored at ``main``.

    The (m, n) plane decomposes through :func:`plane_chunk_plans`;
    ``main`` defaults to the context's ISA main tile (8x12 on Neon).
    """
    ctx = ctx or default_context()
    return gemm_time_model(
        *_exo_gemm(ctx, m, n, k, main), machine=ctx.machine, model=ctx.model
    )


def exo_gemm_breakdowns(
    cells: Sequence[Tuple[int, int, int, Tuple[int, int]]],
    ctx: Optional[EvalContext] = None,
) -> List[ParallelBreakdown]:
    """:func:`exo_gemm_breakdown` of many ``(m, n, k, main)`` cells on
    one context, in one :func:`repro.sim.timing.gemm_time_models`
    call."""
    ctx = ctx or default_context()
    return gemm_time_models(
        [_exo_gemm(ctx, *cell) for cell in cells],
        machine=ctx.machine, model=ctx.model,
    )


def exo_parallel_breakdown(
    m: int,
    n: int,
    k: int,
    threads: int,
    ctx: EvalContext,
    main: Optional[Tuple[int, int]] = None,
) -> ParallelBreakdown:
    """Threaded five-loop GEMM with per-slice edge/tail kernel selection.

    The jc/ic/pc partitioner splits the traversal at the main tile's
    granularity; each thread slice then covers its own sub-plane through
    :func:`plane_chunk_plans`, so a slice that inherits the ragged tail
    composes VLA ``vsetvl`` tails (or the family's edge kernels) with
    the partition's uneven extents.  ``ctx`` is required: the threaded
    model never defaults a machine.  The pricing is one
    :func:`repro.sim.vectorized.batch_gemm_cycles` batch over every
    candidate grid; the scalar oracle it must match is
    ``tests/parallel_oracle.py``.

    With ``threads=1`` this equals :func:`exo_gemm_breakdown` exactly,
    on every shape.
    """
    tiles = exo_tiles(ctx, m, n, k, main)
    return parallel_gemm_breakdown(
        GemmShape(m, n, k), tiles, threads,
        machine=ctx.machine,
        plan_builder=lambda mt, nt: plane_chunk_plans(
            ctx, mt, nt, tiles.mr, tiles.nr
        ),
        model=ctx.model,
    )


#: one threaded GEMM for :func:`exo_parallel_breakdowns`:
#: ``(ctx, m, n, k, threads, main)``, ``main=None`` for the ISA default
ParallelCell = Tuple[
    EvalContext, int, int, int, int, Optional[Tuple[int, int]]
]


def exo_parallel_breakdowns(
    cells: Sequence[ParallelCell],
) -> List[ParallelBreakdown]:
    """Price many :func:`exo_parallel_breakdown` cells in few batches.

    Every cell's candidate jc x ic x pc grids go through one
    :func:`repro.sim.parallel.price_grid_requests` call, which splits
    them into grid batches under its thread-slice budget, with one
    ``(mr, nr, m_t, n_t)`` plane-cost memo per context shared by all
    cells.  The engine prices rows independently, so each breakdown is
    bit-identical to ``exo_parallel_breakdown(m, n, k, threads, ctx=ctx,
    main=main)``.  With a profiler active, each cell still records one
    ``parallel`` entry (its ``eval_us`` reads 0: the wall time sits on
    the sub-batch's ``batch.grid`` record).  Returns the breakdowns in
    cell order.
    """
    from repro.sim import vectorized as vec

    requests = []
    for ctx, m, n, k, threads, main in cells:
        machine = ctx.machine
        tiles = exo_tiles(ctx, m, n, k, main)
        grids = candidate_grids(
            threads, m, n, machine, tiles.mr, tiles.nr, k=k, kc=tiles.kc
        )
        requests.append(
            GridRequest(machine, GemmShape(m, n, k), tiles, threads, grids)
        )

    plan_memo: Dict[tuple, tuple] = {}

    def source(cell: int, m_t: int, n_t: int):
        ctx = cells[cell][0]
        mr, nr = requests[cell].tiles.mr, requests[cell].tiles.nr
        key = (id(ctx), mr, nr, m_t, n_t)
        if key not in plan_memo:
            plan_memo[key] = vec.plan_costs(
                plane_chunk_plans(ctx, m_t, n_t, mr, nr), ctx.model
            )
        return plan_memo[key]

    breakdowns = price_grid_requests(requests, source)
    prof = obs_profile.ACTIVE
    if prof is not None:
        for (_, m, n, k, threads, _), b in zip(cells, breakdowns):
            prof.record(
                "parallel", m, n, k, threads=threads,
                partition=b.partition_label, pc_ways=b.pc_ways, breakdown=b,
            )
    return breakdowns


#: the main tiles ALG+EXO chooses from (the paper's Section IV-B move)
EXO_CANDIDATES: Tuple[Tuple[int, int], ...] = ((8, 12), (8, 8), (8, 4))


def best_exo_breakdown(
    m: int,
    n: int,
    k: int,
    candidates: Tuple[Tuple[int, int], ...] = EXO_CANDIDATES,
    ctx: Optional[EvalContext] = None,
) -> Tuple[Tuple[int, int], ParallelBreakdown]:
    """Model-driven main-kernel selection (the paper's Section IV-B move)."""
    return best_exo_breakdowns([(m, n, k)], candidates, ctx=ctx)[0]


def best_exo_breakdowns(
    shapes: Sequence[Tuple[int, int, int]],
    candidates: Tuple[Tuple[int, int], ...] = EXO_CANDIDATES,
    ctx: Optional[EvalContext] = None,
) -> List[Tuple[Tuple[int, int], ParallelBreakdown]]:
    """:func:`best_exo_breakdown` of many ``(m, n, k)`` shapes.

    Every candidate that fits a shape (8x4 when none does) is priced in
    one :func:`exo_gemm_breakdowns` call; per shape the first candidate
    with the least total cycles wins.
    """
    mains = [
        [c for c in candidates if c[0] <= m and c[1] <= n] or [(8, 4)]
        for m, n, _ in shapes
    ]
    cells = [(*s, c) for s, fits in zip(shapes, mains) for c in fits]
    priced = iter(exo_gemm_breakdowns(cells, ctx=ctx))
    return [
        min(((c, next(priced)) for c in fits), key=lambda o: o[1].total_cycles)
        for fits in mains
    ]


def tuned_layer_breakdown(ctx: EvalContext, m: int, n: int, k: int):
    """Per-layer kernel dispatch through the tune subsystem's ranking.

    The single dispatch path shared by ``eval --use-tuned`` and the
    serving executor (:mod:`repro.serve.executor`): the winner comes
    from ``select_kernel_for``, which ranks the same candidate
    enumeration as ``repro.tune`` and — when a tune cache is active —
    reads the cached winners instead of re-running the timing model.
    Returns ``(main_tile, breakdown)``; the breakdown is a cached
    :class:`repro.tune.TunedBreakdown` on a hit, the modelled
    :class:`repro.sim.parallel.ParallelBreakdown` otherwise, with
    identical timing surfaces.
    """
    from repro.ukernel.registry import select_kernel_for

    return select_kernel_for(m, n, k, machine=ctx.machine)


def all_config_breakdowns(
    m: int, n: int, k: int, ctx: Optional[EvalContext] = None
) -> Dict[str, ParallelBreakdown]:
    """The four Section-IV configurations for one GEMM shape."""
    return _config_breakdowns([(m, n, k)], ctx or default_context())[0][0]


def _config_breakdowns(
    shapes: Sequence[Tuple[int, int, int]], ctx: EvalContext
) -> List[Tuple[Dict[str, ParallelBreakdown], Tuple[int, int]]]:
    """Each shape's four configurations and its ALG+EXO main tile.

    One batched pricing call per configuration: the engine asks for a
    plane's plans once per (machine, mr, nr, m, n), which ALG+NEON,
    ALG+BLIS and an 8x12 ALG+EXO cell share without sharing traces, and
    BLIS alone prefetches C.
    """
    neon = baseline_gemm_breakdowns(shapes, ctx.neon_trace(), ctx=ctx)
    alg_blis = baseline_gemm_breakdowns(shapes, ctx.blis_trace(), ctx=ctx)
    blis = baseline_gemm_breakdowns(
        shapes, ctx.blis_trace(), prefetch_c=True, ctx=ctx
    )
    exo = best_exo_breakdowns(shapes, ctx=ctx)
    return [
        (
            {"ALG+NEON": a, "ALG+BLIS": b, "BLIS": c, "ALG+EXO": e},
            main,
        )
        for a, b, c, (main, e) in zip(neon, alg_blis, blis, exo)
    ]


# ---------------------------------------------------------------------------
# Figure 14 — square sweep
# ---------------------------------------------------------------------------


def fig14_square_data(
    sizes: Tuple[int, ...] = SQUARE_SIZES, ctx: Optional[EvalContext] = None
) -> List[dict]:
    """GFLOPS of the four configurations on square GEMMs (Figure 14)."""
    ctx = ctx or default_context()
    rows = []
    priced = _config_breakdowns([(s, s, s) for s in sizes], ctx)
    for s, (configs, main) in zip(sizes, priced):
        row = {"size": s}
        row.update({name: b.gflops for name, b in configs.items()})
        row["exo_kernel"] = f"{main[0]}x{main[1]}"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figures 15-18 — DNN layers
# ---------------------------------------------------------------------------


def _layer_rows(
    layers, ctx: EvalContext, use_tuned: bool = False
) -> List[dict]:
    rows = []
    priced = _config_breakdowns(
        [(layer.m, layer.n, layer.k) for layer in layers], ctx
    )
    for layer, (configs, _) in zip(layers, priced):
        row = {
            "layer": layer.layer_id,
            "m": layer.m,
            "n": layer.n,
            "k": layer.k,
        }
        row.update({name: b.gflops for name, b in configs.items()})
        if use_tuned:
            tile, b = tuned_layer_breakdown(
                ctx, layer.m, layer.n, layer.k
            )
            row["ALG+EXO"] = b.gflops
            row["exo_kernel"] = f"{tile[0]}x{tile[1]}"
        rows.append(row)
    return rows


def _instance_time_rows(
    instances, ctx: EvalContext, use_tuned: bool = False
) -> List[dict]:
    """Cumulative per-configuration time over layer instances (Figs 16/18)."""
    instances = list(instances)
    layers: Dict[int, object] = {}
    for _, layer in instances:
        layers.setdefault(layer.layer_id, layer)
    priced = _config_breakdowns(
        [(layer.m, layer.n, layer.k) for layer in layers.values()], ctx
    )
    by_layer: Dict[int, Dict[str, float]] = {}
    for (layer_id, layer), (configs, _) in zip(layers.items(), priced):
        seconds = {name: b.seconds for name, b in configs.items()}
        if use_tuned:
            _, b = tuned_layer_breakdown(ctx, layer.m, layer.n, layer.k)
            seconds["ALG+EXO"] = b.seconds
        by_layer[layer_id] = seconds
    totals = {"ALG+NEON": 0.0, "ALG+BLIS": 0.0, "BLIS": 0.0, "ALG+EXO": 0.0}
    rows = []
    for number, layer in instances:
        for name, seconds in by_layer[layer.layer_id].items():
            totals[name] += seconds
        rows.append({"layer_number": number, **dict(totals)})
    return rows


def fig15_resnet_layer_data(
    ctx: Optional[EvalContext] = None, use_tuned: bool = False
) -> List[dict]:
    """Per-layer GFLOPS for ResNet50 v1.5 (Figure 15, Table I shapes)."""
    return _layer_rows(
        RESNET50_LAYERS, ctx or default_context(), use_tuned=use_tuned
    )


def fig16_resnet_time_data(
    ctx: Optional[EvalContext] = None, use_tuned: bool = False
) -> List[dict]:
    """Aggregated inference time across the 53 ResNet50 layers (Figure 16)."""
    return _instance_time_rows(
        resnet50_instances(), ctx or default_context(), use_tuned=use_tuned
    )


def fig17_vgg_layer_data(
    ctx: Optional[EvalContext] = None, use_tuned: bool = False
) -> List[dict]:
    """Per-layer GFLOPS for VGG16 (Figure 17, Table II shapes)."""
    return _layer_rows(
        VGG16_LAYERS, ctx or default_context(), use_tuned=use_tuned
    )


def fig18_vgg_time_data(
    ctx: Optional[EvalContext] = None, use_tuned: bool = False
) -> List[dict]:
    """Aggregated inference time across the 13 VGG16 layers (Figure 18)."""
    return _instance_time_rows(
        vgg16_instances(), ctx or default_context(), use_tuned=use_tuned
    )


# ---------------------------------------------------------------------------
# Cross-ISA portability (the Section III-C claim, extended to RVV)
# ---------------------------------------------------------------------------


def solo_sweep_data(
    ctx: EvalContext,
    shapes: Optional[Tuple[Tuple[int, int], ...]] = None,
    kc: int = 512,
) -> List[dict]:
    """Figure-13-style solo sweep of the generated family on any machine.

    Unlike :func:`fig13_solo_data` there are no hand-written baselines —
    only the generated kernels exist on a fresh ISA — so each row reports
    absolute GFLOPS plus the fraction of the machine's peak, which is the
    cross-ISA comparison metric.
    """
    shapes = shapes if shapes is not None else ctx.target.family
    peak = ctx.machine.peak_gflops()
    rows = []
    for mr, nr in shapes:
        gf = solo_kernel_gflops(
            ctx.exo_trace(mr, nr), mr, nr, kc=kc,
            call_overhead=EXO_CALL_OVERHEAD,
            machine=ctx.machine, model=ctx.model,
        )
        rows.append(
            {
                "shape": f"{mr}x{nr}",
                "GFLOPS": gf,
                "peak_frac": gf / peak,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Thread scaling (the future-work axis: multi-core BLIS parallelization)
# ---------------------------------------------------------------------------


def thread_counts_up_to(limit: int) -> Tuple[int, ...]:
    """The thread sweep for a ``--threads N`` request: powers of two up
    to ``N``, plus ``N`` itself when it is not one."""
    if limit < 1:
        raise ValueError(f"threads must be >= 1, got {limit}")
    counts = []
    t = 1
    while t <= limit:
        counts.append(t)
        t *= 2
    if counts[-1] != limit:
        counts.append(limit)
    return tuple(counts)


def thread_scaling_data(
    ctx: EvalContext,
    shape: Tuple[int, int, int] = (2000, 2000, 2000),
    max_threads: Optional[int] = None,
) -> List[dict]:
    """GFLOPS and partition choice per thread count on one machine.

    The modelled scaling figure: near-linear while compute-bound,
    saturating once the socket's DRAM stream dominates.  ``max_threads``
    defaults to the machine's core count.
    """
    m, n, k = shape
    limit = max_threads if max_threads is not None else ctx.machine.cores
    serial_cycles = None
    rows = []
    for t in thread_counts_up_to(limit):
        b = exo_parallel_breakdown(m, n, k, t, ctx=ctx)
        if serial_cycles is None:  # the sweep always starts at t=1
            serial_cycles = b.total_cycles
        rows.append(
            {
                "threads": t,
                "partition": b.partition_label,
                "GFLOPS": b.gflops,
                "speedup": serial_cycles / b.total_cycles,
                "peak_frac": b.gflops / (ctx.machine.peak_gflops() * t),
            }
        )
    return rows


def threaded_instance_time_data(
    instances,
    ctx: EvalContext,
    threads: Tuple[int, ...],
    use_tuned: bool = False,
) -> List[dict]:
    """Cumulative end-to-end workload time per thread count.

    The threaded variant of the Figure 16/18 sweeps: the generated
    family (ALG+EXO) runs every layer instance at each thread count;
    rows accumulate seconds per column ``t<threads>``.  With
    ``use_tuned`` the main tile of every layer comes from
    :func:`tuned_layer_breakdown` — the dispatch path shared with the
    serving executor, asked once per distinct layer — instead of the
    ISA default.  Every distinct (layer, thread count) cell is priced up
    front through :func:`exo_parallel_breakdowns`, bit-identical to one
    :func:`exo_parallel_breakdown` per cell.
    """
    instances = list(instances)
    layers: Dict[int, object] = {}
    for _, layer in instances:
        layers.setdefault(layer.layer_id, layer)
    cells: Dict[Tuple[int, int], ParallelCell] = {}
    for layer_id, layer in layers.items():
        # the tuned winner depends on the layer's shape alone, so it is
        # ranked once per layer, not once per thread count
        main = None
        if use_tuned:
            main, _ = tuned_layer_breakdown(ctx, layer.m, layer.n, layer.k)
        for t in threads:
            cells[(layer_id, t)] = (ctx, layer.m, layer.n, layer.k, t, main)
    breakdowns = exo_parallel_breakdowns(list(cells.values()))
    seconds = {key: b.seconds for key, b in zip(cells, breakdowns)}
    totals = {t: 0.0 for t in threads}
    rows = []
    for number, layer in instances:
        for t in threads:
            totals[t] += seconds[(layer.layer_id, t)]
        rows.append(
            {
                "layer_number": number,
                **{f"t{t}": totals[t] for t in threads},
            }
        )
    return rows


def portability_solo_data(
    isas: Tuple[str, ...] = ("neon", "rvv128", "rvv256"),
    kc: int = 512,
) -> List[dict]:
    """The RVV portability experiment: the main register tile of every
    listed ISA, run solo on its own machine, compared by fraction of peak.

    The paper's portability argument predicts the generated kernels land
    at a similar fraction of peak on every target once the machine and
    instruction descriptions exist — this table is that prediction.
    """
    from repro.isa.targets import target as isa_target

    rows = []
    for name in isas:
        t = isa_target(name)
        ctx = machine_context(t.machine)
        mr, nr = ctx.main_tile
        row = solo_sweep_data(ctx, shapes=((mr, nr),), kc=kc)[0]
        rows.append(
            {
                "isa": name,
                "machine": t.machine.name,
                "shape": row["shape"],
                "GFLOPS": row["GFLOPS"],
                "peak": t.machine.peak_gflops(),
                "peak_frac": row["peak_frac"],
            }
        )
    return rows
