"""Engine pricing of chosen jc x ic x pc grids, for tests that pin one.

The production entry points
(:func:`repro.sim.parallel.parallel_gemm_breakdown`,
:func:`repro.eval.harness.exo_parallel_breakdown`) always rank every
candidate grid.  A test that pins a grid — or restricts the search to
the plane-only grids — lists them in one
:class:`repro.sim.parallel.GridRequest` and prices it through
:func:`repro.sim.parallel.price_grid_requests`, the call every
production caller makes.  The scalar counterpart is
``parallel_oracle.parallel_gemm_breakdown(..., grids=...)``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.blis.params import analytical_tile_params, clamp_tiles
from repro.sim import vectorized as vec
from repro.sim.memory import GemmShape, TileParams
from repro.sim.parallel import (
    GridRequest,
    ParallelBreakdown,
    PlanBuilder,
    candidate_grids,
    price_grid_requests,
)
from repro.sim.timing import TimingModel

Grid = Tuple[int, int, int]


def price_grids(
    shape: GemmShape,
    tiles: TileParams,
    threads: int,
    grids: Sequence[Grid],
    *,
    machine,
    plan_builder: PlanBuilder,
    model: Optional[TimingModel] = None,
    dtype_bytes: int = 4,
) -> ParallelBreakdown:
    """The best of ``grids`` for one GEMM, priced by the engine."""
    model = model or TimingModel(machine=machine)
    (breakdown,) = price_grid_requests(
        [GridRequest(machine, shape, tiles, threads, grids)],
        lambda _r, m_t, n_t: vec.plan_costs(plan_builder(m_t, n_t), model),
        dtype_bytes=dtype_bytes,
    )
    return breakdown


def exo_tiles(ctx, m: int, n: int, k: int, main=None) -> TileParams:
    """The clamped tiles :func:`exo_parallel_breakdown` prices with."""
    mr, nr = main if main is not None else ctx.main_tile
    return clamp_tiles(analytical_tile_params(mr, nr, ctx.machine), m, n, k)


def plane_only_grids(ctx, m: int, n: int, k: int, threads: int):
    """The ``pc = 1`` candidate grids: the pre-NUMA plane-only search."""
    tiles = exo_tiles(ctx, m, n, k)
    return [
        g
        for g in candidate_grids(
            threads, m, n, ctx.machine, tiles.mr, tiles.nr, k=k, kc=tiles.kc
        )
        if g[2] == 1
    ]


def price_exo_grids(
    m: int,
    n: int,
    k: int,
    threads: int,
    ctx,
    grids: Sequence[Grid],
    main=None,
) -> ParallelBreakdown:
    """:func:`repro.eval.harness.exo_parallel_breakdown` over ``grids``."""
    from repro.eval.harness import plane_chunk_plans

    tiles = exo_tiles(ctx, m, n, k, main)
    return price_grids(
        GemmShape(m, n, k), tiles, threads, grids,
        machine=ctx.machine,
        plan_builder=lambda m_t, n_t: plane_chunk_plans(
            ctx, m_t, n_t, tiles.mr, tiles.nr
        ),
        model=ctx.model,
    )
