"""Empirical tile-parameter search vs the analytical model.

The paper's related-work discussion (Section II-C) contrasts exhaustive
auto-tuning (AutoTVM-style) with the analytical model of Low et al. [9]
that BLIS adopted: "analytical modeling is enough."  This module provides
the experiment: a grid search over (mc, kc, nc) scored by the GEMM timing
model, to compare against the closed-form pick.

On the Carmel description the analytical parameters land within a few
percent of the exhaustively searched optimum (see
``benchmarks/bench_tuning.py``), reproducing [9]'s conclusion inside our
substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.isa.machine import CARMEL, MachineModel
from repro.sim.memory import GemmShape, TileParams
from repro.sim.timing import (
    ChunkPlan,
    TimingModel,
    gemm_time_model,
    gemm_time_models,
)

from .params import analytical_tile_params, clamp_tiles


@dataclass(frozen=True)
class TunedResult:
    """Outcome of one search: parameters and their modelled time."""

    tiles: TileParams
    gflops: float
    evaluated: int


def _candidate_grid(
    mr: int, nr: int, machine: MachineModel
) -> Iterable[Tuple[int, int, int]]:
    """A coarse log-spaced grid over plausible (mc, kc, nc)."""
    kcs = [64, 128, 256, 384, 512, 768, 1024]
    mcs = [mr * f for f in (4, 8, 16, 32, 64, 112, 160)]
    ncs = [nr * f for f in (8, 16, 32, 64, 128, 149, 256)]
    for kc in kcs:
        for mc in mcs:
            for nc in ncs:
                yield mc, kc, nc


def grid_search_tiles(
    shape: GemmShape,
    trace,
    mr: int = 8,
    nr: int = 12,
    machine: MachineModel = CARMEL,
    model: Optional[TimingModel] = None,
    call_overhead: float = 15.0,
) -> TunedResult:
    """Exhaustively score the candidate grid with the GEMM timing model.

    ``trace`` is the kernel trace the plan runs (the monolithic-kernel
    configuration: one tile class covering the plane).  Every candidate
    is priced in one :func:`repro.sim.timing.gemm_time_models` call;
    the first with the highest GFLOPS wins.
    """
    count = math.ceil(shape.m / mr) * math.ceil(shape.n / nr)
    plans = [
        ChunkPlan(
            trace=trace, mr=mr, nr=nr, count=count, call_overhead=call_overhead
        )
    ]
    candidates = [
        clamp_tiles(
            TileParams(mc=mc, kc=kc, nc=nc, mr=mr, nr=nr),
            shape.m,
            shape.n,
            shape.k,
        )
        for mc, kc, nc in _candidate_grid(mr, nr, machine)
    ]
    priced = gemm_time_models(
        [(shape, plans, tiles) for tiles in candidates],
        machine=machine,
        model=model,
    )
    tiles, best = max(zip(candidates, priced), key=lambda o: o[1].gflops)
    return TunedResult(
        tiles=tiles, gflops=best.gflops, evaluated=len(candidates)
    )


def analytical_result(
    shape: GemmShape,
    trace,
    mr: int = 8,
    nr: int = 12,
    machine: MachineModel = CARMEL,
    model: Optional[TimingModel] = None,
    call_overhead: float = 15.0,
) -> TunedResult:
    """Score the closed-form Low-et-al. parameters with the same model."""
    model = model or TimingModel(machine=machine)
    tiles = clamp_tiles(
        analytical_tile_params(mr, nr, machine), shape.m, shape.n, shape.k
    )
    count = math.ceil(shape.m / mr) * math.ceil(shape.n / nr)
    plan = ChunkPlan(
        trace=trace, mr=mr, nr=nr, count=count, call_overhead=call_overhead
    )
    breakdown = gemm_time_model(
        shape, [plan], tiles, machine=machine, model=model
    )
    return TunedResult(tiles=tiles, gflops=breakdown.gflops, evaluated=1)
