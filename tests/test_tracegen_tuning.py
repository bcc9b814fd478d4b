"""Tests for the GEMM trace simulator and the tile-tuning experiment."""

from __future__ import annotations

import math

import parallel_oracle as oracle
import pytest
from parallel_oracle import memory_cost

from repro.blis.params import clamp_tiles
from repro.blis.tuning import (
    _candidate_grid,
    analytical_result,
    grid_search_tiles,
)
from repro.isa.machine import CARMEL
from repro.sim.timing import ChunkPlan
from repro.sim.memory import GemmShape, TileParams
from repro.sim.pipeline import trace_from_kernel
from repro.sim.tracegen import simulate_gemm_trace


class TestTraceSimulator:
    TILES = TileParams(mc=16, kc=8, nc=24, mr=8, nr=12)

    def test_small_gemm_mostly_cached(self):
        """A GEMM that fits in L1 should hit overwhelmingly after warmup."""
        stats = simulate_gemm_trace(GemmShape(16, 24, 8), self.TILES)
        assert stats.accesses > 0
        assert stats.hit_rate(0) > 0.5  # packed panels reused from L1

    def test_cold_traffic_matches_footprint(self):
        """At cache-resident sizes DRAM fetches are exactly the cold
        footprint: each distinct line of A, B, C and the packing arenas is
        fetched once (the analytical model's streaming assumption only
        applies beyond cache capacity)."""
        shape = GemmShape(32, 48, 16)
        stats = simulate_gemm_trace(shape, self.TILES)
        f32, line = 4, 64
        arena_a = self.TILES.mc * self.TILES.kc * f32
        arena_b = self.TILES.kc * self.TILES.nc * f32
        footprint = (
            shape.m * shape.k + shape.k * shape.n + shape.m * shape.n
        ) * f32 + arena_a + arena_b
        assert 0.8 * footprint < stats.memory_fetch_bytes < 2.0 * footprint

    def test_analytical_exceeds_trace_at_toy_sizes(self):
        """The analytical model is an upper bound at cache-resident sizes
        (it charges streaming traffic the caches actually absorb)."""
        shape = GemmShape(32, 48, 16)
        stats = simulate_gemm_trace(shape, self.TILES)
        analytic = memory_cost(shape, self.TILES).dram_bytes
        assert stats.memory_fetch_bytes < 1.2 * analytic

    def test_traffic_scales_with_problem(self):
        small = simulate_gemm_trace(GemmShape(16, 24, 8), self.TILES)
        big = simulate_gemm_trace(GemmShape(32, 48, 16), self.TILES)
        assert big.memory_fetch_bytes > 2 * small.memory_fetch_bytes

    def test_larger_nc_removes_repacking_accesses(self):
        """The analytical rule 'A repacks per jc iteration' shows up in the
        trace as extra accesses: widening nc removes whole repack passes.
        (At toy sizes the re-reads hit in cache, so the signal is access
        count, not DRAM bytes.)"""
        shape = GemmShape(32, 96, 16)
        narrow = simulate_gemm_trace(
            shape, TileParams(mc=16, kc=8, nc=24, mr=8, nr=12)
        )
        wide = simulate_gemm_trace(
            shape, TileParams(mc=16, kc=8, nc=96, mr=8, nr=12)
        )
        assert wide.accesses < narrow.accesses

    def test_levels_accounted(self):
        stats = simulate_gemm_trace(GemmShape(16, 24, 8), self.TILES)
        assert sum(stats.level_hits) == stats.accesses


class TestTuning:
    @pytest.fixture(scope="class")
    def trace(self, registry):
        return trace_from_kernel(registry.get(8, 12))

    def test_grid_search_runs(self, trace):
        result = grid_search_tiles(GemmShape(1000, 1000, 1000), trace)
        assert result.evaluated > 100
        assert result.gflops > 0

    def test_grid_search_is_the_oracle_first_maximum(self, trace):
        """One batched pricing call picks what one scalar serial model
        call per candidate picks: the first highest GFLOPS."""
        shape = GemmShape(1000, 600, 700)
        tuned = grid_search_tiles(shape, trace)
        plan = ChunkPlan(
            trace=trace, mr=8, nr=12,
            count=math.ceil(shape.m / 8) * math.ceil(shape.n / 12),
        )
        best = None
        for mc, kc, nc in _candidate_grid(8, 12, CARMEL):
            tiles = clamp_tiles(
                TileParams(mc=mc, kc=kc, nc=nc, mr=8, nr=12),
                shape.m, shape.n, shape.k,
            )
            gflops = oracle.gemm_time_model(shape, [plan], tiles).gflops
            if best is None or gflops > best[1]:
                best = (tiles, gflops)
        assert (tuned.tiles, tuned.gflops) == best

    def test_analytical_is_enough(self, trace):
        """Reproduce [9]'s headline inside the model: the closed-form
        parameters are within a few percent of the exhaustive search."""
        shape = GemmShape(2000, 2000, 2000)
        tuned = grid_search_tiles(shape, trace)
        closed = analytical_result(shape, trace)
        assert closed.gflops > 0.97 * tuned.gflops
        assert tuned.evaluated >= 300  # the search really was exhaustive

    def test_analytical_kc_in_tuned_neighbourhood(self, trace):
        shape = GemmShape(2000, 2000, 2000)
        tuned = grid_search_tiles(shape, trace)
        closed = analytical_result(shape, trace)
        assert 0.25 <= closed.tiles.kc / tuned.tiles.kc <= 4.0
