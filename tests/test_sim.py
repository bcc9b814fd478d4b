"""Tests for the performance simulation substrate.

These check the *mechanisms* the reproduction relies on: FMA-latency hiding
by accumulator count, vector-slot contention, cache behaviour of packed vs
strided access, and the composition rules of the timing model.
"""

from __future__ import annotations

import dataclasses

import parallel_oracle as oracle
import pytest

from repro.isa.machine import CARMEL, GENERIC_ARM
from repro.sim.cache import Cache, hierarchy_for
from parallel_oracle import memory_cost
from repro.sim.memory import GemmShape, TileParams
from repro.sim.pipeline import PipelineModel, trace_from_kernel
from repro.sim.timing import (
    ChunkPlan,
    gemm_time_model,
    gemm_time_models,
    solo_kernel_gflops,
)


@pytest.fixture(scope="module")
def pm():
    return PipelineModel()


class TestPipelineMechanisms:
    def test_8x12_near_but_below_peak(self, registry, pm):
        trace = trace_from_kernel(registry.get(8, 12))
        cyc = pm.steady_cycles_per_iter(trace)
        flops_per_cycle = trace.flops_per_iter / cyc
        peak = CARMEL.peak_gflops() / CARMEL.freq_ghz  # 16 flops/cycle
        assert 0.75 * peak < flops_per_cycle < peak

    def test_vector_slot_contention(self, registry, pm):
        """24 FMAs + 5 loads through 2 vector slots: 14.5 cycles/iter."""
        trace = trace_from_kernel(registry.get(8, 12))
        assert pm.steady_cycles_per_iter(trace) == pytest.approx(14.5, abs=0.1)

    def test_small_tile_latency_bound(self, registry, pm):
        """4x4 has 4 accumulator chains of latency-4 FMAs: 4 cycles/iter,
        not the 3 cycles resources alone would allow."""
        trace = trace_from_kernel(registry.get(4, 4))
        assert pm.steady_cycles_per_iter(trace) == pytest.approx(4.0, abs=0.1)

    def test_throughput_monotone_in_tile_size(self, registry, pm):
        rates = []
        for shape in [(4, 4), (8, 4), (8, 8), (8, 12)]:
            trace = trace_from_kernel(registry.get(*shape))
            cyc = pm.steady_cycles_per_iter(trace)
            rates.append(trace.flops_per_iter / cyc)
        assert rates == sorted(rates)

    def test_extra_alu_ops_do_not_disturb_vector_bound(self, registry, pm):
        base = trace_from_kernel(registry.get(8, 12))
        loaded = trace_from_kernel(registry.get(8, 12), extra_alu_per_iter=4)
        assert pm.steady_cycles_per_iter(loaded) == pytest.approx(
            pm.steady_cycles_per_iter(base), abs=0.2
        )

    def test_narrow_machine_is_slower(self, registry):
        trace = trace_from_kernel(registry.get(8, 12))
        fast = PipelineModel(machine=CARMEL).steady_cycles_per_iter(trace)
        slow = PipelineModel(machine=GENERIC_ARM).steady_cycles_per_iter(trace)
        assert slow > 1.5 * fast

    def test_trace_counts(self, registry):
        trace = trace_from_kernel(registry.get(8, 12))
        counts = trace.counts()
        assert counts["fma"] == 24
        assert counts["load"] == 5
        assert trace.prologue_vector_ops == 24
        assert trace.epilogue_vector_ops == 24


class TestPricingInputsBuiltOnce:
    """A kernel's trace and steady-state schedule are built once."""

    def test_one_trace_per_kernel_across_consumers(self, monkeypatch):
        from repro.analysis import verifier
        from repro.eval.harness import EvalContext, plane_chunk_plans
        from repro.isa.machine import RVV_EDGE_VLEN128
        from repro.isa.targets import target
        from repro.serve.executor import ModelExecutor
        from repro.sim import pipeline
        from repro.ukernel.generator import generate_vla_microkernel

        built = []
        build = pipeline._build_trace

        def counting_build(kernel, extra):
            built.append(kernel)
            return build(kernel, extra)

        checked = []
        check = verifier._check_census

        def recording_check(census, kernel, trace, report):
            checked.append((kernel, trace))
            return check(census, kernel, trace, report)

        monkeypatch.setattr(pipeline, "_build_trace", counting_build)
        monkeypatch.setattr(verifier, "_check_census", recording_check)

        kernel = target("neon").get(8, 12)
        one, two = EvalContext(machine=CARMEL), EvalContext(machine=CARMEL)
        trace = one.exo_trace(8, 12)
        assert two.exo_trace(8, 12) is trace
        assert trace_from_kernel(kernel) is trace
        executor = ModelExecutor(CARMEL, threads=2, replicas=2)
        assert executor.ctx.machine != executor.base_ctx.machine
        assert executor.ctx.exo_trace(8, 12) is trace
        assert verifier.verify_kernel(kernel, machine=CARMEL).ok
        assert checked[-1][1] is trace

        # a ragged VLA tile: a full-width part plus a vsetvl tail part
        ctx = EvalContext(machine=RVV_EDGE_VLEN128)
        rvv = target("rvv128")
        parts = generate_vla_microkernel(6, 8, rvv.lib_factory)
        chunks = plane_chunk_plans(ctx, 6, 8, 6, 8)
        assert len(chunks) == len(parts) == 2
        assert rvv.tile_parts(6, 8) == parts
        assert verifier.verify_plan(parts, 6, 8, machine=ctx.machine).ok
        for chunk, (_, part) in zip(chunks, parts):
            assert chunk.mr == part.mr
            assert chunk.trace is trace_from_kernel(part)
            assert (part, chunk.trace) in checked
        assert len({id(k) for k in built}) == len(built)

    def test_shared_trace_is_never_mutated(self, registry):
        from repro.baselines.blis_asm import blis_kernel_model
        from repro.baselines.neon_handwritten import neon_kernel_model

        kernel = registry.get(8, 12)
        trace = trace_from_kernel(kernel)
        before = dataclasses.astuple(trace)
        loaded = trace_from_kernel(kernel, extra_alu_per_iter=3)
        assert loaded is not trace
        assert len(loaded.ops) == len(trace.ops) + 3
        neon_kernel_model(kernel=kernel)
        blis_kernel_model(kernel=kernel)
        assert trace_from_kernel(kernel) is trace
        assert dataclasses.astuple(trace) == before

    def test_schedule_memo_follows_what_the_scheduler_reads(
        self, monkeypatch
    ):
        from repro.isa.machine import NUMA_SERVER_2S
        from repro.sim.parallel import replica_topology
        from repro.sim.timing import TimingModel
        from repro.ukernel.generator import generate_microkernel

        # a fresh kernel, so its trace starts with an empty memo
        trace = trace_from_kernel(generate_microkernel(8, 12))
        runs = []
        schedule = PipelineModel._schedule

        def counting_schedule(self, *args):
            runs.append(self.machine)
            return schedule(self, *args)

        monkeypatch.setattr(PipelineModel, "_schedule", counting_schedule)
        base = NUMA_SERVER_2S
        view = replica_topology(base, 4, 8)
        assert view != base
        cycles = PipelineModel(machine=base).steady_cycles_per_iter(trace)
        assert PipelineModel(machine=view).steady_cycles_per_iter(
            trace
        ) == cycles
        timing = TimingModel(machine=view).timing_for(trace, 8, 12)
        assert timing.cycles_per_iter == cycles
        assert runs == [base]

        narrow = dataclasses.replace(
            base, pipes=(("fma", 1), ("load", 2), ("store", 1), ("alu", 2))
        )
        chimed = dataclasses.replace(base, vector_chime=2)
        for machine in (narrow, chimed):
            PipelineModel(machine=machine).steady_cycles_per_iter(trace)
        assert runs == [base, narrow, chimed]
        assert len(trace.schedules) == 3

        # a memoized schedule equals a fresh one (replace starts a new memo)
        fresh = dataclasses.replace(trace)
        assert not fresh.schedules
        assert PipelineModel(machine=base).steady_cycles_per_iter(
            fresh
        ) == cycles


class TestSoloTiming:
    def test_kc_amortizes_tile_transfers(self, registry):
        trace = trace_from_kernel(registry.get(8, 12))
        short = solo_kernel_gflops(trace, 8, 12, kc=32)
        long = solo_kernel_gflops(trace, 8, 12, kc=512)
        assert long > short

    def test_useful_fraction_scales_gflops(self, registry):
        trace = trace_from_kernel(registry.get(8, 12))
        full = solo_kernel_gflops(trace, 8, 12, kc=512)
        quarter = solo_kernel_gflops(
            trace, 8, 12, kc=512, useful_mr=4, useful_nr=6
        )
        assert quarter == pytest.approx(full / 4, rel=1e-6)


class TestCacheSimulator:
    def test_lru_eviction(self):
        cache = Cache(size_bytes=4 * 64, line_bytes=64, assoc=2)
        # two sets; fill set 0 with lines 0 and 2, then touch 4 -> evict 0
        cache.access(0)
        cache.access(2 * 64)
        cache.access(0)  # 0 now MRU
        cache.access(4 * 64)  # evicts line 2
        assert cache.access(0)
        assert not cache.access(2 * 64)

    def test_hit_rate_accounting(self):
        cache = Cache(size_bytes=1024, line_bytes=64, assoc=4)
        for _ in range(10):
            cache.access(0)
        assert cache.stats.hits == 9
        assert cache.stats.accesses == 10

    def test_sequential_within_line_hits(self):
        cache = Cache(size_bytes=1024, line_bytes=64, assoc=4)
        misses = cache.access_range(0, 256)
        assert misses == 4  # one per line

    def test_hierarchy_fills_down(self):
        hier = hierarchy_for(CARMEL)
        assert hier.access(0) == 3  # memory
        assert hier.access(0) == 0  # L1 now

    def test_packed_panel_beats_strided_walk(self):
        """The point of packing: unit-stride panels reuse cache lines."""
        packed = Cache(size_bytes=32 * 1024, line_bytes=64, assoc=4)
        strided = Cache(size_bytes=32 * 1024, line_bytes=64, assoc=4)
        ldb = 2048 * 4  # walking a column of a 2048-wide f32 matrix
        for i in range(512):
            packed.access(i * 4)
            strided.access(i * ldb)
        assert packed.stats.hit_rate > 0.9
        assert strided.stats.hit_rate < 0.1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache(size_bytes=1000, line_bytes=64, assoc=3)


class TestMemoryModel:
    TILES = TileParams(mc=896, kc=512, nc=1788, mr=8, nr=12)

    def test_prefetch_removes_stall(self):
        shape = GemmShape(1000, 1000, 1000)
        no_pf = memory_cost(shape, self.TILES, prefetch_c=False)
        pf = memory_cost(shape, self.TILES, prefetch_c=True)
        assert no_pf.c_stall_cycles > 0
        assert pf.c_stall_cycles == 0
        assert pf.pack_a_cycles == no_pf.pack_a_cycles

    def test_a_repacked_per_jc_iteration(self):
        tiles = self.TILES
        small = memory_cost(GemmShape(500, tiles.nc, 500), tiles)
        big = memory_cost(GemmShape(500, 2 * tiles.nc, 500), tiles)
        # n spanning two jc iterations repacks the whole A a second time
        assert big.pack_a_cycles == pytest.approx(2 * small.pack_a_cycles)
        assert big.pack_b_cycles == pytest.approx(2 * small.pack_b_cycles)

    def test_c_traffic_scales_with_k_passes(self):
        tiles = self.TILES
        one_pass = memory_cost(GemmShape(1000, 1000, tiles.kc), tiles)
        two_pass = memory_cost(GemmShape(1000, 1000, 2 * tiles.kc), tiles)
        assert two_pass.c_stream_cycles == pytest.approx(
            2 * one_pass.c_stream_cycles
        )


class TestGemmTimeModel:
    def test_compute_dominates_large_square(self, registry):
        trace = trace_from_kernel(registry.get(8, 12))
        shape = GemmShape(2000, 2000, 2000)
        tiles = TileParams(mc=896, kc=512, nc=1788, mr=8, nr=12)
        plan = ChunkPlan(trace=trace, mr=8, nr=12, count=(2000 // 8) * (2000 // 12 + 1))
        b = oracle.gemm_time_model(shape, [plan], tiles)
        assert b.compute_cycles > b.pack_cycles
        assert b.gflops < CARMEL.peak_gflops()

    def test_gflops_and_seconds_consistent(self, registry):
        trace = trace_from_kernel(registry.get(8, 12))
        shape = GemmShape(1000, 996, 512)
        tiles = TileParams(mc=896, kc=512, nc=1788, mr=8, nr=12)
        plan = ChunkPlan(trace=trace, mr=8, nr=12, count=125 * 83)
        b = oracle.gemm_time_model(shape, [plan], tiles)
        assert b.gflops == pytest.approx(
            shape.flops / b.seconds / 1e9, rel=1e-9
        )


class TestGemmTimeModels:
    """The production serial model is the one-slice grid of the batch
    engine: one GEMM or many, it prices as the scalar oracle."""

    FIELDS = (
        "compute_cycles", "pack_cycles", "c_stall_cycles",
        "dram_limit_cycles", "total_cycles", "gflops", "seconds",
    )
    SHAPES = ((2000, 2000, 2000), (1000, 996, 512), (9, 13, 700), (96, 1, 1))

    @staticmethod
    def _gemms(registry):
        """``(shape, plans, tiles)`` of a monolithic 8x12 kernel."""
        trace = trace_from_kernel(registry.get(8, 12))
        tiles = TileParams(mc=896, kc=512, nc=1788, mr=8, nr=12)
        return [
            (
                GemmShape(m, n, k),
                [
                    ChunkPlan(
                        trace=trace, mr=8, nr=12,
                        count=-(-m // 8) * -(-n // 12),
                    )
                ],
                tiles,
            )
            for m, n, k in TestGemmTimeModels.SHAPES
        ]

    @pytest.mark.parametrize("prefetch_c", [False, True])
    @pytest.mark.parametrize("machine", [CARMEL, GENERIC_ARM])
    def test_batch_and_single_calls_match_the_oracle(
        self, registry, machine, prefetch_c
    ):
        gemms = self._gemms(registry)
        batch = gemm_time_models(gemms, prefetch_c=prefetch_c, machine=machine)
        for gemm, got in zip(gemms, batch):
            want = oracle.gemm_time_model(
                *gemm, prefetch_c=prefetch_c, machine=machine
            )
            single = gemm_time_model(
                *gemm, prefetch_c=prefetch_c, machine=machine
            )
            for field in self.FIELDS:
                assert getattr(got, field) == getattr(want, field), field
                assert getattr(single, field) == getattr(want, field), field
            assert (got.threads, got.partition_label) == (1, "1x1")

    def test_one_serial_record_per_gemm(self, registry):
        from repro.obs import profile as obs_profile
        from repro.obs.profile import GemmProfiler

        gemms = self._gemms(registry)
        profiler = GemmProfiler()
        with obs_profile.using(profiler):
            gemm_time_models(gemms)
            gemm_time_model(*gemms[0])
        kinds = [r["kind"] for r in profiler.records]
        assert kinds == ["batch.grid"] + ["serial"] * (len(gemms) + 1)
        assert [r["eval_us"] for r in profiler.records[1:-1]] == [0.0] * len(
            gemms
        )
