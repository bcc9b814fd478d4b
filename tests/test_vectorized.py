"""Oracle-parity suite for the vectorized timing-model engine.

:mod:`repro.sim.vectorized` must match the scalar model *bit for bit* —
equality, never ``approx`` — because the grid search breaks wall-clock
ties on exact float comparison.  The scalar serial and threaded models
in ``tests/parallel_oracle.py`` are the golden oracles; these tests fuzz
shapes, machines, thread counts, and jc/ic/pc grids against them,
cross-check the pre-NUMA golden pins, and pin the batch profile hook's
event shape.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import parallel_oracle as oracle
from parallel_oracle import partition_plane
import pinned_grids
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blis.params import analytical_tile_params, clamp_tiles
from repro.eval.harness import (
    exo_parallel_breakdown,
    machine_context,
    plane_chunk_plans,
)
from repro.isa.machine import MACHINES
from repro.obs import MetricsRegistry, Tracer, VirtualClock
from repro.obs import profile as obs_profile
from repro.sim import vectorized as vec
from repro.sim.memory import GemmShape
from repro.sim.parallel import candidate_grids

_CTX = {}


def ctx_for(name):
    if name not in _CTX:
        _CTX[name] = machine_context(MACHINES[name])
    return _CTX[name]


def serial_batch(ctx, shapes):
    """One all-``(1, 1, 1)`` batch over ``shapes`` on ``ctx``'s machine:
    one serial GEMM per row."""
    machine = ctx.machine
    mr, nr = ctx.main_tile
    tiles = [
        clamp_tiles(analytical_tile_params(mr, nr, machine), m, n, k)
        for m, n, k in shapes
    ]
    return vec.CandidateBatch(
        machines=(machine,),
        m=[s[0] for s in shapes],
        n=[s[1] for s in shapes],
        k=[s[2] for s in shapes],
        mr=mr,
        nr=nr,
        kc=[t.kc for t in tiles],
        nc=[t.nc for t in tiles],
        plan_source=lambda i, m, n: vec.plan_costs(
            plane_chunk_plans(ctx, m, n, mr, nr), ctx.model
        ),
    )


def grid_batch(ctx, m, n, k, grids):
    """One batch over every grid of one shape on one machine."""
    machine = ctx.machine
    mr, nr = ctx.main_tile
    tiles = clamp_tiles(analytical_tile_params(mr, nr, machine), m, n, k)
    memo = {}

    def source(_i, m_t, n_t):
        if (m_t, n_t) not in memo:
            memo[(m_t, n_t)] = vec.plan_costs(
                plane_chunk_plans(ctx, m_t, n_t, mr, nr), ctx.model
            )
        return memo[(m_t, n_t)]

    return vec.CandidateBatch(
        machines=(machine,),
        m=m, n=n, k=k, mr=mr, nr=nr, kc=tiles.kc, nc=tiles.nc,
        jc=[g[0] for g in grids],
        ic=[g[1] for g in grids],
        pc=[g[2] for g in grids],
        plan_source=source,
    ), tiles


SERIAL_FIELDS = (
    "compute_cycles", "pack_cycles", "c_stall_cycles",
    "dram_limit_cycles", "total_cycles", "gflops", "flops",
)


class TestSerialParity:
    """``(1, 1, 1)`` rows == the oracle's ``gemm_time_model``, bitwise."""

    @given(
        name=st.sampled_from(sorted(MACHINES)),
        m=st.integers(min_value=1, max_value=2500),
        n=st.integers(min_value=1, max_value=2500),
        k=st.integers(min_value=1, max_value=4000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_shapes_match_exactly(self, name, m, n, k):
        ctx = ctx_for(name)
        want = oracle.exo_gemm_breakdown(m, n, k, main=ctx.main_tile, ctx=ctx)
        got = vec.batch_gemm_cycles(serial_batch(ctx, [(m, n, k)]))
        for field in SERIAL_FIELDS:
            assert getattr(got, field)[0] == getattr(want, field), field

    def test_multi_row_batch_rows_are_independent(self):
        ctx = ctx_for("avx512")
        shapes = [(7, 9, 5), (2000, 2000, 2000), (1, 1, 1), (500, 2, 3000)]
        got = vec.batch_gemm_cycles(serial_batch(ctx, shapes))
        assert len(got) == len(shapes)
        for i, (m, n, k) in enumerate(shapes):
            want = oracle.exo_gemm_breakdown(
                m, n, k, main=ctx.main_tile, ctx=ctx
            )
            for field in SERIAL_FIELDS:
                assert getattr(got, field)[i] == getattr(want, field), field
        assert got.eff_jc.tolist() == [1] * len(shapes)

    def test_multi_machine_batch_gathers_per_row(self):
        machines = tuple(MACHINES[n] for n in ("carmel", "avx512"))
        ctxs = [ctx_for(n) for n in ("carmel", "avx512")]
        m, n, k = 256, 256, 256
        rows = []
        for ctx in ctxs:
            mr, nr = ctx.main_tile
            t = clamp_tiles(
                analytical_tile_params(mr, nr, ctx.machine), m, n, k
            )
            rows.append((mr, nr, t.kc, t.nc))

        def source(i, m_p, n_p):
            ctx = ctxs[i]
            return vec.plan_costs(
                plane_chunk_plans(ctx, m_p, n_p, *ctx.main_tile), ctx.model
            )

        got = vec.batch_gemm_cycles(
            vec.CandidateBatch(
                machines=machines,
                m=m, n=n, k=k,
                mr=[r[0] for r in rows],
                nr=[r[1] for r in rows],
                kc=[r[2] for r in rows],
                nc=[r[3] for r in rows],
                machine_idx=[0, 1],
                plan_source=source,
            )
        )
        for i, ctx in enumerate(ctxs):
            want = oracle.exo_gemm_breakdown(
                m, n, k, main=ctx.main_tile, ctx=ctx
            )
            assert got.total_cycles[i] == want.total_cycles
            assert got.freq_ghz[i] == ctx.machine.freq_ghz


class TestGridParity:
    """Grid-path rows == pinned-grid scalar breakdowns."""

    @pytest.mark.parametrize("name", sorted(MACHINES))
    @pytest.mark.parametrize(
        "shape", [(2000, 2000, 2000), (97, 1003, 64), (31, 17, 1500)]
    )
    def test_every_grid_matches_scalar_pin(self, name, shape):
        ctx = ctx_for(name)
        machine = ctx.machine
        mr, nr = ctx.main_tile
        m, n, k = shape
        threads = machine.cores
        tiles = clamp_tiles(analytical_tile_params(mr, nr, machine), m, n, k)
        grids = candidate_grids(
            threads, m, n, machine, mr, nr, k=k, kc=tiles.kc
        )
        batch, _ = grid_batch(ctx, m, n, k, grids)
        got = vec.batch_gemm_cycles(batch)
        for gi, (jc, ic, pc) in enumerate(grids):
            part = partition_plane(
                m, n, threads, machine, mr, nr,
                jc_ways=jc, ic_ways=ic, pc_ways=pc, k=k, kc=tiles.kc,
            )
            want = oracle.parallel_gemm_breakdown(
                GemmShape(m, n, k), tiles, threads,
                machine=machine, model=ctx.model,
                plan_builder=lambda mt, nt: plane_chunk_plans(
                    ctx, mt, nt, mr, nr
                ),
                grids=[(jc, ic, pc)],
            )
            assert got.total_cycles[gi] == want.total_cycles
            assert got.compute_cycles[gi] == want.compute_cycles
            assert got.pack_cycles[gi] == want.pack_cycles
            assert got.c_stall_cycles[gi] == want.c_stall_cycles
            assert got.reduction_cycles[gi] == want.reduction_cycles
            assert got.dram_limit_cycles[gi] == want.dram_limit_cycles
            assert (
                int(got.eff_jc[gi]), int(got.eff_ic[gi]), int(got.eff_pc[gi])
            ) == (part.jc_ways, part.ic_ways, part.pc_ways)

    @given(
        name=st.sampled_from(sorted(MACHINES)),
        m=st.integers(min_value=1, max_value=1200),
        n=st.integers(min_value=1, max_value=1200),
        k=st.integers(min_value=1, max_value=3000),
        threads=st.integers(min_value=1, max_value=32),
        pin=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=1, max_value=4),
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_search_engines_agree(
        self, name, m, n, k, threads, pin
    ):
        """Searched grids (every thread count, 1 included) and pinned
        grids price identically through the engine and the oracle."""
        ctx = ctx_for(name)
        if pin is None:
            want = oracle.exo_parallel_breakdown(m, n, k, threads, ctx=ctx)
            got = exo_parallel_breakdown(m, n, k, threads, ctx=ctx)
        else:
            want = oracle.exo_parallel_breakdown(
                m, n, k, threads, ctx=ctx, grids=[pin]
            )
            got = pinned_grids.price_exo_grids(m, n, k, threads, ctx, [pin])
        assert got.partition_label == want.partition_label
        for field in (
            "compute_cycles", "pack_cycles", "c_stall_cycles",
            "reduction_cycles", "dram_limit_cycles", "total_cycles",
            "gflops", "seconds", "thread_busy_cycles",
        ):
            assert getattr(got, field) == getattr(want, field), field


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "threaded_golden.json").read_text()
)


class TestGoldenCrossCheck:
    """The batch engine reproduces the PR-5 golden pins end to end."""

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_batch_winner_matches_golden_pin(self, key):
        name, shape_spec, t_spec = key.split("|")
        m, n, k = (int(d) for d in shape_spec.split("x"))
        threads = int(t_spec[1:])
        ctx = ctx_for(name)
        mr, nr = ctx.main_tile
        tiles = clamp_tiles(
            analytical_tile_params(mr, nr, ctx.machine), m, n, k
        )
        grids = [
            g
            for g in candidate_grids(
                threads, m, n, ctx.machine, mr, nr, k=k, kc=tiles.kc
            )
            if g[2] == 1  # the golden pins predate the pc split
        ]
        batch, _ = grid_batch(ctx, m, n, k, grids)
        scored = vec.batch_gemm_cycles(batch)
        win = vec.best_grid_indices(scored, (0, len(grids)))[0]
        want = GOLDEN[key]
        assert scored.total_cycles[win] == want["total"]
        assert (int(scored.eff_jc[win]), int(scored.eff_ic[win])) == (
            want["jc"], want["ic"]
        )


class TestBatchValidation:
    def test_scalars_broadcast_against_arrays(self):
        batch = vec.CandidateBatch(
            machines=(MACHINES["carmel"],),
            m=100, n=200, k=300, mr=8, nr=12, kc=256, nc=1788,
            jc=[1, 2, 4], ic=[4, 2, 1],
            plan_source=lambda *a: (),
        )
        assert len(batch) == 3
        assert batch.m.tolist() == [100, 100, 100]
        assert batch.pc.tolist() == [1, 1, 1]
        assert batch.m.dtype == np.int64

    def test_single_machine_needs_no_tuple(self):
        batch = vec.CandidateBatch(
            machines=MACHINES["carmel"],
            m=[5, 6], n=7, k=8, mr=8, nr=12, kc=256, nc=1788,
            plan_source=lambda *a: (),
        )
        assert batch.machines == (MACHINES["carmel"],)
        assert len(batch) == 2


class TestEngineHelpers:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(1, 16),
                st.integers(1, 3000), st.integers(1, 3000),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dedup_rows_is_unique_with_first_occurrences(self, rows):
        columns = [np.array(col, dtype=np.int64) for col in zip(*rows)]
        first, inverse = vec._dedup_rows(columns)
        _, want_first, want_inverse = np.unique(
            np.stack(columns, axis=1),
            axis=0,
            return_index=True,
            return_inverse=True,
        )
        assert first.tolist() == want_first.tolist()
        assert inverse.tolist() == want_inverse.ravel().tolist()

    @pytest.mark.parametrize(
        "field", ["m", "n", "k", "mr", "nr", "kc", "jc", "ic", "pc"]
    )
    def test_nonpositive_extent_ways_or_granule_is_rejected(self, field):
        fields = dict(m=100, n=200, k=300, mr=8, nr=12, kc=256, nc=1788)
        fields[field] = [1, 0]
        batch = vec.CandidateBatch(
            machines=MACHINES["carmel"], plan_source=lambda *a: (), **fields
        )
        with pytest.raises(ValueError):
            vec.batch_gemm_cycles(batch, profile=False)


class TestBatchProfileHook:
    def test_one_record_per_batch_with_candidate_count(self):
        ctx = ctx_for("carmel")
        clock = VirtualClock()
        profiler = obs_profile.GemmProfiler(
            tracer=Tracer(clock=clock), metrics=MetricsRegistry()
        )
        shapes = [(64, 48, 64), (128, 96, 128), (7, 9, 5)]
        with obs_profile.using(profiler):
            vec.batch_gemm_cycles(serial_batch(ctx, shapes))
        assert len(profiler.records) == 1
        record = profiler.records[0]
        assert record["kind"] == "batch.grid"
        assert record["candidates"] == len(shapes)
        snap = profiler.metrics.to_json()
        assert snap["model.candidates_evaluated"]["value"] == len(shapes)
        assert snap["gemm.evaluations.batch"]["value"] == 1
        events = profiler.tracer.chrome_trace()["traceEvents"]
        assert any(e["name"] == "model batch [grid]" for e in events)

    def test_profile_false_stays_silent(self):
        ctx = ctx_for("carmel")
        profiler = obs_profile.GemmProfiler(metrics=MetricsRegistry())
        with obs_profile.using(profiler):
            vec.batch_gemm_cycles(
                serial_batch(ctx, [(64, 48, 64)]), profile=False
            )
        assert profiler.records == []
