"""Tests for the multi-threaded GEMM execution model.

Invariants of the thread partitioner and the threaded breakdown:

* a one-thread run matches the scalar serial model
  (``parallel_oracle.gemm_time_model``) exactly, on every registered
  machine and every shape (a hypothesis property);
* modelled GFLOPS is monotonically non-decreasing in the thread count,
  up to (and past) the modelled DRAM ceiling;
* partition slices cover the (m, n) plane exactly once — no overlap,
  no gap — under fuzzed shapes and thread counts;
* the shared B panel's packing is charged once per column group, never
  divided by the row-parallel thread count (the pre-threading model
  divided it by ``threads``);
* the threaded entry points take an explicit machine — there is no
  Carmel default to fall back to.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import parallel_oracle as oracle
from parallel_oracle import (
    memory_cost,
    partition_extent,
    partition_plane,
    split_ways,
)
import pinned_grids
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa.machine import (
    CARMEL,
    MACHINES,
    NUMA_SERVER_2S,
    RVV_EDGE_VLEN128,
)
from repro.sim.memory import GemmShape, TileParams
from repro.sim.parallel import candidate_grids, parallel_gemm_breakdown
from repro.sim.pipeline import trace_from_kernel
from repro.sim.timing import ChunkPlan
from repro.ukernel.edge import monolithic_cover

TILES = TileParams(mc=896, kc=512, nc=1788, mr=8, nr=12)


@pytest.fixture(scope="module")
def plan_builder(registry):
    """Monolithic 8x12 plan builder for any (m, n) sub-plane."""
    trace = trace_from_kernel(registry.get(8, 12))

    def build(m, n):
        return [
            ChunkPlan(
                trace=trace, mr=8, nr=12, count=monolithic_cover(m, n, 8, 12)
            )
        ]

    return build


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------


class TestPartition:
    @given(
        extent=st.integers(min_value=1, max_value=5000),
        ways=st.integers(min_value=1, max_value=16),
        granule=st.sampled_from([1, 4, 8, 12, 16]),
    )
    @settings(max_examples=100, deadline=None)
    def test_extent_cover_exact(self, extent, ways, granule):
        spans = partition_extent(extent, ways, granule)
        assert 1 <= len(spans) <= ways
        # contiguous, no overlap, no gap
        assert spans[0].start == 0
        for a, b in zip(spans, spans[1:]):
            assert b.start == a.stop
        assert spans[-1].stop == extent
        # every span is non-empty and granule-aligned except the ragged
        # remainder, which rides in the final span
        for span in spans:
            assert span.extent > 0
        for span in spans[:-1]:
            assert span.extent % granule == 0

    @given(
        m=st.integers(min_value=1, max_value=700),
        n=st.integers(min_value=1, max_value=700),
        threads=st.integers(min_value=1, max_value=12),
        machine=st.sampled_from(sorted(MACHINES)),
    )
    @settings(max_examples=100, deadline=None)
    def test_plane_cover_exact(self, m, n, threads, machine):
        """Every point of the plane belongs to exactly one slice."""
        part = partition_plane(m, n, threads, MACHINES[machine], 8, 12)
        assert part.active_threads <= threads
        area = sum(sl.m * sl.n for sl in part.slices)
        assert area == m * n
        # row/col spans within a group are identical grids: check the
        # 1-D covers directly
        row_spans = sorted(
            {(sl.rows.start, sl.rows.stop) for sl in part.slices}
        )
        col_spans = sorted(
            {(sl.cols.start, sl.cols.stop) for sl in part.slices}
        )
        for spans, extent in ((row_spans, m), (col_spans, n)):
            assert spans[0][0] == 0
            for a, b in zip(spans, spans[1:]):
                assert b[0] == a[1]
            assert spans[-1][1] == extent

    def test_no_shared_l3_partitions_jc_only(self):
        assert not RVV_EDGE_VLEN128.has_shared_l3
        assert split_ways(4, 2000, 2000, RVV_EDGE_VLEN128, 8, 12) == (4, 1)
        part = partition_plane(2000, 2000, 4, RVV_EDGE_VLEN128, 8, 12)
        assert part.ic_ways == 1 and part.jc_ways == 4

    def test_shared_l3_may_split_both_loops(self):
        jc, ic = split_ways(4, 2000, 2000, CARMEL, 8, 12)
        assert jc * ic <= 4 and jc >= 1 and ic >= 1

    def test_more_threads_than_tiles(self):
        part = partition_plane(10, 13, 8, CARMEL, 8, 12)
        # 2 row tiles x 2 col tiles: at most 4 slices carry work
        assert part.active_threads <= 4
        assert sum(sl.m * sl.n for sl in part.slices) == 10 * 13


# ---------------------------------------------------------------------------
# Threaded breakdown (sim level)
# ---------------------------------------------------------------------------


class TestOneSliceIsSerial:
    """A one-thread GEMM is the one-slice grid, and the one-slice grid is
    the serial model: the whole-GEMM slice keeps the unscaled packing
    and C-stall terms, so no part/whole rescale can round it off."""

    FIELDS = (
        "compute_cycles", "pack_cycles", "c_stall_cycles",
        "dram_limit_cycles", "total_cycles",
    )

    @given(
        name=st.sampled_from(sorted(MACHINES)),
        m=st.integers(min_value=1, max_value=3000),
        n=st.integers(min_value=1, max_value=3000),
        k=st.integers(min_value=1, max_value=3000),
    )
    # shapes whose part/whole rescale rounds off: the C stall on both,
    # and the total on numa2s
    @example(name="avx512", m=946, n=2773, k=897)
    @example(name="numa2s", m=1462, n=2165, k=1326)
    @settings(max_examples=150, deadline=None)
    def test_one_thread_matches_serial_model(self, name, m, n, k):
        """Production and the scalar oracle both price one thread as
        the serial model."""
        from repro.eval.harness import exo_parallel_breakdown, machine_context

        ctx = machine_context(MACHINES[name])
        got = exo_parallel_breakdown(m, n, k, 1, ctx)
        scalar = oracle.exo_parallel_breakdown(m, n, k, 1, ctx)
        want = oracle.exo_gemm_breakdown(m, n, k, ctx=ctx)
        for field in self.FIELDS:
            assert getattr(got, field) == getattr(want, field), field
            assert getattr(scalar, field) == getattr(want, field), field
        assert got.reduction_cycles == 0.0
        assert got.thread_busy_cycles == (
            want.compute_cycles + want.pack_cycles + want.c_stall_cycles,
        )

    @given(
        name=st.sampled_from(sorted(MACHINES)),
        m=st.integers(min_value=1, max_value=3000),
        n=st.integers(min_value=1, max_value=3000),
        k=st.integers(min_value=1, max_value=3000),
        threads=st.integers(min_value=2, max_value=32),
    )
    @example(name="avx512", m=946, n=2773, k=897, threads=4)
    @settings(max_examples=60, deadline=None)
    def test_one_slice_row_of_a_grid_batch_is_serial(
        self, name, m, n, k, threads
    ):
        """Next to a threaded request, a ``(1, 1, 1)`` request rides the
        grid path — and still prices as the serial model."""
        from repro.eval.harness import machine_context, plane_chunk_plans
        from repro.obs import profile as obs_profile
        from repro.obs.profile import GemmProfiler
        from repro.sim import vectorized as vec
        from repro.sim.parallel import GridRequest, price_grid_requests

        ctx = machine_context(MACHINES[name])
        tiles = pinned_grids.exo_tiles(ctx, m, n, k)
        mr, nr = tiles.mr, tiles.nr
        shape = GemmShape(m, n, k)
        requests = [
            GridRequest(ctx.machine, shape, tiles, threads, [(2, 1, 1)]),
            GridRequest(ctx.machine, shape, tiles, 1, [(1, 1, 1)]),
        ]
        profiler = GemmProfiler()
        with obs_profile.using(profiler):
            _, got = price_grid_requests(
                requests,
                lambda _r, m_t, n_t: vec.plan_costs(
                    plane_chunk_plans(ctx, m_t, n_t, mr, nr), ctx.model
                ),
            )
        assert [r["kind"] for r in profiler.records] == ["batch.grid"]
        want = oracle.gemm_time_model(
            shape, plane_chunk_plans(ctx, m, n, mr, nr), tiles,
            machine=ctx.machine, model=ctx.model,
        )
        for field in self.FIELDS:
            assert getattr(got, field) == getattr(want, field), field


class TestThreadedBreakdown:
    def test_machine_is_explicit(self, plan_builder):
        """No Carmel default: the threaded model names its machine."""
        with pytest.raises(TypeError):
            parallel_gemm_breakdown(
                GemmShape(100, 100, 100), TILES, 2,
                plan_builder=plan_builder,
            )

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_one_thread_matches_serial_model(
        self, machine_name, plan_builder
    ):
        """The library entry point, with caller-given tiles and plans:
        one thread prices as the serial model, on the square
        shape and on two ragged ones.  (The property above covers the
        harness entry point over random shapes.)"""
        machine = MACHINES[machine_name]
        for m, n, k in ((2000, 2000, 2000), (946, 2773, 897),
                        (1462, 2165, 1326)):
            shape = GemmShape(m, n, k)
            serial = oracle.gemm_time_model(
                shape, plan_builder(m, n), TILES, machine=machine
            )
            par = parallel_gemm_breakdown(
                shape, TILES, 1, machine=machine, plan_builder=plan_builder
            )
            assert par.total_cycles == serial.total_cycles
            assert par.compute_cycles == serial.compute_cycles
            assert par.pack_cycles == serial.pack_cycles
            assert par.c_stall_cycles == serial.c_stall_cycles
            assert par.dram_limit_cycles == serial.dram_limit_cycles

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_gflops_monotone_in_threads(self, machine_name, plan_builder):
        machine = MACHINES[machine_name]
        rates = [
            parallel_gemm_breakdown(
                GemmShape(1000, 1000, 1000), TILES, t,
                machine=machine, plan_builder=plan_builder,
            ).gflops
            for t in range(1, 3 * machine.cores + 1)
        ]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_scaling_saturates_at_dram_ceiling(self, plan_builder):
        """A low-intensity GEMM hits the socket's DRAM stream limit."""
        curve = [
            parallel_gemm_breakdown(
                GemmShape(2000, 2000, 16), TILES, t,
                machine=CARMEL, plan_builder=plan_builder,
            )
            for t in range(1, 33)
        ]
        rates = [b.gflops for b in curve]
        assert rates == sorted(rates)
        # flat once DRAM-bound: the last cores add ~nothing
        assert rates[-1] / rates[-6] < 1.01
        cap = curve[-1]
        assert cap.total_cycles == pytest.approx(cap.dram_limit_cycles)

    def test_two_threads_near_double(self, plan_builder):
        shape = GemmShape(2000, 2000, 2000)
        one = parallel_gemm_breakdown(
            shape, TILES, 1, machine=CARMEL, plan_builder=plan_builder
        )
        two = parallel_gemm_breakdown(
            shape, TILES, 2, machine=CARMEL, plan_builder=plan_builder
        )
        speedup = one.total_cycles / two.total_cycles
        assert 1.7 < speedup <= 2.0

    def test_shared_b_pack_charged_once(self, plan_builder):
        """Row-parallel threads each wait on the full B-panel pack.

        The pre-threading model divided packing by the thread count
        wholesale; with an ic-only partition the B panel is shared by
        all four threads, so the critical thread's pack charge must
        still contain the *whole* B pack.
        """
        shape = GemmShape(2000, 2000, 2000)
        mem = memory_cost(shape, TILES, machine=CARMEL)
        b = pinned_grids.price_grids(
            shape, TILES, 4, [(1, 4, 1)],
            machine=CARMEL, plan_builder=plan_builder,
        )
        assert b.ic_ways == 4
        # full B pack + this thread's A share: strictly more than the
        # buggy pack/threads attribution could ever produce
        assert b.pack_cycles >= mem.pack_b_cycles
        total_pack = mem.pack_a_cycles + mem.pack_b_cycles
        assert b.pack_cycles > total_pack / 4

    def test_no_shared_l3_replicates_b_traffic_when_forced(
        self, plan_builder
    ):
        """Pinning a row split on the no-L3 core replicates B streams."""
        shape = GemmShape(2000, 2000, 2000)
        machine = RVV_EDGE_VLEN128
        jc_only = parallel_gemm_breakdown(
            shape, TILES, 4, machine=machine, plan_builder=plan_builder
        )
        forced = pinned_grids.price_grids(
            shape, TILES, 4, [(1, 4, 1)],
            machine=machine, plan_builder=plan_builder,
        )
        assert forced.dram_limit_cycles > jc_only.dram_limit_cycles

    def test_invalid_threads_rejected(self, plan_builder):
        with pytest.raises(ValueError):
            parallel_gemm_breakdown(
                GemmShape(100, 100, 100), TILES, 0,
                machine=CARMEL, plan_builder=plan_builder,
            )


# ---------------------------------------------------------------------------
# Harness integration (per-slice edge/tail selection)
# ---------------------------------------------------------------------------


class TestHarnessThreading:
    @pytest.mark.parametrize(
        "machine_name", ["carmel", "avx512", "rvv128", "rvv256"]
    )
    def test_threads1_matches_serial_harness_path(self, machine_name):
        from repro.eval.harness import exo_parallel_breakdown, machine_context

        ctx = machine_context(MACHINES[machine_name])
        serial = oracle.exo_gemm_breakdown(96, 96, 64, ctx=ctx)
        par = exo_parallel_breakdown(96, 96, 64, 1, ctx=ctx)
        assert par.total_cycles == serial.total_cycles

    def test_vla_tails_compose_with_uneven_partition(self):
        """A ragged RVV shape split across threads still covers exactly:
        the tail slice re-selects reduced-``vsetvl`` part kernels."""
        from repro.eval.harness import (
            exo_parallel_breakdown,
            machine_context,
        )

        ctx = machine_context(MACHINES["rvv128"])
        serial = exo_parallel_breakdown(50, 37, 29, 1, ctx=ctx)
        b = exo_parallel_breakdown(50, 37, 29, 3, ctx=ctx)
        assert b.jc_ways >= 1 and b.ic_ways == 1  # no shared L3
        assert 0 < b.total_cycles <= serial.total_cycles

    def test_thread_scaling_rows(self):
        from repro.eval.harness import (
            machine_context,
            thread_scaling_data,
        )

        ctx = machine_context(MACHINES["carmel"])
        rows = thread_scaling_data(
            ctx, shape=(480, 480, 480), max_threads=4
        )
        assert [r["threads"] for r in rows] == [1, 2, 4]
        assert rows[0]["speedup"] == pytest.approx(1.0)
        speedups = [r["speedup"] for r in rows]
        assert speedups == sorted(speedups)


# ---------------------------------------------------------------------------
# Single-socket / pc=1 parity with the pre-NUMA model (golden pins)
# ---------------------------------------------------------------------------

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "threaded_golden.json").read_text()
)


class TestGoldenParity:
    """The pre-NUMA threaded model, pinned cycle-for-cycle.

    ``tests/data/threaded_golden.json`` holds component breakdowns
    captured from the model *before* the pc-loop reduction partition
    and NUMA topologies existed.  Restricting the new model to
    plane-only grids (``pc = 1``, listed explicitly in a grid request)
    on these 1-socket machines must reproduce every component exactly —
    equality, not approx.
    """

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_pc1_matches_pre_numa_model_exactly(self, key):
        from repro.eval.harness import (
            exo_parallel_breakdown,
            machine_context,
        )

        name, shape_spec, t_spec = key.split("|")
        m, n, k = (int(d) for d in shape_spec.split("x"))
        threads = int(t_spec[1:])
        ctx = machine_context(MACHINES[name])
        b = pinned_grids.price_exo_grids(
            m, n, k, threads, ctx,
            pinned_grids.plane_only_grids(ctx, m, n, k, threads),
        )
        want = GOLDEN[key]
        assert b.total_cycles == want["total"]
        assert b.compute_cycles == want["compute"]
        assert b.pack_cycles == want["pack"]
        assert b.c_stall_cycles == want["stall"]
        assert b.dram_limit_cycles == want["dram"]
        assert (b.jc_ways, b.ic_ways) == (want["jc"], want["ic"])
        assert b.pc_ways == 1 and b.reduction_cycles == 0.0
        # the unrestricted search may only deviate by *winning*: a pc>1
        # grid is chosen over the golden plane grid only when strictly
        # faster
        free = exo_parallel_breakdown(m, n, k, threads, ctx=ctx)
        assert free.total_cycles <= b.total_cycles
        if free.pc_ways == 1:
            assert free.total_cycles == b.total_cycles


# ---------------------------------------------------------------------------
# Vectorized engine vs the scalar oracle
# ---------------------------------------------------------------------------


class TestSearchEngineParity:
    """The engine-priced model is a drop-in for the scalar oracle.

    :func:`parallel_gemm_breakdown` prices through
    :mod:`repro.sim.vectorized`; it must pick the *identical* winning
    jc x ic x pc grid as the scalar ``min`` over partitions in
    ``tests/parallel_oracle.py`` — same partition label, same
    components, exact equality — on every registered machine,
    including the NUMA ones whose searches exercise the pc split and
    socket-spanning DRAM terms, and for one thread.  Pinned partitions
    are fuzzed in ``tests/test_vectorized.py``.
    """

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    @pytest.mark.parametrize(
        "shape", [(2000, 2000, 2000), (500, 300, 700), (64, 2000, 3000)]
    )
    def test_same_winner_on_every_machine(self, machine_name, shape):
        from repro.eval.harness import (
            exo_parallel_breakdown,
            machine_context,
        )

        machine = MACHINES[machine_name]
        ctx = machine_context(machine)
        m, n, k = shape
        for threads in (1, 2, machine.cores, 2 * machine.cores):
            want = oracle.exo_parallel_breakdown(m, n, k, threads, ctx=ctx)
            got = exo_parallel_breakdown(m, n, k, threads, ctx=ctx)
            for field in (
                "partition_label", "jc_ways", "ic_ways", "pc_ways",
                "total_cycles", "compute_cycles", "pack_cycles",
                "c_stall_cycles", "reduction_cycles", "dram_limit_cycles",
                "thread_busy_cycles",
            ):
                assert getattr(got, field) == getattr(want, field), field


#: every registered machine, indexed by a slice-expansion row
_MACHINE_NAMES = sorted(MACHINES)

#: one candidate row: (machine index, m, n, k, mr, nr, kc, jc, ic, pc)
_SLICE_ROW = st.tuples(
    st.integers(min_value=0, max_value=len(_MACHINE_NAMES) - 1),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
)


class TestSliceExpansion:
    """The grid engine's array slice expansion equals the per-slice loop.

    ``_expand_slices`` in ``sim/vectorized.py`` builds every
    candidate's thread slices with ``np.repeat`` and index arithmetic;
    ``parallel_oracle.expand_slices`` appends them one loop step at a
    time.  Every field must match, dtype included.
    """

    @staticmethod
    def _batch(rows):
        from repro.sim import vectorized as vec

        mi, m, n, k, mr, nr, kc, jc, ic, pc = (list(c) for c in zip(*rows))
        return vec.CandidateBatch(
            machines=tuple(MACHINES[name] for name in _MACHINE_NAMES),
            machine_idx=mi, m=m, n=n, k=k, mr=mr, nr=nr, kc=kc, nc=4096,
            jc=jc, ic=ic, pc=pc,
            plan_source=lambda i, m_t, n_t: (),
        )

    @staticmethod
    def _assert_same(batch):
        from repro.sim import vectorized as vec

        got = vec._expand_slices(batch)
        want = oracle.expand_slices(batch)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name

    @given(rows=st.lists(_SLICE_ROW, min_size=1, max_size=12))
    # pc > 1 with a ragged k, on the 2-socket NUMA machine
    @example(rows=[(_MACHINE_NAMES.index("numa2s"), 97, 1003, 1500,
                    8, 12, 256, 2, 2, 4)])
    # extents smaller than the ways: fewer tiles than ways on every axis
    @example(rows=[(0, 3, 5, 7, 8, 12, 64, 4, 4, 4)])
    # ragged extents, and a mixed-machine batch with all-(1, 1, 1) rows
    @example(rows=[
        (i, 31 + i, 17 * (i + 1), 1000 + i, 8, 12, 100, 1 + i % 3,
         1 + i % 2, 1 + i % 4)
        for i in range(len(_MACHINE_NAMES))
    ] + [(1, 50, 50, 50, 4, 4, 32, 1, 1, 1)])
    @settings(max_examples=80, deadline=None)
    def test_vectorized_expansion_equals_the_loop(self, rows):
        self._assert_same(self._batch(rows))

    @pytest.mark.parametrize("threads", [2, 8, 64])
    def test_search_batches_match_on_every_machine(self, threads):
        """The candidate grids the search really prices, all machines
        in one batch."""
        rows = []
        for mi, name in enumerate(_MACHINE_NAMES):
            machine = MACHINES[name]
            for m, n, k in ((2000, 2000, 2000), (49, 500, 64)):
                for jc, ic, pc in candidate_grids(
                    threads, m, n, machine, 8, 12, k=k, kc=256
                ):
                    rows.append((mi, m, n, k, 8, 12, 256, jc, ic, pc))
        self._assert_same(self._batch(rows))

    def test_critical_slice_is_the_first_maximum_on_ties(self):
        from repro.sim import vectorized as vec

        values = np.array([1.0, 3.0, 3.0, 2.0, 5.0, 2.0, 2.0, 0.5, 7.0, 7.0])
        offsets = np.array([0, 4, 5, 7, 10])
        segment = np.repeat(np.arange(4), np.diff(offsets))
        top, first = vec._segment_first_max(values, segment, offsets[:-1])
        assert top.tolist() == [3.0, 5.0, 2.0, 7.0]
        assert first.tolist() == [1, 4, 5, 8]

    @given(
        segments=st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                     max_size=6),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_critical_slice_matches_argmax(self, segments):
        from repro.sim import vectorized as vec

        values = np.array([v for seg in segments for v in seg], dtype=float)
        sizes = [len(seg) for seg in segments]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        segment = np.repeat(np.arange(len(sizes)), sizes)
        _, first = vec._segment_first_max(values, segment, offsets[:-1])
        assert first.tolist() == [
            int(a) + int(np.argmax(values[a:b]))
            for a, b in zip(offsets[:-1], offsets[1:])
        ]


class TestGridSubBatches:
    """:func:`price_grid_requests` splits its requests into grid batches
    of at most ``GRID_BATCH_SLICES`` nominal thread slices; the split
    never changes a breakdown."""

    @staticmethod
    def _requests(machine_names, shapes, thread_counts):
        from repro.blis.params import analytical_tile_params, clamp_tiles
        from repro.eval.harness import machine_context, plane_chunk_plans
        from repro.sim import vectorized as vec
        from repro.sim.parallel import GridRequest

        ctxs, requests = [], []
        for name, (m, n, k), threads in zip(
            machine_names, shapes, thread_counts
        ):
            ctx = machine_context(MACHINES[name])
            mr, nr = ctx.main_tile
            tiles = clamp_tiles(
                analytical_tile_params(mr, nr, ctx.machine), m, n, k
            )
            grids = candidate_grids(
                threads, m, n, ctx.machine, mr, nr, k=k, kc=tiles.kc
            )
            ctxs.append(ctx)
            requests.append(
                GridRequest(ctx.machine, GemmShape(m, n, k), tiles,
                            threads, grids)
            )

        def source(r, m_t, n_t):
            ctx, req = ctxs[r], requests[r]
            return vec.plan_costs(
                plane_chunk_plans(
                    ctx, m_t, n_t, req.tiles.mr, req.tiles.nr
                ),
                ctx.model,
            )

        return requests, source

    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from(["carmel", "avx512", "rvv128", "numa2s"]),
                st.integers(min_value=1, max_value=700),
                st.integers(min_value=1, max_value=700),
                st.integers(min_value=1, max_value=3000),
                st.integers(min_value=1, max_value=32),
            ),
            min_size=1,
            max_size=6,
        ),
        budget=st.sampled_from([1, 7, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sub_batches_price_like_single_requests(self, data, budget):
        from unittest import mock

        from repro.obs import profile as obs_profile
        from repro.obs.profile import GemmProfiler
        from repro.sim import parallel
        from repro.sim.parallel import grid_sub_batches, price_grid_requests

        requests, source = self._requests(
            [d[0] for d in data], [d[1:4] for d in data], [d[4] for d in data]
        )
        with mock.patch.object(parallel, "GRID_BATCH_SLICES", budget):
            parts = grid_sub_batches(requests)
            profiler = GemmProfiler()
            with obs_profile.using(profiler):
                got = price_grid_requests(requests, source)
            want = [
                price_grid_requests(
                    [req], lambda _r, m_t, n_t: source(i, m_t, n_t)
                )[0]
                for i, req in enumerate(requests)
            ]
        assert got == want
        assert [b.thread_busy_cycles for b in got] == [
            b.thread_busy_cycles for b in want
        ]
        # one engine path: every sub-batch, all-(1, 1, 1) ones too,
        # records one batch.grid
        assert [r["kind"] for r in profiler.records] == ["batch.grid"] * len(
            parts
        )
        # the parts are consecutive, cover every request, keep to the
        # budget unless one request alone exceeds it, and are greedy:
        # each part is full up to the next request
        assert [i for part in parts for i in part] == list(
            range(len(requests))
        )
        weights = [
            sum(jc * ic * pc for jc, ic, pc in req.grids) for req in requests
        ]
        loads = [sum(weights[i] for i in part) for part in parts]
        for part, load in zip(parts, loads):
            assert load <= budget or len(part) == 1
        for load, nxt in zip(loads, parts[1:]):
            assert load + weights[nxt.start] > budget

    def test_sub_batches_fill_to_the_budget(self, monkeypatch):
        from repro.sim import parallel
        from repro.sim.parallel import GridRequest, grid_sub_batches

        monkeypatch.setattr(parallel, "GRID_BATCH_SLICES", 7)
        requests = [
            GridRequest(CARMEL, GemmShape(8, 12, 8), TILES, w, [(1, 1, w)])
            for w in (3, 4, 2, 7, 8, 1)
        ]
        # 3 + 4 fills the budget exactly; 8 alone exceeds it
        assert grid_sub_batches(requests) == [
            range(0, 2), range(2, 3), range(3, 4), range(4, 5), range(5, 6)
        ]

    def test_empty_request_list(self):
        from repro.sim.parallel import price_grid_requests

        assert price_grid_requests([], lambda *_: ()) == []


# ---------------------------------------------------------------------------
# pc-loop reduction partition
# ---------------------------------------------------------------------------


class TestReductionPartition:
    @given(
        m=st.integers(min_value=1, max_value=600),
        n=st.integers(min_value=1, max_value=600),
        k=st.integers(min_value=1, max_value=4000),
        jc=st.integers(min_value=1, max_value=3),
        ic=st.integers(min_value=1, max_value=3),
        pc=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_volume_cover_exact(self, m, n, k, jc, ic, pc):
        """jc x ic x pc slices tile the m x n x k volume exactly."""
        part = partition_plane(
            m, n, jc * ic * pc, CARMEL, 8, 12,
            jc_ways=jc, ic_ways=ic, pc_ways=pc, k=k, kc=256,
        )
        volume = sum(sl.m * sl.n * sl.k_extent(k) for sl in part.slices)
        assert volume == m * n * k
        # k spans are contiguous, gap-free, and kc-aligned except the
        # ragged tail
        if part.pc_ways > 1:
            k_spans = sorted(
                {(sl.ks.start, sl.ks.stop) for sl in part.slices}
            )
            assert k_spans[0][0] == 0
            for a, b in zip(k_spans, k_spans[1:]):
                assert b[0] == a[1]
            assert k_spans[-1][1] == k
            for start, stop in k_spans[:-1]:
                assert (stop - start) % 256 == 0

    def test_pc_needs_k_and_kc(self):
        with pytest.raises(ValueError):
            partition_plane(100, 100, 4, CARMEL, 8, 12, pc_ways=2)

    def test_defaulted_plane_ways_never_oversubscribe(self):
        """pc multiplies the plane grid, so a defaulted jc/ic split
        must factorize threads // pc_ways, not the full count."""
        part = partition_plane(
            2000, 2000, 4, CARMEL, 8, 12, pc_ways=2, k=2000, kc=512
        )
        assert part.active_threads <= 4
        assert part.jc_ways * part.ic_ways * part.pc_ways <= 4

    def test_candidate_grids_cap_pc_by_kc_chunks(self):
        grids = candidate_grids(8, 2000, 2000, CARMEL, 8, 12, k=600, kc=512)
        pcs = {pc for _, _, pc in grids}
        assert pcs == {1, 2}  # only two kc chunks exist
        assert all(jc * ic * pc <= 8 for jc, ic, pc in grids)

    def test_deep_k_problem_chooses_pc_split(self, plan_builder):
        """A tiny plane with a deep reduction can only scale along k —
        and the pc grid must *strictly* beat every plane-only grid,
        reduction cost included."""
        shape = GemmShape(16, 24, 200000)
        tiles = TileParams(mc=896, kc=512, nc=1788, mr=8, nr=12)
        free = parallel_gemm_breakdown(
            shape, tiles, 8, machine=CARMEL, plan_builder=plan_builder
        )
        plane_only = [
            g
            for g in candidate_grids(
                8, 16, 24, CARMEL, 8, 12, k=200000, kc=tiles.kc
            )
            if g[2] == 1
        ]
        pinned = pinned_grids.price_grids(
            shape, tiles, 8, plane_only,
            machine=CARMEL, plan_builder=plan_builder,
        )
        assert free.pc_ways > 1
        assert free.reduction_cycles > 0.0
        assert free.total_cycles < pinned.total_cycles

    def test_square_problem_keeps_plane_partition(self, plan_builder):
        """Ample plane parallelism: the reduction split buys nothing and
        its extra C traffic must keep it out of the chosen grid."""
        b = parallel_gemm_breakdown(
            GemmShape(2000, 2000, 2000), TILES, 8,
            machine=CARMEL, plan_builder=plan_builder,
        )
        assert b.pc_ways == 1
        assert b.reduction_cycles == 0.0

    def test_pc_scales_the_no_l3_edge_core(self, plan_builder):
        """The no-shared-L3 machine may split jc and pc, never ic."""
        machine = RVV_EDGE_VLEN128
        b = parallel_gemm_breakdown(
            GemmShape(16, 24, 100000), TILES, 4,
            machine=machine, plan_builder=plan_builder,
        )
        assert b.ic_ways == 1
        assert b.pc_ways > 1


# ---------------------------------------------------------------------------
# dtype plumbing (regression: fp16 priced as fp32)
# ---------------------------------------------------------------------------


class TestScalingCurveDtype:
    def test_dtype_bytes_forwarded(self, plan_builder):
        """A thread sweep must price non-fp32 DRAM traffic; the old
        scaling-curve helper dropped ``dtype_bytes`` on the floor and
        modelled fp32 always."""
        shape = GemmShape(2000, 2000, 16)  # low intensity: DRAM-bound
        for t in range(1, 9):
            wide = parallel_gemm_breakdown(
                shape, TILES, t, machine=CARMEL, plan_builder=plan_builder,
            )
            narrow = parallel_gemm_breakdown(
                shape, TILES, t, machine=CARMEL, plan_builder=plan_builder,
                dtype_bytes=2,
            )
            want = oracle.parallel_gemm_breakdown(
                shape, TILES, t, machine=CARMEL, plan_builder=plan_builder,
                dtype_bytes=2,
            )
            assert narrow.dram_limit_cycles == want.dram_limit_cycles
            # half the bytes: strictly less stream time than fp32
            assert narrow.dram_limit_cycles < wide.dram_limit_cycles


# ---------------------------------------------------------------------------
# NUMA / multi-socket topology
# ---------------------------------------------------------------------------


class TestNumaTopology:
    def test_registry_has_a_multi_socket_machine(self):
        assert MACHINES["numa2s"] is NUMA_SERVER_2S
        assert NUMA_SERVER_2S.sockets == 2
        assert NUMA_SERVER_2S.numa_nodes == 4
        assert NUMA_SERVER_2S.cores_per_socket == 16
        assert NUMA_SERVER_2S.cores_per_numa_node == 8
        assert NUMA_SERVER_2S.nodes_per_socket == 2
        # SNC-2: each node owns half its socket's bandwidth
        assert NUMA_SERVER_2S.numa_node_bandwidth_bytes_per_cycle == 32.0

    def test_every_single_socket_machine_is_unchanged(self):
        for name, machine in MACHINES.items():
            if name == "numa2s":
                continue
            assert machine.sockets == 1 and machine.numa_nodes == 1
            assert machine.inter_socket_penalty == 1.0

    def test_sockets_spanned_fills_in_order(self):
        m = NUMA_SERVER_2S
        assert m.sockets_spanned(1) == 1
        assert m.sockets_spanned(16) == 1
        assert m.sockets_spanned(17) == 2
        assert m.sockets_spanned(32) == 2
        assert m.node_of_core(0) == 0
        assert m.node_of_core(15) == 1
        assert m.node_of_core(16) == 2
        assert m.socket_of_core(15) == 0
        assert m.socket_of_core(16) == 1

    def test_second_socket_raises_the_stream_ceiling(self):
        m = NUMA_SERVER_2S
        one_socket = m.stream_bandwidth(16)
        assert one_socket == 64.0  # capped by socket 0's controllers
        # one spilled thread adds one core's stream engines (12), not
        # the whole second socket's controllers
        assert m.stream_bandwidth(17) == 64.0 + 12.0
        assert m.stream_bandwidth(18) == 64.0 + 2 * 12.0
        # ... until the spilled cores saturate socket 1's controllers
        assert m.stream_bandwidth(22) == 128.0
        assert m.stream_bandwidth(32) == 128.0
        # and a 1-socket machine keeps the pre-NUMA formula
        assert MACHINES["avx512"].stream_bandwidth(16) == 64.0
        assert MACHINES["avx512"].stream_bandwidth(32) == 64.0

    def test_spanning_partition_pays_the_link(self, plan_builder):
        """Crossing the socket boundary replicates the B panel over the
        link: the DRAM bytes grow by penalty x k x n x dtype."""
        shape = GemmShape(2000, 2000, 2000)
        confined = parallel_gemm_breakdown(
            shape, TILES, 16,
            machine=NUMA_SERVER_2S, plan_builder=plan_builder,
        )
        spanning = parallel_gemm_breakdown(
            shape, TILES, 32,
            machine=NUMA_SERVER_2S, plan_builder=plan_builder,
        )
        bw16 = NUMA_SERVER_2S.stream_bandwidth(16)
        bw32 = NUMA_SERVER_2S.stream_bandwidth(32)
        extra = 1.4 * shape.k * shape.n * 4
        assert confined.dram_limit_cycles * bw16 == pytest.approx(
            spanning.dram_limit_cycles * bw32 - extra
        )

    def test_confined_ensemble_matches_the_single_socket_part(
        self, plan_builder
    ):
        """<= 16 threads on the 2-socket server models exactly like the
        1-socket AVX-512 server (same core, same per-socket memory)."""
        shape = GemmShape(2000, 2000, 2000)
        for t in (1, 8, 16):
            two = parallel_gemm_breakdown(
                shape, TILES, t,
                machine=NUMA_SERVER_2S, plan_builder=plan_builder,
            )
            one = parallel_gemm_breakdown(
                shape, TILES, t,
                machine=MACHINES["avx512"], plan_builder=plan_builder,
            )
            assert two.total_cycles == one.total_cycles

    def test_machine_model_validation(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(CARMEL, sockets=0)
        with pytest.raises(ValueError):
            replace(CARMEL, sockets=2)  # numa_nodes=1 < sockets
        with pytest.raises(ValueError):
            replace(NUMA_SERVER_2S, numa_nodes=3)  # uneven over sockets
        with pytest.raises(ValueError):
            replace(NUMA_SERVER_2S, cores=30)  # uneven over nodes
        with pytest.raises(ValueError):
            replace(CARMEL, inter_socket_penalty=0.5)
