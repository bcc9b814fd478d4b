"""Tests for the evaluation harness: the *shape* of the paper's results.

We do not assert absolute GFLOPS (the substrate is a model, not the
authors' Jetson board); we assert the orderings and ratios the paper's
conclusions rest on, figure by figure.
"""

from __future__ import annotations

import parallel_oracle as oracle
import pytest

from repro.eval import harness
from repro.eval.harness import (
    EXO_CANDIDATES,
    all_config_breakdowns,
    baseline_gemm_breakdowns,
    best_exo_breakdown,
    best_exo_breakdowns,
    default_context,
    exo_gemm_breakdowns,
    exo_parallel_breakdown,
    exo_parallel_breakdowns,
    fig13_solo_data,
    fig14_square_data,
    fig15_resnet_layer_data,
    fig16_resnet_time_data,
    fig17_vgg_layer_data,
    fig18_vgg_time_data,
    machine_context,
    thread_counts_up_to,
    threaded_instance_time_data,
    tuned_layer_breakdown,
)
from repro.eval.report import render_series, render_table, winners
from repro.isa.machine import CARMEL, MACHINES
from repro.obs import profile as obs_profile
from repro.obs.profile import GemmProfiler
from repro.workloads.resnet50 import resnet50_instances
from repro.workloads.vgg16 import vgg16_instances

CONFIGS = ["ALG+NEON", "ALG+BLIS", "BLIS", "ALG+EXO"]


@pytest.fixture(scope="module")
def ctx():
    return default_context()


@pytest.fixture(scope="module")
def fig13(ctx):
    return fig13_solo_data(ctx=ctx)


@pytest.fixture(scope="module")
def fig14(ctx):
    return fig14_square_data(sizes=(1000, 2000, 3000), ctx=ctx)


class TestFig13Shape:
    """EXO matches hand-written kernels at 8x12 and wins every edge case."""

    def test_all_shapes_present(self, fig13):
        assert [r["shape"] for r in fig13] == [
            "8x12", "4x4", "4x8", "4x12", "8x4", "8x8",
        ]

    def test_exo_at_least_blis_on_8x12(self, fig13):
        row = fig13[0]
        assert row["EXO"] >= row["BLIS"]
        assert row["EXO"] / row["BLIS"] < 1.05  # "minor differences"

    def test_blis_beats_neon_everywhere(self, fig13):
        for row in fig13:
            assert row["BLIS"] > row["NEON"]

    def test_exo_wins_every_edge_case_clearly(self, fig13):
        for row in fig13[1:]:
            assert row["EXO"] > 1.3 * row["BLIS"], row

    def test_edge_penalty_proportional_to_tile(self, fig13):
        # NEON/BLIS edge GFLOPS scale with the useful fraction of 8x12
        ratio_4x4 = fig13[1]["BLIS"] / fig13[0]["BLIS"]
        assert ratio_4x4 == pytest.approx(16 / 96, rel=0.05)

    def test_all_below_machine_peak(self, fig13):
        for row in fig13:
            for config in ("NEON", "BLIS", "EXO"):
                assert row[config] < CARMEL.peak_gflops()


class TestFig14Shape:
    """Library BLIS (prefetch) wins squarish; ALG+EXO best among ALG+*."""

    def test_blis_library_wins(self, fig14):
        for row in fig14:
            assert row["BLIS"] >= row["ALG+BLIS"]
            assert row["BLIS"] >= row["ALG+NEON"]

    def test_exo_best_among_alg(self, fig14):
        for row in fig14:
            assert row["ALG+EXO"] >= row["ALG+BLIS"] >= row["ALG+NEON"]

    def test_gap_is_small_percent(self, fig14):
        # the four configurations are within ~15% of each other at scale
        for row in fig14:
            vals = [row[c] for c in CONFIGS]
            assert max(vals) / min(vals) < 1.15

    def test_reports_selected_kernel(self, fig14):
        for row in fig14:
            assert "x" in row["exo_kernel"]


class TestDnnShapes:
    def test_fig15_exo_wins_plurality(self, ctx):
        rows = fig15_resnet_layer_data(ctx=ctx)
        assert len(rows) == 20
        wins = winners(rows, CONFIGS)
        exo_wins = wins.count("ALG+EXO")
        assert exo_wins >= 8  # paper: best on 9 of 20 layers

    def test_fig15_exo_dominates_tail_layers(self, ctx):
        """Layers 17-20 (m=49) are edge-case heavy: EXO must win them."""
        rows = fig15_resnet_layer_data(ctx=ctx)
        for row in rows[16:]:
            others = max(row["ALG+NEON"], row["ALG+BLIS"], row["BLIS"])
            assert row["ALG+EXO"] > others

    def test_fig16_cumulative_order(self, ctx):
        rows = fig16_resnet_time_data(ctx=ctx)
        assert len(rows) == 53
        final = rows[-1]
        # paper: ALG+EXO best, then BLIS, then ALG+BLIS, then ALG+NEON
        assert final["ALG+EXO"] < final["BLIS"]
        assert final["BLIS"] < final["ALG+BLIS"]
        assert final["ALG+BLIS"] < final["ALG+NEON"]

    def test_fig16_times_monotone(self, ctx):
        rows = fig16_resnet_time_data(ctx=ctx)
        for config in CONFIGS:
            series = [r[config] for r in rows]
            assert series == sorted(series)

    def test_fig17_vgg_layers(self, ctx):
        rows = fig17_vgg_layer_data(ctx=ctx)
        assert len(rows) == 9
        wins = winners(rows, CONFIGS)
        assert "ALG+EXO" in wins  # EXO best on some layers
        assert wins.count("ALG+NEON") == 0

    def test_fig18_exo_and_blis_close(self, ctx):
        rows = fig18_vgg_time_data(ctx=ctx)
        assert len(rows) == 13
        final = rows[-1]
        ratio = final["ALG+EXO"] / final["BLIS"]
        assert 0.85 < ratio < 1.1  # "the performance ... are close"


class TestSelection:
    def test_best_exo_picks_a_candidate(self, ctx):
        shape, breakdown = best_exo_breakdown(1000, 1000, 1000, ctx=ctx)
        assert shape in ((8, 12), (8, 8), (8, 4))
        assert breakdown.gflops > 0

    def test_all_config_keys(self, ctx):
        configs = all_config_breakdowns(196, 256, 1024, ctx=ctx)
        assert set(configs) == set(CONFIGS)


#: ragged planes, a main tile that does not fit, k below kc and with a
#: ragged kc remainder
SERIAL_SHAPES = (
    (1000, 1000, 1000), (49, 1024, 576), (4, 6, 70), (2000, 2000, 2000),
    (196, 256, 1024), (7, 3, 513),
)
SERIAL_FIELDS = (
    "compute_cycles", "pack_cycles", "c_stall_cycles", "dram_limit_cycles",
    "total_cycles", "gflops", "seconds",
)


class TestBatchedSerialPricing:
    """Figures 14-18 price each configuration in one batched call, and
    every breakdown is the scalar serial oracle's, field for field."""

    def test_baselines_match_the_oracle(self, ctx):
        for trace, prefetch in (
            (ctx.neon_trace(), False),
            (ctx.blis_trace(), False),
            (ctx.blis_trace(), True),
        ):
            got = baseline_gemm_breakdowns(
                SERIAL_SHAPES, trace, prefetch_c=prefetch, ctx=ctx
            )
            for (m, n, k), b in zip(SERIAL_SHAPES, got):
                want = oracle.baseline_gemm_breakdown(
                    m, n, k, trace, prefetch_c=prefetch, ctx=ctx
                )
                for field in SERIAL_FIELDS:
                    assert getattr(b, field) == getattr(want, field), field

    @pytest.mark.parametrize("machine_name", ["carmel", "rvv128"])
    def test_exo_cells_match_the_oracle(self, machine_name):
        ctx = machine_context(MACHINES[machine_name])
        cells = [
            (m, n, k, main)
            for m, n, k in SERIAL_SHAPES
            for main in EXO_CANDIDATES
        ]
        for cell, b in zip(cells, exo_gemm_breakdowns(cells, ctx=ctx)):
            m, n, k, main = cell
            want = oracle.exo_gemm_breakdown(m, n, k, main=main, ctx=ctx)
            for field in SERIAL_FIELDS:
                assert getattr(b, field) == getattr(want, field), cell

    def test_best_exo_is_the_oracle_first_minimum(self, ctx):
        for (m, n, k), (main, b) in zip(
            SERIAL_SHAPES, best_exo_breakdowns(SERIAL_SHAPES, ctx=ctx)
        ):
            fits = [c for c in EXO_CANDIDATES if c[0] <= m and c[1] <= n]
            want = min(
                (
                    (c, oracle.exo_gemm_breakdown(m, n, k, main=c, ctx=ctx))
                    for c in fits or [(8, 4)]
                ),
                key=lambda option: option[1].total_cycles,
            )
            assert main == want[0]
            assert b.total_cycles == want[1].total_cycles

    def test_figures_make_no_single_gemm_calls(self, ctx, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a figure priced one GEMM at a time")

        monkeypatch.setattr(harness, "gemm_time_model", refuse)
        assert fig14_square_data(sizes=(256, 1000), ctx=ctx)
        for figure in (
            fig15_resnet_layer_data,
            fig16_resnet_time_data,
            fig17_vgg_layer_data,
            fig18_vgg_time_data,
        ):
            assert figure(ctx=ctx)


class TestReport:
    def test_render_table(self, fig13):
        text = render_table(fig13, title="Fig 13")
        assert "Fig 13" in text and "8x12" in text

    def test_render_series(self, fig14):
        text = render_series(fig14, x="size", series=CONFIGS)
        assert "ALG+EXO" in text

    def test_render_empty(self):
        assert "(no data)" in render_table([])


# ---------------------------------------------------------------------------
# Threaded ResNet-50 / VGG16 sweeps: batched pricing vs one call per cell
# ---------------------------------------------------------------------------

NETWORKS = {"resnet50": resnet50_instances, "vgg16": vgg16_instances}


def per_cell_rows(instances, ctx, threads, use_tuned=False):
    """The sweep as one ``exo_parallel_breakdown`` per (layer, t) cell —
    the oracle the batched :func:`threaded_instance_time_data` must
    match bit for bit."""
    totals = {t: 0.0 for t in threads}
    cache = {}
    rows = []
    for number, layer in instances:
        for t in threads:
            key = (layer.layer_id, t)
            if key not in cache:
                main = None
                if use_tuned:
                    main, _ = tuned_layer_breakdown(
                        ctx, layer.m, layer.n, layer.k
                    )
                cache[key] = exo_parallel_breakdown(
                    layer.m, layer.n, layer.k, t, ctx=ctx, main=main
                ).seconds
            totals[t] += cache[key]
        rows.append(
            {
                "layer_number": number,
                **{f"t{t}": totals[t] for t in threads},
            }
        )
    return rows


class TestThreadedSweepParity:
    @pytest.mark.parametrize("network", sorted(NETWORKS))
    @pytest.mark.parametrize(
        "machine_name, limit",
        [("carmel", 8), ("avx512", 16), ("rvv128", 4), ("numa2s", 32)],
    )
    def test_rows_equal_per_cell_pricing(self, machine_name, limit, network):
        ctx = machine_context(MACHINES[machine_name])
        counts = thread_counts_up_to(limit)
        instances = NETWORKS[network]()
        got = threaded_instance_time_data(instances, ctx, counts)
        assert got == per_cell_rows(instances, ctx, counts)

    def test_tuned_rows_equal_per_cell_pricing(self, tmp_path):
        from repro import tune

        ctx = machine_context(CARMEL)
        counts = thread_counts_up_to(8)
        instances = vgg16_instances()
        with tune.using(tune.TuneCache(tmp_path / "tunecache")):
            got = threaded_instance_time_data(
                instances, ctx, counts, use_tuned=True
            )
            want = per_cell_rows(instances, ctx, counts, use_tuned=True)
        assert got == want

    def test_tuned_tile_ranked_once_per_layer(self, monkeypatch):
        """The tuned winner depends on the layer's shape alone, so the
        sweep ranks it once per distinct layer, not once per (layer,
        thread count) cell — with the rows unchanged."""
        from repro.ukernel import registry

        ctx = machine_context(MACHINES["numa2s"])
        counts = thread_counts_up_to(32)
        instances = resnet50_instances()
        want = per_cell_rows(instances, ctx, counts, use_tuned=True)
        calls = []
        real = registry.select_kernel_for

        def counting(m, n, k, **kwargs):
            calls.append((m, n, k))
            return real(m, n, k, **kwargs)

        monkeypatch.setattr(registry, "select_kernel_for", counting)
        got = threaded_instance_time_data(
            instances, ctx, counts, use_tuned=True
        )
        layers = {layer.layer_id for _, layer in instances}
        assert len(counts) > 1
        assert len(calls) == len(layers)
        assert got == want

    def test_one_parallel_record_per_cell(self):
        """Under a profiler each cell keeps its ``parallel`` record, with
        the fields the per-cell path records; the grid batches add
        ``batch.grid`` records."""
        ctx = machine_context(MACHINES["numa2s"])
        cells = [
            (ctx, 196, 256, 1024, 32, None),
            (ctx, 3136, 64, 576, 8, None),
            (ctx, 49, 2048, 512, 1, ctx.main_tile),
        ]
        batched, single = GemmProfiler(), GemmProfiler()
        with obs_profile.using(batched):
            got = exo_parallel_breakdowns(cells)
        with obs_profile.using(single):
            want = [
                exo_parallel_breakdown(m, n, k, t, ctx=c, main=main)
                for c, m, n, k, t, main in cells
            ]
        assert got == want
        fields = ("m", "n", "k", "threads", "partition", "pc_ways",
                  "total_cycles")
        parallel = [r for r in batched.records if r["kind"] == "parallel"]
        assert [{f: r[f] for f in fields} for r in parallel] == [
            {f: r[f] for f in fields} for r in single.records
        ]
        kinds = {r["kind"] for r in batched.records}
        assert kinds == {"parallel", "batch.grid"}

    def test_traced_cli_keeps_one_parallel_event_per_gemm(
        self, tmp_path, monkeypatch
    ):
        """A traced ``eval --isa numa2s --threads 32`` still emits one
        ``parallel`` gemm event per (layer, thread count) cell plus one
        per scaling point, as one breakdown call per cell did."""
        import json

        from repro.eval.__main__ import main

        monkeypatch.setenv("REPRO_TUNECACHE", str(tmp_path / "tunecache"))
        trace = tmp_path / "eval.trace.json"
        argv = [str(tmp_path / "out"), "--isa", "numa2s", "--threads", "32",
                "-q", "--trace", str(trace)]
        assert main(argv) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        kinds = [e["args"]["kind"] for e in events if e.get("cat") == "gemm"]
        layers = sum(
            len({layer.layer_id for _, layer in instances()})
            for instances in NETWORKS.values()
        )
        assert kinds.count("parallel") == len(thread_counts_up_to(32)) * (
            1 + layers
        )
        assert kinds.count("batch.grid") > 0

    def test_cells_on_several_machines(self):
        """Two machines of one ISA share tiles and planes, not costs."""
        cells = [
            (machine_context(MACHINES[name]), 500, 300, 700, t, None)
            for name in ("carmel", "generic-arm")
            for t in (1, 4)
        ]
        assert exo_parallel_breakdowns(cells) == [
            exo_parallel_breakdown(m, n, k, t, ctx=c, main=main)
            for c, m, n, k, t, main in cells
        ]
